// Hook interface for in-DRAM read-disturbance defenses (e.g. the
// undocumented TRR mechanism of Sec. 7). One instance per bank; the device
// model notifies it of activations and asks it, on every REF, which victim
// rows to preventively refresh. Implemented in src/trr/.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/timing.h"

namespace hbmrd::dram {

class ReadDisturbDefense {
 public:
  virtual ~ReadDisturbDefense() = default;

  /// Faithful deep copy of the tracker state. A bank joining a device
  /// checkpoint rung (CheckpointLadder, dram/bank.h) keeps one, and a
  /// restore moves it back into the bank.
  [[nodiscard]] virtual std::unique_ptr<ReadDisturbDefense> clone() const = 0;

  /// Called on every ACT to this bank (physical row index).
  virtual void on_activate(int physical_row, Cycle now) = 0;

  /// Called by the simulator's hammer fast path: semantically equivalent to
  /// `count` consecutive on_activate calls for the same row.
  virtual void on_activate_bulk(int physical_row, std::uint64_t count,
                                Cycle now) = 0;

  /// Called on every REF to this bank; returns the *physical* victim rows
  /// the defense preventively refreshes with this REF (possibly empty).
  virtual std::vector<int> on_refresh(Cycle now) = 0;
};

}  // namespace hbmrd::dram
