// One DRAM bank: the row array, the open-row state machine, disturbance
// dose accumulation, lazy bitflip materialization, refresh, and the defense
// hook. All row indices at this layer are *physical*.
//
// Memory model: only rows that have been touched (written, activated, or
// disturbed) carry state; everything else is implicit (power-on contents,
// fully charged). A touched row costs ~1 KiB plus its dose epochs, and a
// touched bank adds a 32 KiB dense row index (2 bytes per physical row);
// an untouched bank allocates nothing. Checkpoints add nothing to a bank
// that does not change after a push, and one pre-image per row it changes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "disturb/dose.h"
#include "disturb/fault_model.h"
#include "disturb/threshold_cache.h"
#include "dram/defense.h"
#include "dram/geometry.h"
#include "dram/mode_registers.h"
#include "dram/row_data.h"
#include "dram/timing.h"

namespace hbmrd::dram {

/// Ambient conditions shared by all banks of a stack; owned by the Stack.
struct Environment {
  double temperature_c = 60.0;
};

class Bank;

/// The device checkpoint ladder shared by all banks of a stack; owned by
/// the Stack. A push records the mode registers and starts a new
/// generation without touching any bank; a bank joins the top rung when
/// it first changes afterwards (see Bank), so a restore rewinds only the
/// banks that changed since the target rung.
class CheckpointLadder {
 public:
  CheckpointLadder() = default;
  CheckpointLadder(const CheckpointLadder&) = delete;
  CheckpointLadder& operator=(const CheckpointLadder&) = delete;

  /// Opens a rung and returns its index; every bank must be precharged.
  std::size_t push(const ModeRegisters& modes);

  /// Rewinds every bank that joined rung `index` or a younger one and
  /// discards the younger rungs; `index` stays restorable. Returns the
  /// mode registers recorded at its push.
  const ModeRegisters& restore(std::size_t index);

  /// Forgets all rungs without changing any bank.
  void discard();

  /// Unique per push and restore, never reused; 0 while the ladder is
  /// empty. A bank whose join tag differs has not joined the top rung.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  friend class Bank;

  struct Join {
    std::size_t rung;
    Bank* bank;
  };

  std::vector<ModeRegisters> modes_;  // one per rung, oldest first
  std::vector<Join> joins_;           // in join order: rungs never decrease
  std::uint64_t generation_ = 0;
  std::uint64_t generations_issued_ = 0;
};

/// Device-side event counters (diagnostics; benches report them).
struct BankCounters {
  std::uint64_t activations = 0;
  std::uint64_t refresh_commands = 0;
  std::uint64_t defense_victim_refreshes = 0;
  std::uint64_t bitflips_materialized = 0;
  /// bulk_hammer invocations (one analytic hammer window each).
  std::uint64_t bulk_hammer_windows = 0;
  /// Steps bulk_hammer folded into an already-hammered row of the same
  /// window (refresh-window bursts repeat aggressors and dummies): the
  /// work the per-distinct-row dedup saved.
  std::uint64_t hammer_dedup_hits = 0;
  /// DoseProb memo entries overwritten after the per-sense ring filled up
  /// (each eviction re-pays three normal_cdf calls on the next lookup of
  /// the evicted dose). Telemetry: depends on which scan ran.
  std::uint64_t dose_memo_evictions = 0;
  /// 64-bit words processed by the word-parallel stages of senses (the
  /// bitplane scan's per-word class split, and the plane/uniform fills of
  /// a min-retention scan for a row whose summary is not built yet).
  std::uint64_t sense_word_ops = 0;
  /// Cells examined individually by a sense: candidate-prefix entries and
  /// per-bit work inside bitplane scans. The ratio to sense_word_ops makes
  /// the candidate-scan-vs-bitplane crossover observable per campaign.
  std::uint64_t sense_cells_visited = 0;

  BankCounters& operator+=(const BankCounters& other);
  friend bool operator==(const BankCounters&, const BankCounters&) = default;
};

/// Every BankCounters field, in declaration order (summing, encoding).
inline constexpr std::array<std::uint64_t BankCounters::*, 9>
    kBankCounterFields = {&BankCounters::activations,
                          &BankCounters::refresh_commands,
                          &BankCounters::defense_victim_refreshes,
                          &BankCounters::bitflips_materialized,
                          &BankCounters::bulk_hammer_windows,
                          &BankCounters::hammer_dedup_hits,
                          &BankCounters::dose_memo_evictions,
                          &BankCounters::sense_word_ops,
                          &BankCounters::sense_cells_visited};

inline BankCounters& BankCounters::operator+=(const BankCounters& other) {
  for (const auto field : kBankCounterFields) this->*field += other.*field;
  return *this;
}

/// One activation of the hammer fast path: a row kept open for `on_cycles`.
struct HammerStep {
  /// Physical at the Bank layer; Stack::bulk_hammer accepts logical rows
  /// and translates them.
  int row = 0;
  Cycle on_cycles = 0;
};

class Bank {
 public:
  /// Senses read every per-cell parameter from the row's summary in
  /// `threshold_cache`, which memoizes them per row. The cache outlives
  /// the bank (a Stack may share it across power cycles) and must only be
  /// used from the bank's thread. Senses take a candidate-prefix scan when
  /// the summary bounds the work to a few cells and the word-parallel
  /// bitplane scan otherwise; both match the per-cell reference in
  /// tests/device_bitplane_test.cpp bit for bit.
  ///
  /// Checkpoints are copy-on-write: the first command that changes the
  /// bank after a push on `ladder` (activate, precharge, write_column,
  /// refresh, refresh_row, bulk_hammer) joins the top rung, capturing the
  /// refresh pointer, timing checker and a clone of the defense, and a
  /// row's pre-image is copied the first time it is touched afterwards:
  /// O(rows touched since the push), never O(rows per bank). Like `env`,
  /// `ladder` must outlive the bank, which must not move while on it.
  Bank(BankAddress address, const disturb::FaultModel* fault_model,
       const Environment* env, CheckpointLadder* ladder, TimingParams timing,
       disturb::BankThresholdCache& threshold_cache);

  Bank(const Bank&) = delete;
  Bank& operator=(const Bank&) = delete;
  Bank(Bank&&) noexcept;
  Bank& operator=(Bank&&) noexcept;
  ~Bank();

  [[nodiscard]] const BankAddress& address() const { return address_; }

  // -- Commands (timing-checked) -------------------------------------------

  void activate(int physical_row, Cycle now);
  void precharge(Cycle now);

  /// Column access on the open row.
  void read_column(int column, std::span<std::uint64_t> out, Cycle now);
  void write_column(int column, std::span<const std::uint64_t> data,
                    Cycle now);

  /// Per-bank portion of a REF command: refreshes the next
  /// timing.rows_per_ref() rows (refresh pointer) plus any victim rows the
  /// attached defense requests.
  void refresh(Cycle now);

  /// Refresh one specific physical row (used for documented-TRR-Mode
  /// refreshes and defense victim refreshes).
  void refresh_row(int physical_row, Cycle now);

  // -- Hammer fast path ------------------------------------------------------

  /// Semantically equivalent to repeating the given ACT(+on-time)+PRE
  /// sequence `iterations` times starting at `start`. The bank must be
  /// precharged; each step's on-time must be at least tRAS. Victim dose is
  /// exact; the (negligible) residual self-dose of rows activated inside
  /// the loop is dropped (they are restored by their own activations).
  /// Returns the cycle at which the burst completes (bank precharged).
  Cycle bulk_hammer(std::span<const HammerStep> steps,
                    std::uint64_t iterations, Cycle start);

  // -- Defense ---------------------------------------------------------------

  void set_defense(std::unique_ptr<ReadDisturbDefense> defense) {
    defense_ = std::move(defense);
  }
  [[nodiscard]] ReadDisturbDefense* defense() { return defense_.get(); }

  // -- Introspection / simulator-only helpers -------------------------------

  [[nodiscard]] bool is_open() const { return open_row_.has_value(); }
  [[nodiscard]] int open_row() const;
  [[nodiscard]] int refresh_pointer() const { return refresh_pointer_; }

  /// Number of rows currently carrying state.
  [[nodiscard]] std::size_t touched_rows() const {
    return row_nodes_.size() - free_slots_.size();
  }

  /// Cumulative device-side event counters.
  [[nodiscard]] const BankCounters& counters() const { return counters_; }

  /// Dose ledger of a row, if it has state (tests/diagnostics only).
  [[nodiscard]] const disturb::DoseLedger* ledger(int physical_row) const;

  /// Stored (not yet sensed) contents and last restore cycle of a row, if
  /// it has state (tests/diagnostics only). With ledger() this is all the
  /// next sense of the row reads besides the environment.
  [[nodiscard]] const RowBits* stored_bits(int physical_row) const;
  [[nodiscard]] std::optional<Cycle> last_restore(int physical_row) const;

 private:
  struct RowState {
    RowBits bits;
    Cycle last_restore = 0;
    std::uint64_t version = 0;
    disturb::DoseLedger ledger;
    /// Cached minimum cell retention of this row at the reference
    /// temperature (seconds); < 0 = not yet computed. Senses skip the
    /// retention scan entirely while the unrefreshed time stays below it.
    double min_retention_ref_s = -1.0;
    /// Ladder generation whose rung already holds this row's pre-image
    /// (0 = none); see cow_touch().
    std::uint64_t cow_epoch = 0;
  };

  /// The bank's share of one rung: lazily collected row pre-images
  /// (nullopt = the row had no state at the push) plus the scalars
  /// captured when the bank joined.
  struct CheckpointLayer {
    std::unordered_map<int, std::optional<RowState>> pre;
    int refresh_pointer = 0;
    BankTimingChecker checker;
    std::unique_ptr<ReadDisturbDefense> defense;  // clone; null if none
  };

  friend class CheckpointLadder;

  /// Joins the ladder's top rung unless already joined; the first thing
  /// every state-changing command does.
  void join_ladder() {
    if (joined_ != ladder_->generation()) [[unlikely]] join_top_rung();
  }
  void join_top_rung();

  /// Rewinds the bank to its newest layer and drops that layer.
  void restore_checkpoint();

  RowState& state(int physical_row, Cycle now);
  [[nodiscard]] RowState* find_state(int physical_row);

  /// The row's state without a copy-on-write touch; null when the row has
  /// none (including rows outside the bank).
  [[nodiscard]] RowState* peek_state(int physical_row) const;

  /// Gives a row without state a default-initialized node (recycled from
  /// the free list when one is there) and indexes it.
  RowState& add_row(int physical_row);

  /// Unindexes a row that has state; its node goes to the free list.
  void erase_row(int physical_row);

  /// Records `rs`'s pre-image into the bank's layer of the top rung if it
  /// has not been recorded since the bank joined it. Called from every
  /// mutating state lookup, which only runs after join_ladder().
  void cow_touch(int physical_row, RowState& rs) {
    if (joined_ == 0 || rs.cow_epoch == joined_) return;
    layers_.back().pre.emplace(physical_row, rs);
    rs.cow_epoch = joined_;
  }

  /// Per-bank scratch arena: every per-sense/per-window buffer (candidate
  /// lists, epoch dose terms, dose-class groups, the DoseProb ring, the
  /// lazy min-retention scan's plane and uniforms) lives here, lazily
  /// allocated on first use so untouched banks stay cheap and the worker
  /// hot path is allocation-free in steady state.
  struct SenseArena;

  [[nodiscard]] SenseArena& arena();

  /// Sense: applies retention decay and disturbance flips to the stored
  /// bits, then clears the dose ledger and resets the retention clock.
  /// A driver over the stages below.
  void sense_and_restore(int physical_row, RowState& row, Cycle now);

  /// What one sense checks (gate outcomes, dose bound, row context).
  struct SensePlan;

  /// Gates: the retention floor, the chip-wide dose floor and the row's
  /// 6-sigma dose floor. Fills `plan`; false when no cell can flip.
  bool sense_gates(int physical_row, RowState& row, Cycle now,
                   SensePlan& plan);

  /// Collects the sorted-by-uniform population prefixes the plan's bounds
  /// cannot rule out; false when they exceed the candidate-scan limit.
  bool collect_candidates(const SensePlan& plan,
                          const disturb::RowThresholdSummary& summary);

  /// Decides each collected candidate cell by cell. The two scans flip
  /// the same cells; each returns whether any cell flipped.
  bool candidate_scan(const SensePlan& plan,
                      const disturb::RowThresholdSummary& summary,
                      const RowBits& snapshot, RowState& row);

  /// Decides the whole row 64 cells per word, splitting each word into
  /// dose classes over the ledger's epochs.
  bool bitplane_scan(const SensePlan& plan,
                     const disturb::RowThresholdSummary& summary,
                     const RowBits& snapshot, RowState& row);

  /// Minimum cell retention of a row at the reference temperature, for
  /// rows whose summary is not built yet (hashed, not cached).
  [[nodiscard]] double min_retention_ref_seconds(int physical_row);

  /// Applies the disturbance of one aggressor activation burst to the
  /// aggressor's in-subarray neighbours.
  void disturb_neighbors(int aggressor_row, const RowState& aggressor,
                         double dose, Cycle now);

  void check_row(int physical_row) const;

  BankAddress address_;
  const disturb::FaultModel* fault_;
  const Environment* env_;
  CheckpointLadder* ladder_;
  TimingParams timing_;
  BankTimingChecker checker_;

  std::optional<int> open_row_;
  int refresh_pointer_ = 0;
  /// Dense row-state index: slot_of_row_[row] is the row's node in
  /// row_nodes_, or kNoSlot. Allocated on the bank's first touch. Nodes are
  /// separate heap objects, so a RowState* stays valid while other rows
  /// gain state; nodes of rows a restore erased wait in free_slots_.
  static constexpr std::uint16_t kNoSlot = 0xFFFF;
  static_assert(kRowsPerBank < kNoSlot);
  std::unique_ptr<std::uint16_t[]> slot_of_row_;
  std::vector<std::unique_ptr<RowState>> row_nodes_;
  std::vector<std::uint16_t> free_slots_;
  /// The bank's layers of the rungs it joined (oldest first), and the
  /// ladder generation it last joined (0 = none; a stale tag never
  /// matches again, so it never suppresses a needed pre-image copy).
  std::vector<CheckpointLayer> layers_;
  std::uint64_t joined_ = 0;
  std::unique_ptr<ReadDisturbDefense> defense_;
  BankCounters counters_;
  disturb::BankThresholdCache* threshold_cache_;  // never null
  std::unique_ptr<SenseArena> arena_;
};

}  // namespace hbmrd::dram
