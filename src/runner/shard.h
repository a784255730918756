// Shard-side plumbing for process-isolated campaigns.
//
// A sharded campaign splits the canonical trial list into contiguous
// index ranges and hands each range to a worker *process* (see
// runner/supervisor.h). Everything a worker needs to cooperate with the
// supervisor lives here:
//
//   * ShardWorkerConfig — the runner-side switch: restrict the sequencer
//     to [lo, hi) while keeping trial indices global, so every fault-plan
//     draw and journal byte is the one the unsharded run would produce;
//   * HeartbeatEmitter — the pipe protocol (hello / per-commit progress /
//     done) the supervisor's hang watchdog listens to. The encode buffer
//     is a fixed pre-reserved array: supervision adds no per-trial
//     allocations to the commit hot path;
//   * shard_exit — the worker process exit codes the supervisor decodes;
//   * ShardSpec / ShardSet — the on-disk shard index (`<results>.shards`,
//     CRC-trailed lines) that records the partition and each shard's
//     status, so a killed supervisor can itself be resumed;
//   * graceful stop — a SIGTERM/SIGINT handler that asks the sequencer to
//     checkpoint-flush and exit at the next commit boundary instead of
//     dying with a torn tail.
//
// docs/RESILIENCE.md ("Process supervision and shard handoff") states the
// full protocol and the byte-identity contract of the merge step.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dram/bank.h"

namespace hbmrd::runner {

/// Exit codes a shard worker process reports to the supervisor. 0/3/4 all
/// leave the shard store consistent and resumable; anything else (or a
/// signal death) is a crash and triggers fsck + restart.
namespace shard_exit {
inline constexpr int kComplete = 0;  // every trial in [lo, hi) committed
inline constexpr int kStopped = 3;   // graceful stop honored; resumable
inline constexpr int kAborted = 4;   // campaign aborted (fatal fault); resumable
inline constexpr int kError = 5;     // configuration / storage error
}  // namespace shard_exit

/// Runner-side shard mode (RunnerConfig::shard). Trial indices stay
/// global: the shard only restricts which indices the sequencer walks, so
/// fault-plan keys, journal bytes and CSV rows are exactly the unsharded
/// campaign's.
struct ShardWorkerConfig {
  bool enabled = false;
  /// Half-open global trial-index range this worker owns.
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// Write end of the supervisor's heartbeat pipe; -1 = no supervisor.
  int heartbeat_fd = -1;
  /// Supervisor restart count for this shard (0 = first spawn). Keys only
  /// the injected worker-fault gate (fault::WorkerFaultConfig), mirroring
  /// how the campaign incarnation keys fatal-fault draws.
  std::uint64_t incarnation = 0;
};

/// Run-local counts and costs of one trial committed by a worker, carried
/// on its progress heartbeat so the supervisor's report sums what the
/// unsharded run's report sums (thermal excursions, waits, simulated time
/// and device counters are never journaled, so the merged artifacts cannot
/// supply them).
struct TrialTally {
  std::uint64_t retries = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t thermal_excursions = 0;
  std::uint64_t guard_blocks = 0;
  double guard_wait_s = 0.0;
  double backoff_wait_s = 0.0;
  double trial_s = 0.0;  // simulated rig seconds
  dram::BankCounters device;

  friend bool operator==(const TrialTally&, const TrialTally&) = default;
};

/// Allocation-free heartbeat protocol, worker side. One text line per
/// message on the supervisor pipe:
///   "s\n"          hello — the worker entered its campaign
///   "t <index>\n"  progress — global trial <index> was found committed
///                  (resumed from the shard checkpoint)
///   "t <index> <tally...>\n"
///                  progress — global trial <index> was committed by this
///                  incarnation, with its TrialTally: the fields in
///                  declaration order (device counters in
///                  dram::kBankCounterFields order), counts in decimal,
///                  seconds as the hex digits of the double's bit pattern,
///                  so the supervisor sums exactly what the worker saw
///   "d\n"          done — every trial in the shard range is committed
/// Writes are EINTR-safe; a dead supervisor (EPIPE) mutes the emitter
/// instead of killing the worker (SIGPIPE must be ignored; the supervisor
/// child path does this).
class HeartbeatEmitter {
 public:
  explicit HeartbeatEmitter(int fd) : fd_(fd) {}

  [[nodiscard]] bool enabled() const { return fd_ >= 0; }

  void hello();
  void progress(std::uint64_t trial_index);
  void progress(std::uint64_t trial_index, const TrialTally& tally);
  void done();

 private:
  void send(const char* bytes, std::size_t len);

  int fd_ = -1;
  /// Pre-reserved encode buffer: "t" plus 17 fields of at most 20 digits.
  char buf_[384];
};

/// A decoded "t" heartbeat line.
struct ProgressBeat {
  std::uint64_t trial_index = 0;
  /// Absent on the re-beat of a resumed trial.
  std::optional<TrialTally> tally;
};

/// nullopt unless `line` (without its newline) is a well-formed "t" line.
[[nodiscard]] std::optional<ProgressBeat> parse_progress(
    std::string_view line);

/// Installs the graceful-stop SIGTERM/SIGINT handler: the first signal
/// sets a flag the campaign sequencer polls at each commit boundary (the
/// run then checkpoint-flushes and reports abort_reason "signal"); a
/// second signal hard-exits. Idempotent.
void install_graceful_stop();
/// Clears the flag (a forked worker must not inherit a pending stop).
void reset_graceful_stop();
[[nodiscard]] bool graceful_stop_requested();

/// One shard of the campaign partition, as recorded in the shard index.
struct ShardSpec {
  enum class Status {
    kPending,      // not yet complete (includes running / awaiting restart)
    kDone,         // every trial in [lo, hi) committed and verified
    kQuarantined,  // crashed repeatedly without progress; needs an operator
  };

  std::uint64_t id = 0;  // artifact suffix; stable across splits/restarts
  std::uint64_t lo = 0;  // half-open global trial range
  std::uint64_t hi = 0;
  Status status = Status::kPending;

  [[nodiscard]] std::uint64_t size() const { return hi - lo; }
};

[[nodiscard]] const char* to_string(ShardSpec::Status status);

/// The on-disk shard index (`<results>.shards`): the partition the
/// supervisor committed to, one CRC-trailed line per shard. Rewritten
/// atomically on every status change, so a killed supervisor resumes the
/// exact partition (work stealing may have reshaped it) instead of
/// re-deriving one that would orphan shard stores.
struct ShardSet {
  std::uint64_t trial_count = 0;
  std::vector<ShardSpec> shards;

  [[nodiscard]] std::string serialize() const;
  /// nullopt on any syntax or CRC failure — a corrupt index is never
  /// trusted (the supervisor repartitions; merge refuses).
  [[nodiscard]] static std::optional<ShardSet> parse(std::string_view text);
};

/// `<results>.shards` next to the canonical checkpoint.
[[nodiscard]] std::string shard_index_path(const std::string& results_path);
/// Per-shard artifact path: `<base>.shard<id>` (applies to both the CSV
/// and the journal base paths).
[[nodiscard]] std::string shard_artifact_path(const std::string& base,
                                              std::uint64_t shard_id);

}  // namespace hbmrd::runner
