// The benchmark harness: options, the Workload interface, and the helpers
// every workload shares (work directory, digests, latency percentiles).
//
// A workload is measured in rounds. A round is a fixed unit of work built
// from the seed at set-up time (one campaign per chip, one arena campaign,
// or one pass of the client sessions over a fresh server), so every round
// of a run must produce the same output digest and the same deterministic
// counters. The harness repeats rounds until the requested seconds have
// elapsed and checks that they agree.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"
#include "bender/platform.h"
#include "obs/metrics.h"
#include "runner/runner.h"
#include "study/address_map.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: a few operations per round, one set-up.
  bool tiny = false;
  /// Expected round digest (hex); empty = none recorded for this seed.
  std::string expect_digest;
  /// Scratch directory for campaign artifacts, the index and the socket:
  /// .bench_build/work/<pid>, relative to the working directory so that the
  /// socket path stays short.
  std::string work_dir;
};

/// Host seconds of each set-up step (zero when a workload has no such step).
struct SetupTimes {
  double platform_s = 0.0;
  double map_s = 0.0;
  double scenario_s = 0.0;
  double index_export_s = 0.0;
  double index_load_s = 0.0;
  double total_s = 0.0;
};

/// FNV-1a offset basis: the digest of nothing.
inline constexpr std::uint64_t kEmptyDigest = 0xcbf29ce484222325ull;

struct RoundResult {
  std::uint64_t attempted = 0;
  /// Quarantined or aborted trials, error lines, dropped connections and
  /// failed non-degeneracy checks. Digest mismatches are added by the
  /// harness.
  std::uint64_t failed = 0;
  std::vector<double> latencies_s;
  std::uint64_t digest = kEmptyDigest;
  /// MetricsRegistry::deterministic_fingerprint() of the round.
  std::string fingerprint;
  /// Per-layer counts of the round, by metric name.
  std::map<std::string, double> counts;
  /// Every failed check, for the log.
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of one operation ("trial", "match", "batch").
  [[nodiscard]] virtual const char* op_name() const = 0;

  /// The percentile op_tail_ms reports, fixed per workload so that it sits
  /// on a steady class of operations and cannot switch between runs. An
  /// untraced run measures past --seconds until at least ten samples lie
  /// beyond it.
  [[nodiscard]] virtual double tail_percentile() const = 0;

  /// Builds the inputs and the program state the rounds run against.
  virtual SetupTimes setup() = 0;

  /// Untimed work before each round (serve_zipf's fresh engine).
  virtual void prepare_round() {}

  /// Runs one round. `spans` null = untraced: no decorator, no timing
  /// store, no trace recorder.
  virtual RoundResult round(SpanSink* spans) = 0;

  /// After the traced phase: runs one round's work through a second path
  /// whose answers must equal the rounds' (serve_zipf sends a round through
  /// the socket server). The harness checks the result like a round.
  virtual std::optional<RoundResult> cross_check(SpanSink& spans) {
    (void)spans;
    return std::nullopt;
  }

  /// Per-layer metrics of a traced phase: `spans` holds the phase's span
  /// totals over `rounds` rounds, `last` its last round. Counts are per
  /// round and times are seconds per round.
  virtual void per_layer(const RoundResult& last, const SpanSink& spans,
                         int rounds, std::map<std::string, double>& out) = 0;
};

std::unique_ptr<Workload> make_characterize(const Options& options);
std::unique_ptr<Workload> make_arena_mix(const Options& options);
std::unique_ptr<Workload> make_serve_zipf(const Options& options);

// -- Shared helpers ----------------------------------------------------------

/// 64-bit FNV-1a, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = kEmptyDigest);

[[nodiscard]] std::string hex64(std::uint64_t value);

/// Copies the counters the per-layer list names out of a round's registry
/// (missing ones read 0) and returns its deterministic fingerprint.
std::string collect_counts(const hbmrd::obs::MetricsRegistry& metrics,
                           std::map<std::string, double>& counts);

/// One campaign of a round, as the campaign workloads run it.
struct CampaignSpec {
  std::string name;  // artifacts: <work_dir>/<name>.csv and .jsonl
  hbmrd::bender::HbmChip* chip = nullptr;
  std::vector<std::string> columns;
  int jobs = 1;
  std::vector<hbmrd::runner::CampaignRunner::Trial> trials;
  /// Span the trial bodies' time goes to when traced.
  const char* span = "";
};

/// Runs `spec` with `metrics` attached, timing every trial body into
/// `result.latencies_s`. Traced (`spans` non-null), each body gets a
/// TimedSession, the runner gets a TimingStore and a TraceRecorder, and the
/// commit span lands in `spans` as runner.commit. Counts the trials as
/// attempted and those not committed as failed, and chains the CSV and
/// journal bytes into `result.digest`.
hbmrd::runner::CampaignReport run_campaign(
    const Options& options, const CampaignSpec& spec,
    hbmrd::obs::MetricsRegistry& metrics, SpanSink* spans,
    RoundResult& result);

/// Adds the layer metrics every campaign workload reports: runner, store,
/// study, bender, dram and sense.
void campaign_layers(const RoundResult& last, const SpanSink& spans,
                     int rounds, std::map<std::string, double>& out);

/// The chip's address map recovered by row probing (the benches' default
/// set-up step); throws when it disagrees with the chip profile.
[[nodiscard]] std::unique_ptr<hbmrd::study::AddressMap> reverse_engineer_map(
    hbmrd::bender::ChipSession& chip);

/// `<work_dir>/<name>`.
[[nodiscard]] std::string work_path(const Options& options,
                                    const std::string& name);

}  // namespace perfbench
