// Shared scaffolding for the per-figure/per-table benchmark harnesses.
//
// Every harness reproduces one table or figure of the paper: it runs the
// corresponding experiment on the simulated testbed (scaled down by
// default; --full restores paper scale), prints the measured series next
// to the paper-reported reference values, and exits 0.
#pragma once

#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "runner/runner.h"
#include "study/address_map.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"

namespace hbmrd::bench {

class BenchContext {
 public:
  BenchContext(int argc, char** argv, const std::string& title);

  [[nodiscard]] bender::Platform& platform() { return platform_; }
  [[nodiscard]] const util::Cli& cli() const { return cli_; }

  /// True when --full was passed: run at paper scale.
  [[nodiscard]] bool full() const { return cli_.has("--full"); }

  /// Row-count knob: --rows overrides, --full selects the paper scale.
  [[nodiscard]] int rows(int scaled_default, int paper_scale) const;

  /// Chip-index list: --chip N restricts to one chip.
  [[nodiscard]] std::vector<int> chips() const;

  /// Channel list: --channels N limits the sweep width.
  [[nodiscard]] std::vector<int> channels(int scaled_default) const;

  /// The reverse-engineered address map of a chip (cached per chip; uses
  /// the probing procedure once, or trusts the profile with --trust-map).
  [[nodiscard]] const study::AddressMap& map_of(int chip_index);

  /// Prints a "paper reports X / measured Y" comparison line.
  void compare(const std::string& what, const std::string& paper,
               const std::string& measured);

  /// Opens `<dir>/<name>.csv` when the user passed --csv <dir>; null
  /// otherwise. Benches stream their raw data series through this so the
  /// figures can be re-plotted externally.
  [[nodiscard]] std::unique_ptr<util::CsvWriter> csv(
      const std::string& name, std::vector<std::string> columns) const;

  void banner(const std::string& section) const;

 private:
  util::Cli cli_;
  std::string title_;
  bender::Platform platform_;
  std::vector<std::unique_ptr<study::AddressMap>> maps_;
};

/// Observability sinks for campaign harnesses (docs/OBSERVABILITY.md):
///   --metrics-out FILE   JSON metrics + span snapshot (atomic replace)
///   --progress           rate-limited live progress line on stderr
/// Attach to every RunnerConfig the harness builds — attaching changes no
/// committed CSV/journal byte. Deterministic counters accumulate across
/// every campaign the harness runs (e.g. fig06's per-chip campaigns); the
/// snapshot is written once by finish() (the destructor is a backstop).
class CampaignObservability {
 public:
  explicit CampaignObservability(const util::Cli& cli);
  ~CampaignObservability();

  CampaignObservability(const CampaignObservability&) = delete;
  CampaignObservability& operator=(const CampaignObservability&) = delete;

  /// Points `config` at the shared sinks; no-op when neither flag was
  /// passed (keeps the runner on its zero-instrumentation path).
  void attach(runner::RunnerConfig& config);

  /// The shared registry, or null when observability is disabled. Benches
  /// use it for their own counters (e.g. bench.skipped_records).
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return enabled_ ? &metrics_ : nullptr;
  }

  /// Flushes the progress line and writes the --metrics-out snapshot;
  /// idempotent.
  void finish();

 private:
  bool enabled_ = false;
  bool finished_ = false;
  std::string metrics_out_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  std::unique_ptr<obs::ProgressReporter> progress_;
};

/// Formats a BER as a percentage string.
[[nodiscard]] std::string ber_pct(double ber, int precision = 3);

/// One campaign sweep: the chip it runs on, its result columns and its
/// trial list (docs/ARCHITECTURE.md, "Campaign harness shape").
struct Sweep {
  int chip_index = 0;
  std::vector<std::string> columns;
  std::vector<runner::CampaignRunner::Trial> trials = {};
  /// One checkpoint per chip, for harnesses that sweep several chips:
  /// "--results out.csv" becomes "out.chipN.csv" (likewise the journal).
  bool per_chip_artifacts = false;
};

/// Runs a harness's sweeps through the resilient campaign runner and owns
/// everything the campaign flags (--help, "Campaign flags" onwards) ask of
/// it: the runner config, --shards supervision, --export-index,
/// --metrics-out/--progress, the campaign report and the exit code of an
/// aborted campaign.
class SweepDriver {
 public:
  /// Reduces a sweep's committed records (freshly measured and resumed
  /// alike, in trial order) into the harness's tables.
  using Reducer =
      std::function<void(const std::vector<runner::TrialRecord>&)>;

  explicit SweepDriver(BenchContext& ctx);

  /// Runs `sweep`, hands its records to `reduce` and prints the campaign
  /// report. An aborted campaign (checkpoint committed; rerun with
  /// --resume), a storage/config failure, or --export-index on a sweep
  /// without `row` and `hc_first` columns (refused before any trial runs)
  /// exits the process with 2.
  runner::CampaignReport run(const Sweep& sweep, const Reducer& reduce);

  /// The numeric payload cells `columns` of `record`, or nullopt when one
  /// does not parse: a resumed checkpoint can surface damaged cells. Such
  /// records are skipped with a warning and counted in
  /// bench.skipped_records.
  std::optional<std::vector<double>> numbers(
      const runner::TrialRecord& record,
      std::initializer_list<std::size_t> columns);

  /// The shared registry, or null when observability is disabled.
  [[nodiscard]] obs::MetricsRegistry* metrics() { return obs_.metrics(); }

  /// Writes the --metrics-out snapshot and returns the harness's exit
  /// code.
  [[nodiscard]] int finish();

 private:
  BenchContext& ctx_;
  CampaignObservability obs_;
};

}  // namespace hbmrd::bench
