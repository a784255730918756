// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload characterize|arena_mix|serve_zipf --seed N
//             --seconds S --trace 0|1 [--expect-digest HEX] [--tiny]
//
// Sets the workload up at least three times and for at least two seconds
// (setup_s is the median; once with --tiny, the self-test scale), then
// repeats rounds for --seconds. With --trace 0 it reports the end-to-end
// metrics of that untraced run. With --trace 1 it runs the same number of
// rounds untraced and then traced, and reports the per-layer metrics of
// the traced rounds plus the tracing overhead. Every round's output digest
// and deterministic-counter fingerprint must equal the first untraced
// round's (and the expected digest when one is given); a round that
// disagrees counts all of its operations as failed. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is 1 when any operation failed, after that line.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness.h"
#include "util/cli.h"

namespace {

using namespace perfbench;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Tail {
  double percentile = 50.0;
  double value_s = 0.0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile `p` of sorted samples, and how many lie beyond.
std::size_t rank_of(double p, std::size_t n) {
  // The epsilon keeps p = 99.9 of n = 10000 at rank 9990, not 9991.
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(exact - 1e-6)));
}

/// The smallest sample count that leaves ten samples beyond percentile p.
std::size_t samples_for(double p) {
  std::size_t n = 10;
  while (n - rank_of(p, n) < 10) ++n;
  return n;
}

/// Percentile `p` of the samples, and how many lie beyond it.
Tail tail_of(std::vector<double> samples, double p) {
  Tail tail;
  tail.percentile = p;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 0) return tail;
  const std::size_t rank = std::min(rank_of(p, n), n);
  tail.value_s = samples[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

struct Phase {
  std::vector<RoundResult> rounds;
  /// Per round: host seconds and process CPU seconds.
  std::vector<double> round_wall_s, round_cpu_s;
  double wall_s = 0.0;
  /// Latency samples. A round with enough samples for the tail percentile
  /// is summarized on its own (p50 and tail per round, samples dropped), so
  /// memory does not grow with the run; otherwise its samples are pooled.
  std::vector<double> pooled_s, round_p50_s, round_tail_s;
  std::size_t round_samples = 0, round_beyond = 0;
};

/// Rounds until `seconds` have passed and `min_ops` operations ran (at
/// least one round), or exactly `fixed_rounds` when that is non-zero.
Phase run_phase(Workload& workload, SpanSink* spans, double seconds,
                std::size_t min_ops, std::size_t fixed_rounds) {
  Phase phase;
  const double tail_p = workload.tail_percentile();
  const double t0 = now_s();
  std::size_t ops = 0;
  while (true) {
    workload.prepare_round();
    const double round_cpu0 = cpu_seconds();
    const double round_t0 = now_s();
    phase.rounds.push_back(workload.round(spans));
    phase.round_wall_s.push_back(now_s() - round_t0);
    phase.round_cpu_s.push_back(cpu_seconds() - round_cpu0);
    RoundResult& round = phase.rounds.back();
    ops += round.attempted;
    // Rounds are fixed work, so the first round decides for all of them.
    if (phase.pooled_s.empty() &&
        (!phase.round_p50_s.empty() ||
         round.latencies_s.size() >= samples_for(tail_p))) {
      const Tail tail = tail_of(round.latencies_s, tail_p);
      phase.round_p50_s.push_back(median(round.latencies_s));
      phase.round_tail_s.push_back(tail.value_s);
      phase.round_samples = round.latencies_s.size();
      phase.round_beyond = tail.beyond;
    } else {
      phase.pooled_s.insert(phase.pooled_s.end(), round.latencies_s.begin(),
                            round.latencies_s.end());
    }
    std::vector<double>().swap(round.latencies_s);  // frees the capacity
    phase.wall_s = now_s() - t0;
    if (fixed_rounds != 0 ? phase.rounds.size() >= fixed_rounds
                          : phase.wall_s >= seconds && ops >= min_ops) {
      break;
    }
  }
  return phase;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics reported by every traced run (zero where a workload
// does not exercise the layer). Keep in sync with BENCHMARK.json.
const Metric kPerLayer[] = {
    {"runner.commit_s", "s"},
    {"campaign.retries", "count"},
    {"campaign.quarantined", "count"},
    {"store.appends", "count"},
    {"store.append_bytes", "bytes"},
    {"store.fsyncs", "count"},
    {"store.busy_s", "s"},
    {"study.searches", "count"},
    {"study.search_s", "s"},
    {"study.hc_probes", "count"},
    {"study.hammers_replayed", "count"},
    {"study.hammers_saved", "count"},
    {"bender.run_calls", "count"},
    {"bender.run_s", "s"},
    {"bender.checkpoint_calls", "count"},
    {"bender.checkpoint_s", "s"},
    {"bender.restore_calls", "count"},
    {"bender.restore_s", "s"},
    {"exec.acts", "count"},
    {"exec.refs", "count"},
    {"exec.hammer_windows", "count"},
    {"device.acts", "count"},
    {"device.refs", "count"},
    {"device.victim_refreshes", "count"},
    {"device.bitflips", "count"},
    {"device.dedup_hits", "count"},
    {"device.sense_word_ops", "count"},
    {"device.sense_cells_visited", "count"},
    {"cache.lookups", "count"},
    {"cache.summary_hits", "count"},
    {"cache.summary_misses", "count"},
    {"cache.summary_hit_ratio", "ratio"},
    {"arena.matches", "count"},
    {"arena.match_s", "s"},
    {"arena.defense_self_s", "s"},
    {"arena.flips_undefended", "count"},
    {"arena.preventive_refreshes", "count"},
    {"arena.stalled_acts", "count"},
    {"serve.queries", "count"},
    {"serve.index_hits", "count"},
    {"serve.overlay_hits", "count"},
    {"serve.misses", "count"},
    {"serve.fallback_simulations", "count"},
    {"serve.errors", "count"},
    {"serve.bytes_served", "bytes"},
    {"serve.connections", "count"},
    {"serve.socket_s", "s"},
    {"serve.accept_wait_ms", "ms"},
    {"serve.engine_s", "s"},
    {"setup.platform_s", "s"},
    {"setup.map_s", "s"},
    {"setup.scenario_s", "s"},
    {"setup.index_export_s", "s"},
    {"setup.index_load_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"op_fail_ratio", "ratio"},
};

int run(const hbmrd::util::Cli& cli) {
  Options options;
  options.workload = cli.get_string("--workload", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("--seed", 1));
  options.seconds = cli.get_double("--seconds", 10.0);
  options.trace = cli.get_int("--trace", 0) != 0;
  options.tiny = cli.has("--tiny");
  options.expect_digest = cli.get_string("--expect-digest", "");
  options.work_dir = ".bench_build/work/" + std::to_string(::getpid());

  std::unique_ptr<Workload> (*factory)(const Options&) = nullptr;
  if (options.workload == "characterize") factory = make_characterize;
  if (options.workload == "arena_mix") factory = make_arena_mix;
  if (options.workload == "serve_zipf") factory = make_serve_zipf;
  if (factory == nullptr || options.seconds <= 0) {
    std::cerr << "usage: perfbench --workload characterize|arena_mix|"
                 "serve_zipf --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  // Removed on every exit path, after the workload (declared first).
  struct WorkDir {
    std::string path;
    ~WorkDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } work_dir{options.work_dir};
  std::filesystem::create_directories(options.work_dir);

  // -- Set-up, several times; the last instance runs the rounds. A short
  // set-up is repeated more often, so its median is not one scheduler
  // hiccup.
  std::unique_ptr<Workload> workload;
  std::vector<SetupTimes> setups;
  const double setup_t0 = now_s();
  while (setups.empty() ||
         (!options.tiny && setups.size() < 25 &&
          (setups.size() < 3 || now_s() - setup_t0 < 2.0))) {
    workload.reset();
    const double t0 = now_s();
    auto candidate = factory(options);
    SetupTimes times = candidate->setup();
    times.total_s = now_s() - t0;
    setups.push_back(times);
    workload = std::move(candidate);
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const auto& s : setups) values.push_back(s.*field);
    return median(values);
  };

  // -- Measure.
  SpanSink spans;
  const double tail_p = workload->tail_percentile();
  const std::size_t min_ops = options.tiny ? 0 : samples_for(tail_p);
  // Traced, the untraced half still supplies the latency metrics.
  Phase untraced = run_phase(
      *workload, nullptr, options.trace ? options.seconds / 2 : options.seconds,
      min_ops, 0);
  Phase traced;
  if (options.trace) {
    traced = run_phase(*workload, &spans, 0, 0, untraced.rounds.size());
  }

  // -- Check: every round against the reference digest and fingerprint.
  const std::string reference = options.expect_digest.empty()
                                    ? hex64(untraced.rounds[0].digest)
                                    : options.expect_digest;
  const std::string& fingerprint = untraced.rounds[0].fingerprint;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const auto check = [&](const Phase& phase, const char* label) {
    for (std::size_t i = 0; i < phase.rounds.size(); ++i) {
      const RoundResult& r = phase.rounds[i];
      std::uint64_t bad = r.failed;
      const std::string where =
          std::string(label) + " round " + std::to_string(i);
      if (hex64(r.digest) != reference) {
        problems.push_back(where + ": digest " + hex64(r.digest) + " != " +
                           reference);
        bad = r.attempted;
      }
      if (r.fingerprint != fingerprint) {
        problems.push_back(where + ": deterministic counters differ");
        bad = r.attempted;
      }
      for (const auto& p : r.problems) problems.push_back(where + ": " + p);
      attempted += r.attempted;
      failed += std::min(bad, r.attempted);
    }
  };
  check(untraced, "untraced");
  if (options.trace) {
    check(traced, "traced");
    if (auto second = workload->cross_check(spans)) {
      Phase pass;
      pass.rounds.push_back(std::move(*second));
      check(pass, "cross-check");
    }
  }
  // Throughput and CPU cost are medians over rounds, so a stall of the
  // machine during one round does not move them.
  std::uint64_t untraced_ops = 0;
  std::vector<double> round_rate, round_cpu;
  for (std::size_t i = 0; i < untraced.rounds.size(); ++i) {
    const auto ops = static_cast<double>(untraced.rounds[i].attempted);
    untraced_ops += untraced.rounds[i].attempted;
    round_rate.push_back(ops / untraced.round_wall_s[i]);
    round_cpu.push_back(untraced.round_cpu_s[i] / std::max(ops, 1.0));
  }

  // Latency: the median over rounds of each round's p50 and tail, or
  // percentiles of the pooled samples when a round is too small.
  const bool per_round = !untraced.round_p50_s.empty();
  const double p50_s = per_round ? median(untraced.round_p50_s)
                                 : median(untraced.pooled_s);
  const Tail tail = per_round ? Tail{tail_p, median(untraced.round_tail_s),
                                     untraced.round_beyond}
                              : tail_of(untraced.pooled_s, tail_p);
  const double fail_ratio =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;

  // The latencies and the failure ratio are printed here but reported in
  // the traced run's per-layer list: see perfbench/README.md.
  const std::vector<std::pair<Metric, double>> e2e = {
      {{"setup_s", "s"}, setup_median(&SetupTimes::total_s)},
      {{"ops_per_s", "1/s"}, median(round_rate)},
      {{"cpu_ms_per_op", "ms"}, 1e3 * median(round_cpu)},
      {{"peak_rss_mb", "MB"}, peak_rss_mb()},
  };
  const std::vector<std::pair<Metric, double>> printed_only = {
      {{"op_p50_ms", "ms"}, 1e3 * p50_s},
      {{"op_tail_ms", "ms"}, 1e3 * tail.value_s},
      {{"op_fail_ratio", "ratio"}, fail_ratio},
  };

  // -- Report.
  std::cout << "perfbench " << options.workload << " seed=" << options.seed
            << " trace=" << (options.trace ? 1 : 0) << " setups="
            << setups.size() << " rounds=" << untraced.rounds.size()
            << " " << workload->op_name() << "s=" << untraced_ops << "\n";
  std::cout << "digest " << hex64(untraced.rounds[0].digest) << "\n";
  std::cout << "fingerprint " << hex64(fnv1a(fingerprint)) << "\n";
  std::cout << "op_tail_ms is p" << number(tail.percentile) << " of "
            << (per_round ? untraced.round_samples : untraced.pooled_s.size())
            << " samples (" << tail.beyond << " beyond)"
            << (per_round ? ", the median over rounds" : "") << "\n";
  for (const auto& p : problems) std::cout << "problem: " << p << "\n";
  for (const auto* list : {&e2e, &printed_only}) {
    for (const auto& [metric, value] : *list) {
      std::printf("  %-16s %14.6g %s\n", metric.name, value, metric.unit);
    }
  }
  std::fflush(stdout);

  std::string json;
  if (!options.trace) {
    for (const auto& [metric, value] : e2e) {
      json += std::string(json.empty() ? "" : ", ") + "\"" + metric.name +
              "\": {\"value\": " + number(value) + ", \"unit\": \"" +
              metric.unit + "\"}";
    }
  } else {
    std::map<std::string, double> layer;
    workload->per_layer(traced.rounds.back(), spans,
                        static_cast<int>(traced.rounds.size()), layer);
    layer["setup.platform_s"] = setup_median(&SetupTimes::platform_s);
    layer["setup.map_s"] = setup_median(&SetupTimes::map_s);
    layer["setup.scenario_s"] = setup_median(&SetupTimes::scenario_s);
    layer["setup.index_export_s"] = setup_median(&SetupTimes::index_export_s);
    layer["setup.index_load_s"] = setup_median(&SetupTimes::index_load_s);
    layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s - 1.0;
    for (const auto& [metric, value] : printed_only) layer[metric.name] = value;
    for (const Metric& metric : kPerLayer) {
      const double value = layer.count(metric.name) ? layer[metric.name] : 0.0;
      std::printf("  %-28s %14.6g %s\n", metric.name, value, metric.unit);
      json += std::string(json.empty() ? "" : ", ") + "\"" + metric.name +
              "\": {\"value\": " + number(value) + ", \"unit\": \"" +
              metric.unit + "\"}";
    }
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << json << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(hbmrd::util::Cli(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
