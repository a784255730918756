#include "harness.h"

#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "obs/trace.h"

namespace perfbench {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string collect_counts(const hbmrd::obs::MetricsRegistry& metrics,
                           std::map<std::string, double>& counts) {
  static const char* const kNames[] = {
      "campaign.retries",       "campaign.quarantined",
      "store.appends",          "store.append_bytes",
      "store.fsyncs",           "study.hc_probes",
      "study.hammers_replayed", "study.hammers_saved",
      "exec.acts",              "exec.refs",
      "exec.hammer_windows",    "device.acts",
      "device.refs",            "device.victim_refreshes",
      "device.bitflips",        "device.dedup_hits",
      "device.sense_word_ops",  "device.sense_cells_visited",
      "cache.lookups",          "cache.summary_hits",
      "cache.summary_misses",   "arena.matches",
      "arena.flips_undefended", "arena.preventive_refreshes",
      "arena.stalled_acts",
  };
  for (const char* name : kNames) {
    counts[name] += static_cast<double>(metrics.counter(name));
  }
  return metrics.deterministic_fingerprint();
}

hbmrd::runner::CampaignReport run_campaign(
    const Options& options, const CampaignSpec& spec,
    hbmrd::obs::MetricsRegistry& metrics, SpanSink* spans,
    RoundResult& result) {
  hbmrd::runner::RunnerConfig config;
  config.result_columns = spec.columns;
  config.results_path = work_path(options, spec.name + ".csv");
  config.journal_path = work_path(options, spec.name + ".jsonl");
  config.jobs = spec.jobs;
  config.metrics = &metrics;
  hbmrd::obs::TraceRecorder trace;
  if (spans != nullptr) {
    config.trace = &trace;
    config.store = std::make_shared<TimingStore>(
        hbmrd::util::default_store(), *spans);
  }
  std::mutex latencies_mu;
  std::vector<hbmrd::runner::CampaignRunner::Trial> timed;
  timed.reserve(spec.trials.size());
  for (const auto& trial : spec.trials) {
    timed.push_back(
        {trial.key,
         [&trial, &spec, spans, &result,
          &latencies_mu](hbmrd::bender::ChipSession& session) {
           const double t0 = now_s();
           std::vector<std::string> cells;
           if (spans != nullptr) {
             TimedSession traced(session, *spans);
             ScopedSpan span(spans, spec.span);
             cells = trial.body(traced);
           } else {
             cells = trial.body(session);
           }
           const double dt = now_s() - t0;
           std::lock_guard lock(latencies_mu);
           result.latencies_s.push_back(dt);
           return cells;
         }});
  }
  hbmrd::runner::CampaignRunner runner(*spec.chip, config);
  auto report = runner.run(timed);
  result.attempted += timed.size();
  result.failed += timed.size() - report.completed;
  if (report.aborted) {
    result.problems.push_back(spec.name + " aborted: " + report.abort_reason);
  }
  if (spans != nullptr) {
    const auto commit = trace.span("campaign/commit");
    spans->add("runner.commit", commit.total_s, commit.count);
  }
  auto store = hbmrd::util::default_store();
  for (const char* ext : {".csv", ".jsonl"}) {
    result.digest =
        fnv1a(store->read(work_path(options, spec.name + ext))
                  .value_or("<missing>"),
              result.digest);
  }
  return report;
}

void campaign_layers(const RoundResult& last, const SpanSink& spans,
                     int rounds, std::map<std::string, double>& out) {
  for (const auto& [name, value] : last.counts) out[name] = value;
  const double hits = out["cache.summary_hits"];
  const double misses = out["cache.summary_misses"];
  out["cache.summary_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const double n = rounds > 0 ? rounds : 1;
  const auto per_round = [&](const char* span) {
    return spans.get(span).seconds / n;
  };
  const auto calls = [&](const char* span) {
    return static_cast<double>(spans.get(span).count) / n;
  };
  out["runner.commit_s"] = per_round("runner.commit");
  out["store.busy_s"] = per_round("store.busy");
  out["study.searches"] = calls("study.search");
  out["study.search_s"] = per_round("study.search");
  out["bender.run_calls"] = calls("bender.run");
  out["bender.run_s"] = per_round("bender.run");
  out["bender.checkpoint_calls"] = calls("bender.checkpoint");
  out["bender.checkpoint_s"] = per_round("bender.checkpoint");
  out["bender.restore_calls"] = calls("bender.restore");
  out["bender.restore_s"] = per_round("bender.restore");
}

std::unique_ptr<hbmrd::study::AddressMap> reverse_engineer_map(
    hbmrd::bender::ChipSession& chip) {
  auto map = std::make_unique<hbmrd::study::AddressMap>(
      hbmrd::study::AddressMap::reverse_engineer(chip, {0, 0, 0}));
  if (map->scheme() != chip.profile().mapping) {
    throw std::runtime_error("address map of " + chip.profile().label +
                             " does not match its profile");
  }
  return map;
}

std::string work_path(const Options& options, const std::string& name) {
  return options.work_dir + "/" + name;
}

}  // namespace perfbench
