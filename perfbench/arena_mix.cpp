// `arena_mix`: catalogued and fuzzed attack patterns against the defense
// catalogue on Chip 2, through the campaign runner at --jobs 2.
//
// Set-up samples the tuned protect threshold (arena_eval's convention),
// templates the chip (the weakest of the seeded sample rows is the victim),
// materializes the pattern roster and builds one multi-tenant scenario per
// pattern. One round is one
// campaign with a trial per (pattern, defense) match. The seed drives the
// sampled rows, the fuzzer, the benign tenants and the interleave. An
// operation is one committed match; its latency is the match's host time
// on its campaign worker.
#include <algorithm>

#include "arena/engine.h"
#include "arena/fuzzer.h"
#include "arena/leaderboard.h"
#include "bender/platform.h"
#include "harness.h"
#include "study/hc_first.h"
#include "study/row_selection.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hbmrd;

constexpr int kChip = 2;
// Victim candidates come from one regular subarray (the one after the
// resilient middle subarray): a match's per-ACT cost depends on the
// victim's position, so a bank-wide sample would let the seed move the
// round's cost.
constexpr std::uint64_t kSampledRows = 16;
constexpr int kSampleSubarray = dram::kMiddleSubarray + 1;

struct Size {
  std::uint64_t windows;  // catalogued patterns
  std::uint64_t fuzzed;
  std::uint64_t fuzz_windows;
  std::size_t benign_acts;
  std::size_t defenses;  // leading entries of the catalogue
};

Size size_for(const Options& options) {
  if (options.tiny) return {3072, 1, 64, 1'000, 1};
  return {3072, 8, 384, 2'000, 5};
}

class ArenaMix : public Workload {
 public:
  explicit ArenaMix(const Options& options)
      : options_(options), size_(size_for(options)) {}

  double tail_percentile() const override { return 90; }
  const char* op_name() const override { return "match"; }

  SetupTimes setup() override {
    SetupTimes t;
    double t0 = now_s();
    chip_ = std::make_unique<bender::HbmChip>(
        dram::chip_profiles(dram::kDefaultPlatformSeed)[kChip]);
    t.platform_s = now_s() - t0;

    t0 = now_s();
    map_ = reverse_engineer_map(*chip_);
    t.map_s = now_s() - t0;

    t0 = now_s();
    const auto& timing = chip_->stack().timing();
    // The tuned protect threshold follows arena_eval: a quarter of the
    // minimum HC_first over study::spread_rows(4). It does not depend on the
    // seed, because it sets how hard every defense works. The attacker then
    // templates: the weakest of the seeded sample rows is the victim.
    std::uint64_t sampled_min = ~0ull;
    for (int row : study::spread_rows(4)) {
      const auto hc = study::find_hc_first(*chip_, *map_, {{0, 0, 0}, row}, {});
      if (hc) sampled_min = std::min(sampled_min, *hc);
    }
    const std::uint64_t threshold =
        std::max<std::uint64_t>(512, sampled_min / 4);
    arena::PatternConfig pattern_config;
    std::uint64_t weakest_hc = ~0ull;
    for (std::uint64_t i = 0; i < kSampledRows; ++i) {
      const int row =
          dram::subarray_start(kSampleSubarray) +
          static_cast<int>(util::hash_key(options_.seed, 0xA4E7, i) %
                           dram::subarray_size(kSampleSubarray));
      const auto hc = study::find_hc_first(*chip_, *map_, {{0, 0, 0}, row}, {});
      if (hc && *hc < weakest_hc) {
        weakest_hc = *hc;
        pattern_config.victim = row;
      }
    }

    pattern_config.windows = size_.windows;
    pattern_config.seed = util::hash_key(options_.seed, 0xF022);
    auto patterns = arena::catalogued_patterns(*map_, timing, pattern_config);
    // Many short fuzzed patterns rather than a few long ones: the seed
    // picks them, and their costs differ, so the round averages over a
    // broad sample of the fuzzer's space. Each spends the same activation
    // budget: tRC-paced tones only (a RowPress-style tone stretches the
    // stream over many more refresh intervals; the catalogue's row_press
    // covers that family), cut at fuzz_windows x activation_budget (a fuzzed
    // period can ask for 12x the activations of a window).
    const std::size_t budget =
        size_.fuzz_windows *
        static_cast<std::size_t>(timing.activation_budget());
    for (std::uint64_t i = 0, taken = 0; taken < size_.fuzzed; ++i) {
      arena::PatternConfig fuzz_config = pattern_config;
      fuzz_config.windows = 1;
      const arena::PatternFuzzer one_window(*map_, timing, fuzz_config);
      const auto fuzzed = one_window.pattern(i);
      if (std::any_of(fuzzed.tones.begin(), fuzzed.tones.end(),
                      [](const arena::Tone& t) { return t.on_cycles != 0; })) {
        continue;
      }
      // Every window of a fuzzed stream is the same, so one window's length
      // says how many windows fill the budget.
      const std::size_t per_window =
          one_window.materialize(fuzzed).stream.size();
      fuzz_config.windows = (budget + per_window - 1) / per_window;
      auto pattern =
          arena::PatternFuzzer(*map_, timing, fuzz_config).materialize(fuzzed);
      pattern.stream.resize(budget);
      patterns.push_back(std::move(pattern));
      ++taken;
    }
    arena::ScenarioConfig scenario_config;
    scenario_config.tenants =
        arena::default_tenants(size_.benign_acts, options_.seed);
    scenario_config.interleave_seed = util::hash_key(options_.seed, 7);
    scenarios_.clear();
    for (const auto& pattern : patterns) {
      scenarios_.push_back(arena::build_scenario(scenario_config, pattern));
    }
    defenses_ = arena::defense_catalogue(threshold);
    defenses_.resize(std::min(defenses_.size(), size_.defenses));
    campaign_ = {"arena", chip_.get(), arena::leaderboard_columns(), 2, {},
                 "arena.match"};
    for (const arena::Scenario& scenario : scenarios_) {
      for (const arena::DefenseSpec& spec : defenses_) {
        campaign_.trials.push_back(
            {scenario.attack_name + "|" + spec.name,
             [this, &scenario, &spec](bender::ChipSession& session) {
               return arena::to_cells(
                   arena::run_match(session, *map_, scenario, spec));
             }});
      }
    }
    t.scenario_s = now_s() - t0;
    return t;
  }

  RoundResult round(SpanSink* spans) override {
    RoundResult result;
    obs::MetricsRegistry metrics;
    const auto report = run_campaign(options_, campaign_, metrics, spans,
                                     result);
    arena::fold_metrics(metrics, report.records);
    result.fingerprint = collect_counts(metrics, result.counts);
    // Non-degeneracy: the undefended baselines must flip bits, or the
    // defenses are scored against nothing.
    if (metrics.counter("arena.flips_undefended") == 0) {
      ++result.failed;
      result.problems.push_back("no undefended bitflip in any match");
    }
    return result;
  }

  void per_layer(const RoundResult& last, const SpanSink& spans, int rounds,
                 std::map<std::string, double>& out) override {
    campaign_layers(last, spans, rounds, out);
    // The decorator's run() time inside a match is the executor's; the rest
    // is the defense and the match engine.
    out["arena.match_s"] = spans.get("arena.match").seconds / rounds;
    out["arena.defense_self_s"] = out["arena.match_s"] - out["bender.run_s"];
  }

 private:
  Options options_;
  Size size_;
  std::unique_ptr<bender::HbmChip> chip_;
  std::unique_ptr<study::AddressMap> map_;
  std::vector<arena::Scenario> scenarios_;
  std::vector<arena::DefenseSpec> defenses_;
  CampaignSpec campaign_;
};

}  // namespace

std::unique_ptr<Workload> make_arena_mix(const Options& options) {
  return std::make_unique<ArenaMix>(options);
}

}  // namespace perfbench
