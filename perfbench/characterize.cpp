// `characterize`: the paper's characterization through the campaign runner.
//
// One round is one CampaignRunner campaign per chip, each at --jobs 1 with
// its results CSV and journal in the work directory:
//
//   * Chip 1: HC_first searches (the fig07 shape: channels x data patterns
//     x sampled rows) and HC_1..10 chains (the fig11 shape);
//   * Chip 0 (undocumented TRR): HC_1..10 chains and TRR-bypass attacks at
//     the fig14 attack point.
//
// The seed draws the victim rows. An operation is one committed trial; its
// latency is the trial body's host time on the campaign worker.
#include <algorithm>

#include "bender/platform.h"
#include "harness.h"
#include "study/address_map.h"
#include "study/bypass.h"
#include "study/hc_first.h"
#include "study/hcn.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hbmrd;

struct Size {
  int hcfirst_channels;
  int hcfirst_rows;
  int hcn_rows;  // per chip
  int bypass_rows;
  std::uint64_t bypass_windows;
};

Size size_for(const Options& options) {
  if (options.tiny) return {1, 2, 1, 1, 8205};
  return {2, 24, 48, 8, 8205};
}

/// `n` rows spread over the bank like study::spread_rows, each drawn by the
/// seed from its own stretch of kRowsPerBank / n rows (away from the bank
/// edges). Stratifying keeps the mix of row positions, and with it the
/// round's cost, the same for every seed.
std::vector<int> sample_rows(std::uint64_t seed, std::uint64_t stream, int n) {
  std::vector<int> rows;
  const int stride = dram::kRowsPerBank / n;
  for (int i = 0; i < n; ++i) {
    const int offset = static_cast<int>(
        util::hash_key(seed, stream, i) % static_cast<std::uint64_t>(stride));
    rows.push_back(std::clamp(i * stride + offset, 16,
                              dram::kRowsPerBank - 17));
  }
  return rows;
}

class Characterize : public Workload {
 public:
  explicit Characterize(const Options& options)
      : options_(options), size_(size_for(options)) {}

  double tail_percentile() const override { return 99; }
  const char* op_name() const override { return "trial"; }

  SetupTimes setup() override {
    SetupTimes t;
    double t0 = now_s();
    platform_ = std::make_unique<bender::Platform>();
    t.platform_s = now_s() - t0;

    t0 = now_s();
    map0_ = reverse_engineer_map(platform_->chip(0));
    map1_ = reverse_engineer_map(platform_->chip(1));
    t.map_s = now_s() - t0;

    t0 = now_s();
    build_trials();
    t.scenario_s = now_s() - t0;
    return t;
  }

  RoundResult round(SpanSink* spans) override {
    RoundResult result;
    obs::MetricsRegistry metrics;
    for (const CampaignSpec& campaign : campaigns_) {
      const auto report =
          run_campaign(options_, campaign, metrics, spans, result);
      check_flips(report, campaign.name == "chip1" ? "hc_first" : "bypass",
                  result);
    }
    result.fingerprint = collect_counts(metrics, result.counts);
    return result;
  }

  void per_layer(const RoundResult& last, const SpanSink& spans, int rounds,
                 std::map<std::string, double>& out) override {
    campaign_layers(last, spans, rounds, out);
  }

 private:
  /// Every trial commits the same four cells: kind, victim row,
  /// ';'-joined parameters and ';'-joined results.
  static void add(CampaignSpec& campaign, const std::string& kind, int row,
                  const std::string& params,
                  std::function<std::string(bender::ChipSession&)> measure) {
    campaign.trials.push_back(
        {kind + ":" + params + ":row" + std::to_string(row),
         [kind, row, params, measure = std::move(measure)](
             bender::ChipSession& session) -> std::vector<std::string> {
           return {kind, std::to_string(row), params, measure(session)};
         }});
  }

  static CampaignSpec campaign_on(const std::string& name,
                                  bender::HbmChip& chip) {
    return {name, &chip, {"kind", "row", "params", "result"}, 1, {},
            "study.search"};
  }

  void build_trials() {
    campaigns_.clear();
    const study::AddressMap& map0 = *map0_;
    const study::AddressMap& map1 = *map1_;

    // Chip 1: HC_first (fig07) and HC_1..10 chains (fig11).
    CampaignSpec chip1 = campaign_on("chip1", platform_->chip(1));
    // Every (channel, pattern) cell gets its own rows: the round's cost
    // then averages over many rows, so it hardly depends on the seed.
    std::uint64_t stream = 16;
    for (int ch = 0; ch < size_.hcfirst_channels; ++ch) {
      for (auto pattern : study::kAllPatterns) {
        const std::string params =
            "ch" + std::to_string(ch) + ";" + study::to_string(pattern);
        for (int row :
             sample_rows(options_.seed, stream++, size_.hcfirst_rows)) {
          study::HcSearchConfig config;
          config.pattern = pattern;
          add(chip1, "hc_first", row, params,
              [&map1, ch, row, config](bender::ChipSession& session) {
                const auto hc = study::find_hc_first(
                    session, map1, {{ch, 0, 0}, row}, config);
                return hc ? std::to_string(*hc) : std::string();
              });
        }
      }
    }
    add_hcn(chip1, map1, sample_rows(options_.seed, 2, size_.hcn_rows));
    campaigns_.push_back(std::move(chip1));

    // Chip 0: HC_1..10 chains under TRR, then TRR-bypass attacks (fig14).
    CampaignSpec chip0 = campaign_on("chip0", platform_->chip(0));
    add_hcn(chip0, map0, sample_rows(options_.seed, 3, size_.hcn_rows));
    // The fig14 attack point (8 dummy rows, 34 activations per aggressor):
    // one configuration, so the tail the bypass trials set does not hinge
    // on which grid point lands at the percentile.
    study::BypassConfig bypass;
    bypass.windows = size_.bypass_windows;
    for (int row : sample_rows(options_.seed, 4, size_.bypass_rows)) {
      add(chip0, "bypass", row,
          "d" + std::to_string(bypass.dummy_rows) + ";a" +
              std::to_string(bypass.aggressor_acts),
          [&map0, row, bypass](bender::ChipSession& session) {
            const auto result = study::run_bypass_attack(
                session, map0, {{0, 0, 0}, row}, bypass);
            return std::to_string(result.plan.acts_per_dummy) + ";" +
                   std::to_string(result.ber) + ";" +
                   std::to_string(result.bitflips);
          });
    }
    campaigns_.push_back(std::move(chip0));
  }

  /// HC_1..10 chains on channel 0 with the Checkered0 pattern.
  static void add_hcn(CampaignSpec& campaign, const study::AddressMap& map,
                      const std::vector<int>& rows) {
    for (int row : rows) {
      add(campaign, "hcn", row, "ch0;Checkered0",
          [&map, row](bender::ChipSession& session) {
            const auto result =
                study::measure_hcn(session, map, {{0, 0, 0}, row}, {});
            std::string chain;
            for (const auto& hc : result.hc) {
              if (!chain.empty()) chain += ';';
              chain += hc ? std::to_string(*hc) : "none";
            }
            return chain;
          });
    }
  }

  /// Non-degeneracy: some trial of `kind` must report a bitflip (a found
  /// HC_first, or a bypass attack with a non-zero flip count).
  static void check_flips(const runner::CampaignReport& report,
                          const std::string& kind, RoundResult& result) {
    for (const auto& record : report.records) {
      if (record.cells.size() != 4 || record.cells[0] != kind) continue;
      const std::string& value = record.cells[3];
      const auto last = value.substr(value.rfind(';') + 1);
      if (!last.empty() && last != "0") return;
    }
    ++result.failed;
    result.problems.push_back("no " + kind + " trial flipped a bit");
  }

  Options options_;
  Size size_;
  std::unique_ptr<bender::Platform> platform_;
  std::unique_ptr<study::AddressMap> map0_, map1_;
  std::vector<CampaignSpec> campaigns_;
};

}  // namespace

std::unique_ptr<Workload> make_characterize(const Options& options) {
  return std::make_unique<Characterize>(options);
}

}  // namespace perfbench
