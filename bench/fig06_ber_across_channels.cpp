// Fig. 6 (Sec. 4.2): BER distribution across the eight 3D-stacked channels
// of each chip. Channel pairs (dies) cluster; the per-channel spread within
// a chip exceeds the chip-to-chip spread (Obsv. 7-11).
//
// The per-chip sweep runs through the resilient campaign runner: each
// (channel, row) measurement is one checkpointed trial, so the sweep
// survives injected session faults (--fault-rate) and can be killed and
// continued with --results FILE --resume (one checkpoint per chip:
// "--results out.csv" becomes "out.chipN.csv").
#include "common.h"
#include "study/ber.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 6: BER across channels");
  const int n_rows = ctx.rows(24, 16384);
  const auto chips = ctx.cli().has("--chip") ? ctx.chips()
                                             : std::vector<int>{0, 1, 4, 5};
  const auto pattern = study::DataPattern::kCheckered0;

  // One driver across all per-chip sweeps: deterministic counters
  // accumulate, and the metrics snapshot is written once at the end.
  bench::SweepDriver sweeps(ctx);

  std::vector<double> chip_means;
  std::vector<double> within_chip_spreads;
  for (int chip_index : chips) {
    const auto& chip = ctx.platform().chip(chip_index);
    const auto& map = ctx.map_of(chip_index);
    ctx.banner(chip.profile().label + " (" + study::to_string(pattern) + ")");

    bench::Sweep sweep{.chip_index = chip_index,
                       .columns = {"channel", "row", "ber"},
                       .per_chip_artifacts = true};
    for (int ch = 0; ch < dram::kChannels; ++ch) {
      for (int row : study::spread_rows(n_rows)) {
        sweep.trials.push_back(
            {"ch" + std::to_string(ch) + ":row" + std::to_string(row),
             [&map, ch, row, pattern](
                 bender::ChipSession& session) -> std::vector<std::string> {
               study::BerConfig ber_config;
               ber_config.pattern = pattern;
               const auto result = study::measure_row_ber(
                   session, map, {{ch, 0, 0}, row}, ber_config);
               return {std::to_string(ch), std::to_string(row),
                       util::format_double(result.ber, 8)};
             }});
      }
    }

    std::vector<double> channel_means;
    double total = 0.0;
    const auto reduce = [&](const std::vector<runner::TrialRecord>& records) {
      util::Table table({"Channel", "die", "mean BER", "max BER"});
      for (int ch = 0; ch < dram::kChannels; ++ch) {
        std::vector<double> bers;
        for (const auto& record : records) {
          if (record.cells.size() == 3 &&
              record.cells[0] == std::to_string(ch) &&
              !record.cells[2].empty()) {
            if (const auto ber = sweeps.numbers(record, {2})) {
              bers.push_back(ber->front());
            }
          }
        }
        if (bers.empty()) continue;
        const double mean = util::mean(bers);
        channel_means.push_back(mean);
        total += mean;
        table.row()
            .cell("CH" + std::to_string(ch))
            .cell(dram::die_of_channel(ch))
            .cell(bench::ber_pct(mean))
            .cell(bench::ber_pct(util::max_of(bers)));
      }
      table.print(std::cout);
    };
    sweeps.run(sweep, reduce);

    const double spread =
        util::max_of(channel_means) - util::min_of(channel_means);
    within_chip_spreads.push_back(spread);
    chip_means.push_back(total / dram::kChannels);
    std::cout << "  max/min channel mean ratio: "
              << util::format_double(util::max_of(channel_means) /
                                         std::max(util::min_of(channel_means),
                                                  1e-9),
                                     2)
              << "x, spread " << bench::ber_pct(spread) << "\n";
  }

  ctx.banner("Paper reference points (Obsv. 8, 10, 11, Takeaway 3)");
  ctx.compare("worst channel vs best channel in a chip",
              "1.99x (Chip 0, CH7 vs CH3, WCDP)", "ratios above");
  if (chip_means.size() >= 2) {
    const double chip_spread =
        util::max_of(chip_means) - util::min_of(chip_means);
    ctx.compare(
        "within-chip channel spread vs cross-chip spread",
        "0.88% vs 0.38% (Checkered0; Chip 5 excepted)",
        bench::ber_pct(util::max_of(within_chip_spreads)) + " vs " +
            bench::ber_pct(chip_spread));
  }
  ctx.compare("channel pairs behave alike (shared die)",
              "CH3/CH4-style grouping", "compare die column per chip");
  return sweeps.finish();
}
