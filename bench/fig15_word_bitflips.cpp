// Fig. 15 (Sec. 8.1): number of 64-bit words with exactly one, exactly
// two, and more than two RowHammer bitflips on Chip 4, per data pattern —
// the argument that SECDED ECC cannot contain HBM2 RowHammer.
#include "common.h"
#include "study/ber.h"
#include "study/row_selection.h"
#include "study/words.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 15: word-level bitflips, Chip 4");
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 4));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  // Paper scale: every row of every channel (~18M words). Scaled default:
  // sampled rows on 2 channels.
  const int n_rows = ctx.rows(64, dram::kRowsPerBank);
  const auto channels = ctx.channels(2);

  util::Table table({"Pattern", "words tested", "1 flip", "2 flips",
                     ">2 flips", "max flips/word"});
  std::uint64_t checkered0_beyond = 0;
  std::uint64_t checkered0_words = 0;
  int overall_max = 0;
  for (auto pattern : study::kAllPatterns) {
    study::BerConfig config;
    config.pattern = pattern;
    study::WordAnalysis analysis;
    for (int ch : channels) {
      for (int row : study::spread_rows(n_rows)) {
        const auto result =
            study::measure_row_ber(chip, map, {{ch, 0, 0}, row}, config);
        analysis.accumulate(result.flipped_bits);
      }
    }
    table.row()
        .cell(study::to_string(pattern))
        .cell(analysis.words_tested())
        .cell(analysis.secded_corrected())
        .cell(analysis.secded_detected())
        .cell(analysis.secded_beyond_guarantee())
        .cell(analysis.max_flips_in_word());
    if (pattern == study::DataPattern::kCheckered0) {
      checkered0_beyond = analysis.secded_beyond_guarantee();
      checkered0_words = analysis.words_tested();
    }
    overall_max = std::max(overall_max, analysis.max_flips_in_word());
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Sec. 8.1)");
  ctx.compare("words with > 2 bitflips (Checkered0)",
              "974935 of ~18M (5.4%)",
              std::to_string(checkered0_beyond) + " of " +
                  std::to_string(checkered0_words) + " (" +
                  util::format_double(checkered0_words == 0
                                          ? 0.0
                                          : 100.0 * checkered0_beyond /
                                                checkered0_words,
                                      2) +
                  "%)");
  ctx.compare("max bitflips in one word", "16",
              std::to_string(overall_max));
  std::cout
      << "SECDED corrects only the 1-flip words and merely detects the\n"
         "2-flip words; everything beyond can be silently miscorrected.\n"
         "Containing the worst word would need (7,4)-Hamming-class codes\n"
         "at 75% storage overhead (3 parity bits per 4 data bits).\n";
  return 0;
}
