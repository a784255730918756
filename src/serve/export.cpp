#include "serve/export.h"

#include <algorithm>
#include <optional>

#include "runner/checkpoint.h"
#include "util/csv.h"
#include "util/parse.h"

namespace hbmrd::serve {

IndexManifest manifest_for(const ExportSpec& spec) {
  if (spec.chip_index >= dram::kChipCount) {
    throw IndexError("export: chip index " +
                     std::to_string(spec.chip_index) + " out of range [0, " +
                     std::to_string(dram::kChipCount) + ")");
  }
  const auto profile =
      dram::chip_profiles(spec.platform_seed)[spec.chip_index];
  IndexManifest manifest;
  manifest.platform_seed = spec.platform_seed;
  manifest.chip_index = spec.chip_index;
  manifest.chip_label = profile.label;
  manifest.mapping_scheme = static_cast<std::uint32_t>(profile.mapping);
  manifest.channels = dram::kChannels;
  manifest.pseudo_channels = dram::kPseudoChannels;
  manifest.banks = dram::kBanksPerPseudoChannel;
  manifest.rows = dram::kRowsPerBank;
  manifest.row_bits = dram::kRowBits;
  manifest.hc_depth = spec.hc_depth;
  manifest.max_hammer_count = spec.max_hammer_count;
  return manifest;
}

std::vector<std::string> missing_export_columns(
    const std::vector<std::string>& columns) {
  std::vector<std::string> missing;
  for (const char* required : {"row", "hc_first"}) {
    if (std::find(columns.begin(), columns.end(), required) ==
        columns.end()) {
      missing.emplace_back(required);
    }
  }
  return missing;
}

CampaignExportReport export_campaign_csv(util::Store& store,
                                         const std::string& csv_path,
                                         IndexBuilder& builder) {
  const auto contents = store.read(csv_path);
  if (!contents || contents->empty()) {
    throw IndexError("export: campaign CSV " + csv_path +
                     " missing or empty");
  }
  auto newline = contents->find('\n');
  if (newline == std::string::npos) newline = contents->size();
  const auto header_cells =
      util::split_csv_line(contents->substr(0, newline));

  const auto column = [&](std::string_view name) -> std::optional<int> {
    for (std::size_t i = 0; i < header_cells.size(); ++i) {
      if (header_cells[i] == name) return static_cast<int>(i);
    }
    return std::nullopt;
  };
  if (!missing_export_columns(header_cells).empty()) {
    throw IndexError("export: campaign CSV " + csv_path +
                     " header lacks required column(s) row/hc_first");
  }
  const auto row_col = column("row");
  const auto hc_col = column("hc_first");
  const auto channel_col = column("channel");
  auto pc_col = column("pseudo_channel");
  if (!pc_col) pc_col = column("pc");
  const auto bank_col = column("bank");
  const auto pattern_col = column("pattern");
  const auto on_col = column("on_cycles");

  const auto& manifest = builder.manifest();
  CampaignExportReport report;
  const auto checkpoint =
      runner::load_checkpoint(store, csv_path, header_cells.size());
  for (const auto& line : checkpoint.lines) {
    const auto cells = util::split_csv_line(line);
    if (cells.size() != header_cells.size() || cells[1] != "ok") {
      ++report.rows_skipped;
      continue;
    }
    const auto cell = [&](const std::optional<int>& col) -> std::string_view {
      return col ? std::string_view(cells[static_cast<std::size_t>(*col)])
                 : std::string_view();
    };

    std::uint64_t channel = 0;
    std::uint64_t pc = 0;
    std::uint64_t bank = 0;
    std::uint64_t on_cycles = 0;
    auto pattern = study::DataPattern::kCheckered0;
    bool good = true;
    const auto read_coord = [&](const std::optional<int>& col,
                                std::uint64_t limit, std::uint64_t* out) {
      if (!col) return;
      const auto parsed = util::parse_u64(cell(col));
      if (!parsed || *parsed >= limit) {
        good = false;
        return;
      }
      *out = *parsed;
    };
    read_coord(channel_col, manifest.channels, &channel);
    read_coord(pc_col, manifest.pseudo_channels, &pc);
    read_coord(bank_col, manifest.banks, &bank);
    if (on_col) {
      const auto parsed = util::parse_u64(cell(on_col));
      if (!parsed) good = false; else on_cycles = *parsed;
    }
    if (pattern_col) {
      const auto parsed = parse_pattern(cell(pattern_col));
      if (!parsed) good = false; else pattern = *parsed;
    }
    const auto row = util::parse_u64(cell(row_col));
    if (!good || !row || *row >= manifest.rows) {
      ++report.rows_skipped;
      continue;
    }
    // Empty hc_first = the search bound induced no flip (fig07's cell
    // convention for a nullopt HC_first).
    std::uint64_t hc = kNoFlip;
    const auto hc_cell = cell(hc_col);
    if (!hc_cell.empty()) {
      const auto parsed = util::parse_u64(hc_cell);
      if (!parsed || *parsed == 0 || *parsed == kNoFlip) {
        ++report.rows_skipped;
        continue;
      }
      hc = *parsed;
    }
    const PopulationKey key{
        static_cast<std::uint32_t>(channel), static_cast<std::uint32_t>(pc),
        static_cast<std::uint32_t>(bank),
        static_cast<std::uint32_t>(pattern), on_cycles};
    builder.set_rung(key, static_cast<std::uint32_t>(*row), 1, hc);
    ++report.rows_ingested;
  }
  return report;
}

MeasureReport export_measured(IndexBuilder& builder,
                              FallbackSession& session,
                              const MeasureSpec& spec) {
  const auto& manifest = builder.manifest();
  MeasureReport report;
  for (const auto& bank : spec.banks) {
    for (const auto pattern : spec.patterns) {
      for (const auto on_cycles : spec.on_cycles_list) {
        const PopulationKey key{static_cast<std::uint32_t>(bank.channel),
                                static_cast<std::uint32_t>(
                                    bank.pseudo_channel),
                                static_cast<std::uint32_t>(bank.bank),
                                static_cast<std::uint32_t>(pattern),
                                on_cycles};
        for (const int row : spec.rows) {
          const dram::RowAddress victim{bank, row};
          bool bound_hit = false;
          for (std::uint32_t k = 1; k <= manifest.hc_depth; ++k) {
            std::uint64_t hc = kNoFlip;
            if (!bound_hit) {
              hc = simulate_hc_nth(session, victim, pattern, on_cycles,
                                   static_cast<int>(k),
                                   manifest.max_hammer_count);
              ++report.hc_searches;
              if (hc == kNoFlip) bound_hit = true;
            }
            builder.set_rung(key, static_cast<std::uint32_t>(row),
                             static_cast<int>(k), hc);
          }
        }
      }
    }
    if (spec.retention) {
      const PopulationKey key{static_cast<std::uint32_t>(bank.channel),
                              static_cast<std::uint32_t>(bank.pseudo_channel),
                              static_cast<std::uint32_t>(bank.bank),
                              kRetentionPatternId, 0};
      for (const int row : spec.rows) {
        builder.set_retention(
            key, static_cast<std::uint32_t>(row),
            simulate_min_retention(session, {bank, row}));
        ++report.retention_rows;
      }
    }
  }
  return report;
}

}  // namespace hbmrd::serve
