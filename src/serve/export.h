// `.hbmidx` exporters (docs/SERVING.md): turn measurements into the
// precomputed threshold index the query server memory-maps.
//
// Two sources:
//
//   * a finished campaign checkpoint CSV (fig07-style columns) — every
//     CRC-valid `ok` row whose cells name (channel, pattern, row,
//     hc_first) contributes rung 1 of its population, for free, as a
//     byproduct of a campaign that already ran. The runner's
//     MergeOptions::on_merged hook calls this right after a sharded
//     campaign merges, so `bench --export-index` leaves a queryable index
//     next to the results CSV;
//
//   * direct measurement through the canonical simulation helpers
//     (serve/engine.h) — the same pure functions the engine falls back
//     to on a miss, which is precisely why an exported answer and a
//     fallback answer are byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dram/chip_profiles.h"
#include "serve/engine.h"
#include "serve/index.h"
#include "util/store.h"

namespace hbmrd::serve {

/// Identity + bounds of the index being built.
struct ExportSpec {
  std::uint64_t platform_seed = dram::kDefaultPlatformSeed;
  std::uint32_t chip_index = 1;  // the paper's Chip 1 workhorse
  std::uint32_t hc_depth = 10;   // study::kHcnFlips
  std::uint64_t max_hammer_count = 1u << 20;
};

/// Builds the manifest for `spec`: geometry from dram/geometry.h, label
/// and mapping scheme from the chip profile.
[[nodiscard]] IndexManifest manifest_for(const ExportSpec& spec);

struct CampaignExportReport {
  std::uint64_t rows_ingested = 0;
  std::uint64_t rows_skipped = 0;  // non-ok status or unparseable cells
};

/// The required columns ("row", "hc_first") that `columns` lacks; empty
/// when a campaign with these result columns can be exported.
[[nodiscard]] std::vector<std::string> missing_export_columns(
    const std::vector<std::string>& columns);

/// Ingests a campaign checkpoint CSV into `builder` as rung-1 (HC_first)
/// data. The header row names the columns; "row" and "hc_first" are
/// required, "channel" / "pseudo_channel" / "bank" / "pattern" /
/// "on_cycles" optional (defaults 0 / 0 / 0 / Checkered0 / 0). Only
/// CRC-valid rows with status `ok` are ingested; an empty hc_first cell
/// records kNoFlip (the search bound was reached). Throws IndexError when
/// the file is missing or the header lacks a required column.
CampaignExportReport export_campaign_csv(util::Store& store,
                                         const std::string& csv_path,
                                         IndexBuilder& builder);

/// What export_measured should measure.
struct MeasureSpec {
  std::vector<dram::BankAddress> banks;
  std::vector<int> rows;
  std::vector<study::DataPattern> patterns;
  std::vector<std::uint64_t> on_cycles_list = {0};
  /// Also record per-row min retention (kRetentionPatternId populations).
  bool retention = false;
};

struct MeasureReport {
  std::uint64_t hc_searches = 0;
  std::uint64_t retention_rows = 0;
};

/// Measures rungs 1..hc_depth (and optionally retention) for every
/// (bank, pattern, on, row) combination through the canonical simulation
/// helpers, recording into `builder`. Rungs beyond the first that hits
/// the search bound are recorded kNoFlip without simulating (monotone).
MeasureReport export_measured(IndexBuilder& builder,
                              FallbackSession& session,
                              const MeasureSpec& spec);

}  // namespace hbmrd::serve
