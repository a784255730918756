#include "runner/fsck.h"

#include <optional>
#include <unordered_set>

#include "runner/checkpoint.h"
#include "runner/journal.h"
#include "util/crc32c.h"
#include "util/csv.h"

namespace hbmrd::runner {

namespace {

void add(FsckReport& report, const std::string& file, std::string what) {
  report.issues.push_back({file, std::move(what)});
}

}  // namespace

FsckReport campaign_fsck(const FsckOptions& options) {
  FsckReport report;
  auto store = options.store ? options.store : util::default_store();
  const auto& csv_path = options.results_path;

  // -- Checkpoint: structure first.
  const auto contents = store->read(csv_path);
  if (!contents) {
    report.fatal = true;
    add(report, csv_path, "checkpoint missing or unreadable");
    return report;
  }
  const auto newline = contents->find('\n');
  const std::string found_header =
      newline == std::string::npos ? *contents : contents->substr(0, newline);
  const auto header_cells = util::split_csv_line(found_header);
  const bool header_shape =
      header_cells.size() >= 3 && header_cells.front() == "trial" &&
      header_cells[1] == "status" &&
      header_cells.back() == util::CsvWriter::kCrcColumn;
  if (!header_shape) {
    report.fatal = true;
    add(report, csv_path,
        "first line is not a campaign checkpoint header "
        "(expected trial,status,...,crc): " +
            found_header);
    return report;
  }

  const auto cp = load_checkpoint(*store, csv_path, header_cells.size());
  report.checkpoint_rows = cp.lines.size();
  if (cp.tail_truncated) {
    add(report, csv_path, "torn trailing record (truncated write)");
  }
  for (std::size_t i = 0; i < cp.corrupt_keys.size(); ++i) {
    const auto& key = cp.corrupt_keys[i];
    add(report, csv_path,
        "mid-file row failed its CRC check" +
            (key.empty() ? std::string() : " (key '" + key + "')"));
  }
  // -- Manifest.
  const auto manifest_path = Manifest::path_for(csv_path);
  std::optional<Manifest> manifest;
  if (const auto text = store->read(manifest_path)) {
    manifest = Manifest::parse(*text);
    if (!manifest) {
      add(report, manifest_path, "manifest present but corrupt");
    } else if (manifest->header_crc != util::crc32c(found_header)) {
      add(report, manifest_path,
          "manifest header digest " + util::crc32c_hex(manifest->header_crc) +
              " does not match the checkpoint header (" +
              util::crc32c_hex(util::crc32c(found_header)) + ")");
    }
  } else {
    add(report, manifest_path, "manifest missing (resume cannot verify "
                               "campaign identity)");
  }

  // -- Journal + cross-replay, through the trust rule resume applies.
  JournalScan js;
  bool cross_check = false;
  if (!options.journal_path.empty()) {
    js = scan_journal(*store, options.journal_path);
    report.journal_lines = js.lines.size();
    if (!js.existed) {
      add(report, options.journal_path, "journal missing");
    } else {
      cross_check = true;
      if (js.dropped != 0) {
        add(report, options.journal_path,
            std::to_string(js.dropped) +
                " journal line(s) failed their CRC check (torn tail)");
      }
      if (!js.has_begin && !js.lines.empty()) {
        add(report, options.journal_path, "no campaign-begin line survived");
      }
    }
  }
  const auto trusted =
      trusted_state(cp, cross_check ? &js : nullptr, found_header);
  report.trusted_rows = trusted.trusted_rows;
  for (std::size_t i = 0; i < cp.lines.size(); ++i) {
    const auto& key = cp.keys[i];
    switch (trusted.verdicts[i]) {
      case RowTrust::kTrusted:
        break;
      case RowTrust::kDuplicate:
        add(report, csv_path, "duplicate row for trial '" + key + "'");
        break;
      case RowTrust::kNoTerminalEvent:
        add(report, csv_path,
            "row '" + key + "' has no terminal journal event (the row "
            "outran the journal; a resume would rerun it)");
        break;
      case RowTrust::kStatusMismatch:
        add(report, csv_path,
            "row '" + key + "' is '" + util::split_csv_line(cp.lines[i])[1] +
                "' but the journal records '" + trusted.terminal.at(key) +
                "' (a resume would rerun it)");
        break;
    }
  }
  const std::unordered_set<std::string> row_keys(cp.keys.begin(),
                                                 cp.keys.end());
  for (const auto& [key, status] : trusted.terminal) {
    if (row_keys.find(key) == row_keys.end()) {
      add(report, options.journal_path,
          "journal block for '" + key + "' has no committed checkpoint row");
    }
  }

  // -- Repair: rewrite down to what a resume would trust.
  if (options.repair && !report.clean()) {
    // Quarantine sidecar keeps every byte fsck refuses to trust.
    std::string quarantined;
    for (std::size_t i = 0; i < cp.lines.size(); ++i) {
      if (trusted.verdicts[i] != RowTrust::kTrusted) {
        quarantined += cp.lines[i];
        quarantined += '\n';
      }
    }
    if (cp.corrupt_rows != 0 || cp.tail_truncated || !quarantined.empty()) {
      // Re-scan raw lines so corrupt/torn originals land in the sidecar
      // verbatim (load_checkpoint only returns the valid ones).
      std::string raw_bad;
      std::size_t begin = newline == std::string::npos ? contents->size()
                                                       : newline + 1;
      while (begin < contents->size()) {
        const auto end = contents->find('\n', begin);
        const auto line = contents->substr(
            begin, end == std::string::npos ? std::string::npos
                                            : end - begin);
        std::string_view payload;
        const bool valid =
            util::verify_csv_row_crc(line, &payload) &&
            util::split_csv_line(line).size() == header_cells.size();
        if (!valid || end == std::string::npos) {
          if (!line.empty()) {
            raw_bad += line;
            raw_bad += '\n';
          }
        }
        if (end == std::string::npos) break;
        begin = end + 1;
      }
      store->atomic_replace(csv_path + ".quarantine",
                            quarantined + raw_bad);
    }

    store->atomic_replace(csv_path, trusted.csv);
    if (cross_check) {
      store->atomic_replace(options.journal_path, trusted.journal);
    }
    report.repaired = true;
  }
  return report;
}

}  // namespace hbmrd::runner
