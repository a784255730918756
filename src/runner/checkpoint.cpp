#include "runner/checkpoint.h"

#include <unordered_set>

#include "runner/journal.h"
#include "util/crc32c.h"
#include "util/csv.h"
#include "util/parse.h"

namespace hbmrd::runner {

namespace {

/// Splits `text` into complete (newline-terminated) lines; a trailing
/// piece without its newline is returned via `partial_tail`.
std::vector<std::string_view> complete_lines(std::string_view text,
                                             bool* partial_tail) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const auto end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      *partial_tail = true;
      return lines;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  *partial_tail = false;
  return lines;
}

}  // namespace

std::string Manifest::serialize() const {
  std::string line = "hbmrd-manifest,v" + std::to_string(kVersion);
  line += ',' + util::crc32c_hex(header_crc);
  line += ',' + std::to_string(fault_seed);
  line += ',' + std::to_string(trial_count);
  line += ',' + util::crc32c_hex(trials_crc);
  line += ',' + std::to_string(incarnations);
  line += ',' + util::crc32c_hex(util::crc32c(line));
  line += '\n';
  return line;
}

std::optional<Manifest> Manifest::parse(std::string_view text) {
  const auto newline = text.find('\n');
  if (newline != std::string_view::npos) text = text.substr(0, newline);
  std::string_view payload;
  if (!util::verify_csv_row_crc(text, &payload)) return std::nullopt;
  const auto cells = util::split_csv_line(payload);
  if (cells.size() != 7 || cells[0] != "hbmrd-manifest" ||
      cells[1] != "v" + std::to_string(kVersion)) {
    return std::nullopt;
  }
  // Exception-free cell parsing: a corrupt digit cell must resolve to "not
  // a manifest" (treated as missing), never to a throw out of recovery.
  Manifest m;
  if (!util::parse_crc32c_hex(cells[2], &m.header_crc)) return std::nullopt;
  const auto fault_seed = util::parse_u64(cells[3]);
  const auto trial_count = util::parse_u64(cells[4]);
  if (!fault_seed || !trial_count) return std::nullopt;
  m.fault_seed = *fault_seed;
  m.trial_count = *trial_count;
  if (!util::parse_crc32c_hex(cells[5], &m.trials_crc)) return std::nullopt;
  const auto incarnations = util::parse_u64(cells[6]);
  if (!incarnations) return std::nullopt;
  m.incarnations = *incarnations;
  return m;
}

std::string Manifest::path_for(const std::string& results_path) {
  return results_path + ".manifest";
}

RecoveredCheckpoint load_checkpoint(Store& store, const std::string& path,
                                    std::size_t expected_width) {
  RecoveredCheckpoint out;
  const auto contents = store.read(path);
  if (!contents || contents->empty()) return out;
  out.existed = true;

  bool partial_tail = false;
  const auto lines = complete_lines(*contents, &partial_tail);
  out.tail_truncated = partial_tail;
  if (lines.empty()) return out;
  out.found_header = std::string(lines.front());

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = lines[i];
    std::string_view payload;
    bool valid = util::verify_csv_row_crc(line, &payload);
    std::vector<std::string> cells;
    if (valid) {
      cells = util::split_csv_line(line);
      valid = cells.size() == expected_width;
    }
    if (valid) {
      out.lines.emplace_back(line);
      out.keys.push_back(cells.front());
      continue;
    }
    if (i + 1 == lines.size()) {
      // A damaged final record is the signature of a torn append, not of
      // mid-file corruption: truncate instead of quarantining.
      out.tail_truncated = true;
    } else {
      ++out.corrupt_rows;
      const auto damaged = util::split_csv_line(line);
      out.corrupt_keys.push_back(damaged.empty() ? std::string()
                                                 : damaged.front());
    }
  }
  return out;
}

JournalScan scan_journal(Store& store, const std::string& path) {
  JournalScan out;
  const auto contents = store.read(path);
  if (!contents) return out;
  // An empty-but-present journal still "exists": a power loss can roll the
  // file back to zero bytes, and recovery must then distrust checkpoint
  // rows rather than treat the journal as never-configured.
  out.existed = true;
  if (contents->empty()) return out;

  bool partial_tail = false;
  const auto lines = complete_lines(*contents, &partial_tail);
  if (partial_tail) ++out.dropped;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!verify_journal_line(lines[i])) {
      // Journal lines form per-trial blocks: nothing after the first bad
      // line can be trusted to sit on a block boundary.
      out.dropped += lines.size() - i;
      break;
    }
    out.lines.emplace_back(lines[i]);
    out.events.emplace_back(journal_line_field(lines[i], "event"));
    out.keys.emplace_back(journal_line_field(lines[i], "trial"));
    if (out.events.back() == "campaign-begin") out.has_begin = true;
  }
  return out;
}

TrustedState trusted_state(const RecoveredCheckpoint& checkpoint,
                           const JournalScan* journal,
                           const std::string& header_line) {
  TrustedState out;
  if (journal != nullptr) {
    for (std::size_t i = 0; i < journal->lines.size(); ++i) {
      const auto& event = journal->events[i];
      if (event == "trial-ok" || event == "quarantine") {
        out.terminal[journal->keys[i]] =
            event == "trial-ok" ? "ok" : "quarantined";
      }
    }
  }

  std::unordered_set<std::string> trusted;
  std::unordered_set<std::string> seen;
  out.csv = header_line + "\n";
  for (std::size_t i = 0; i < checkpoint.lines.size(); ++i) {
    const auto& key = checkpoint.keys[i];
    auto verdict = RowTrust::kTrusted;
    if (!seen.insert(key).second) {
      verdict = RowTrust::kDuplicate;
    } else if (journal != nullptr) {
      const auto it = out.terminal.find(key);
      if (it == out.terminal.end()) {
        verdict = RowTrust::kNoTerminalEvent;
      } else if (it->second != util::split_csv_line(checkpoint.lines[i])[1]) {
        verdict = RowTrust::kStatusMismatch;
      }
    }
    out.verdicts.push_back(verdict);
    if (verdict != RowTrust::kTrusted) continue;
    trusted.insert(key);
    out.csv += checkpoint.lines[i];
    out.csv += '\n';
  }
  out.trusted_rows = trusted.size();

  if (journal != nullptr) {
    bool kept_begin = false;
    for (std::size_t i = 0; i < journal->lines.size(); ++i) {
      if (journal->events[i] == "campaign-begin") {
        if (kept_begin) continue;  // keep the first only
        kept_begin = true;
      } else if (journal->keys[i].empty() ||
                 trusted.find(journal->keys[i]) == trusted.end()) {
        // Campaign-level control lines (stop/abort/end, checkpoint
        // quarantines) are superseded; keyed lines without a trusted row
        // belong to trials that will rerun.
        continue;
      }
      out.journal += journal->lines[i];
      out.journal += '\n';
    }
  }
  return out;
}

}  // namespace hbmrd::runner
