// Checkpoint recovery and the campaign manifest.
//
// A campaign persists three artifacts: the checkpoint CSV (one CRC-trailed
// row per committed trial), the JSONL journal (CRC-trailed event lines) and
// a manifest describing the configuration that produced them. Resume has to
// answer two very different questions from those bytes:
//
//   * "which committed state survived?" — answered record-by-record from
//     the CRC trailers: a torn tail truncates at the exact record boundary,
//     a corrupt mid-file row is quarantined (skipped, reported, never
//     silently re-used) while later intact rows stay trusted;
//   * "is this even the same campaign?" — answered by the manifest: header
//     digest, fault-plan seed and trial-list hash. A mismatch is a config
//     error (stale --resume target, changed column set, different seed) and
//     raises CheckpointMismatchError with an actionable message instead of
//     poisoning the sweep with rows from another experiment. Conversely, a
//     checkpoint whose on-disk header is damaged but whose manifest matches
//     the expected config is disk corruption, and the header is rebuilt.
//
// The asymmetry between the two artifacts is deliberate: checkpoint rows
// are independent records, so recovery skips bad ones; journal lines form
// per-trial blocks, so recovery truncates at the first bad line — a block
// after a hole cannot be interpreted.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runner/store.h"

namespace hbmrd::runner {

/// The --resume target was produced by a different campaign configuration.
/// The message names the file, what was expected vs found, and the likely
/// cause; it is a user error, not corruption, so nothing is modified.
class CheckpointMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One line of campaign identity, stored next to the checkpoint
/// (`<results>.manifest`) and rewritten atomically on every run.
struct Manifest {
  static constexpr int kVersion = 1;

  std::uint32_t header_crc = 0;   // CRC32C of the checkpoint header line
  std::uint64_t fault_seed = 0;   // fault-plan seed the rows were drawn with
  std::uint64_t trial_count = 0;  // number of trials in the campaign list
  std::uint32_t trials_crc = 0;   // CRC32C over trial keys joined with '\n'
  std::uint64_t incarnations = 0; // how many runs have opened this campaign

  /// Single self-CRC'd line (newline-terminated).
  [[nodiscard]] std::string serialize() const;
  /// nullopt on any syntax or CRC failure — a corrupt manifest is treated
  /// as missing, never trusted.
  [[nodiscard]] static std::optional<Manifest> parse(std::string_view text);
  [[nodiscard]] static std::string path_for(const std::string& results_path);
};

/// What survived in the checkpoint CSV, record by record.
struct RecoveredCheckpoint {
  bool existed = false;         // file was present and non-empty
  std::string found_header;     // raw first line ("" when !existed)
  /// CRC-valid data lines in file order, exactly as on disk (with their
  /// CRC trailer), paired with the trial key (first cell) of each.
  std::vector<std::string> lines;
  std::vector<std::string> keys;
  /// Mid-file rows that failed their CRC (or width) check: quarantined.
  /// Keys are best-effort (first cell of the damaged line; may be empty).
  std::uint64_t corrupt_rows = 0;
  std::vector<std::string> corrupt_keys;
  /// The final line was partial or CRC-invalid — the signature of a torn
  /// tail from a kill/power cut; it is truncated, not quarantined.
  bool tail_truncated = false;
};

/// Scans the checkpoint at `path`. `expected_width` is the full on-disk
/// cell count including the CRC trailer; rows of any other width are
/// treated as corrupt even if self-consistent. Never throws on content —
/// header validation against the manifest is the caller's decision.
[[nodiscard]] RecoveredCheckpoint load_checkpoint(Store& store,
                                                  const std::string& path,
                                                  std::size_t expected_width);

/// What survived in the journal: the longest CRC-valid line prefix.
struct JournalScan {
  bool existed = false;
  /// Valid lines in file order, without trailing newlines.
  std::vector<std::string> lines;
  /// Per-line "event" type and "trial" key ("" = campaign-level event).
  std::vector<std::string> events;
  std::vector<std::string> keys;
  bool has_begin = false;     // a campaign-begin line survived
  std::uint64_t dropped = 0;  // lines discarded at the torn/corrupt tail
};

[[nodiscard]] JournalScan scan_journal(Store& store, const std::string& path);

/// Why a CRC-valid checkpoint row is or is not kept.
enum class RowTrust {
  kTrusted,
  kDuplicate,        // an earlier row already holds this trial key
  kNoTerminalEvent,  // the journal has no trial-ok / quarantine for the key
  kStatusMismatch,   // the journal's last terminal event disagrees with it
};

/// The trust rule shared by resume (CampaignRunner) and campaign_fsck, so
/// an fsck-clean pair is exactly what a resume keeps. A row is trusted when
/// it is the first row of its key and, when a journal is given, the key's
/// last terminal journal event (trial-ok / quarantine) records the row's
/// status. Both artifacts are rewritten down to the trusted trials.
struct TrustedState {
  /// One verdict per row of RecoveredCheckpoint::lines.
  std::vector<RowTrust> verdicts;
  /// Key -> "ok" / "quarantined" from its last terminal journal event.
  std::unordered_map<std::string, std::string> terminal;
  std::uint64_t trusted_rows = 0;
  /// `header_line`, then the trusted rows in file order.
  std::string csv;
  /// The first campaign-begin line plus the keyed lines of trusted trials
  /// ("" when no journal was given).
  std::string journal;
};

/// `journal` = nullptr trusts every first row (the campaign never
/// journaled).
[[nodiscard]] TrustedState trusted_state(const RecoveredCheckpoint& checkpoint,
                                         const JournalScan* journal,
                                         const std::string& header_line);

}  // namespace hbmrd::runner
