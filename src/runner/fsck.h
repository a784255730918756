// Offline verifier/repairer for campaign artifacts (tools/campaign_fsck).
//
// Replays the same record-level checks the runner's --resume path applies —
// CRC-trailed checkpoint rows, CRC-trailed journal lines, the manifest's
// config digests — plus the cross-replay between the two artifacts: every
// committed CSV row must have a complete journal block (terminal trial-ok /
// quarantine event) with a matching status, and every complete block must
// have its row. That intersection is exactly what a resume would trust —
// both apply runner::trusted_state (runner/checkpoint.h) — so a clean fsck
// certifies that resuming cannot silently drop or duplicate a trial.
//
// With `repair`, the artifacts are rewritten (atomically) down to the
// verified state: torn tails truncated at the record boundary, corrupt rows
// moved to a `<results>.quarantine` sidecar (never deleted), rows/blocks
// outside the intersection dropped so the next resume reruns those trials.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/store.h"

namespace hbmrd::runner {

struct FsckOptions {
  /// Checkpoint CSV (required).
  std::string results_path;
  /// JSONL journal ("" = skip journal and cross-replay checks).
  std::string journal_path;
  /// Rewrite the artifacts down to the verified state.
  bool repair = false;
  /// Storage backend; null = the shared PosixStore.
  std::shared_ptr<Store> store;
};

struct FsckIssue {
  std::string file;
  std::string what;
};

struct FsckReport {
  /// The checkpoint is unreadable or not a campaign artifact at all;
  /// nothing else was checked (and repair refuses to touch it).
  bool fatal = false;
  std::vector<FsckIssue> issues;
  std::uint64_t checkpoint_rows = 0;  // CRC-valid rows found
  std::uint64_t journal_lines = 0;    // CRC-valid journal lines found
  std::uint64_t trusted_rows = 0;     // rows a resume would actually keep
  bool repaired = false;              // repair ran and rewrote artifacts

  [[nodiscard]] bool clean() const { return !fatal && issues.empty(); }
};

[[nodiscard]] FsckReport campaign_fsck(const FsckOptions& options);

}  // namespace hbmrd::runner
