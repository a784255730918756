#include "runner/shard.h"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "util/crc32c.h"
#include "util/parse.h"

namespace hbmrd::runner {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

/// Calls `count(field)` for each integer field of a TrialTally and
/// `seconds(field)` for each double, in wire order.
template <typename Tally, typename Count, typename Seconds>
constexpr void visit_tally_fields(Tally& tally, Count count, Seconds seconds) {
  count(tally.retries);
  count(tally.faults_injected);
  count(tally.thermal_excursions);
  count(tally.guard_blocks);
  seconds(tally.guard_wait_s);
  seconds(tally.backoff_wait_s);
  seconds(tally.trial_s);
  for (const auto field : dram::kBankCounterFields) count(tally.device.*field);
}

constexpr std::size_t kTallyFields = [] {
  TrialTally tally;
  std::size_t fields = 0;
  const auto one = [&](auto&) { ++fields; };
  visit_tally_fields(tally, one, one);
  return fields;
}();

extern "C" void graceful_stop_handler(int /*signo*/) {
  if (g_stop_requested != 0) {
    // Second signal: the operator insists. 128 + SIGTERM by convention.
    std::_Exit(143);
  }
  g_stop_requested = 1;
}

/// Appends ",<crc32c hex>\n" over everything of `line` already built.
void seal_line(std::string& out, std::size_t line_start) {
  const auto crc = util::crc32c(
      std::string_view(out).substr(line_start, out.size() - line_start));
  out += ',';
  out += util::crc32c_hex(crc);
  out += '\n';
}

/// Splits one index line on commas; verifies and strips the CRC trailer.
std::optional<std::vector<std::string_view>> parse_sealed_line(
    std::string_view line) {
  const auto comma = line.rfind(',');
  if (comma == std::string_view::npos) return std::nullopt;
  const auto payload = line.substr(0, comma);
  const auto crc_hex = line.substr(comma + 1);
  if (util::crc32c_hex(util::crc32c(payload)) != crc_hex) return std::nullopt;
  std::vector<std::string_view> cells;
  std::size_t start = 0;
  while (true) {
    const auto next = payload.find(',', start);
    cells.push_back(payload.substr(
        start, next == std::string_view::npos ? next : next - start));
    if (next == std::string_view::npos) break;
    start = next + 1;
  }
  return cells;
}

}  // namespace

void HeartbeatEmitter::send(const char* bytes, std::size_t len) {
  while (len > 0) {
    const auto n = ::write(fd_, bytes, len);
    if (n > 0) {
      bytes += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Supervisor gone (EPIPE with SIGPIPE ignored) or pipe broken some
    // other way: mute rather than fail the worker — committed state is on
    // disk and the supervisor's watchdog owns the liveness decision.
    fd_ = -1;
    return;
  }
}

void HeartbeatEmitter::hello() {
  if (!enabled()) return;
  send("s\n", 2);
}

void HeartbeatEmitter::progress(std::uint64_t trial_index) {
  if (!enabled()) return;
  const int n = std::snprintf(buf_, sizeof(buf_), "t %llu\n",
                              static_cast<unsigned long long>(trial_index));
  if (n > 0) send(buf_, static_cast<std::size_t>(n));
}

void HeartbeatEmitter::progress(std::uint64_t trial_index,
                                const TrialTally& tally) {
  if (!enabled()) return;
  char* out = buf_;
  char* const end = buf_ + sizeof(buf_);
  *out++ = 't';
  const auto put = [&](std::uint64_t value, int base) {
    *out++ = ' ';
    out = std::to_chars(out, end, value, base).ptr;
  };
  put(trial_index, 10);
  visit_tally_fields(tally, [&](std::uint64_t value) { put(value, 10); },
                     [&](double value) {
                       put(std::bit_cast<std::uint64_t>(value), 16);
                     });
  *out++ = '\n';
  send(buf_, static_cast<std::size_t>(out - buf_));
}

void HeartbeatEmitter::done() {
  if (!enabled()) return;
  send("d\n", 2);
}

std::optional<ProgressBeat> parse_progress(std::string_view line) {
  if (line.substr(0, 2) != "t ") return std::nullopt;
  std::vector<std::string_view> fields;
  for (std::size_t start = 2; start <= line.size();) {
    auto end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    fields.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  const auto index = util::parse_u64(fields[0]);
  if (!index) return std::nullopt;
  ProgressBeat beat;
  beat.trial_index = *index;
  if (fields.size() == 1) return beat;
  if (fields.size() != 1 + kTallyFields) return std::nullopt;
  TrialTally tally;
  std::size_t next = 1;
  bool ok = true;
  const auto take = [&](int base) {
    const auto value = util::parse_u64(fields[next++], base);
    ok = ok && value.has_value();
    return value.value_or(0);
  };
  visit_tally_fields(tally, [&](std::uint64_t& value) { value = take(10); },
                     [&](double& value) {
                       value = std::bit_cast<double>(take(16));
                     });
  if (!ok) return std::nullopt;
  beat.tally = tally;
  return beat;
}

void install_graceful_stop() {
  std::signal(SIGTERM, graceful_stop_handler);
  std::signal(SIGINT, graceful_stop_handler);
}

void reset_graceful_stop() { g_stop_requested = 0; }

bool graceful_stop_requested() { return g_stop_requested != 0; }

const char* to_string(ShardSpec::Status status) {
  switch (status) {
    case ShardSpec::Status::kPending: return "pending";
    case ShardSpec::Status::kDone: return "done";
    case ShardSpec::Status::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string ShardSet::serialize() const {
  std::string out;
  const auto header_start = out.size();
  out += "hbmrd-shards,v1,";
  out += std::to_string(trial_count);
  out += ',';
  out += std::to_string(shards.size());
  seal_line(out, header_start);
  for (const auto& shard : shards) {
    const auto line_start = out.size();
    out += "shard,";
    out += std::to_string(shard.id);
    out += ',';
    out += std::to_string(shard.lo);
    out += ',';
    out += std::to_string(shard.hi);
    out += ',';
    out += to_string(shard.status);
    seal_line(out, line_start);
  }
  return out;
}

std::optional<ShardSet> ShardSet::parse(std::string_view text) {
  ShardSet set;
  std::size_t shard_lines = 0;
  std::optional<std::uint64_t> declared;
  bool have_header = false;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const auto line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const auto cells = parse_sealed_line(line);
    if (!cells) return std::nullopt;
    if (!have_header) {
      if (cells->size() != 4 || (*cells)[0] != "hbmrd-shards" ||
          (*cells)[1] != "v1") {
        return std::nullopt;
      }
      const auto count = util::parse_u64((*cells)[2]);
      declared = util::parse_u64((*cells)[3]);
      if (!count || !declared) return std::nullopt;
      set.trial_count = *count;
      have_header = true;
      continue;
    }
    if (cells->size() != 5 || (*cells)[0] != "shard") return std::nullopt;
    ShardSpec spec;
    const auto id = util::parse_u64((*cells)[1]);
    const auto lo = util::parse_u64((*cells)[2]);
    const auto hi = util::parse_u64((*cells)[3]);
    if (!id || !lo || !hi || *lo > *hi) return std::nullopt;
    spec.id = *id;
    spec.lo = *lo;
    spec.hi = *hi;
    const auto& status = (*cells)[4];
    if (status == "pending") {
      spec.status = ShardSpec::Status::kPending;
    } else if (status == "done") {
      spec.status = ShardSpec::Status::kDone;
    } else if (status == "quarantined") {
      spec.status = ShardSpec::Status::kQuarantined;
    } else {
      return std::nullopt;
    }
    set.shards.push_back(spec);
    ++shard_lines;
  }
  if (!have_header || !declared || shard_lines != *declared) {
    return std::nullopt;
  }
  return set;
}

std::string shard_index_path(const std::string& results_path) {
  return results_path + ".shards";
}

std::string shard_artifact_path(const std::string& base,
                                std::uint64_t shard_id) {
  return base + ".shard" + std::to_string(shard_id);
}

}  // namespace hbmrd::runner
