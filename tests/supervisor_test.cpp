// Process-isolated sharded campaigns: supervisor, shard handoff, merge.
//
// The contract under test is the same byte-identity the in-process runner
// guarantees, extended across process boundaries: for any shard count and
// any injected failure schedule — worker crashes mid-commit, wedged
// workers reaped by the hang watchdog, heartbeat loss, repeated crashes
// quarantining a shard, a kill in the middle of the merge itself — the
// supervised campaign's merged CSV checkpoint and JSONL journal are the
// exact bytes the uninterrupted `--jobs 1` run produces.
#include "runner/supervisor.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bender/platform.h"
#include "runner/checkpoint.h"
#include "runner/fsck.h"
#include "runner/merge.h"
#include "runner/shard.h"
#include "util/store.h"

namespace hbmrd::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "supervisor_test_" + name;
}

/// Chip 2: ambient, identity row mapping, no documented TRR.
bender::HbmChip fresh_chip() {
  return bender::HbmChip(dram::chip_profiles()[2]);
}

const std::vector<std::string> kColumns = {"flips", "victim_byte"};

/// Self-initializing double-sided hammer trials (as runner_test.cpp), with
/// an optional per-trial wall-clock delay from `slow_from` onward so work
/// stealing has a straggler to steal from.
std::vector<CampaignRunner::Trial> make_trials(int n, int slow_from = -1,
                                               int slow_ms = 0) {
  std::vector<CampaignRunner::Trial> trials;
  for (int t = 0; t < n; ++t) {
    const int row = 64 + 8 * t;
    const auto pattern = static_cast<std::uint8_t>(0x40 + t);
    const bool slow = slow_from >= 0 && t >= slow_from;
    trials.push_back(
        {"row" + std::to_string(row),
         [row, pattern, slow, slow_ms](bender::ChipSession& session)
             -> std::vector<std::string> {
           if (slow) {
             std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
           }
           const dram::RowAddress victim{{0, 0, 0}, row};
           session.write_row(victim, dram::RowBits::filled(pattern));
           session.write_row({{0, 0, 0}, row - 1},
                             dram::RowBits::filled(0xFF));
           session.write_row({{0, 0, 0}, row + 1},
                             dram::RowBits::filled(0xFF));
           const std::array<int, 2> aggressors = {row - 1, row + 1};
           session.hammer({0, 0, 0}, aggressors, 20000);
           const auto bits = session.read_row(victim);
           return {std::to_string(
                       bits.count_diff(dram::RowBits::filled(pattern))),
                   std::to_string(bits.words()[0] & 0xFF)};
         }});
  }
  return trials;
}

RunnerConfig base_config(const std::string& tag) {
  RunnerConfig config;
  config.result_columns = kColumns;
  config.results_path = tmp_path(tag + ".csv");
  config.journal_path = tmp_path(tag + ".jsonl");
  config.guard.enabled = false;
  return config;
}

void clear_artifacts(const RunnerConfig& config, std::uint64_t max_shards) {
  auto store = util::default_store();
  for (const auto& base : {config.results_path, config.journal_path}) {
    store->remove(base);
    store->remove(base + ".manifest");
    store->remove(base + ".quarantine");
    for (std::uint64_t id = 0; id < max_shards + 8; ++id) {
      store->remove(shard_artifact_path(base, id));
      store->remove(shard_artifact_path(base, id) + ".manifest");
      store->remove(shard_artifact_path(base, id) + ".quarantine");
    }
  }
  store->remove(shard_index_path(config.results_path));
}

/// The uninterrupted single-process `--jobs 1` run: the golden bytes and
/// the report's run-local counts.
struct Golden {
  std::string csv;
  std::string journal;
  CampaignReport report;
};

Golden golden_run(const std::string& tag,
                  const std::vector<CampaignRunner::Trial>& trials,
                  const fault::FaultPlanConfig& faults = {}) {
  auto config = base_config(tag);
  config.faults = faults;
  config.faults.worker = {};  // worker faults fire in shard mode only
  clear_artifacts(config, 0);
  auto chip = fresh_chip();
  CampaignRunner campaign(chip, config);
  auto report = campaign.run(trials);
  EXPECT_FALSE(report.aborted);
  return {slurp(config.results_path), slurp(config.journal_path),
          std::move(report)};
}

/// Supervised fork-mode run; quick watchdog/backoff so injected hangs
/// cost tenths of a second, not the production 30 s deadline.
SupervisorConfig quick_supervision(std::uint64_t shards) {
  SupervisorConfig config;
  config.shards = shards;
  config.hang_timeout_s = 1.0;
  config.restart_backoff = {5, 0.02, 0.1};
  return config;
}

/// quick_supervision for tests that count spawns or injected faults. A
/// steal respawns its victim and spawns the stolen shard, two spawns more
/// than the shard count, and the respawned incarnation runs with worker
/// faults disarmed, so an injected fault may never fire. Stealing is
/// therefore off here; WorkStealingSplitsTheStraggler covers it.
SupervisorConfig counted_supervision(std::uint64_t shards) {
  auto config = quick_supervision(shards);
  config.work_stealing = false;
  return config;
}

const std::uint64_t kShardCounts[] = {1, 2, 4};

/// The run-local totals a sharded report folds from commit heartbeats must
/// equal the serial report's exactly, simulated seconds included.
void expect_same_totals(const CampaignReport& got, const CampaignReport& want,
                        const std::string& tag) {
  EXPECT_EQ(got.retries, want.retries) << tag;
  EXPECT_EQ(got.faults_injected, want.faults_injected) << tag;
  EXPECT_EQ(got.thermal_excursions, want.thermal_excursions) << tag;
  EXPECT_EQ(got.guard_blocks, want.guard_blocks) << tag;
  EXPECT_EQ(got.guard_wait_s, want.guard_wait_s) << tag;
  EXPECT_EQ(got.backoff_wait_s, want.backoff_wait_s) << tag;
  EXPECT_EQ(got.campaign_seconds, want.campaign_seconds) << tag;
  EXPECT_EQ(got.device_counters, want.device_counters) << tag;
}

TEST(ShardSetTest, SerializeParseRoundtrip) {
  ShardSet set;
  set.trial_count = 12;
  set.shards = {{0, 0, 5, ShardSpec::Status::kDone},
                {1, 5, 9, ShardSpec::Status::kPending},
                {2, 9, 12, ShardSpec::Status::kQuarantined}};
  const auto text = set.serialize();
  const auto parsed = ShardSet::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trial_count, 12u);
  ASSERT_EQ(parsed->shards.size(), 3u);
  EXPECT_EQ(parsed->shards[1].lo, 5u);
  EXPECT_EQ(parsed->shards[1].hi, 9u);
  EXPECT_EQ(parsed->shards[0].status, ShardSpec::Status::kDone);
  EXPECT_EQ(parsed->shards[2].status, ShardSpec::Status::kQuarantined);
}

TEST(ShardSetTest, CorruptIndexRejected) {
  ShardSet set;
  set.trial_count = 4;
  set.shards = {{0, 0, 4, ShardSpec::Status::kPending}};
  auto text = set.serialize();
  EXPECT_FALSE(ShardSet::parse("").has_value());
  EXPECT_FALSE(ShardSet::parse("not a shard index\n").has_value());
  // Flip one digit inside a sealed line: the CRC must catch it.
  const auto pos = text.find("shard,0,0,4");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '1';
  EXPECT_FALSE(ShardSet::parse(text).has_value());
  // Shard-count mismatch between header and lines.
  auto truncated = set.serialize();
  truncated.resize(truncated.find('\n') + 1);
  EXPECT_FALSE(ShardSet::parse(truncated).has_value());
}

TEST(HeartbeatTest, ProgressBeatsParse) {
  const auto resumed = parse_progress("t 17");
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->trial_index, 17u);
  EXPECT_FALSE(resumed->tally.has_value());
  // Counts in decimal; guard wait 1.5 s, backoff 0 s and trial 0.1 s as
  // the hex bits of the doubles; then the nine device counters.
  const auto committed = parse_progress(
      "t 3 2 5 1 4 3ff8000000000000 0 3fb999999999999a "
      "10 11 12 13 14 15 16 17 18");
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(committed->trial_index, 3u);
  ASSERT_TRUE(committed->tally.has_value());
  EXPECT_EQ(committed->tally->retries, 2u);
  EXPECT_EQ(committed->tally->faults_injected, 5u);
  EXPECT_EQ(committed->tally->thermal_excursions, 1u);
  EXPECT_EQ(committed->tally->guard_blocks, 4u);
  EXPECT_EQ(committed->tally->guard_wait_s, 1.5);
  EXPECT_EQ(committed->tally->backoff_wait_s, 0.0);
  EXPECT_EQ(committed->tally->trial_s, 0.1);
  EXPECT_EQ(committed->tally->device.activations, 10u);
  EXPECT_EQ(committed->tally->device.sense_cells_visited, 18u);
  for (const char* bad :
       {"", "s", "d", "t", "t ", "t x", "t 1 2", "t 1 2 3", "t 3 2 5 1",
        "t 1 2 3 4 5", "t 1  2 3 4", "t 1 2 3 4 ",
        "t 3 2 5 1 4 3ff8000000000000 0 3fb999999999999a "
        "10 11 12 13 14 15 16 17",
        "t 3 2 5 1 4 3ff8000000000000 0 0x3fb999999999999a "
        "10 11 12 13 14 15 16 17 18",
        "t 3 2 5 1 4 3ff8000000000000 0 3fb999999999999a "
        "10 11 12 13 14 15 16 17 18 "}) {
    EXPECT_FALSE(parse_progress(bad).has_value()) << bad;
  }
}

TEST(HeartbeatTest, EmittedTallyRoundTripsExactly) {
  TrialTally tally{7, 3, 2, 1, 0.30000000000000004, 1e-9, 123.456, {}};
  std::uint64_t value = 17920224;
  for (const auto field : dram::kBankCounterFields) {
    tally.device.*field = value++;
  }
  std::array<int, 2> fds{};
  ASSERT_EQ(::pipe(fds.data()), 0);
  HeartbeatEmitter emitter(fds[1]);
  emitter.progress(41, tally);
  emitter.progress(42);
  ::close(fds[1]);
  std::string wire;
  std::array<char, 512> buf{};
  for (ssize_t n; (n = ::read(fds[0], buf.data(), buf.size())) > 0;) {
    wire.append(buf.data(), static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  const auto newline = wire.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const auto committed = parse_progress(wire.substr(0, newline));
  ASSERT_TRUE(committed.has_value()) << wire;
  EXPECT_EQ(committed->trial_index, 41u);
  ASSERT_TRUE(committed->tally.has_value());
  EXPECT_EQ(*committed->tally, tally);
  EXPECT_EQ(wire.substr(newline + 1), "t 42\n");
}

TEST(SupervisorTest, CleanShardedRunMatchesSerial) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("clean_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("clean_s" + std::to_string(shards));
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, counted_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_EQ(report.shards_stolen, 0u);
    EXPECT_EQ(report.spawns, shards);
    EXPECT_EQ(report.crashes, 0u);
    EXPECT_EQ(report.campaign.completed, 12u);
    EXPECT_EQ(report.campaign.tallies_missing, 0u) << shards << " shards";
    expect_same_totals(report.campaign, golden.report,
                       std::to_string(shards) + " shards");
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, ShardedReportCountsFaultsLikeSerial) {
  // The merged report's run-local totals (retries, injected faults,
  // thermal excursions, waits, simulated seconds, device counters) come
  // from the workers' commit heartbeats, keyed by trial index: equal to
  // the serial run's for any shard count, and a trial re-run after a crash
  // in its commit is counted once.
  reset_graceful_stop();
  const auto trials = make_trials(12);
  fault::FaultPlanConfig faults;
  faults.transient_rate = 0.3;
  faults.thermal_rate = 0.2;
  const auto golden = golden_run("tally_golden", trials, faults);
  ASSERT_GT(golden.report.retries, 0u);
  ASSERT_GT(golden.report.faults_injected, 0u);
  ASSERT_GT(golden.report.thermal_excursions, 0u);
  ASSERT_GT(golden.report.campaign_seconds, 0.0);
  ASSERT_GT(golden.report.device_counters.activations, 0u);
  for (const auto crash_at : {std::uint64_t{0}, std::uint64_t{5}}) {
    for (const auto shards : kShardCounts) {
      const auto tag = "tally_s" + std::to_string(shards) + "_c" +
                       std::to_string(crash_at);
      auto config = base_config(tag);
      config.faults = faults;
      config.faults.worker.crash_at_trial = crash_at;
      clear_artifacts(config, shards);
      auto chip = fresh_chip();
      Supervisor supervisor(chip, config, counted_supervision(shards));
      const auto report = supervisor.run(trials);
      ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
      EXPECT_EQ(report.crashes, crash_at == 0 ? 0u : 1u) << tag;
      EXPECT_EQ(report.campaign.tallies_missing, 0u) << tag;
      expect_same_totals(report.campaign, golden.report, tag);
      EXPECT_EQ(slurp(config.results_path), golden.csv) << tag;
      EXPECT_EQ(slurp(config.journal_path), golden.journal) << tag;
    }
  }
}

TEST(SupervisorTest, WorkerErrorGoesToStderrWithoutRepeatingParentOutput) {
  // A forked worker inherits the parent's unflushed stdio buffers; its
  // error message on stderr (tied to std::cout) must not flush them a
  // second time. The supervisor flushes before every fork.
  reset_graceful_stop();
  auto trials = make_trials(4);
  for (auto& trial : trials) {
    trial.body = [](bender::ChipSession&) -> std::vector<std::string> {
      throw std::runtime_error("trial body exploded");
    };
  }
  auto config = base_config("hygiene");
  clear_artifacts(config, 2);
  auto supervision = counted_supervision(2);
  supervision.max_restarts = 0;  // quarantine on the first error exit

  const auto out_path = tmp_path("hygiene.stdout");
  const auto err_path = tmp_path("hygiene.stderr");
  std::cout.flush();
  std::fflush(nullptr);
  const int saved_out = ::dup(1);
  const int saved_err = ::dup(2);
  const int flags = O_CREAT | O_TRUNC | O_WRONLY;
  const int out_fd = ::open(out_path.c_str(), flags, 0644);
  const int err_fd = ::open(err_path.c_str(), flags, 0644);
  ASSERT_GE(out_fd, 0);
  ASSERT_GE(err_fd, 0);
  ::dup2(out_fd, 1);
  ::dup2(err_fd, 2);
  std::cout << "unflushed parent text";  // no newline, no flush
  SupervisorReport report;
  {
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, supervision);
    report = supervisor.run(trials);
  }
  std::cout.flush();
  std::fflush(nullptr);
  ::dup2(saved_out, 1);
  ::dup2(saved_err, 2);
  for (const int fd : {saved_out, saved_err, out_fd, err_fd}) ::close(fd);

  const auto count = [](const std::string& text, const std::string& what) {
    std::size_t n = 0;
    for (auto pos = text.find(what); pos != std::string::npos;
         pos = text.find(what, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(report.campaign.abort_reason, "shard-quarantined");
  EXPECT_EQ(report.crashes, 2u);
  EXPECT_EQ(count(slurp(out_path), "unflushed parent text"), 1u);
  const auto err = slurp(err_path);
  EXPECT_EQ(count(err, "shard 0: trial body exploded\n"), 1u) << err;
  EXPECT_EQ(count(err, "shard 1: trial body exploded\n"), 1u) << err;
}

TEST(SupervisorTest, CrashInCommitRecoversByteIdentical) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("crash_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("crash_s" + std::to_string(shards));
    // SIGKILL inside trial 5's commit, after the journal flush and before
    // the CSV row: the widest window the write-ahead discipline allows.
    config.faults.worker.crash_at_trial = 5;
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, counted_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_EQ(report.shards_stolen, 0u);
    EXPECT_GE(report.crashes, 1u);
    EXPECT_GE(report.restarts, 1u);
    EXPECT_GT(report.spawns, shards);
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, HangIsWatchdogKilledAndResumed) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("hang_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("hang_s" + std::to_string(shards));
    config.faults.worker.hang_at_trial = 7;  // wedge before trial 7
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, counted_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_EQ(report.shards_stolen, 0u);
    EXPECT_GE(report.hangs_killed, 1u);
    EXPECT_GE(report.crashes, 1u);  // a SIGKILLed worker is a crash
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, HeartbeatDropIsReapedNotTrusted) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("drop_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("drop_s" + std::to_string(shards));
    // The worker keeps committing but goes silent after 4 trials — and
    // wedges instead of exiting, so only the watchdog can end it. Its
    // committed rows must survive the handoff.
    config.faults.worker.drop_heartbeats_after = 4;
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, counted_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_EQ(report.shards_stolen, 0u);
    EXPECT_GE(report.hangs_killed, 1u);
    // Every first incarnation mutes after global trial 4, so trials 5..12
    // are committed unheard and re-beaten without a tally on resume.
    EXPECT_EQ(report.campaign.tallies_missing, 8u) << shards << " shards";
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, RepeatedCrashQuarantinesThenOperatorResumeClears) {
  reset_graceful_stop();
  const auto trials = make_trials(8);
  const auto golden = golden_run("quarantine_golden", trials);
  auto config = base_config("quarantine");
  // The crash refires for every incarnation: no progress is ever made on
  // the shard owning trial 2, so the supervisor must quarantine it.
  config.faults.worker.crash_at_trial = 2;
  config.faults.worker.repeat_incarnations = 99;
  clear_artifacts(config, 2);
  auto supervision = counted_supervision(2);
  supervision.max_restarts = 2;
  {
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, supervision);
    const auto report = supervisor.run(trials);
    EXPECT_TRUE(report.campaign.aborted);
    EXPECT_EQ(report.campaign.abort_reason, "shard-quarantined");
    EXPECT_EQ(report.shards_quarantined, 1u);
    EXPECT_EQ(report.shards_stolen, 0u);
    ASSERT_EQ(report.quarantined_shards.size(), 1u);
    // No canonical artifacts: the merge refuses an incomplete campaign.
    MergeOptions merge;
    merge.results_path = config.results_path;
    merge.journal_path = config.journal_path;
    EXPECT_FALSE(merge_shards(merge).ok);
  }
  // Operator resume: the quarantined shard gets a fresh failure budget;
  // with the fault schedule cleared the campaign completes and the merged
  // bytes are the uninterrupted run's.
  config.faults.worker = {};
  config.resume = true;
  auto chip = fresh_chip();
  Supervisor supervisor(chip, config, supervision);
  const auto report = supervisor.run(trials);
  ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
  // Trial 1 was committed (and tallied) by the first run: resumed here,
  // not missing a tally.
  EXPECT_EQ(report.campaign.tallies_missing, 0u);
  EXPECT_EQ(slurp(config.results_path), golden.csv);
  EXPECT_EQ(slurp(config.journal_path), golden.journal);
}

/// Rows the shard stores hold: what a sharded --resume finds committed.
std::uint64_t committed_shard_rows(const RunnerConfig& config) {
  auto store = util::default_store();
  const auto index =
      ShardSet::parse(slurp(shard_index_path(config.results_path)));
  EXPECT_TRUE(index.has_value());
  std::uint64_t rows = 0;
  for (const auto& spec : index ? index->shards : std::vector<ShardSpec>{}) {
    rows += load_checkpoint(*store,
                            shard_artifact_path(config.results_path, spec.id),
                            kColumns.size() + 3)
                .lines.size();
  }
  return rows;
}

/// The serial `--resume` report of a campaign whose first `committed`
/// trials were committed by an earlier run (all of them when 0).
CampaignReport serial_resume(const std::string& tag,
                             const std::vector<CampaignRunner::Trial>& trials,
                             const fault::FaultPlanConfig& faults,
                             std::uint64_t committed) {
  auto config = base_config(tag);
  config.faults = faults;
  clear_artifacts(config, 0);
  config.stop_after_trials = committed;
  {
    auto chip = fresh_chip();
    CampaignRunner(chip, config).run(trials);
  }
  config.stop_after_trials = 0;
  config.resume = true;
  auto chip = fresh_chip();
  return CampaignRunner(chip, config).run(trials);
}

void expect_same_counts(const CampaignReport& got, const CampaignReport& want,
                        const std::string& tag) {
  EXPECT_FALSE(got.aborted) << tag << ": " << got.abort_reason;
  EXPECT_EQ(got.completed, want.completed) << tag;
  EXPECT_EQ(got.resumed, want.resumed) << tag;
  EXPECT_EQ(got.quarantined, want.quarantined) << tag;
  EXPECT_EQ(got.records.size(), want.records.size()) << tag;
}

TEST(SupervisorTest, ResumeOfAFinishedShardSetReportsResumedLikeSerial) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  fault::FaultPlanConfig faults;
  faults.persistent_rate = 0.25;
  const auto golden = golden_run("resume_done_golden", trials, faults);
  ASSERT_GT(golden.report.quarantined, 0u);
  const auto serial = serial_resume("resume_done_serial", trials, faults, 0);
  ASSERT_EQ(serial.resumed, 12u);
  for (const auto shards : kShardCounts) {
    const auto tag = "resume_done_s" + std::to_string(shards);
    auto config = base_config(tag);
    config.faults = faults;
    clear_artifacts(config, shards);
    {
      auto chip = fresh_chip();
      const auto first =
          Supervisor(chip, config, counted_supervision(shards)).run(trials);
      ASSERT_FALSE(first.campaign.aborted) << first.campaign.abort_reason;
      EXPECT_EQ(first.campaign.completed, golden.report.completed) << tag;
      EXPECT_EQ(first.campaign.quarantined, golden.report.quarantined) << tag;
    }
    config.resume = true;
    auto chip = fresh_chip();
    const auto report =
        Supervisor(chip, config, counted_supervision(shards)).run(trials);
    EXPECT_EQ(report.spawns, 0u) << tag;
    expect_same_counts(report.campaign, serial, tag);
    ASSERT_EQ(report.campaign.records.size(), serial.records.size()) << tag;
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(report.campaign.records[i].status, serial.records[i].status)
          << tag << " record " << i;
    }
    EXPECT_EQ(slurp(config.results_path), golden.csv) << tag;
  }
}

TEST(SupervisorTest, ResumeAfterAQuarantinedCrashCountsLikeSerial) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("resume_crash_golden", trials);
  for (const auto shards : kShardCounts) {
    const auto tag = "resume_crash_s" + std::to_string(shards);
    auto config = base_config(tag);
    // The crash refires in every incarnation, so the shard owning trial 5
    // is quarantined with trials 1..4 of the campaign's prefix committed.
    config.faults.worker.crash_at_trial = 5;
    config.faults.worker.repeat_incarnations = 99;
    clear_artifacts(config, shards);
    auto supervision = counted_supervision(shards);
    supervision.max_restarts = 2;
    {
      auto chip = fresh_chip();
      const auto first = Supervisor(chip, config, supervision).run(trials);
      ASSERT_TRUE(first.campaign.aborted) << tag;
      ASSERT_EQ(first.shards_quarantined, 1u) << tag;
    }
    const auto committed = committed_shard_rows(config);
    ASSERT_GE(committed, 4u) << tag;
    ASSERT_LT(committed, 12u) << tag;
    const auto serial = serial_resume(tag + "_serial", trials, {}, committed);

    config.faults.worker = {};
    config.resume = true;
    auto chip = fresh_chip();
    const auto report = Supervisor(chip, config, supervision).run(trials);
    expect_same_counts(report.campaign, serial, tag);
    EXPECT_EQ(report.campaign.resumed, committed) << tag;
    EXPECT_EQ(slurp(config.results_path), golden.csv) << tag;
    EXPECT_EQ(slurp(config.journal_path), golden.journal) << tag;
  }
}

TEST(SupervisorTest, StopAfterIsRefusedBeforeAnyTrialRuns) {
  reset_graceful_stop();
  auto config = base_config("stop_after");
  config.stop_after_trials = 3;
  clear_artifacts(config, 2);
  auto chip = fresh_chip();
  Supervisor supervisor(chip, config, counted_supervision(2));
  EXPECT_THROW(supervisor.run(make_trials(8)), std::invalid_argument);
  auto store = util::default_store();
  EXPECT_FALSE(store->read(shard_index_path(config.results_path)));
  EXPECT_FALSE(store->read(shard_artifact_path(config.results_path, 0)));
}

/// Delegating store that fails the first atomic_replace of one path —
/// the supervisor dying in the middle of publishing the merge.
class MergeCrashStore : public util::Store {
 public:
  MergeCrashStore(std::shared_ptr<util::Store> base, std::string fail_path)
      : base_(std::move(base)), fail_path_(std::move(fail_path)) {}

  std::unique_ptr<File> open(const std::string& path,
                             bool truncate) override {
    return base_->open(path, truncate);
  }
  std::optional<std::string> read(const std::string& path) override {
    return base_->read(path);
  }
  void atomic_replace(const std::string& path,
                      std::string_view content) override {
    if (path == fail_path_ && !fired_) {
      fired_ = true;
      throw util::StoreError("atomic_replace", path, "injected merge kill");
    }
    base_->atomic_replace(path, content);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    base_->truncate(path, size);
  }
  bool remove(const std::string& path) override {
    return base_->remove(path);
  }
  [[nodiscard]] bool fired() const { return fired_; }

 private:
  std::shared_ptr<util::Store> base_;
  std::string fail_path_;
  bool fired_ = false;
};

TEST(SupervisorTest, KillDuringMergeIsRerunnable) {
  reset_graceful_stop();
  const auto trials = make_trials(8);
  const auto golden = golden_run("mergekill_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("mergekill_s" + std::to_string(shards));
    clear_artifacts(config, shards);
    // Die after the canonical CSV lands but before the journal does: the
    // nastiest partial-merge state.
    auto store = std::make_shared<MergeCrashStore>(util::default_store(),
                                                   config.journal_path);
    config.store = store;
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, quick_supervision(shards));
    EXPECT_THROW((void)supervisor.run(trials), util::StoreError);
    EXPECT_TRUE(store->fired());
    // The merge is idempotent over untouched shard stores: rerunning it
    // (what `campaign_fsck --merge-shards` does) produces the golden
    // bytes, and rerunning it again changes nothing.
    MergeOptions merge;
    merge.results_path = config.results_path;
    merge.journal_path = config.journal_path;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto merged = merge_shards(merge);
      ASSERT_TRUE(merged.ok) << (merged.issues.empty()
                                     ? "no issues"
                                     : merged.issues.front().what);
      EXPECT_EQ(slurp(config.results_path), golden.csv)
          << shards << " shards";
      EXPECT_EQ(slurp(config.journal_path), golden.journal)
          << shards << " shards";
    }
  }
}

TEST(SupervisorTest, WorkStealingSplitsTheStraggler) {
  reset_graceful_stop();
  // First half instant, second half 150 ms of wall clock per trial: shard
  // 0 finishes immediately and must steal from the straggling shard 1.
  const auto trials = make_trials(12, /*slow_from=*/6, /*slow_ms=*/150);
  const auto golden = golden_run("steal_golden", trials);
  auto config = base_config("steal");
  clear_artifacts(config, 2);
  auto supervision = quick_supervision(2);
  supervision.steal_min_remaining = 3;
  auto chip = fresh_chip();
  Supervisor supervisor(chip, config, supervision);
  const auto report = supervisor.run(trials);
  ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
  EXPECT_GE(report.shards_stolen, 1u);
  EXPECT_GT(report.final_shards, 2u);
  EXPECT_EQ(slurp(config.results_path), golden.csv);
  EXPECT_EQ(slurp(config.journal_path), golden.journal);
}

TEST(GracefulStopTest, SigtermStopsAtCommitBoundaryAndResumes) {
  // Satellite regression: a campaign bench receiving SIGTERM must
  // checkpoint-flush and stop — no torn tail — and --resume must then
  // reproduce the uninterrupted bytes.
  reset_graceful_stop();
  const auto trials = make_trials(10);
  const auto golden = golden_run("sigterm_golden", trials);

  auto config = base_config("sigterm");
  clear_artifacts(config, 0);
  auto interrupted = trials;
  // The signal lands mid-campaign, from trial 4's body — exactly what an
  // operator's kill(1) during a sweep looks like to the process.
  interrupted[3].body = [base = trials[3].body](bender::ChipSession& s) {
    install_graceful_stop();
    std::raise(SIGTERM);
    return base(s);
  };
  {
    auto chip = fresh_chip();
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(interrupted);
    EXPECT_TRUE(report.aborted);
    EXPECT_EQ(report.abort_reason, "signal");
    EXPECT_LT(report.completed, 10u);
  }
  // The stopped artifacts are clean: fsck finds nothing to repair.
  FsckOptions fsck;
  fsck.results_path = config.results_path;
  fsck.journal_path = config.journal_path;
  EXPECT_TRUE(campaign_fsck(fsck).clean());

  reset_graceful_stop();
  config.resume = true;
  auto chip = fresh_chip();
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(trials);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(slurp(config.results_path), golden.csv);
  EXPECT_EQ(slurp(config.journal_path), golden.journal);
}

}  // namespace
}  // namespace hbmrd::runner
