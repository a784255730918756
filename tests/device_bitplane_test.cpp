// Bitplane device-model parity (dram/bank.cpp word-parallel sense path).
//
// Contract: the bitplane scan and the candidate-prefix scan produce
// byte-identical RowBits, flip positions, and campaign artifacts to a
// per-cell reference sense for every device state. Both scans read their
// cells from the row's threshold summary. These tests pin that down at
// three levels: the plane-fill primitives against the per-cell fault-model
// hashes, the summary's planes against its per-cell flags, and a seeded
// differential fuzz that checks every victim sense of a bank against the
// per-cell reference below and shows that both scans ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "disturb/fault_model.h"
#include "disturb/threshold_cache.h"
#include "dram/bank.h"
#include "dram/chip_profiles.h"
#include "dram/geometry.h"
#include "dram/row_data.h"
#include "dram/timing.h"
#include "runner/runner.h"
#include "util/rng.h"

namespace hbmrd::dram {
namespace {

constexpr BankAddress kAddr{0, 0, 0};

disturb::DisturbParams test_params() {
  disturb::DisturbParams p;
  p.seed = 0xB17B1A7Eull;
  return p;
}

// ---------------------------------------------------------------------------
// Plane-fill primitives vs the per-cell fault-model hashes.

TEST(BitplanePrimitives, MembershipPlanesMatchPerCellPredicates) {
  const disturb::FaultModel model(test_params());
  const auto& params = model.params();
  for (int row : {0, 17, 4300, kRowsPerBank - 1}) {
    const auto ctx = model.row_context(kAddr, row);
    const auto prefixes = model.row_hash_prefixes(kAddr, row);
    std::array<std::uint64_t, RowBits::kWords> outlier{};
    std::array<std::uint64_t, RowBits::kWords> weak{};
    std::array<std::uint64_t, RowBits::kWords> leaky{};
    std::array<std::uint64_t, RowBits::kWords> true_cells{};
    disturb::FaultModel::fill_membership_plane(
        prefixes.outlier, params.outlier_fraction, outlier);
    disturb::FaultModel::fill_membership_plane(prefixes.weak,
                                               ctx.weak_density, weak);
    disturb::FaultModel::fill_membership_plane(
        prefixes.leaky, params.leaky_cell_fraction, leaky);
    disturb::FaultModel::fill_membership_plane(
        prefixes.orientation, params.true_cell_fraction, true_cells);
    for (int bit = 0; bit < kRowBits; ++bit) {
      const auto w = static_cast<std::size_t>(bit >> 6);
      const int b = bit & 63;
      ASSERT_EQ((outlier[w] >> b) & 1u,
                model.is_outlier_cell(kAddr, row, bit) ? 1u : 0u)
          << "row " << row << " bit " << bit;
      ASSERT_EQ((weak[w] >> b) & 1u,
                model.is_weak_cell(kAddr, row, bit, ctx.weak_density) ? 1u
                                                                      : 0u)
          << "row " << row << " bit " << bit;
      ASSERT_EQ((leaky[w] >> b) & 1u,
                model.is_leaky_cell(kAddr, row, bit) ? 1u : 0u)
          << "row " << row << " bit " << bit;
      // A cell storing `true` is charged iff it is a true cell.
      ASSERT_EQ((true_cells[w] >> b) & 1u,
                model.is_charged(kAddr, row, bit, true) ? 1u : 0u)
          << "row " << row << " bit " << bit;
    }
  }
}

TEST(BitplanePrimitives, UniformRowsMatchPerCellHashes) {
  const disturb::FaultModel model(test_params());
  const auto& params = model.params();
  for (int row : {3, 4300}) {
    const auto prefixes = model.row_hash_prefixes(kAddr, row);
    std::array<std::uint64_t, RowBits::kWords> leaky{};
    disturb::FaultModel::fill_membership_plane(
        prefixes.leaky, params.leaky_cell_fraction, leaky);
    std::vector<double> cell_u(kRowBits);
    std::vector<double> retention_u(kRowBits);
    disturb::FaultModel::fill_uniform_row(prefixes.cell_threshold, cell_u);
    disturb::FaultModel::fill_retention_uniform_row(
        prefixes.leaky_retention, prefixes.normal_retention, leaky,
        retention_u);
    for (int bit = 0; bit < kRowBits; ++bit) {
      const auto i = static_cast<std::size_t>(bit);
      ASSERT_EQ(cell_u[i], model.cell_threshold_uniform(kAddr, row, bit))
          << "row " << row << " bit " << bit;
      const bool is_leaky = model.is_leaky_cell(kAddr, row, bit);
      ASSERT_EQ(retention_u[i],
                model.retention_uniform(kAddr, row, bit, is_leaky))
          << "row " << row << " bit " << bit;
    }
  }
}

TEST(BitplanePrimitives, MembershipThresholdMatchesUnitCompare) {
  // The plane fill compares integer hash bits against a threshold derived
  // from the fraction; it must agree with comparing the cell's uniform
  // against the fraction, including at the edge fractions.
  const disturb::FaultModel model(test_params());
  const auto prefixes = model.row_hash_prefixes(kAddr, 99);
  std::vector<double> u(kRowBits);
  disturb::FaultModel::fill_uniform_row(prefixes.outlier, u);
  for (double fraction : {0.0, 1e-9, 0.02, 0.35, 0.999, 1.0, 2.0}) {
    std::array<std::uint64_t, RowBits::kWords> plane{};
    disturb::FaultModel::fill_membership_plane(prefixes.outlier, fraction,
                                               plane);
    for (int bit = 0; bit < kRowBits; ++bit) {
      ASSERT_EQ(((plane[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) &
                 1u) != 0,
                u[static_cast<std::size_t>(bit)] < fraction)
          << "fraction " << fraction << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Cached summary: planes agree with the per-cell flags and power-on words.

TEST(BitplaneSummary, PlanesMatchFlagsAndPowerOn) {
  const disturb::FaultModel model(test_params());
  const auto s = disturb::build_row_summary(model, kAddr, 4300);
  using Summary = disturb::RowThresholdSummary;
  for (int bit = 0; bit < kRowBits; ++bit) {
    const auto w = static_cast<std::size_t>(bit >> 6);
    const int b = bit & 63;
    const std::uint8_t flags = s.flags[static_cast<std::size_t>(bit)];
    EXPECT_EQ((s.true_plane[w] >> b) & 1u,
              (flags & Summary::kTrueCell) ? 1u : 0u);
    EXPECT_EQ((s.leaky_plane[w] >> b) & 1u,
              (flags & Summary::kLeaky) ? 1u : 0u);
    EXPECT_EQ((s.outlier_plane[w] >> b) & 1u,
              (flags & Summary::kOutlier) ? 1u : 0u);
    EXPECT_EQ((s.weak_plane[w] >> b) & 1u,
              (flags & Summary::kWeak) ? 1u : 0u);
  }
  for (int w = 0; w < RowBits::kWords; ++w) {
    EXPECT_EQ(s.power_on[static_cast<std::size_t>(w)],
              model.power_on_word(kAddr, 4300, w))
        << "word " << w;
  }
}

// ---------------------------------------------------------------------------
// Per-cell reference sense: the differential oracle. It re-derives what a
// sense at `now` must leave in a row from the row's pre-sense state, one
// cell at a time straight off the fault-model hashes: the retention floor,
// the two dose gates, then per cell the retention decision followed by the
// coupling-weighted dose fold and its population's threshold draw.

/// Mirrors of the sense model's constants in dram/bank.cpp.
constexpr double kRetentionFloorSeconds = 0.033;
constexpr double kThresholdScanSigma = 6.0;

RowBits reference_sense(const disturb::FaultModel& fault, double temp_c,
                        int physical_row, const RowBits& stored,
                        const disturb::DoseLedger& ledger,
                        Cycle last_restore, Cycle now) {
  const double elapsed_s = cycles_to_seconds(now - last_restore);
  const bool check_retention = elapsed_s > kRetentionFloorSeconds;
  const double temp_vuln = fault.temperature_vulnerability(temp_c);
  const disturb::RowContext ctx = fault.row_context(kAddr, physical_row);
  bool check_disturb = !ledger.empty();
  if (check_disturb) {
    double max_dose = 0.0;
    for (const auto& e : ledger.epochs()) {
      max_dose += e.dose() * fault.distance_factor(e.distance);
    }
    max_dose *= (1.0 + fault.params().coupling_intra_bonus) * temp_vuln;
    const double widest_sigma = std::max(ctx.weak_sigma, ctx.outlier_sigma);
    check_disturb =
        max_dose >= fault.global_threshold_floor() &&
        max_dose >=
            ctx.weak_median * std::exp(-kThresholdScanSigma * widest_sigma);
  }
  auto u_max = [&](bool leaky) {
    if (!check_retention) return 0.0;
    const double med = fault.retention_median_seconds(leaky, temp_c);
    return disturb::FaultModel::normal_cdf(std::log(elapsed_s / med) /
                                           fault.retention_sigma(leaky));
  };
  const double leaky_u_max = u_max(true);
  const double normal_u_max = u_max(false);
  auto probability = [&](double dose, double median, double sigma) {
    return dose > 0.0
               ? disturb::FaultModel::normal_cdf(std::log(dose / median) /
                                                 sigma)
               : 0.0;
  };

  RowBits out = stored;
  for (int bit = 0; bit < kRowBits; ++bit) {
    const bool value = stored.get(bit);
    if (!fault.is_charged(kAddr, physical_row, bit, value)) continue;
    bool flip = false;
    if (check_retention) {
      const bool leaky = fault.is_leaky_cell(kAddr, physical_row, bit);
      const double limit = leaky ? leaky_u_max : normal_u_max;
      flip = limit > 0.0 && fault.retention_uniform(kAddr, physical_row, bit,
                                                    leaky) <= limit;
    }
    if (!flip && check_disturb) {
      const bool left = bit > 0 ? stored.get(bit - 1) : value;
      const bool right = bit + 1 < kRowBits ? stored.get(bit + 1) : value;
      const bool intra_differs = (left != value) || (right != value);
      double dose = 0.0;
      for (const auto& e : ledger.epochs()) {
        dose += e.dose() * fault.distance_factor(e.distance) *
                fault.coupling(value, e.aggressor_bits.get(bit),
                               intra_differs);
      }
      dose *= temp_vuln;
      double p = probability(dose, ctx.bulk_median, ctx.bulk_sigma);
      if (fault.is_outlier_cell(kAddr, physical_row, bit)) {
        p = probability(dose, ctx.outlier_median, ctx.outlier_sigma);
      } else if (fault.is_weak_cell(kAddr, physical_row, bit,
                                    ctx.weak_density)) {
        p = probability(dose, ctx.weak_median, ctx.weak_sigma);
      }
      flip = p > 0.0 &&
             fault.cell_threshold_uniform(kAddr, physical_row, bit) <= p;
    }
    if (flip) out.set(bit, !value);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bank-level differential fuzz: every checked sense vs the reference.

/// One bank with its threshold cache, whose reads are checked against the
/// reference and classified by the scan they took.
struct CheckedBank {
  disturb::FaultModel fault{test_params()};
  Environment env{60.0};
  TimingParams timing{};
  disturb::BankThresholdCache cache{kAddr, 16};
  CheckpointLadder ladder;
  Bank bank{kAddr, &fault, &env, &ladder, timing, cache};
  Cycle now = 1000;
  /// Cells the reference sense flipped across every checked read.
  std::uint64_t reference_flips = 0;
  /// Checked reads by scan, classified from the sense's counter deltas:
  /// word ops mean the bitplane scan, cells visited without word ops mean
  /// the candidate-prefix scan. A delta of exactly 2 * kWords word ops is
  /// also what the hashed min-retention scan of a row whose summary is not
  /// built yet costs, so such reads count as neither.
  int bitplane_reads = 0;
  int candidate_reads = 0;

  void write_row(int row, const RowBits& bits) {
    bank.activate(row, now);
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      bits.get_column(c, column);
      bank.write_column(c, column, now + timing.t_rcd + 1);
    }
    bank.precharge(now + timing.t_ras + 100);
    now += timing.t_ras + 100 + timing.t_rp + 100;
  }

  /// Reads the row and asserts the sense left exactly the contents the
  /// per-cell reference predicts from the bank's pre-sense state.
  RowBits read_row_checked(int row) {
    std::optional<RowBits> expected;
    if (const RowBits* stored = bank.stored_bits(row)) {
      expected = reference_sense(fault, env.temperature_c, row, *stored,
                                 *bank.ledger(row), *bank.last_restore(row),
                                 now);
      reference_flips += stored->count_diff(*expected);
    }
    const BankCounters before = bank.counters();
    bank.activate(row, now);
    const std::uint64_t word_ops =
        bank.counters().sense_word_ops - before.sense_word_ops;
    const std::uint64_t cells =
        bank.counters().sense_cells_visited - before.sense_cells_visited;
    RowBits bits;
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      bank.read_column(c, column, now + timing.t_rcd + 1);
      bits.set_column(c, column);
    }
    bank.precharge(now + timing.t_ras + 100);
    now += timing.t_ras + 100 + timing.t_rp + 100;
    if (expected) {
      EXPECT_TRUE(bits == *expected)
          << "row " << row << " differs from the per-cell reference in "
          << bits.count_diff(*expected) << " cells";
      if (word_ops == 0 && cells > 0) {
        ++candidate_reads;
      } else if (word_ops > 0 && word_ops != 2 * RowBits::kWords) {
        ++bitplane_reads;
      }
    }
    return bits;
  }

  void hammer(std::span<const HammerStep> steps, std::uint64_t count) {
    now = bank.bulk_hammer(steps, count, now) + 100;
  }

  void idle_seconds(double s) { now += seconds_to_cycles(s); }
};

TEST(BitplaneDifferential, RandomizedSensesAreByteIdentical) {
  util::Stream rng(0xD1FFull);
  CheckedBank q;
  const std::array<std::uint8_t, 6> patterns = {0x00, 0xFF, 0x55,
                                                0xAA, 0x33, 0x6D};
  for (int trial = 0; trial < 24; ++trial) {
    // Mid-subarray victims, spread across two subarrays.
    const int victim =
        4100 + static_cast<int>(rng.next_u64() % 400) / 8 * 8 + 4;
    const auto victim_pattern =
        patterns[rng.next_u64() % patterns.size()];
    q.env.temperature_c = 40.0 + 55.0 * rng.next_unit();
    q.write_row(victim, RowBits::filled(victim_pattern));
    q.write_row(victim - 1,
                RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
    q.write_row(victim + 1,
                RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
    if (trial % 3 == 0) {
      q.write_row(victim - 2,
                  RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
      q.write_row(victim + 2,
                  RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
    }

    std::vector<HammerStep> steps = {{victim - 1, q.timing.t_ras},
                                     {victim + 1, q.timing.t_ras}};
    if (trial % 4 == 1) {
      // RowPress-style long on-times.
      steps[0].on_cycles = q.timing.t_ras * 32;
      steps[1].on_cycles = q.timing.t_ras * 32;
    }
    if (trial % 5 == 2) {
      steps.push_back({victim - 2, q.timing.t_ras});
      steps.push_back({victim + 2, q.timing.t_ras});
    }
    const std::uint64_t count = 2000 + rng.next_u64() % 200000;
    q.hammer(steps, count);

    if (trial % 6 == 3) {
      // Park the row long enough that retention decay joins the sense.
      q.idle_seconds(0.02 + 30.0 * rng.next_unit());
    }
    (void)q.read_row_checked(victim);
    if (trial % 3 == 0) {
      (void)q.read_row_checked(victim - 2);
      (void)q.read_row_checked(victim + 2);
    }
  }
  // Both scans must have decided checked reads, and the fuzz must
  // actually have produced flips to compare.
  EXPECT_GT(q.bitplane_reads, 0);
  EXPECT_GT(q.candidate_reads, 0);
  EXPECT_GT(q.reference_flips, 0u);
}

TEST(BitplaneDifferential, CheckpointRestoreMatchesReference) {
  util::Stream rng(0xC4EC4ull);
  CheckedBank q;
  const int victim = 4300;
  q.write_row(victim, RowBits::filled(0x55));
  q.write_row(victim - 1, RowBits::filled(0xAA));
  q.write_row(victim + 1, RowBits::filled(0xAA));
  ASSERT_EQ(q.ladder.push({}), 0u);
  const std::array<HammerStep, 2> steps = {
      HammerStep{victim - 1, q.timing.t_ras},
      HammerStep{victim + 1, q.timing.t_ras}};
  for (int round = 0; round < 6; ++round) {
    const std::uint64_t count = 20000 + rng.next_u64() % 150000;
    q.hammer(steps, count);
    (void)q.read_row_checked(victim);
    q.ladder.restore(0);
    // Restored state must also sense as the reference predicts.
    q.write_row(victim - 1, RowBits::filled(0xAA));
    q.write_row(victim + 1, RowBits::filled(0xAA));
  }
  q.ladder.discard();
}

TEST(BitplaneDifferential, DoseMemoRingEvictsInsteadOfThrashing) {
  // Four aggressor epochs with random (non-periodic) data give 18 distinct
  // dose values per sense — 3 same-bit counts at distance 1, times 3 at
  // distance 2, times the intra bit — on top of the aggressor writes'
  // own epochs; the 16-slot memo must rotate through them (the old scheme
  // overwrote the last slot forever). RowPress-length on-times give the
  // dose that sends the sense down the bitplane scan.
  util::Stream rng(0xEB1C7ull);
  auto random_row = [&rng] {
    RowBits bits;
    for (auto& word : bits.words()) word = rng.next_u64();
    return bits;
  };
  CheckedBank q;
  const int victim = 4300;
  q.write_row(victim, random_row());
  q.write_row(victim - 1, random_row());
  q.write_row(victim + 1, random_row());
  q.write_row(victim - 2, random_row());
  q.write_row(victim + 2, random_row());
  const Cycle on = q.timing.t_ras * 64;
  const std::array<HammerStep, 4> steps = {
      HammerStep{victim - 1, on}, HammerStep{victim + 1, on},
      HammerStep{victim - 2, on}, HammerStep{victim + 2, on}};
  q.hammer(steps, 200000);
  (void)q.read_row_checked(victim);
  EXPECT_EQ(q.bitplane_reads, 1);
  EXPECT_GT(q.bank.counters().dose_memo_evictions, 0u)
      << "the bitplane scan should cycle through > 16 dose classes";
}

TEST(BitplaneDifferential, LedgersOfAnyLengthMatchReference) {
  // Mixed-on-time RowHammer + RowPress traffic: every step of a window
  // gets its own on-time, so each one opens a fresh dose epoch, and
  // rewriting the aggressors between windows opens more. Ledgers of 31
  // and 32 epochs straddle the old 31-epoch limit of the bitplane class
  // key; the last case runs past 64. The hammer count is high enough that
  // every case takes the bitplane scan.
  const std::array<std::uint8_t, 4> patterns = {0xFF, 0x33, 0x0F, 0xAA};
  for (const int windows : {1, 2}) {
    for (const std::size_t steps_per_window : {31, 32}) {
      CheckedBank q;
      const int victim = 4300;
      const std::array<int, 4> aggressors = {victim - 1, victim + 1,
                                             victim - 2, victim + 2};
      for (std::size_t a = 0; a < aggressors.size(); ++a) {
        q.write_row(aggressors[a], RowBits::filled(patterns[a]));
      }
      // Written last, so the victim's own sense clears the aggressor
      // writes' epochs.
      q.write_row(victim, RowBits::filled(0x55));
      std::size_t expected_epochs = 0;
      for (int w = 0; w < windows; ++w) {
        if (w > 0) {
          // New aggressor data: one epoch per write, and a new version for
          // the window that follows.
          for (std::size_t a = 0; a < aggressors.size(); ++a) {
            q.write_row(aggressors[a],
                        RowBits::filled(patterns[(a + 1) % patterns.size()]));
            ++expected_epochs;
          }
        }
        std::vector<HammerStep> steps;
        for (std::size_t k = 0; k < steps_per_window; ++k) {
          steps.push_back({aggressors[k % aggressors.size()],
                           q.timing.t_ras + 3 * static_cast<Cycle>(k)});
        }
        q.hammer(steps, 100000);
        expected_epochs += steps_per_window;
      }
      ASSERT_EQ(q.bank.ledger(victim)->epochs().size(), expected_epochs);
      if (windows == 2) {
        ASSERT_GE(expected_epochs, 64u);
      }

      const BankCounters before = q.bank.counters();
      const std::uint64_t flips_before = q.reference_flips;
      (void)q.read_row_checked(victim);
      EXPECT_GT(q.reference_flips, flips_before)
          << expected_epochs << " epochs: no flips to compare";
      EXPECT_EQ(q.bitplane_reads, 1) << expected_epochs << " epochs";
      // A full-row per-cell pass would visit every cell of the row.
      EXPECT_LT(q.bank.counters().sense_cells_visited -
                    before.sense_cells_visited,
                static_cast<std::uint64_t>(kRowBits))
          << expected_epochs << " epochs";
      // The scan split words over every epoch of the ledger.
      EXPECT_GE(q.bank.counters().sense_word_ops - before.sense_word_ops,
                expected_epochs + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign artifacts: CSV + journal byte-identity against a golden captured
// from the per-cell reference sense path, at --jobs 1 and 4.

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "device_bitplane_test_" + name;
}

std::vector<runner::CampaignRunner::Trial> campaign_trials(int n) {
  std::vector<runner::CampaignRunner::Trial> trials;
  for (int t = 0; t < n; ++t) {
    const int row = 96 + 8 * t;
    const auto pattern = static_cast<std::uint8_t>(0x50 + t);
    trials.push_back(
        {"row" + std::to_string(row),
         [row, pattern](bender::ChipSession& session)
             -> std::vector<std::string> {
           const RowAddress victim{{0, 0, 0}, row};
           session.write_row(victim, RowBits::filled(pattern));
           session.write_row({{0, 0, 0}, row - 1}, RowBits::filled(0xFF));
           session.write_row({{0, 0, 0}, row + 1}, RowBits::filled(0xFF));
           const std::array<int, 2> aggressors = {row - 1, row + 1};
           session.hammer({0, 0, 0}, aggressors, 60000);
           const auto bits = session.read_row(victim);
           return {std::to_string(
               bits.count_diff(RowBits::filled(pattern)))};
         }});
  }
  return trials;
}

struct CampaignArtifacts {
  std::string csv;
  std::string journal;
};

CampaignArtifacts run_campaign(int jobs, const std::string& tag) {
  bender::HbmChip chip(chip_profiles()[2]);
  runner::RunnerConfig config;
  config.result_columns = {"flips"};
  config.results_path = tmp_path(tag + ".csv");
  config.journal_path = tmp_path(tag + ".jsonl");
  config.jobs = jobs;
  runner::CampaignRunner campaign(chip, config);
  (void)campaign.run(campaign_trials(6));
  return {slurp(config.results_path), slurp(config.journal_path)};
}

TEST(BitplaneCampaign, ArtifactsAreByteIdenticalAcrossModeAndJobs) {
  // The golden is this campaign's output under the per-cell reference
  // sense path, captured before that path left the device model.
  const CampaignArtifacts golden{
      slurp(HBMRD_TEST_GOLDEN_DIR "/bitplane_campaign.csv"),
      slurp(HBMRD_TEST_GOLDEN_DIR "/bitplane_campaign.jsonl")};
  ASSERT_FALSE(golden.csv.empty());
  ASSERT_FALSE(golden.journal.empty());
  for (const int jobs : {1, 4}) {
    const auto run = run_campaign(jobs, "j" + std::to_string(jobs));
    EXPECT_EQ(golden.csv, run.csv) << "--jobs " << jobs;
    EXPECT_EQ(golden.journal, run.journal) << "--jobs " << jobs;
  }
}

}  // namespace
}  // namespace hbmrd::dram
