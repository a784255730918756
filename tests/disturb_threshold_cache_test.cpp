// Threshold cache: a stack rebuilt on a warm shared cache must read the
// same bits as a stack on a fresh one, although first touches and
// retention floors come from summaries on one side and from the fault-model
// hashes on the other; the summary's sorted head must agree with the
// fault model's per-cell thresholds (HC_first = weakest cell). Sense scans
// against the per-cell reference are tested in device_bitplane_test.
#include "disturb/threshold_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "dram/chip_profiles.h"
#include "dram/stack.h"

namespace hbmrd::disturb {
namespace {

dram::StackConfig cache_config(std::shared_ptr<ThresholdCache> cache) {
  dram::StackConfig config;
  config.disturb = dram::chip_profiles()[2].disturb;
  config.threshold_cache = std::move(cache);
  return config;
}

struct StackFixture {
  /// A null cache gives the stack a private one.
  explicit StackFixture(std::shared_ptr<ThresholdCache> cache = nullptr)
      : stack(cache_config(std::move(cache))) {}

  dram::Stack stack;
  dram::TimingParams timing{};
  dram::Cycle now = 1000;

  void write_row(const dram::RowAddress& addr, const dram::RowBits& bits) {
    stack.activate(addr, now);
    std::array<std::uint64_t, dram::kWordsPerColumn> column;
    for (int c = 0; c < dram::kColumns; ++c) {
      bits.get_column(c, column);
      stack.write_column(addr.bank, c, column, now + timing.t_rcd + 1);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
  }

  dram::RowBits read_row(const dram::RowAddress& addr) {
    stack.activate(addr, now);
    dram::RowBits bits;
    std::array<std::uint64_t, dram::kWordsPerColumn> column;
    for (int c = 0; c < dram::kColumns; ++c) {
      stack.read_column(addr.bank, c, column, now + timing.t_rcd + 1);
      bits.set_column(c, column);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
    return bits;
  }

  /// Double-sided hammer, then read the victim back.
  dram::RowBits hammer_and_sense(int victim, std::uint64_t pulses) {
    const dram::BankAddress bank{0, 0, 0};
    write_row({bank, victim}, dram::RowBits::filled(0x55));
    write_row({bank, victim - 1}, dram::RowBits::filled(0xFF));
    write_row({bank, victim + 1}, dram::RowBits::filled(0xFF));
    const std::array<dram::HammerStep, 2> steps = {
        dram::HammerStep{victim - 1, timing.t_ras},
        dram::HammerStep{victim + 1, timing.t_ras}};
    now = stack.bulk_hammer(bank, steps, pulses, now) + 100;
    return read_row({bank, victim});
  }
};

TEST(ThresholdCache, WarmCacheRebuildMatchesFreshCache) {
  // The victim is first read unwritten (power-on contents), then read
  // again after an idle far beyond the 33 ms retention floor (long enough
  // for its weakest charged cells to leak), then hammered and read at
  // growing counts. Returns every read.
  const int victim = 128;
  const auto run = [victim](StackFixture& f) {
    const dram::RowAddress addr{{0, 0, 0}, victim};
    std::vector<dram::RowBits> reads;
    reads.push_back(f.read_row(addr));
    f.now += dram::seconds_to_cycles(600.0);
    reads.push_back(f.read_row(addr));
    for (const std::uint64_t pulses : {20000, 80000, 300000}) {
      reads.push_back(f.hammer_and_sense(victim, pulses));
    }
    return reads;
  };

  // Warm the shared cache on one stack, then rebuild the stack on it, as
  // bender::HbmChip::power_cycle does: the rebuilt stack materializes the
  // victim from its summary's power-on words and takes its retention floor
  // from the summary. A stack on a fresh cache hashes both.
  auto shared = std::make_shared<ThresholdCache>();
  {
    StackFixture before_power_cycle(shared);
    (void)run(before_power_cycle);
  }
  const std::uint64_t hits_before = shared->totals().hits;
  StackFixture warm(shared);
  StackFixture fresh;
  const auto warm_reads = run(warm);
  const auto fresh_reads = run(fresh);

  ASSERT_EQ(warm_reads.size(), fresh_reads.size());
  for (std::size_t i = 0; i < warm_reads.size(); ++i) {
    EXPECT_TRUE(warm_reads[i] == fresh_reads[i])
        << "read " << i << " differs in "
        << warm_reads[i].count_diff(fresh_reads[i]) << " cells";
  }
  // Power-on contents and the retention read must be non-trivial.
  EXPECT_GT(warm_reads[1].count_diff(warm_reads[0]), 0)
      << "the idle read should show retention flips";
  const auto warm_counters = warm.stack.total_counters();
  const auto fresh_counters = fresh.stack.total_counters();
  EXPECT_EQ(warm_counters.bitflips_materialized,
            fresh_counters.bitflips_materialized);
  // The warm stack found its summaries; the fresh stack paid at least the
  // hashed min-retention scan of the not-yet-summarized victim on top.
  EXPECT_GT(shared->totals().hits, hits_before);
  EXPECT_GE(fresh_counters.sense_word_ops - warm_counters.sense_word_ops,
            static_cast<std::uint64_t>(2 * dram::RowBits::kWords));
}

TEST(ThresholdCache, RepeatedSensesHitTheCache) {
  auto cache = std::make_shared<ThresholdCache>();
  StackFixture f(cache);
  (void)f.hammer_and_sense(128, 150000);
  (void)f.hammer_and_sense(128, 150000);
  const auto totals = cache->totals();
  EXPECT_GT(totals.misses, 0u);
  EXPECT_GT(totals.hits, 0u) << "second hammer of the same row must hit";
}

TEST(ThresholdCache, SummarySortedHeadIsTheRowsWeakestCell) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  const dram::BankAddress bank{0, 0, 0};
  const int row = 200;
  const auto summary = build_row_summary(model, bank, row);

  ASSERT_EQ(summary.cell_u.size(), static_cast<std::size_t>(dram::kRowBits));
  ASSERT_EQ(summary.outlier_by_u.size() + summary.weak_by_u.size() +
                summary.bulk_by_u.size(),
            static_cast<std::size_t>(dram::kRowBits));
  ASSERT_EQ(summary.leaky_by_u.size() + summary.normal_by_u.size(),
            static_cast<std::size_t>(dram::kRowBits));

  // Sorted ascending by uniform within each population.
  const auto sorted = [&](const std::vector<int>& order,
                          const std::vector<double>& u) {
    return std::is_sorted(order.begin(), order.end(), [&](int a, int b) {
      return u[static_cast<std::size_t>(a)] < u[static_cast<std::size_t>(b)];
    });
  };
  EXPECT_TRUE(sorted(summary.outlier_by_u, summary.cell_u));
  EXPECT_TRUE(sorted(summary.weak_by_u, summary.cell_u));
  EXPECT_TRUE(sorted(summary.bulk_by_u, summary.cell_u));
  EXPECT_TRUE(sorted(summary.leaky_by_u, summary.retention_u));
  EXPECT_TRUE(sorted(summary.normal_by_u, summary.retention_u));

  // HC_first: the minimum cell threshold over the whole row is attained at
  // the head of one of the sorted population lists (the threshold is
  // monotone in the uniform within a population).
  double min_threshold = std::numeric_limits<double>::max();
  for (int bit = 0; bit < dram::kRowBits; ++bit) {
    min_threshold =
        std::min(min_threshold, model.cell_threshold(bank, row, bit));
  }
  double head_min = std::numeric_limits<double>::max();
  for (const auto* order :
       {&summary.outlier_by_u, &summary.weak_by_u, &summary.bulk_by_u}) {
    if (!order->empty()) {
      head_min =
          std::min(head_min, model.cell_threshold(bank, row, order->front()));
    }
  }
  EXPECT_DOUBLE_EQ(min_threshold, head_min);
}

TEST(ThresholdCache, LruEvictsBeyondCapacity) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  BankThresholdCache cache({0, 0, 0}, 2);
  (void)cache.get(model, 1);
  (void)cache.get(model, 2);
  (void)cache.get(model, 3);  // evicts row 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
}

}  // namespace
}  // namespace hbmrd::disturb
