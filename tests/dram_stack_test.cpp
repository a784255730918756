#include "dram/stack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace hbmrd::dram {
namespace {

StackConfig test_config(MappingScheme scheme = MappingScheme::kIdentity) {
  StackConfig config;
  config.disturb.seed = 0x57ACull;
  config.mapping = scheme;
  return config;
}

struct StackFixture {
  explicit StackFixture(StackConfig config = test_config())
      : stack(std::move(config)) {}

  Stack stack;
  TimingParams timing{};
  Cycle now = 1000;

  void write_row(const RowAddress& addr, const RowBits& bits) {
    stack.activate(addr, now);
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      bits.get_column(c, column);
      stack.write_column(addr.bank, c, column, now + timing.t_rcd + 1);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
  }

  RowBits read_row(const RowAddress& addr) {
    stack.activate(addr, now);
    RowBits bits;
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      stack.read_column(addr.bank, c, column, now + timing.t_rcd + 1);
      bits.set_column(c, column);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
    return bits;
  }
};

TEST(Stack, BanksAreIndependent) {
  StackFixture f;
  const RowAddress a{{0, 0, 0}, 50};
  const RowAddress b{{3, 1, 7}, 50};
  f.write_row(a, RowBits::filled(0x11));
  f.write_row(b, RowBits::filled(0x22));
  EXPECT_EQ(f.read_row(a), RowBits::filled(0x11));
  EXPECT_EQ(f.read_row(b), RowBits::filled(0x22));
}

TEST(Stack, MappingTranslatesActivations) {
  StackFixture f(test_config(MappingScheme::kPairSwap));
  const BankAddress bank{0, 0, 0};
  // Logical 1 is physical 2 under pair-swap.
  f.write_row({bank, 1}, RowBits::filled(0x77));
  EXPECT_EQ(f.stack.mapping().to_physical(1), 2);
  // The bank's open-row bookkeeping is physical: hammering logical rows 0
  // and 2 (physical 0 and 1) must disturb... verified at study level; here
  // we check that reading logical 1 returns what was written (round trip
  // through the translation).
  EXPECT_EQ(f.read_row({bank, 1}), RowBits::filled(0x77));
}

TEST(Stack, BulkHammerTranslatesLogicalRows) {
  // Under pair-swap, victim logical 4301 <-> physical neighbors of its
  // physical row; use the identity part (offset 3 in block of 4: 4303).
  StackFixture f(test_config(MappingScheme::kPairSwap));
  const BankAddress bank{0, 0, 0};
  const int victim_physical = 4302;  // logical 4301
  const int victim_logical = f.stack.mapping().to_logical(victim_physical);
  const int aggr_low = f.stack.mapping().to_logical(victim_physical - 1);
  const int aggr_high = f.stack.mapping().to_logical(victim_physical + 1);

  f.write_row({bank, victim_logical}, RowBits::filled(0x55));
  f.write_row({bank, aggr_low}, RowBits::filled(0xAA));
  f.write_row({bank, aggr_high}, RowBits::filled(0xAA));
  const std::array<HammerStep, 2> steps = {
      HammerStep{aggr_low, f.timing.t_ras},
      HammerStep{aggr_high, f.timing.t_ras}};
  f.now = f.stack.bulk_hammer(bank, steps, 2'000'000, f.now) + 100;
  EXPECT_GT(f.read_row({bank, victim_logical})
                .count_diff(RowBits::filled(0x55)),
            0);
}

TEST(Stack, ModeRegistersRoundTrip) {
  StackFixture f;
  f.stack.mode_register_set(4, 0x1);
  EXPECT_EQ(f.stack.mode_register_read(4), 0x1u);
  EXPECT_TRUE(f.stack.mode_registers().ecc_enabled());
  EXPECT_THROW(f.stack.mode_register_set(99, 0), std::out_of_range);
}

TEST(Stack, EccCorrectsSingleFlipAndCountsIt) {
  StackFixture f;
  f.stack.mode_registers().set_ecc_enabled(true);
  const BankAddress bank{0, 0, 0};
  const RowAddress addr{bank, 4300};
  f.write_row(addr, RowBits::filled(0x55));

  // Inject a single-bit error directly into the stored row (simulator
  // backdoor: flip via a tiny hammer is imprecise, so poke the bank).
  // A 1-bit error in word 0 must be corrected transparently.
  f.stack.bank(bank).activate(4300, f.now);
  std::array<std::uint64_t, kWordsPerColumn> column;
  f.stack.bank(bank).read_column(0, column, f.now + f.timing.t_rcd + 1);
  column[0] ^= 1ull;  // corrupt one bit
  f.stack.bank(bank).write_column(0, column, f.now + f.timing.t_rcd + 2);
  f.now += f.timing.t_ras + 100;
  f.stack.bank(bank).precharge(f.now);
  f.now += 100;

  EXPECT_EQ(f.read_row(addr), RowBits::filled(0x55));
  EXPECT_EQ(f.stack.ecc_counters().corrected_words, 1u);
  EXPECT_EQ(f.stack.ecc_counters().detected_uncorrectable_words, 0u);
}

TEST(Stack, EccDetectsDoubleFlip) {
  StackFixture f;
  f.stack.mode_registers().set_ecc_enabled(true);
  const BankAddress bank{0, 0, 0};
  const RowAddress addr{bank, 4300};
  f.write_row(addr, RowBits::filled(0x55));

  f.stack.bank(bank).activate(4300, f.now);
  std::array<std::uint64_t, kWordsPerColumn> column;
  f.stack.bank(bank).read_column(0, column, f.now + f.timing.t_rcd + 1);
  column[0] ^= 0b101ull;  // two bitflips in one word
  f.stack.bank(bank).write_column(0, column, f.now + f.timing.t_rcd + 2);
  f.now += f.timing.t_ras + 100;
  f.stack.bank(bank).precharge(f.now);
  f.now += 100;

  (void)f.read_row(addr);
  EXPECT_EQ(f.stack.ecc_counters().detected_uncorrectable_words, 1u);
}

TEST(Stack, EccDisabledPassesRawBitsThrough) {
  StackFixture f;
  const BankAddress bank{0, 0, 0};
  const RowAddress addr{bank, 100};
  f.write_row(addr, RowBits::filled(0x00));
  EXPECT_EQ(f.stack.ecc_counters().corrected_words, 0u);
  EXPECT_EQ(f.read_row(addr), RowBits::filled(0x00));
}

TEST(Stack, DocumentedTrrModeRefreshesTargetNeighbors) {
  // Arm TRR Mode on a victim whose neighbours accumulated dose; a REF must
  // reset that dose (JESD235 TRR Mode, Sec. 7 footnote 2).
  StackFixture f;
  const BankAddress bank{0, 0, 0};
  const int target = 4301;
  f.write_row({bank, target - 1}, RowBits::filled(0x55));
  f.write_row({bank, target + 1}, RowBits::filled(0x55));
  // Hammer the target so both neighbours carry dose.
  const std::array<HammerStep, 1> steps = {HammerStep{target, f.timing.t_ras}};
  f.now = f.stack.bulk_hammer(bank, steps, 1000, f.now) + 100;
  ASSERT_GT(f.stack.bank(bank).ledger(target - 1)->adjacent_dose(), 0.0);

  f.stack.mode_registers().set_trr_mode_enabled(true);
  f.stack.mode_registers().set_trr_target(0, 0, target);
  f.stack.refresh(0, f.now);
  f.now += f.timing.t_rfc + 100;
  EXPECT_EQ(f.stack.bank(bank).ledger(target - 1)->adjacent_dose(), 0.0);
  EXPECT_EQ(f.stack.bank(bank).ledger(target + 1)->adjacent_dose(), 0.0);
}

TEST(Stack, RefreshRequiresValidChannel) {
  StackFixture f;
  EXPECT_THROW(f.stack.refresh(-1, f.now), std::out_of_range);
  EXPECT_THROW(f.stack.refresh(8, f.now), std::out_of_range);
}

// -- Checkpoint ladder --------------------------------------------------------

/// A tracker that counts its activations, and every clone made of any
/// bank's instance (one shared counter per stack).
class CloneCountingDefense : public ReadDisturbDefense {
 public:
  explicit CloneCountingDefense(std::shared_ptr<int> clones)
      : clones_(std::move(clones)) {}
  void on_activate(int, Cycle) override { ++activations; }
  void on_activate_bulk(int, std::uint64_t count, Cycle) override {
    activations += count;
  }
  std::vector<int> on_refresh(Cycle) override { return {}; }
  std::unique_ptr<ReadDisturbDefense> clone() const override {
    ++*clones_;
    return std::make_unique<CloneCountingDefense>(*this);
  }

  std::uint64_t activations = 0;

 private:
  std::shared_ptr<int> clones_;
};

StackConfig counting_config(const std::shared_ptr<int>& clones) {
  StackConfig config = test_config();
  config.defense_factory = [clones](const BankAddress&) {
    return std::make_unique<CloneCountingDefense>(clones);
  };
  return config;
}

std::uint64_t defense_activations(Stack& stack, const BankAddress& addr) {
  return static_cast<CloneCountingDefense*>(stack.bank(addr).defense())
      ->activations;
}

void hammer(StackFixture& f, const BankAddress& bank, int victim,
            std::uint64_t count) {
  const std::array<HammerStep, 2> steps = {
      HammerStep{victim - 1, f.timing.t_ras},
      HammerStep{victim + 1, f.timing.t_ras}};
  f.now = f.stack.bulk_hammer(bank, steps, count, f.now) + 100;
}

void refresh(StackFixture& f, int channel) {
  f.stack.refresh(channel, f.now);
  f.now += f.timing.t_rfc + 100;
}

/// Everything the next command on `addr` reads: refresh pointer, touched
/// row count, defense state and, for each row within 4 of `rows`, the
/// stored bits, retention clock and dose ledger.
void expect_same_bank(Stack& got, Stack& want, const BankAddress& addr,
                      std::initializer_list<int> rows) {
  const Bank& g = got.bank(addr);
  const Bank& w = want.bank(addr);
  EXPECT_EQ(g.refresh_pointer(), w.refresh_pointer());
  EXPECT_EQ(g.touched_rows(), w.touched_rows());
  EXPECT_EQ(defense_activations(got, addr), defense_activations(want, addr));
  for (const int base : rows) {
    for (int row = base - 4; row <= base + 4; ++row) {
      ASSERT_EQ(g.ledger(row) != nullptr, w.ledger(row) != nullptr) << row;
      if (w.ledger(row) == nullptr) continue;
      EXPECT_EQ(*g.stored_bits(row), *w.stored_bits(row)) << row;
      EXPECT_EQ(g.last_restore(row), w.last_restore(row)) << row;
      const auto& got_epochs = g.ledger(row)->epochs();
      const auto& want_epochs = w.ledger(row)->epochs();
      ASSERT_EQ(got_epochs.size(), want_epochs.size()) << row;
      for (std::size_t i = 0; i < want_epochs.size(); ++i) {
        EXPECT_EQ(got_epochs[i].distance, want_epochs[i].distance) << row;
        EXPECT_EQ(got_epochs[i].aggressor_version,
                  want_epochs[i].aggressor_version)
            << row;
        EXPECT_EQ(got_epochs[i].unit, want_epochs[i].unit) << row;
        EXPECT_EQ(got_epochs[i].count, want_epochs[i].count) << row;
        EXPECT_EQ(got_epochs[i].aggressor_bits, want_epochs[i].aggressor_bits)
            << row;
      }
    }
  }
}

TEST(StackCheckpoint, PushClonesNoDefenseAndAChangedBankOne) {
  auto clones = std::make_shared<int>(0);
  StackFixture f(counting_config(clones));
  const BankAddress bank{2, 1, 3};
  f.write_row({bank, 4300}, RowBits::filled(0x55));
  const std::size_t checkpoint = f.stack.push_checkpoint();
  EXPECT_EQ(*clones, 0);
  f.stack.precharge_all(5, f.now);  // PRE to closed banks changes nothing
  EXPECT_EQ(*clones, 0);
  hammer(f, bank, 4300, 1000);
  EXPECT_EQ(*clones, 1);
  f.write_row({bank, 4300}, RowBits::filled(0x33));  // already joined
  EXPECT_EQ(*clones, 1);
  f.stack.restore_checkpoint(checkpoint);  // moves the clone back
  EXPECT_EQ(*clones, 1);
  hammer(f, bank, 4300, 1000);  // joins the rung again
  EXPECT_EQ(*clones, 2);
  f.stack.discard_checkpoints();
  hammer(f, bank, 4300, 1000);
  EXPECT_EQ(*clones, 2);
}

// Bank A changes at rungs 0, 2 and 3, bank B at rungs 1 and 2, and bank C
// at rungs 0 and 3 only, skipping 1-2. Block k runs between push k and
// push k + 1.
constexpr BankAddress kBankA{0, 0, 1};
constexpr BankAddress kBankB{1, 1, 4};
constexpr BankAddress kBankC{5, 1, 2};

void run_block(StackFixture& f, int block) {
  switch (block) {
    case 0:
      f.write_row({kBankA, 4299}, RowBits::filled(0xAA));
      hammer(f, kBankA, 4300, 20000);
      hammer(f, kBankC, 900, 5000);
      refresh(f, kBankC.channel);
      break;
    case 1:
      f.write_row({kBankB, 2000}, RowBits::filled(0x0F));
      hammer(f, kBankB, 2000, 30000);
      refresh(f, kBankB.channel);
      break;
    case 2:
      hammer(f, kBankA, 4300, 40000);
      f.write_row({kBankB, 2003}, RowBits::filled(0xF0));
      break;
    case 3:
      f.write_row({kBankC, 901}, RowBits::filled(0x3C));
      hammer(f, kBankC, 900, 7000);
      hammer(f, kBankA, 4302, 9000);
      break;
  }
}

void setup_stack(StackFixture& f) {
  f.write_row({kBankA, 4300}, RowBits::filled(0x55));
  f.write_row({kBankB, 2000}, RowBits::filled(0x66));
  f.write_row({kBankC, 900}, RowBits::filled(0x77));
}

void expect_same_stack(Stack& got, Stack& want) {
  expect_same_bank(got, want, kBankA, {4300, 4302});
  expect_same_bank(got, want, kBankB, {2000, 2003});
  expect_same_bank(got, want, kBankC, {900});
  for (int ch = 0; ch < kChannels; ++ch) {
    for (int pc = 0; pc < kPseudoChannels; ++pc) {
      for (int b = 0; b < kBanksPerPseudoChannel; ++b) {
        const BankAddress addr{ch, pc, b};
        EXPECT_EQ(got.bank(addr).refresh_pointer(),
                  want.bank(addr).refresh_pointer());
        EXPECT_EQ(got.bank(addr).touched_rows(),
                  want.bank(addr).touched_rows());
      }
    }
  }
}

TEST(StackCheckpoint, RestoreToEachRungMatchesAFreshReplay) {
  const auto clones = std::make_shared<int>(0);
  constexpr int kRungs = 4;
  StackFixture restored(counting_config(clones));
  setup_stack(restored);
  for (int k = 0; k < kRungs; ++k) {
    ASSERT_EQ(restored.stack.push_checkpoint(), static_cast<std::size_t>(k));
    run_block(restored, k);
  }
  // Rewind one rung at a time; after each restore, rerun the rung's block
  // later in time so the next restore also undoes a rejoined rung.
  for (int target = kRungs - 1; target >= 0; --target) {
    SCOPED_TRACE("rung " + std::to_string(target));
    restored.stack.restore_checkpoint(static_cast<std::size_t>(target));
    StackFixture fresh(counting_config(clones));
    setup_stack(fresh);
    for (int k = 0; k < target; ++k) run_block(fresh, k);
    expect_same_stack(restored.stack, fresh.stack);

    restored.now = fresh.now = std::max(restored.now, fresh.now);
    run_block(restored, target);
    run_block(fresh, target);
    expect_same_stack(restored.stack, fresh.stack);
  }
}

TEST(StackCheckpoint, BankChangedThroughTheBackdoorIsRewound) {
  const auto clones = std::make_shared<int>(0);
  StackFixture restored(counting_config(clones));
  StackFixture fresh(counting_config(clones));
  const BankAddress addr{3, 0, 9};
  restored.write_row({addr, 300}, RowBits::filled(0x5A));
  fresh.write_row({addr, 300}, RowBits::filled(0x5A));
  restored.stack.push_checkpoint();

  // Every command straight on the Bank, none through the Stack.
  Bank& bank = restored.stack.bank(addr);
  Cycle now = restored.now;
  bank.activate(300, now);
  std::array<std::uint64_t, kWordsPerColumn> column{};
  bank.write_column(0, column, now + restored.timing.t_rcd + 1);
  now += restored.timing.t_ras + 100;
  bank.precharge(now);
  now += restored.timing.t_rp + 100;
  const std::array<HammerStep, 2> steps = {
      HammerStep{299, restored.timing.t_ras},
      HammerStep{301, restored.timing.t_ras}};
  now = bank.bulk_hammer(steps, 50000, now) + 100;
  bank.refresh(now);
  bank.refresh_row(302, now + restored.timing.t_rfc + 100);
  ASSERT_NE(bank.touched_rows(), fresh.stack.bank(addr).touched_rows());

  restored.stack.restore_checkpoint(0);
  expect_same_bank(restored.stack, fresh.stack, addr, {300});
}


}  // namespace
}  // namespace hbmrd::dram
