#include <gtest/gtest.h>

#include <cstdint>

#include "ecc/secded.h"
#include "util/rng.h"

namespace hbmrd::ecc {
namespace {

constexpr std::uint64_t kWords[] = {
    0x0ull,
    0xFFFFFFFFFFFFFFFFull,
    0x5555555555555555ull,
    0xDEADBEEFCAFEF00Dull,
    0x8000000000000001ull,
};

TEST(Secded, CleanWordDecodesClean) {
  for (auto word : kWords) {
    const auto check = Secded72_64::encode(word);
    const auto result = Secded72_64::decode(word, check);
    EXPECT_EQ(result.status, DecodeStatus::kClean);
    EXPECT_EQ(result.data, word);
  }
}

/// Property: every single data-bit error is corrected.
class SecdedSingleBitTest : public ::testing::TestWithParam<int> {};

TEST_P(SecdedSingleBitTest, CorrectsDataBitError) {
  const int bit = GetParam();
  for (auto word : kWords) {
    const auto check = Secded72_64::encode(word);
    const auto corrupted = word ^ (1ull << bit);
    const auto result = Secded72_64::decode(corrupted, check);
    EXPECT_EQ(result.status, DecodeStatus::kCorrectedData) << "bit " << bit;
    EXPECT_EQ(result.data, word) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, SecdedSingleBitTest,
                         ::testing::Range(0, 64));

/// Property: every single check-bit error leaves the data intact.
class SecdedCheckBitTest : public ::testing::TestWithParam<int> {};

TEST_P(SecdedCheckBitTest, CorrectsCheckBitError) {
  const int bit = GetParam();
  for (auto word : kWords) {
    const auto check = Secded72_64::encode(word);
    const auto corrupted_check =
        static_cast<std::uint8_t>(check ^ (1u << bit));
    const auto result = Secded72_64::decode(word, corrupted_check);
    EXPECT_EQ(result.status, DecodeStatus::kCorrectedParity) << "bit " << bit;
    EXPECT_EQ(result.data, word) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCheckBits, SecdedCheckBitTest,
                         ::testing::Range(0, 8));

TEST(Secded, DetectsAllDoubleDataBitErrors) {
  // Sweep a deterministic sample of bit pairs across all 64x63/2 pairs.
  const std::uint64_t word = 0xDEADBEEFCAFEF00Dull;
  const auto check = Secded72_64::encode(word);
  for (int i = 0; i < 64; ++i) {
    for (int j = i + 1; j < 64; ++j) {
      const auto corrupted = word ^ (1ull << i) ^ (1ull << j);
      const auto result = Secded72_64::decode(corrupted, check);
      EXPECT_EQ(result.status, DecodeStatus::kDetectedUncorrectable)
          << "bits " << i << "," << j;
    }
  }
}

TEST(Secded, DetectsDataPlusCheckDoubleError) {
  const std::uint64_t word = 0x123456789ABCDEF0ull;
  const auto check = Secded72_64::encode(word);
  for (int data_bit = 0; data_bit < 64; data_bit += 7) {
    for (int check_bit = 0; check_bit < 8; ++check_bit) {
      const auto result = Secded72_64::decode(
          word ^ (1ull << data_bit),
          static_cast<std::uint8_t>(check ^ (1u << check_bit)));
      EXPECT_EQ(result.status, DecodeStatus::kDetectedUncorrectable)
          << data_bit << "," << check_bit;
    }
  }
}

TEST(Secded, TripleErrorsEscapeTheGuarantee) {
  // Sec. 8.1: >= 3 flips per word can be silently miscorrected — the code
  // must NOT report them all as detected. Count outcomes over a sweep.
  const std::uint64_t word = 0ull;
  const auto check = Secded72_64::encode(word);
  int miscorrected = 0;
  util::Stream rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const int a = static_cast<int>(rng.next_below(64));
    int b = static_cast<int>(rng.next_below(64));
    int c = static_cast<int>(rng.next_below(64));
    if (a == b || b == c || a == c) continue;
    const auto corrupted = word ^ (1ull << a) ^ (1ull << b) ^ (1ull << c);
    const auto result = Secded72_64::decode(corrupted, check);
    if (result.status == DecodeStatus::kCorrectedData &&
        result.data != word) {
      ++miscorrected;
    }
  }
  EXPECT_GT(miscorrected, 0);
}

}  // namespace
}  // namespace hbmrd::ecc
