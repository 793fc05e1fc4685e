#include "common/math_util.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace dycuckoo {
namespace {

TEST(MathUtilTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 40));
  EXPECT_FALSE(IsPowerOfTwo((uint64_t{1} << 40) + 1));
}

TEST(MathUtilTest, NextPowerOfTwoBasics) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

class NextPowerOfTwoPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(NextPowerOfTwoPropertyTest, ResultIsSmallestCoveringPower) {
  uint64_t x = GetParam();
  uint64_t p = NextPowerOfTwo(x);
  EXPECT_TRUE(IsPowerOfTwo(p));
  EXPECT_GE(p, x);
  if (p > 1) {
    EXPECT_LT(p / 2, x);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, NextPowerOfTwoPropertyTest,
                         ::testing::Values(1ull, 2ull, 5ull, 17ull, 100ull,
                                           4095ull, 4096ull, 4097ull,
                                           999999ull, 1ull << 33));

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 5), 0u);
  EXPECT_EQ(CeilDiv(1, 5), 1u);
  EXPECT_EQ(CeilDiv(5, 5), 1u);
  EXPECT_EQ(CeilDiv(6, 5), 2u);
  EXPECT_EQ(CeilDiv(10, 3), 4u);
}

TEST(MathUtilTest, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Floor(4), 2);
  EXPECT_EQ(Log2Floor(1024), 10);
  EXPECT_EQ(Log2Floor(1025), 10);
}

TEST(MathUtilTest, Choose2) {
  EXPECT_DOUBLE_EQ(Choose2(0), 0.0);
  EXPECT_DOUBLE_EQ(Choose2(1), 0.0);
  EXPECT_DOUBLE_EQ(Choose2(2), 1.0);
  EXPECT_DOUBLE_EQ(Choose2(5), 10.0);
  EXPECT_DOUBLE_EQ(Choose2(100), 4950.0);
}

}  // namespace
}  // namespace dycuckoo
