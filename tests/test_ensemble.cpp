#include "core/ensemble.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace origin::core {
namespace {

TEST(Majority, EmptyIsNullopt) {
  EXPECT_FALSE(majority_vote({}, 3).has_value());
  EXPECT_FALSE(weighted_majority_vote({}, 3).has_value());
}

TEST(Majority, SimpleMajority) {
  const std::vector<Ballot> b = {{1, 1.0, 0}, {1, 1.0, 1}, {2, 1.0, 2}};
  EXPECT_EQ(majority_vote(b, 3).value(), 1);
}

TEST(Majority, Unanimous) {
  const std::vector<Ballot> b = {{0, 1.0, 0}, {0, 1.0, 1}, {0, 1.0, 2}};
  EXPECT_EQ(majority_vote(b, 2).value(), 0);
}

TEST(Majority, ThreeWayTieGoesToLowestPriority) {
  const std::vector<Ballot> b = {{0, 1.0, 2.0}, {1, 1.0, 0.5}, {2, 1.0, 1.0}};
  EXPECT_EQ(majority_vote(b, 3).value(), 1);
}

TEST(Majority, SingleBallotWins) {
  const std::vector<Ballot> b = {{4, 1.0, 0}};
  EXPECT_EQ(majority_vote(b, 6).value(), 4);
}

TEST(Majority, Validation) {
  EXPECT_THROW(majority_vote({{3, 1.0, 0}}, 3), std::invalid_argument);
  EXPECT_THROW(majority_vote({{-1, 1.0, 0}}, 3), std::invalid_argument);
  EXPECT_THROW(majority_vote({{0, -1.0, 0}}, 3), std::invalid_argument);
  EXPECT_THROW(majority_vote({}, 0), std::invalid_argument);
}

TEST(Weighted, HeavierClassWins) {
  const std::vector<Ballot> b = {{0, 0.3, 0}, {1, 0.5, 1}, {0, 0.1, 2}};
  EXPECT_EQ(weighted_majority_vote(b, 2).value(), 1);
}

TEST(Weighted, SumBeatsSingleHeavy) {
  const std::vector<Ballot> b = {{0, 0.4, 0}, {1, 0.3, 1}, {1, 0.3, 2}};
  EXPECT_EQ(weighted_majority_vote(b, 2).value(), 1);
}

TEST(Weighted, ExactTieResolvedByHeaviestBallot) {
  // totals equal (0.5 vs 0.5) but class 1 has the single heaviest ballot.
  const std::vector<Ballot> b = {{0, 0.25, 0}, {0, 0.25, 1}, {1, 0.5, 2}};
  EXPECT_EQ(weighted_majority_vote(b, 2).value(), 1);
}

TEST(Weighted, FullTieFallsBackToPriority) {
  const std::vector<Ballot> b = {{0, 0.5, 5.0}, {1, 0.5, 1.0}};
  EXPECT_EQ(weighted_majority_vote(b, 2).value(), 1);
}

TEST(Weighted, ZeroWeightsStillProduceWinner) {
  const std::vector<Ballot> b = {{2, 0.0, 1.0}, {0, 0.0, 0.5}};
  const auto w = weighted_majority_vote(b, 3);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w.value(), 0);  // tie at 0 weight -> priority
}

// Property sweep: with all weights equal, weighted voting must agree with
// unweighted majority voting on every configuration of 3 ballots.
class VoteEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(VoteEquivalence, WeightedDegeneratesToMajority) {
  const auto [a, b, c] = GetParam();
  std::vector<Ballot> ballots = {
      {a, 1.0, 0.0}, {b, 1.0, 1.0}, {c, 1.0, 2.0}};
  const auto plain = majority_vote(ballots, 4);
  const auto weighted = weighted_majority_vote(ballots, 4);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(weighted.has_value());
  // With equal weights the winning *count* must match; tie-break rules may
  // differ only when every class has one ballot — in that case both fall
  // back to the lowest tie_priority ballot, which is also identical.
  EXPECT_EQ(plain.value(), weighted.value());
}

INSTANTIATE_TEST_SUITE_P(
    AllThreeBallotCombos, VoteEquivalence,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4),
                       ::testing::Range(0, 4)));

// Property: the majority winner never has fewer votes than any other class.
class MajorityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MajorityProperty, WinnerHasMaximalCount) {
  const int seed = GetParam();
  std::vector<Ballot> ballots;
  // Unsigned arithmetic wraps where the signed form would overflow; the
  // mask keeps the same 31-bit values, so the ballots are unchanged.
  auto x = static_cast<std::uint32_t>(seed);
  for (int i = 0; i < 5; ++i) {
    x = (x * 1103515245u + 12345u) & 0x7fffffffu;
    ballots.push_back({static_cast<int>(x % 6), 1.0, static_cast<double>(i)});
  }
  const int winner = majority_vote(ballots, 6).value();
  std::vector<int> counts(6, 0);
  for (const auto& b : ballots) ++counts[static_cast<std::size_t>(b.cls)];
  for (int c = 0; c < 6; ++c) {
    EXPECT_LE(counts[static_cast<std::size_t>(c)],
              counts[static_cast<std::size_t>(winner)]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBallots, MajorityProperty,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace origin::core
