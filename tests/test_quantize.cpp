#include "nn/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace origin::nn {
namespace {

Sequential net(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential m;
  m.emplace<Conv1D>(2, 6, 3, 1, rng)
      .emplace<ReLU>()
      .emplace<MaxPool1D>(2)
      .emplace<Flatten>()
      .emplace<Dense>(6 * 7, 4, rng);
  return m;
}

TEST(Quantize, BitsValidation) {
  Tensor t({4}, {1, 2, 3, 4});
  EXPECT_THROW(quantize_tensor(t, 1), std::invalid_argument);
  EXPECT_THROW(quantize_tensor(t, 17), std::invalid_argument);
  auto m = net(1);
  EXPECT_THROW(quantize_weights(m, 0), std::invalid_argument);
  EXPECT_THROW(estimate_cost_at_bits(m, {2, 16}, 1), std::invalid_argument);
}

TEST(Quantize, ZeroTensorUntouched) {
  Tensor t({3});
  EXPECT_DOUBLE_EQ(quantize_tensor(t, 8), 0.0);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Quantize, GridHasAtMost2PowBitsLevels) {
  util::Rng rng(2);
  Tensor t = Tensor::randn({1000}, rng, 1.0f);
  quantize_tensor(t, 4);
  std::set<float> levels(t.vec().begin(), t.vec().end());
  EXPECT_LE(levels.size(), 16u);  // 2^4
}

TEST(Quantize, MaxAbsPreserved) {
  Tensor t({3}, {-2.0f, 0.5f, 1.0f});
  quantize_tensor(t, 8);
  EXPECT_FLOAT_EQ(t[0], -2.0f);  // extremum maps exactly onto the grid
}

TEST(Quantize, ErrorBoundedByHalfStep) {
  util::Rng rng(3);
  Tensor t = Tensor::randn({500}, rng, 1.0f);
  Tensor before = t;
  const double scale = quantize_tensor(t, 8);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t[i] - before[i]), 0.5 * scale + 1e-7);
  }
}

TEST(Quantize, ReportCountsAllParams) {
  auto m = net(4);
  const auto report = quantize_weights(m, 8);
  EXPECT_EQ(report.values, m.param_count());
  EXPECT_EQ(report.tensors, 4u);  // conv w+b, dense w+b
  EXPECT_GT(report.rms_error, 0.0);
}

// Property: more bits, less error — and 8-bit inference barely moves the
// outputs while 2-bit visibly does.
class QuantizeBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBits, MoreBitsLessError) {
  const int bits = GetParam();
  auto coarse = net(5);
  auto fine = net(5);
  const auto rc = quantize_weights(coarse, bits);
  const auto rf = quantize_weights(fine, bits + 2);
  EXPECT_GT(rc.rms_error, rf.rms_error);
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizeBits, ::testing::Values(2, 3, 4, 6, 8));

TEST(Quantize, EightBitPreservesPredictions) {
  auto original = net(6);
  auto quantized = original;
  quantize_weights(quantized, 8);
  util::Rng rng(7);
  int agree = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    const Tensor x = Tensor::randn({2, 16}, rng, 1.0f);
    if (original.predict(x) == quantized.predict(x)) ++agree;
  }
  EXPECT_GE(agree, 45);  // >= 90% prediction agreement at 8 bits
}

TEST(Quantize, TwoBitDegradesOutputs) {
  auto original = net(8);
  auto quantized = original;
  quantize_weights(quantized, 2);
  util::Rng rng(9);
  double diff = 0.0;
  for (int i = 0; i < 20; ++i) {
    const Tensor x = Tensor::randn({2, 16}, rng, 1.0f);
    const Tensor yo = original.forward(x, false);
    const Tensor yq = quantized.forward(x, false);
    for (std::size_t j = 0; j < yo.size(); ++j) diff += std::fabs(yo[j] - yq[j]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Quantize, QuantizedCostCheaper) {
  auto m = net(10);
  const auto fp32 = estimate_cost(m, {2, 16});
  const auto int8 = estimate_cost_at_bits(m, {2, 16}, 8);
  const auto int4 = estimate_cost_at_bits(m, {2, 16}, 4);
  EXPECT_LT(int8.energy_j, fp32.energy_j);
  EXPECT_LT(int4.energy_j, int8.energy_j);
  // MAC count unchanged — only the energy per operation drops.
  EXPECT_EQ(int8.macs, fp32.macs);
}

TEST(Quantize, Idempotent) {
  auto m = net(11);
  quantize_weights(m, 6);
  auto again = m;
  const auto report = quantize_weights(again, 6);
  EXPECT_NEAR(report.rms_error, 0.0, 1e-9);
}

}  // namespace
}  // namespace origin::nn
