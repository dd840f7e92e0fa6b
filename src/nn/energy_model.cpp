#include "nn/energy_model.hpp"

#include <stdexcept>

namespace origin::nn {

ComputeProfile quantized_profile(const ComputeProfile& profile, int bits) {
  if (bits == 32) return profile;
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument(
        "quantized_profile: bits must be 32 or in [2, 16]");
  }
  // MAC energy scales roughly with multiplier area ~ width^2 relative to a
  // float32 (24-bit mantissa) multiplier; memory traffic scales linearly
  // with word width.
  const double width_ratio = static_cast<double>(bits) / 32.0;
  const double mac_ratio = (static_cast<double>(bits) * bits) / (24.0 * 24.0);
  ComputeProfile quantized = profile;
  quantized.energy_per_mac_j *= mac_ratio;
  quantized.energy_per_param_access_j *= width_ratio;
  return quantized;
}

InferenceCost estimate_cost(const Sequential& model,
                            const std::vector<int>& input_shape,
                            const ComputeProfile& profile) {
  InferenceCost cost;
  std::vector<int> shape = input_shape;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    cost.macs += layer.macs(shape);
    cost.param_accesses += layer.param_count();
    const auto out = layer.output_shape(shape);
    cost.activation_accesses +=
        Tensor::shape_size(shape) + Tensor::shape_size(out);
    shape = out;
  }
  cost.energy_j =
      profile.inference_overhead_j +
      static_cast<double>(cost.macs) * profile.energy_per_mac_j +
      static_cast<double>(cost.param_accesses) * profile.energy_per_param_access_j +
      static_cast<double>(cost.activation_accesses) * profile.energy_per_activation_j;
  cost.latency_s = profile.inference_overhead_s +
                   static_cast<double>(cost.macs) / profile.macs_per_second;
  return cost;
}

InferenceCost estimate_cost_at_bits(const Sequential& model,
                                    const std::vector<int>& input_shape,
                                    int bits,
                                    const ComputeProfile& profile) {
  return estimate_cost(model, input_shape, quantized_profile(profile, bits));
}

double continuous_power_w(const InferenceCost& cost) {
  if (cost.latency_s <= 0.0) throw std::invalid_argument("continuous_power_w: zero latency");
  return cost.energy_j / cost.latency_s;
}

double duty_cycled_power_w(const InferenceCost& cost, double period_s) {
  if (period_s <= 0.0) throw std::invalid_argument("duty_cycled_power_w: period <= 0");
  return cost.energy_j / period_s;
}

}  // namespace origin::nn
