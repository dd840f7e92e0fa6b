// Per-inference energy/latency model for a Sequential network running on an
// ultra-low-power NVP-class compute node (paper refs [6],[15]): energy is
// dominated by MAC operations plus parameter/activation memory traffic.
// This is the model both energy-aware pruning (Baseline-2) and the harvest
// simulator consume.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.hpp"

namespace origin::nn {

/// Hardware constants of the sensor's compute component. Defaults model an
/// NVP-class microcontroller inference engine (instruction + NVM-fetch
/// overhead folded into the per-MAC/per-access figures), where compute —
/// not wakeup overhead — dominates, so energy-aware pruning has leverage.
struct ComputeProfile {
  double energy_per_mac_j = 50.0e-12;           // MAC incl. instruction cost
  double energy_per_param_access_j = 100.0e-12;  // weight fetch from NVM
  double energy_per_activation_j = 20.0e-12;     // activation read+write
  double macs_per_second = 2.0e6;                // sustained MAC throughput
  double inference_overhead_j = 0.5e-6;          // sensor read + wakeup
  double inference_overhead_s = 5.0e-3;
};

struct InferenceCost {
  double energy_j = 0.0;
  double latency_s = 0.0;
  std::uint64_t macs = 0;
  std::uint64_t param_accesses = 0;
  std::uint64_t activation_accesses = 0;
};

/// `profile` with MAC and weight-fetch energy scaled for `bits`-wide
/// arithmetic: MAC energy by (bits/24)^2 (multiplier area ~ width^2
/// relative to the float32 24-bit mantissa multiplier), weight fetches by
/// bits/32 (memory traffic is linear in word width). bits == 32 returns
/// the profile unchanged; otherwise bits must be in [2, 16].
ComputeProfile quantized_profile(const ComputeProfile& profile, int bits);

/// Static cost estimate for one inference of `model` on one sample of
/// `input_shape`, on the float32 `profile`.
InferenceCost estimate_cost(const Sequential& model,
                            const std::vector<int>& input_shape,
                            const ComputeProfile& profile = {});

/// Cost at an explicit word width, on quantized_profile(profile, bits) —
/// the what-if query quantization sweeps ask ("what would this float
/// model cost deployed at `bits`?"). Throws std::invalid_argument unless
/// bits is 32 or in [2, 16].
InferenceCost estimate_cost_at_bits(const Sequential& model,
                                    const std::vector<int>& input_shape,
                                    int bits,
                                    const ComputeProfile& profile = {});

/// Average power drawn if the node ran inferences back to back.
double continuous_power_w(const InferenceCost& cost);

/// Average power when one inference runs every `period_s` seconds — the
/// budget a duty-cycled (extended round-robin) schedule must meet.
double duty_cycled_power_w(const InferenceCost& cost, double period_s);

}  // namespace origin::nn
