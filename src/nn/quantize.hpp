// Post-training weight quantization (TFLite-style symmetric per-tensor
// affine grids). Deployment on NVM-backed edge inference engines stores
// weights at reduced precision; this module simulates that numerically
// (fake-quant: weights are snapped to the b-bit grid but kept as floats,
// so the regular inference path measures the deployed accuracy), and
// estimate_cost_at_bits (nn/energy_model.hpp) credits the cheaper MACs.
#pragma once

#include <cstdint>

#include "nn/energy_model.hpp"
#include "nn/model.hpp"

namespace origin::nn {

struct QuantizationReport {
  int bits = 8;
  std::size_t tensors = 0;
  std::size_t values = 0;
  /// Root-mean-square error introduced across all quantized weights.
  double rms_error = 0.0;
  /// Largest |scale| used by any tensor's grid.
  double max_scale = 0.0;
};

/// Snaps every parameter tensor of `model` to a symmetric signed `bits`
/// grid (per-tensor scale = max|w| / (2^(bits-1) - 1)). bits in [2, 16].
QuantizationReport quantize_weights(Sequential& model, int bits);

/// Quantizes one tensor in place; returns its grid scale.
double quantize_tensor(Tensor& tensor, int bits);

}  // namespace origin::nn
