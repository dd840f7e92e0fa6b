#include "nn/quantize.hpp"

#include <cmath>
#include <stdexcept>

namespace origin::nn {

namespace {

void check_bits(int bits) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("quantize: bits must be in [2, 16]");
  }
}

}  // namespace

double quantize_tensor(Tensor& tensor, int bits) {
  check_bits(bits);
  if (tensor.empty()) return 0.0;
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(tensor[i]));
  }
  if (max_abs == 0.0f) return 0.0;
  const double levels = static_cast<double>((1 << (bits - 1)) - 1);
  const double scale = max_abs / levels;
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    const double q = std::round(tensor[i] / scale);
    tensor[i] = static_cast<float>(q * scale);
  }
  return scale;
}

QuantizationReport quantize_weights(Sequential& model, int bits) {
  check_bits(bits);
  QuantizationReport report;
  report.bits = bits;
  double sq_err = 0.0;
  for (Tensor* p : model.params()) {
    Tensor before = *p;
    const double scale = quantize_tensor(*p, bits);
    report.max_scale = std::max(report.max_scale, scale);
    ++report.tensors;
    report.values += p->size();
    for (std::size_t i = 0; i < p->size(); ++i) {
      const double d = (*p)[i] - before[i];
      sq_err += d * d;
    }
  }
  if (report.values > 0) {
    report.rms_error = std::sqrt(sq_err / static_cast<double>(report.values));
  }
  return report;
}

}  // namespace origin::nn
