#include "nn/conv1d.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace origin::nn {

int Conv1D::out_length(int in_length, int kernel, int stride) {
  if (in_length < kernel) return 0;
  return (in_length - kernel) / stride + 1;
}

Conv1D::Conv1D(int in_channels, int out_channels, int kernel, int stride)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      weight_({out_channels, in_channels, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel}),
      grad_bias_({out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0) {
    throw std::invalid_argument("Conv1D: non-positive configuration");
  }
}

Conv1D::Conv1D(int in_channels, int out_channels, int kernel, int stride,
               util::Rng& rng)
    : Conv1D(in_channels, out_channels, kernel, stride) {
  const float fan_in = static_cast<float>(in_channels * kernel);
  weight_ = Tensor::randn({cout_, cin_, k_}, rng, std::sqrt(2.0f / fan_in));
}

int Conv1D::checked_out_length(const Tensor& input) const {
  if (input.rank() != 2 || input.dim(0) != cin_) {
    throw std::invalid_argument("Conv1D::forward: expected [" +
                                std::to_string(cin_) + ", L] input, got " +
                                input.shape_str());
  }
  const int out_len = out_length(input.dim(1), k_, stride_);
  if (out_len <= 0) {
    throw std::invalid_argument("Conv1D::forward: input shorter than kernel");
  }
  return out_len;
}

Tensor Conv1D::forward(const Tensor& input, bool train) {
  const int out_len = checked_out_length(input);
  train_count_ = 0;
  if (train) {
    last_input_ = input;
  } else {
    last_input_ = Tensor();
  }
  Tensor out({cout_, out_len});
  const int kd = cin_ * k_;
  float* panel = kernels::scratch(kernels::Slot::Panel,
                                  static_cast<std::size_t>(kd) * out_len);
  kernels::im2row(input.data(), cin_, input.dim(1), k_, stride_, out_len,
                  panel, static_cast<std::size_t>(out_len));
  kernels::gemm_bias(weight_.data(), bias_.data(), panel, out.data(), cout_,
                     kd, out_len);
  return out;
}

void Conv1D::forward_batch(const Tensor* const* inputs, std::size_t count,
                           Tensor* outputs) {
  if (count == 0) return;
  const int out_len = checked_out_length(*inputs[0]);
  const int in_len = inputs[0]->dim(1);
  for (std::size_t b = 1; b < count; ++b) {
    if (inputs[b]->rank() != 2 || inputs[b]->dim(0) != cin_ ||
        inputs[b]->dim(1) != in_len) {
      throw std::invalid_argument(
          "Conv1D::forward_batch: mixed input shapes in batch");
    }
  }
  // One wide panel [kd, count*out_len] with sample b at column offset
  // b*out_len, one GEMM, then per-sample rows copied out. Each output
  // element accumulates in the same j order as the single-sample path.
  const int kd = cin_ * k_;
  const std::size_t n = count * static_cast<std::size_t>(out_len);
  float* panel = kernels::scratch(kernels::Slot::Panel,
                                  static_cast<std::size_t>(kd) * n);
  for (std::size_t b = 0; b < count; ++b) {
    kernels::im2row(inputs[b]->data(), cin_, in_len, k_, stride_, out_len,
                    panel + b * static_cast<std::size_t>(out_len), n);
  }
  float* stage = kernels::scratch(kernels::Slot::Stage,
                                  static_cast<std::size_t>(cout_) * n);
  kernels::gemm_bias(weight_.data(), bias_.data(), panel, stage, cout_, kd,
                     static_cast<int>(n));
  for (std::size_t b = 0; b < count; ++b) {
    outputs[b].reset_shape({cout_, out_len});
    float* dst = outputs[b].data();
    for (int co = 0; co < cout_; ++co) {
      std::memcpy(dst + static_cast<std::size_t>(co) * out_len,
                  stage + static_cast<std::size_t>(co) * n +
                      b * static_cast<std::size_t>(out_len),
                  sizeof(float) * static_cast<std::size_t>(out_len));
    }
  }
}

Tensor Conv1D::forward_reference(const Tensor& input) const {
  const int out_len = checked_out_length(input);
  Tensor out({cout_, out_len});
  for (int co = 0; co < cout_; ++co) {
    const float b = bias_[static_cast<std::size_t>(co)];
    for (int t = 0; t < out_len; ++t) {
      float acc = b;
      const int base = t * stride_;
      for (int ci = 0; ci < cin_; ++ci) {
        for (int kk = 0; kk < k_; ++kk) {
          acc += weight_.at(co, ci, kk) * input.at(ci, base + kk);
        }
      }
      out.at(co, t) = acc;
    }
  }
  return out;
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  if (last_input_.empty()) {
    throw std::logic_error(
        "Conv1D::backward: no cached input — call forward(x, train=true) "
        "before backward (the inference path retains nothing)");
  }
  const int in_len = last_input_.dim(1);
  const int out_len = out_length(in_len, k_, stride_);
  if (grad_output.rank() != 2 || grad_output.dim(0) != cout_ ||
      grad_output.dim(1) != out_len) {
    throw std::invalid_argument("Conv1D::backward: gradient shape mismatch");
  }
  // Re-pack the cached input (the grad-weight GEMM reads the same panel
  // the forward used); grad_output is already the [cout, out_len] panel.
  const int kd = cin_ * k_;
  float* panel = kernels::scratch(kernels::Slot::Panel,
                                  static_cast<std::size_t>(kd) * out_len);
  kernels::im2row(last_input_.data(), cin_, in_len, k_, stride_, out_len,
                  panel, static_cast<std::size_t>(out_len));
  const float* g = grad_output.data();
  kernels::row_sum_acc(g, grad_bias_.data(), cout_, out_len,
                       static_cast<std::size_t>(out_len));
  kernels::gemm_acc_nt(g, panel, grad_weight_.data(), cout_, kd, out_len);
  Tensor grad_in({cin_, in_len});
  kernels::conv1d_grad_input(weight_.data(), g, grad_in.data(), cin_, cout_,
                             k_, stride_, in_len, out_len,
                             static_cast<std::size_t>(out_len));
  return grad_in;
}

Tensor Conv1D::backward_reference(const Tensor& grad_output) {
  if (last_input_.empty()) {
    throw std::logic_error(
        "Conv1D::backward: no cached input — call forward(x, train=true) "
        "before backward (the inference path retains nothing)");
  }
  const int in_len = last_input_.dim(1);
  const int out_len = out_length(in_len, k_, stride_);
  if (grad_output.rank() != 2 || grad_output.dim(0) != cout_ ||
      grad_output.dim(1) != out_len) {
    throw std::invalid_argument("Conv1D::backward: gradient shape mismatch");
  }
  Tensor grad_in({cin_, in_len});
  for (int co = 0; co < cout_; ++co) {
    for (int t = 0; t < out_len; ++t) {
      const float g = grad_output.at(co, t);
      grad_bias_[static_cast<std::size_t>(co)] += g;
      const int base = t * stride_;
      for (int ci = 0; ci < cin_; ++ci) {
        for (int kk = 0; kk < k_; ++kk) {
          grad_weight_.at(co, ci, kk) += g * last_input_.at(ci, base + kk);
          grad_in.at(ci, base + kk) += g * weight_.at(co, ci, kk);
        }
      }
    }
  }
  return grad_in;
}

void Conv1D::forward_batch_train(const Tensor* const* inputs,
                                 std::size_t count, Tensor* outputs) {
  if (count == 0) {
    train_count_ = 0;
    return;
  }
  const int out_len = checked_out_length(*inputs[0]);
  const int in_len = inputs[0]->dim(1);
  for (std::size_t b = 1; b < count; ++b) {
    if (inputs[b]->rank() != 2 || inputs[b]->dim(0) != cin_ ||
        inputs[b]->dim(1) != in_len) {
      throw std::invalid_argument(
          "Conv1D::forward_batch_train: mixed input shapes in batch");
    }
  }
  last_input_ = Tensor();
  // Same wide panel + GEMM as the inference batch (sample b at column
  // offset b*out_len), but the panel lives in a member: backward_batch
  // reads it after every downstream layer has used the scratch slots.
  const int kd = cin_ * k_;
  const std::size_t n = count * static_cast<std::size_t>(out_len);
  train_panel_.resize(static_cast<std::size_t>(kd) * n);
  for (std::size_t b = 0; b < count; ++b) {
    kernels::im2row(inputs[b]->data(), cin_, in_len, k_, stride_, out_len,
                    train_panel_.data() + b * static_cast<std::size_t>(out_len),
                    n);
  }
  float* stage = kernels::scratch(kernels::Slot::Stage,
                                  static_cast<std::size_t>(cout_) * n);
  kernels::gemm_bias(weight_.data(), bias_.data(), train_panel_.data(), stage,
                     cout_, kd, static_cast<int>(n));
  for (std::size_t b = 0; b < count; ++b) {
    outputs[b].reset_shape({cout_, out_len});
    float* dst = outputs[b].data();
    for (int co = 0; co < cout_; ++co) {
      std::memcpy(dst + static_cast<std::size_t>(co) * out_len,
                  stage + static_cast<std::size_t>(co) * n +
                      b * static_cast<std::size_t>(out_len),
                  sizeof(float) * static_cast<std::size_t>(out_len));
    }
  }
  train_count_ = count;
  train_in_len_ = in_len;
}

void Conv1D::backward_batch(const Tensor* const* grad_outputs,
                            std::size_t count, Tensor* grad_inputs) {
  if (train_count_ == 0 || count != train_count_) {
    throw std::logic_error(
        "Conv1D::backward_batch: no cached batch — call "
        "forward_batch_train with the same batch first");
  }
  const int in_len = train_in_len_;
  const int out_len = out_length(in_len, k_, stride_);
  const std::size_t n = count * static_cast<std::size_t>(out_len);
  for (std::size_t b = 0; b < count; ++b) {
    if (grad_outputs[b]->rank() != 2 || grad_outputs[b]->dim(0) != cout_ ||
        grad_outputs[b]->dim(1) != out_len) {
      throw std::invalid_argument(
          "Conv1D::backward_batch: gradient shape mismatch");
    }
  }
  // Wide grad panel mirroring the input panel's column layout, so the
  // grad-weight GEMM's j order (sample-major, t-ascending) reproduces the
  // reference's per-sample sequential accumulation.
  float* g = kernels::scratch(kernels::Slot::Panel,
                              static_cast<std::size_t>(cout_) * n);
  for (std::size_t b = 0; b < count; ++b) {
    const float* src = grad_outputs[b]->data();
    for (int co = 0; co < cout_; ++co) {
      std::memcpy(g + static_cast<std::size_t>(co) * n +
                      b * static_cast<std::size_t>(out_len),
                  src + static_cast<std::size_t>(co) * out_len,
                  sizeof(float) * static_cast<std::size_t>(out_len));
    }
  }
  const int kd = cin_ * k_;
  kernels::row_sum_acc(g, grad_bias_.data(), cout_, static_cast<int>(n), n);
  kernels::gemm_acc_nt(g, train_panel_.data(), grad_weight_.data(), cout_, kd,
                       static_cast<int>(n));
  for (std::size_t b = 0; b < count; ++b) {
    grad_inputs[b].reset_shape({cin_, in_len});
    kernels::conv1d_grad_input(weight_.data(),
                               g + b * static_cast<std::size_t>(out_len),
                               grad_inputs[b].data(), cin_, cout_, k_, stride_,
                               in_len, out_len, n);
  }
}

std::string Conv1D::describe() const {
  std::ostringstream os;
  os << "conv1d(" << cin_ << " -> " << cout_ << ", k=" << k_ << ", s=" << stride_
     << ")";
  return os.str();
}

std::unique_ptr<Layer> Conv1D::clone() const {
  auto copy = std::make_unique<Conv1D>(cin_, cout_, k_, stride_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

std::vector<int> Conv1D::output_shape(const std::vector<int>& input) const {
  if (input.size() != 2 || input[0] != cin_) {
    throw std::invalid_argument("Conv1D: input shape mismatch");
  }
  const int out_len = out_length(input[1], k_, stride_);
  if (out_len <= 0) throw std::invalid_argument("Conv1D: input too short");
  return {cout_, out_len};
}

std::uint64_t Conv1D::macs(const std::vector<int>& input) const {
  const auto out = output_shape(input);
  return static_cast<std::uint64_t>(cout_) * static_cast<std::uint64_t>(out[1]) *
         static_cast<std::uint64_t>(cin_) * static_cast<std::uint64_t>(k_);
}

float Conv1D::filter_l2(int f) const {
  if (f < 0 || f >= cout_) throw std::invalid_argument("Conv1D::filter_l2: bad index");
  float s = 0.0f;
  for (int ci = 0; ci < cin_; ++ci) {
    for (int kk = 0; kk < k_; ++kk) {
      const float w = weight_.at(f, ci, kk);
      s += w * w;
    }
  }
  return std::sqrt(s);
}

void Conv1D::remove_output_filter(int f) {
  if (f < 0 || f >= cout_ || cout_ <= 1) {
    throw std::invalid_argument("Conv1D::remove_output_filter: bad index");
  }
  const int new_cout = cout_ - 1;
  Tensor new_w({new_cout, cin_, k_});
  Tensor new_b({new_cout});
  int dst = 0;
  for (int co = 0; co < cout_; ++co) {
    if (co == f) continue;
    for (int ci = 0; ci < cin_; ++ci) {
      for (int kk = 0; kk < k_; ++kk) new_w.at(dst, ci, kk) = weight_.at(co, ci, kk);
    }
    new_b[static_cast<std::size_t>(dst)] = bias_[static_cast<std::size_t>(co)];
    ++dst;
  }
  cout_ = new_cout;
  weight_ = std::move(new_w);
  bias_ = std::move(new_b);
  grad_weight_ = Tensor({cout_, cin_, k_});
  grad_bias_ = Tensor({cout_});
}

void Conv1D::remove_input_channel(int c) {
  if (c < 0 || c >= cin_ || cin_ <= 1) {
    throw std::invalid_argument("Conv1D::remove_input_channel: bad index");
  }
  const int new_cin = cin_ - 1;
  Tensor new_w({cout_, new_cin, k_});
  for (int co = 0; co < cout_; ++co) {
    int dst = 0;
    for (int ci = 0; ci < cin_; ++ci) {
      if (ci == c) continue;
      for (int kk = 0; kk < k_; ++kk) new_w.at(co, dst, kk) = weight_.at(co, ci, kk);
      ++dst;
    }
  }
  cin_ = new_cin;
  weight_ = std::move(new_w);
  grad_weight_ = Tensor({cout_, cin_, k_});
}

}  // namespace origin::nn
