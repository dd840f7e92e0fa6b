// 1-D convolution over [channels, length] windows — the workhorse of the
// per-sensor HAR classifiers (Ha & Choi-style CNNs, paper refs [11],[14]).
#pragma once

#include "nn/layer.hpp"

namespace origin::util {
class Rng;
}

namespace origin::nn {

class Conv1D : public Layer {
 public:
  /// Valid (no padding) convolution with the given stride.
  Conv1D(int in_channels, int out_channels, int kernel, int stride,
         util::Rng& rng);
  Conv1D(int in_channels, int out_channels, int kernel, int stride);

  /// Inference path (train == false) runs im2row + blocked GEMM
  /// (nn/kernels.hpp) and retains nothing; the training path additionally
  /// caches the input for backward(). Both produce outputs bit-identical
  /// to forward_reference().
  Tensor forward(const Tensor& input, bool train) override;
  /// Kernel-backed backward: grad-bias row reduction + grad-weight GEMM
  /// over the re-packed im2row panel + the order-preserving transposed
  /// correlation for grad-input. Bit-identical to backward_reference().
  Tensor backward(const Tensor& grad_output) override;

  /// Batched inference over same-shape windows: one im2row panel + one
  /// GEMM for the whole batch. Bit-identical to per-sample forward.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs) override;

  /// Batched training: the forward keeps the wide im2row panel alive in a
  /// member (thread-local scratch would be clobbered by the next layer) so
  /// backward_batch can run one grad-weight GEMM for the whole minibatch.
  /// Gradients end bit-identical to per-sample forward/backward in order.
  bool supports_batch_train() const override { return true; }
  void forward_batch_train(const Tensor* const* inputs, std::size_t count,
                           Tensor* outputs) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;

  /// The original quadruple loop, kept as the accumulation-order reference
  /// the kernel path must match bit-for-bit (tests/test_kernels.cpp).
  Tensor forward_reference(const Tensor& input) const;

  /// The original backward quadruple loop, kept verbatim as the gradient
  /// accumulation-order oracle (tests/test_train_kernels.cpp). Accumulates
  /// into the same grad tensors and consumes the same forward(train=true)
  /// cache as backward().
  Tensor backward_reference(const Tensor& grad_output);

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }

  std::string kind() const override { return "conv1d"; }
  std::string describe() const override;
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override;
  std::uint64_t macs(const std::vector<int>& input) const override;

  int in_channels() const { return cin_; }
  int out_channels() const { return cout_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }

  /// weight shape [cout, cin, k]; bias [cout].
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// L2 norm of output filter `f`'s weights — pruning importance score.
  float filter_l2(int f) const;
  /// Structured pruning surgery.
  void remove_output_filter(int f);
  void remove_input_channel(int c);

  static int out_length(int in_length, int kernel, int stride);

 private:
  /// Validates the [cin, L] input shape and returns the output length.
  int checked_out_length(const Tensor& input) const;

  int cin_ = 0;
  int cout_ = 0;
  int k_ = 0;
  int stride_ = 1;
  Tensor weight_;       // [cout, cin, k]
  Tensor bias_;         // [cout]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor last_input_;   // [cin, L]
  /// Batched-training cache: the wide im2row panel [cin*k, count*out_len]
  /// of the last forward_batch_train, plus its geometry.
  std::vector<float> train_panel_;
  std::size_t train_count_ = 0;
  int train_in_len_ = 0;
};

}  // namespace origin::nn
