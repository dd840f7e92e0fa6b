// Sequential model container: the unit the scheduler deploys to a sensor
// node and the unit pruning/serialization operate on.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace origin::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);

  /// Appends a layer; returns *this for builder-style chaining.
  Sequential& add(LayerPtr layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Raw forward pass (logits for a classifier).
  Tensor forward(const Tensor& input, bool train = false);
  /// Backward pass through every layer; input is dL/d(logits).
  void backward(const Tensor& grad_logits);

  /// Softmax probabilities for a classifier head producing logits.
  std::vector<float> predict_proba(const Tensor& input);
  /// Top-1 class for the input.
  int predict(const Tensor& input);

  /// Batched inference over same-shape inputs: each layer processes the
  /// whole batch via forward_batch (one im2row panel / GEMM for conv and
  /// dense), double-buffering activations through thread-local arenas so
  /// steady-state classification allocates nothing per window. Outputs are
  /// bit-identical to calling forward(input, false) per sample.
  void forward_batch_inference(const Tensor* const* inputs, std::size_t count,
                               Tensor* outputs);

  /// True when every layer implements the batched training pair — the
  /// precondition for forward_batch_train/backward_batch (the trainer
  /// falls back to per-sample backprop otherwise).
  bool supports_batch_train() const;

  /// Batched training forward: outputs[b] is bit-identical to
  /// forward(*inputs[b], train=true) called in sample order (stochastic
  /// layers consume their RNG sample-major). Each layer caches what its
  /// backward_batch needs.
  void forward_batch_train(const Tensor* const* inputs, std::size_t count,
                           Tensor* outputs);

  /// Batched backward for the most recent forward_batch_train: after it
  /// returns, every parameter-gradient element is bit-identical to `count`
  /// sequential backward(grad_logits[b]) calls in sample order. The input
  /// gradient is discarded, as in backward().
  void backward_batch(const Tensor* const* grad_logits, std::size_t count);

  /// Batched predict_proba; element b matches predict_proba(inputs[b])
  /// bit-for-bit.
  std::vector<std::vector<float>> predict_proba_batch(
      const Tensor* const* inputs, std::size_t count);
  std::vector<std::vector<float>> predict_proba_batch(
      std::span<const Tensor> inputs);
  /// Flat-output variant for hot serving panels: row b of `probs`
  /// (`num_classes` floats, returned) equals predict_proba(inputs[b])
  /// bit-for-bit. `probs` is resized to count * num_classes and its
  /// capacity is the caller's to reuse across panels — steady-state
  /// panel classification allocates nothing beyond the thread-local
  /// activation arena.
  std::size_t predict_proba_batch_into(const Tensor* const* inputs,
                                       std::size_t count,
                                       std::vector<float>& probs);
  /// Batched top-1 prediction; element b matches predict(inputs[b]).
  std::vector<int> predict_batch(const Tensor* const* inputs,
                                 std::size_t count);
  std::vector<int> predict_batch(std::span<const Tensor> inputs);

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  std::size_t param_count() const;
  void zero_grads();

  /// Shape of the output for a given input shape, and per-layer input
  /// shapes (index i = input shape of layer i; back() = final output).
  std::vector<std::vector<int>> shape_trace(const std::vector<int>& input) const;
  std::vector<int> output_shape(const std::vector<int>& input) const;

  /// Total multiply-accumulates for one sample of the given input shape.
  std::uint64_t total_macs(const std::vector<int>& input) const;

  std::string summary(const std::vector<int>& input) const;

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace origin::nn
