// Layer interface for the from-scratch inference/training engine.
//
// Layers process one sample at a time (rank-2 [channels, length] tensors
// for the convolutional front-end, rank-1 after Flatten). forward() caches
// whatever backward() needs; backward() accumulates parameter gradients
// (zeroed by the optimizer after each step) and returns the gradient with
// respect to the layer input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace origin::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// `train` enables training-only behaviour (dropout masking) and decides
  /// whether the layer caches what backward() needs. Inference calls
  /// (train == false) retain nothing — in particular not the input tensor.
  virtual Tensor forward(const Tensor& input, bool train) = 0;
  /// Gradient w.r.t. the input of the most recent forward(train=true).
  /// Throws std::logic_error if no training forward preceded it (the
  /// inference path drops the cached state backward depends on).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Batched inference forward: outputs[i] = forward(*inputs[i], false)
  /// for i in [0, count), bit-identically, writing into the caller's
  /// output tensors (reusing their storage via Tensor::reset_shape — the
  /// batched path's activation arena). The default loops over forward();
  /// layers where batching pays (conv, dense, pooling, softmax,
  /// element-wise) override it with packed kernels.
  virtual void forward_batch(const Tensor* const* inputs, std::size_t count,
                             Tensor* outputs);

  /// True when the layer implements the batched training pair below. The
  /// trainer's minibatch fast path requires every layer to support it and
  /// otherwise falls back to per-sample backprop, so exotic layers stay
  /// trainable without a batched backward.
  virtual bool supports_batch_train() const { return false; }

  /// Batched training forward over same-shape samples: outputs[b] must be
  /// bit-identical to forward(*inputs[b], train=true), and any stochastic
  /// layer must consume its RNG in sample order b = 0..count-1 so the draw
  /// sequence matches `count` consecutive single-sample calls. Caches
  /// whatever backward_batch() needs (replacing any single-sample cache).
  /// Default throws std::logic_error — query supports_batch_train() first.
  virtual void forward_batch_train(const Tensor* const* inputs,
                                   std::size_t count, Tensor* outputs);

  /// Batched backward for the most recent forward_batch_train: writes the
  /// per-sample input gradients and accumulates parameter gradients so
  /// that every gradient element ends bit-identical to count sequential
  /// backward() calls in sample order (the kernels add contributions
  /// sample-major per element; a float store/load chain is exact, so the
  /// interleaving of *elements* may differ, the per-element order never).
  /// Default throws std::logic_error.
  virtual void backward_batch(const Tensor* const* grad_outputs,
                              std::size_t count, Tensor* grad_inputs);

  /// Learnable parameters and their gradient accumulators; same order.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Stable identifier used by the serializer / factory.
  virtual std::string kind() const = 0;
  /// Human-readable one-line description for summaries.
  virtual std::string describe() const { return kind(); }

  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Shape inference: output shape for a given input shape. Throws
  /// std::invalid_argument if the input shape is unsupported.
  virtual std::vector<int> output_shape(const std::vector<int>& input) const = 0;

  /// Multiply-accumulate count for one sample with the given input shape —
  /// consumed by the energy/latency model. Parameter-free layers return 0.
  virtual std::uint64_t macs(const std::vector<int>& input) const {
    (void)input;
    return 0;
  }

  std::size_t param_count() const {
    std::size_t n = 0;
    for (const Tensor* p : const_cast<Layer*>(this)->params()) n += p->size();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace origin::nn
