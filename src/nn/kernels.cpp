// Dispatch layer: the kernels:: free functions forward through the
// active Backend (nn/kernels/backend.hpp). The scratch workspace lives
// here — it is backend-independent, so its behavior never varies with
// dispatch.
#include "nn/kernels.hpp"

#include <vector>

#include "nn/kernels/backend.hpp"

namespace origin::nn::kernels {

namespace {

struct Workspace {
  std::vector<float> slots[static_cast<int>(Slot::kCount)];
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

float* scratch(Slot slot, std::size_t count) {
  std::vector<float>& buf = workspace().slots[static_cast<int>(slot)];
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

void im2row(const float* x, int cin, int in_len, int kernel, int stride,
            int out_len, float* panel, std::size_t ldp) {
  active_backend().im2row(x, cin, in_len, kernel, stride, out_len, panel, ldp);
}

void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n) {
  active_backend().gemm_bias(a, bias, p, c, m, kd, n);
}

void matvec_bias(const float* a, const float* bias, const float* x, float* y,
                 int m, int kd) {
  active_backend().matvec_bias(a, bias, x, y, m, kd);
}

void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd) {
  active_backend().gemm_acc_nt(a, b, c, m, n, kd);
}

void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n) {
  active_backend().gemm_tn(a, p, c, m, kd, n);
}

void row_sum_acc(const float* a, float* y, int m, int n, std::size_t lda) {
  active_backend().row_sum_acc(a, y, m, n, lda);
}

void conv1d_grad_input(const float* w, const float* gy, float* gx, int cin,
                       int cout, int kernel, int stride, int in_len,
                       int out_len, std::size_t ldg) {
  active_backend().conv1d_grad_input(w, gy, gx, cin, cout, kernel, stride,
                                     in_len, out_len, ldg);
}

void synth_channel(const SynthParams& sp, const double* t, double* clean,
                   int len) {
  active_backend().synth_channel(sp, t, clean, len);
}

}  // namespace origin::nn::kernels
