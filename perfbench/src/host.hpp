// Host context attached to every result: core count, CPU model, the
// kernel backend and SIMD features the nn layer dispatched to, and the
// hypervisor steal share over the run (from /proc/stat), so a noisy run
// can be told apart from a slow program.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

/// Adds nproc, cpu, backend, simd and threads to `result.context`.
void add_host_context(Result& result);

/// Steal share of all CPU time between construction and share_pct().
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  /// Percent of elapsed CPU ticks (all CPUs) the hypervisor stole; 0 when
  /// /proc/stat is unreadable.
  double share_pct() const;

 private:
  struct Ticks {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
  };
  static Ticks read();
  Ticks start_;
};

}  // namespace perfbench
