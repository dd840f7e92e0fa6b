#include "host.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "nn/kernels/backend.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

void add_host_context(Result& result) {
  result.context.emplace_back(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  result.context.emplace_back("cpu", cpu_model());
  result.context.emplace_back("backend",
                              origin::nn::kernels::active_backend().name);
  result.context.emplace_back("simd", origin::nn::kernels::simd_features());
  result.context.emplace_back("threads", std::to_string(kThreads));
}

StealMeter::Ticks StealMeter::read() {
  std::ifstream in("/proc/stat");
  std::string line;
  Ticks ticks;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return ticks;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so the total stops at steal.
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double StealMeter::share_pct() const {
  const Ticks now = read();
  if (now.total <= start_.total) return 0.0;
  return 100.0 * static_cast<double>(now.steal - start_.steal) /
         static_cast<double>(now.total - start_.total);
}

}  // namespace perfbench
