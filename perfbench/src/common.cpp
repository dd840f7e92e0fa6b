#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

origin::sim::ExperimentConfig experiment_config(const std::string& cache_dir,
                                                int slots) {
  origin::sim::ExperimentConfig config;
  config.pipeline.cache_dir = cache_dir;
  config.stream_slots = slots;
  return config;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("perfbench: non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

std::string result_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::string context_json(const Result& result) {
  std::string out = "{\"context\": {";
  for (std::size_t i = 0; i < result.context.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(result.context[i].first) + ": " +
           json_string(result.context[i].second);
  }
  return out + "}}";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t count_failed(std::size_t users, std::uint64_t slots,
                           const std::vector<OutputRecord>& served,
                           const std::vector<OutputRecord>& oracle) {
  std::vector<const OutputRecord*> by_id(users, nullptr);
  std::vector<bool> failed(users, false);
  for (const OutputRecord& r : served) {
    if (r.id >= users) continue;
    // A duplicate record for one id is itself a failure.
    if (by_id[r.id] != nullptr) failed[r.id] = true;
    by_id[r.id] = &r;
  }
  for (std::size_t id = 0; id < users; ++id) {
    if (by_id[id] == nullptr || by_id[id]->slots != slots) failed[id] = true;
  }
  for (const OutputRecord& want : oracle) {
    if (want.id >= users) continue;
    const OutputRecord* got = by_id[want.id];
    if (got == nullptr || got->slots != want.slots || got->fnv != want.fnv) {
      failed[want.id] = true;
    }
  }
  return static_cast<std::uint64_t>(
      std::count(failed.begin(), failed.end(), true));
}

void Result::set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("perfbench: no metric named " + name);
}

void add_layer_metric_defaults(Result& result) {
  static const char* const kLayerMetrics[][2] = {
      {"data.synth_us_per_slot", "us"},
      {"data.windows_synthesized", "count"},
      {"data.windows_read", "count"},
      {"data.read_ratio", "ratio"},
      {"data.replay.synth_ms", "ms"},
      {"data.replay.windows_synthesized", "count"},
      {"data.replay.windows_read", "count"},
      {"data.replay.read_ratio", "ratio"},
      {"sim.step_begin_us_per_slot", "us"},
      {"sim.step_finish_us_per_slot", "us"},
      {"sim.requests_per_slot", "count"},
      {"nn.classify_us_per_window", "us"},
      {"nn.panels", "count"},
      {"nn.panel_occupancy", "windows/panel"},
      {"nn.fits", "count"},
      {"nn.fit_steps", "count"},
      {"nn.fit_ms", "ms"},
      {"serve.personalize.buffer_us_per_slot", "us"},
      {"serve.personalize.load_us", "us"},
      {"serve.pool_busy_pct", "%"},
      {"serve.ticks", "count"},
      {"serve.session_ctor_us", "us"},
      {"serve.snapshot.save_ms", "ms"},
      {"serve.snapshot.restore_ms", "ms"},
      {"serve.snapshot.bytes", "bytes"},
      {"serve.resume_first_tick_ms", "ms"},
      {"fleet.job_p50_ms", "ms"},
      {"fleet.job_p90_ms", "ms"},
      {"fleet.pool_busy_pct", "%"},
      {"fleet.jobs", "count"},
      {"split.data_pct", "%"},
      {"split.sim_pct", "%"},
      {"split.nn_pct", "%"},
      {"split.serve_pct", "%"},
      {"trace.stage_sum_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.replica_wall_s", "s"},
      {"host.steal_pct", "%"},
  };
  for (const auto& [name, unit] : kLayerMetrics) result.add(name, 0.0, unit);
}

std::vector<std::uint64_t> sample_ids(std::uint64_t seed, std::size_t users,
                                      std::size_t count) {
  std::vector<std::uint64_t> ids(users);
  for (std::size_t i = 0; i < users; ++i) ids[i] = i;
  origin::util::Rng rng(seed);
  count = std::min(count, users);
  // Partial Fisher-Yates: the first `count` entries are the sample.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_u64() % (users - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace perfbench
