// Shared pieces of the repository benchmark: command-line options, the
// workload sizes, the experiment every workload serves, the result record
// printed as the last line of stdout, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/shard.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  bool prepare = false;
  std::string cache_dir;  // trained-model cache
  std::string out_dir;    // snapshots and span dumps
};

/// Every workload runs on this many threads (the benchmark host's cores).
inline constexpr unsigned kThreads = 4;
/// Slots per session / job (the experiment's stream length).
inline constexpr int kSlots = 600;

/// Size of one pass of a workload. The timed run repeats passes, each on
/// fresh inputs derived from (seed, pass), until --seconds have elapsed.
struct WorkloadSize {
  std::size_t users = 0;          // sessions or jobs per pass
  std::size_t oracle_sample = 0;  // sessions / jobs re-checked per pass
};

/// Experiment configuration shared by every workload: the default
/// (MHEALTH-like) trained system loaded from `cache_dir`, with streams of
/// `slots` slots.
origin::sim::ExperimentConfig experiment_config(const std::string& cache_dir,
                                                int slots);

/// Independent per-pass seeds: input stream `stream` of pass `pass`.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t pass,
                                 std::uint64_t stream) {
  return origin::fleet::shard_seed(origin::fleet::shard_seed(seed, pass),
                                   stream);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The record the benchmark prints as the last line of stdout.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form context printed on the line before the result.
  std::vector<std::pair<std::string, std::string>> context;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Overwrites a metric added earlier; throws if there is none.
  void set(const std::string& name, double value);
};

/// Appends every per-layer metric at 0. A traced workload starts from
/// this full set and overwrites the metrics its layers produce, so each
/// traced run reports the same names (0 = the layer is absent there).
void add_layer_metric_defaults(Result& result);

/// Comma-separated values, for the context line.
std::string join(const std::vector<double>& values);

std::string result_json(const Result& result);
std::string context_json(const Result& result);

/// Median and nearest-rank percentile of `values` (copied, then sorted).
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Process CPU time (user + system) in seconds, and peak RSS in MiB.
double process_cpu_seconds();
double peak_rss_mb();

/// One served or oracle-computed output record, keyed by session / job id.
struct OutputRecord {
  std::uint64_t id = 0;
  std::uint64_t slots = 0;
  std::uint64_t fnv = 0;
};

/// Failed sessions / jobs of one pass of `users`: ids with no served
/// record of `slots` slots, plus ids whose served record differs from
/// the oracle's record of the same id (checksum or slot count). An id
/// counts once however many checks it fails.
std::uint64_t count_failed(std::size_t users, std::uint64_t slots,
                           const std::vector<OutputRecord>& served,
                           const std::vector<OutputRecord>& oracle);

/// Deterministic sample of `count` distinct ids from [0, users).
std::vector<std::uint64_t> sample_ids(std::uint64_t seed, std::size_t users,
                                      std::size_t count);

}  // namespace perfbench
