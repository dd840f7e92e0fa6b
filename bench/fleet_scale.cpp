// Fleet-runtime scaling bench: users/sec and speedup of a multi-user
// Origin workload at increasing thread counts, plus the determinism check
// that makes the parallelism safe to use for paper numbers — the
// aggregated statistics must be bit-identical at every thread count.
//
//   ./build/bench/fleet_scale [--users N] [--slots N] [--threads a,b,c]
//                             [--json out.json]
//
// Defaults: 64 users, 600-slot streams, threads 1,2,4,8.
// Note the speedup column measures what the host gives us: on a
// single-core container it stays ~1x by construction; on an 8-core host
// the 8-thread row is the ROADMAP scale-out datum.
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "data/stream_cursor.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/thread_pool.hpp"

using namespace origin;

namespace {

std::vector<unsigned> parse_threads(const char* arg) {
  std::vector<unsigned> out;
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    out.push_back(static_cast<unsigned>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t users = 64;
  int slots = 600;
  std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--users")) {
      users = std::stoul(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--slots")) {
      slots = std::stoi(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--threads")) {
      thread_counts = parse_threads(argv[i + 1]);
    }
  }
  bench::JsonReport report(argc, argv, "fleet_scale");
  report.manifest().set("users", std::uint64_t{users});
  report.manifest().set("slots", slots);

  auto config = bench::default_config(data::DatasetKind::MHealthLike);
  config.stream_slots = slots;
  std::printf("[setup] building/loading mhealth-like system (cache: %s)...\n",
              bench::cache_dir().c_str());
  sim::Experiment experiment(config);

  fleet::PopulationConfig pop;
  pop.users = users;
  std::printf("\n=== fleet_scale: %zu users x %d slots, Origin RR12 "
              "(host reports %u hardware threads) ===\n",
              users, slots, fleet::ThreadPool::hardware_threads());
  const auto jobs = fleet::make_population(pop);
  // Simulated slots per fleet run — the per-slot and windows/s columns
  // normalize wall time by the work actually done.
  const double total_slots =
      static_cast<double>(jobs.size()) * static_cast<double>(slots);

  util::AsciiTable t({"threads", "wall s", "users/s", "speedup", "slot us",
                      "windows/s", "acc mean %", "acc std %", "success %"});
  double base_seconds = 0.0;
  bool identical = true;
  double total_seconds = 0.0;
  fleet::FleetResult reference;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    fleet::FleetRunnerConfig runner_config;
    runner_config.threads = thread_counts[i];
    const auto r = fleet::FleetRunner(experiment, runner_config).run(jobs);
    if (i == 0) {
      base_seconds = r.wall_seconds;
      reference = r;
    } else {
      // The two halves of the determinism contract: the Welford
      // aggregates and every metric flagged deterministic must be
      // bit-identical at any thread count.
      identical = identical &&
                  r.aggregate.accuracy.mean() ==
                      reference.aggregate.accuracy.mean() &&
                  r.aggregate.accuracy.variance() ==
                      reference.aggregate.accuracy.variance() &&
                  r.aggregate.success_rate.mean() ==
                      reference.aggregate.success_rate.mean() &&
                  obs::MetricsSnapshot::deterministic_equal(
                      r.metrics, reference.metrics);
    }
    total_seconds += r.wall_seconds;
    const double slot_us =
        total_slots > 0.0 ? 1e6 * r.wall_seconds / total_slots : 0.0;
    const double windows_per_s =
        r.wall_seconds > 0.0 ? total_slots / r.wall_seconds : 0.0;
    t.add_row("t=" + std::to_string(thread_counts[i]),
              {r.wall_seconds, r.users_per_second(),
               base_seconds / r.wall_seconds, slot_us, windows_per_s,
               100.0 * r.aggregate.accuracy.mean(),
               100.0 * r.aggregate.accuracy.stddev(),
               r.aggregate.success_rate.mean()});
  }
  t.print();
  std::printf("aggregate + metrics bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO — determinism bug");
  // Per-job stream working set: a materialized Stream holds every slot's
  // three windows for the whole run; the pooled cursor holds only its
  // recycled ring.
  const auto& spec = experiment.system().spec;
  const double slot_kib =
      static_cast<double>(data::kNumSensors) * sizeof(float) *
      static_cast<double>(spec.channels) *
      static_cast<double>(spec.window_len) / 1024.0;
  const int ring = data::StreamCursor::kDefaultRingCapacity;
  const double materialized_kib = static_cast<double>(slots) * slot_kib;
  const double ring_kib = static_cast<double>(ring) * slot_kib;
  std::printf("per-job stream memory: %.0f KiB materialized -> %.0f KiB "
              "cursor ring (%d slots, reused across jobs)\n",
              materialized_kib, ring_kib, ring);
  report.add_table("scaling", t);
  report.manifest().set("identical", identical);
  report.manifest().set("stream_kib_materialized", materialized_kib);
  report.manifest().set("stream_kib_cursor_ring", ring_kib);
  report.manifest().set_wall_seconds(total_seconds);
  report.write(&reference.metrics);
  return identical ? 0 : 1;
}
