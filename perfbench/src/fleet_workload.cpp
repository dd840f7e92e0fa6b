// fleet_dense: fleet::FleetRunner on its work-stealing pool running the
// fully-powered BL-1 baseline (every sensor classifies every window with
// the unpruned nets) for a population of users. The batch path has no
// ticks: its unit of latency is one job (tick_p50_ms / tick_p99_ms), and
// its restart cost is the time from run() to the first finished job
// (resume_ms).
#include <cstdio>
#include <memory>

#include "fleet/fleet_runner.hpp"
#include "host.hpp"
#include "replica.hpp"
#include "serve/session_table.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fleet = origin::fleet;
namespace sim = origin::sim;

constexpr WorkloadSize kFleetSize{160, 8};

std::vector<fleet::FleetJob> fleet_jobs(std::size_t users, std::uint64_t seed,
                                        std::uint64_t pass) {
  fleet::PopulationConfig population;
  population.users = users;
  population.root_seed = derive_seed(seed, pass, 2);
  auto jobs = fleet::make_population(population);
  for (auto& job : jobs) job.baseline = origin::core::BaselineKind::BL1;
  return jobs;
}

struct RunOutcome {
  fleet::FleetResult result;
  double wall_s = 0.0;
  double first_job_s = 0.0;
  double cpu_s = 0.0;
};

RunOutcome run_jobs(const sim::Experiment& experiment,
                    const std::vector<fleet::FleetJob>& jobs) {
  RunOutcome out;
  fleet::FleetRunnerConfig config;
  config.threads = kThreads;
  config.keep_sim_results = true;
  Clock::time_point first_done{};
  // Serialized by the runner; only the first call records.
  config.progress = [&](std::size_t done, std::size_t) {
    if (done == 1) first_done = Clock::now();
  };
  const fleet::FleetRunner runner(experiment, config);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  out.result = runner.run(jobs);
  out.wall_s = seconds_between(t0, Clock::now());
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.first_job_s = seconds_between(t0, first_done);
  return out;
}

std::vector<OutputRecord> served_records(const fleet::FleetResult& result) {
  std::vector<OutputRecord> records;
  for (std::size_t j = 0; j < result.sim_results.size(); ++j) {
    const auto& outputs = result.sim_results[j].outputs;
    records.push_back({j, outputs.size(), origin::serve::fnv1a_outputs(outputs)});
  }
  return records;
}

/// Oracle: the sampled jobs re-run one at a time on this thread, over a
/// materialized stream and fresh model copies.
std::vector<OutputRecord> oracle_records(const sim::Experiment& experiment,
                                         const std::vector<fleet::FleetJob>& jobs,
                                         const std::vector<std::uint64_t>& ids) {
  std::vector<OutputRecord> records;
  for (std::uint64_t id : ids) {
    const auto stream =
        experiment.make_stream(jobs[id].user, jobs[id].seed_offset);
    const auto result =
        experiment.run_fully_powered(*jobs[id].baseline, stream);
    records.push_back(
        {id, result.outputs.size(), origin::serve::fnv1a_outputs(result.outputs)});
  }
  return records;
}

}  // namespace

Result timed_fleet(const Options& options) {
  const WorkloadSize size = kFleetSize;
  StealMeter steal;

  // Setup: experiment load, runner construction and a warm-up run of one
  // job per thread, repeated; the last repeat's experiment is kept.
  std::vector<double> setup_s;
  std::unique_ptr<sim::Experiment> experiment;
  for (int r = 0; r < kSetupRepeats; ++r) {
    experiment.reset();
    const Clock::time_point t0 = Clock::now();
    experiment = std::make_unique<sim::Experiment>(
        experiment_config(options.cache_dir, kSlots));
    run_jobs(*experiment, fleet_jobs(kThreads, options.seed, ~0ULL));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Every timing figure but the job tail is taken per pass and reported
  // as the median over the passes, so a pass disturbed by the host moves
  // none of them. A pass has too few jobs for a p99 of its own, so
  // tick_p99_ms pools the jobs of every pass.
  Result result;
  std::vector<double> rate, cpu_us, p50_s, first_job_s, job_s;
  double wall_s = 0.0;
  std::uint64_t slots = 0;
  double accuracy = 0.0, success = 0.0;
  std::uint64_t completions = 0, guard_slots = 0;
  std::uint64_t passes = 0;
  while (passes == 0 || wall_s < options.seconds) {
    const auto jobs = fleet_jobs(size.users, options.seed, passes);
    RunOutcome run = run_jobs(*experiment, jobs);
    std::uint64_t pass_slots = 0;
    for (const auto& r : run.result.sim_results) pass_slots += r.completion.slots;
    std::vector<double> pass_job_s;
    for (const auto& t : run.result.shard_timings) pass_job_s.push_back(t.seconds);
    rate.push_back(static_cast<double>(pass_slots) / run.wall_s);
    cpu_us.push_back(1e6 * run.cpu_s / static_cast<double>(pass_slots));
    p50_s.push_back(median(pass_job_s));
    first_job_s.push_back(run.first_job_s);
    job_s.insert(job_s.end(), pass_job_s.begin(), pass_job_s.end());
    wall_s += run.wall_s;
    slots += pass_slots;

    // Oracle, outside the timed region.
    const auto ids = sample_ids(derive_seed(options.seed, passes, 3),
                                size.users, size.oracle_sample);
    result.attempted += size.users;
    result.failed += count_failed(size.users, kSlots,
                                  served_records(run.result),
                                  oracle_records(*experiment, jobs, ids));

    if (passes == 0) {  // deterministic output guards
      for (const auto& job : run.result.jobs) {
        accuracy += job.accuracy;
        success += job.success_rate;
      }
      for (const auto& r : run.result.sim_results) {
        completions += r.completion.completions;
        guard_slots += r.completion.slots;
      }
    }
    ++passes;
  }
  const double steal_pct = steal.share_pct();
  result.correct = result.failed == 0;

  // Modelled energy: every completion is one BL-1 inference; sensors
  // complete in equal numbers, so each costs the mean BL-1 energy.
  double bl1_j = 0.0;
  for (const auto& sensor : experiment->system().sensors) {
    bl1_j += sensor.bl1_cost.energy_j;
  }
  bl1_j /= static_cast<double>(origin::data::kNumSensors);
  const double n = static_cast<double>(size.users);

  result.add("slots_per_s", median(rate), "1/s");
  result.add("cpu_us_per_slot", median(cpu_us), "us");
  result.add("tick_p50_ms", 1e3 * median(p50_s), "ms");
  result.add("tick_p99_ms", 1e3 * percentile(job_s, 0.99), "ms");
  result.add("resume_ms", 1e3 * median(first_job_s), "ms");
  result.add("accuracy_pct", 100.0 * accuracy / n, "%");
  result.add("attempt_success_pct", success / n, "%");
  result.add("modelled_uj_per_slot",
             1e6 * bl1_j * static_cast<double>(completions) /
                 static_cast<double>(guard_slots),
             "uJ");
  result.add("ok_pct",
             100.0 * static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted),
             "%");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");

  add_host_context(result);
  result.context.emplace_back("passes", std::to_string(passes));
  result.context.emplace_back("pass_slots_per_s", join(rate));
  result.context.emplace_back("jobs", std::to_string(job_s.size()));
  result.context.emplace_back("timed_s", std::to_string(wall_s));
  result.context.emplace_back("slots", std::to_string(slots));
  result.context.emplace_back("host.steal_pct", std::to_string(steal_pct));
  return result;
}

Result traced_fleet(const Options& options) {
  const WorkloadSize size = kFleetSize;
  StealMeter steal;
  const sim::Experiment experiment(
      experiment_config(options.cache_dir, kSlots));
  const auto jobs = fleet_jobs(size.users, options.seed, 0);

  Result result;
  add_layer_metric_defaults(result);

  // Pool level: the runner itself, on kThreads threads.
  const RunOutcome run = run_jobs(experiment, jobs);
  const auto served = served_records(run.result);

  // Layer level: the single-threaded replica, over the first half of the
  // jobs (its figures are per slot and per window; half keeps the traced
  // run short).
  const std::vector<fleet::FleetJob> replica_jobs(
      jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(jobs.size() / 2));
  result.attempted = replica_jobs.size();
  result.failed = trace_replica(
      result, replica_jobs.size(), served,
      [&](SpanRecorder& spans) {
        return run_fleet_replica(experiment, replica_jobs, spans);
      },
      options.out_dir + "/fleet_dense.trace.json", 8);

  std::vector<double> job_s;
  double busy_s = 0.0;
  for (const auto& t : run.result.shard_timings) {
    job_s.push_back(t.seconds);
    busy_s += t.seconds;
  }
  result.set("fleet.job_p50_ms", 1e3 * median(job_s));
  result.set("fleet.job_p90_ms", 1e3 * percentile(job_s, 0.9));
  result.set("fleet.pool_busy_pct", 100.0 * busy_s / (kThreads * run.wall_s));
  result.set("fleet.jobs", static_cast<double>(jobs.size()));
  result.set("host.steal_pct", steal.share_pct());
  result.correct = result.failed == 0 && trace_valid(result);
  add_host_context(result);
  return result;
}

int self_test_fleet(const Options& options) {
  const sim::Experiment experiment(experiment_config(options.cache_dir, 60));
  const auto jobs = fleet_jobs(8, options.seed, 0);
  int problems = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "[self-test] fleet_dense: %s: %s\n", what.c_str(),
                 ok ? "ok" : "FAILED");
    if (!ok) ++problems;
  };
  const RunOutcome run = run_jobs(experiment, jobs);
  std::vector<OutputRecord> served = served_records(run.result);
  const std::vector<std::uint64_t> ids{1, 4, 6};
  const auto oracle = oracle_records(experiment, jobs, ids);
  check(count_failed(jobs.size(), 60, served, oracle) == 0,
        "pooled jobs match the single-threaded oracle");
  served[4].fnv ^= 1;
  check(count_failed(jobs.size(), 60, served, oracle) == 1,
        "a corrupted output record counts as one failure");

  SpanRecorder spans(true);
  const ReplicaRun replica = run_fleet_replica(experiment, jobs, spans);
  check(count_failed(jobs.size(), 60, served_records(run.result),
                     replica.outputs) == 0,
        "replica outputs equal the pooled ones");
  Result trace;
  add_layer_metric_defaults(trace);
  report_replica(trace, replica, spans, 0.0);
  check(trace_valid(trace), "replica stages sum to its wall time");
  return problems;
}

}  // namespace perfbench
