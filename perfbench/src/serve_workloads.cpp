// serve_sparse and serve_personalize: ServeLoop serving the Origin policy
// on the BL-2 set to Poisson session arrivals on the 0.5 s virtual slot
// clock (an open loop in virtual time), driven in wall time by one thread
// calling tick(1) back to back (a closed loop with one client). Both save
// the loop, restore it into a fresh one and serve the first tick after
// the restore at a quarter, half and three quarters of the arrival span;
// those sections are resume_ms and are kept out of the throughput and
// tick figures.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "fleet/fleet_runner.hpp"
#include "host.hpp"
#include "replica.hpp"
#include "serve/serve_loop.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = origin::serve;
namespace sim = origin::sim;

constexpr double kArrivalRateHz = 0.32;
constexpr std::size_t kShards = 8;

WorkloadSize serve_size(bool personalize) {
  WorkloadSize size;
  size.users = personalize ? 96 : 384;
  size.oracle_sample = personalize ? 6 : 16;
  return size;
}

/// Pass `pass` of a serve workload: Poisson arrivals at kArrivalRateHz,
/// conditioned on the whole population arriving within its expected span
/// (users / rate). The draw's arrival times are rescaled, through the
/// rate, so that the last one lands at the end of that span: the
/// inter-arrival randomness stays, but the span no longer varies by
/// 1/sqrt(users) from pass to pass, which would set the live-session
/// count of the whole pass.
serve::ServeConfig serve_config(const sim::Experiment& experiment,
                                std::size_t users, std::uint64_t seed,
                                std::uint64_t pass, bool personalize) {
  serve::ServeConfig config;
  config.users = users;
  config.arrival_rate_hz = kArrivalRateHz;
  config.arrival_seed = derive_seed(seed, pass, 1);
  config.population_seed = derive_seed(seed, pass, 2);
  config.threads = kThreads;
  config.shards = kShards;
  config.personalize.enabled = personalize;
  const double slot_s = experiment.spec().slot_seconds();
  const double drawn_s =
      (static_cast<double>(arrival_schedule(experiment, config).last_tick()) +
       0.5) * slot_s;
  const double expected_s = static_cast<double>(users) / kArrivalRateHz;
  config.arrival_rate_hz = kArrivalRateHz * drawn_s / expected_s;
  return config;
}

/// The ticks before which the loop is saved and restored: a quarter, half
/// and three quarters through the arrival span. Several points per pass
/// make the median resume time steadier than one point would.
std::vector<std::uint64_t> resume_ticks(const serve::ArrivalSchedule& arrivals) {
  std::vector<std::uint64_t> ticks;
  for (std::uint64_t quarter = 1; quarter <= 3; ++quarter) {
    const std::uint64_t t =
        std::max<std::uint64_t>(1, arrivals.last_tick() * quarter / 4);
    if (ticks.empty() || t > ticks.back()) ticks.push_back(t);
  }
  return ticks;
}

/// The midpoint resume, which the traced run breaks down by layer.
std::uint64_t midpoint_resume_tick(const serve::ArrivalSchedule& arrivals) {
  const auto ticks = resume_ticks(arrivals);
  return ticks[ticks.size() / 2];
}

std::vector<OutputRecord> served_records(
    const std::vector<serve::CompletedSession>& completed) {
  std::vector<OutputRecord> records;
  records.reserve(completed.size());
  for (const serve::CompletedSession& c : completed) {
    // A record whose checksum disagrees with its own outputs is corrupt:
    // give it a slot count no check accepts.
    const bool consistent = c.outputs.size() == c.slots &&
                            serve::fnv1a_outputs(c.outputs) == c.outputs_fnv1a;
    records.push_back({c.id, consistent ? c.slots : 0, c.outputs_fnv1a});
  }
  return records;
}

/// Oracle: sessions `ids` of `config` served alone. serve_sparse re-runs
/// them as batch jobs through fleet::FleetRunner (the same per-user
/// derivation); serve_personalize re-serves the first ids in a one-thread
/// loop that is never saved or restored.
std::vector<OutputRecord> oracle_records(const sim::Experiment& experiment,
                                         const serve::ServeConfig& config,
                                         const std::vector<std::uint64_t>& ids) {
  std::vector<OutputRecord> records;
  if (config.personalize.enabled) {
    serve::ServeConfig solo = config;
    solo.users = ids.empty() ? 0 : ids.back() + 1;
    solo.threads = 1;
    serve::ServeLoop loop(experiment, solo);
    loop.drain();
    for (const serve::CompletedSession& c : loop.completed_sessions()) {
      records.push_back({c.id, c.outputs.size(), serve::fnv1a_outputs(c.outputs)});
    }
    return records;
  }
  const auto all = session_jobs(config);
  std::vector<origin::fleet::FleetJob> jobs;
  for (std::uint64_t id : ids) jobs.push_back(all[id]);
  origin::fleet::FleetRunnerConfig runner_config;
  runner_config.threads = kThreads;
  runner_config.keep_sim_results = true;
  const auto result =
      origin::fleet::FleetRunner(experiment, runner_config).run(jobs);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto& outputs = result.sim_results[k].outputs;
    records.push_back({ids[k], outputs.size(), serve::fnv1a_outputs(outputs)});
  }
  return records;
}

std::vector<std::uint64_t> oracle_ids(const WorkloadSize& size,
                                      std::uint64_t seed, std::uint64_t pass,
                                      bool personalize) {
  if (personalize) {
    std::vector<std::uint64_t> first(size.oracle_sample);
    for (std::size_t i = 0; i < first.size(); ++i) first[i] = i;
    return first;
  }
  return sample_ids(derive_seed(seed, pass, 3), size.users, size.oracle_sample);
}

/// Warm-up for setup: a few sessions served for 60 ticks, long enough for
/// every session to pass a fine-tune cadence point when personalizing.
void warm_up(const sim::Experiment& experiment, std::uint64_t seed,
             bool personalize) {
  serve::ServeConfig config = serve_config(experiment, 8, seed, ~0ULL, personalize);
  config.arrival_rate_hz = 64.0;  // all admitted within the first ticks
  serve::ServeLoop loop(experiment, config);
  for (int i = 0; i < 60; ++i) loop.tick(1);
}

/// One save -> restore into a fresh loop -> first tick after the restore.
struct ResumeSample {
  double save_s = 0.0;
  double restore_s = 0.0;
  double first_tick_s = 0.0;
  std::uint64_t slots = 0;  // served by the first tick
  std::uint64_t snapshot_bytes = 0;
  double total_s() const { return save_s + restore_s + first_tick_s; }
};

/// One loop ticked to completion, with a resume section at each of
/// resume_ticks(); the loop is replaced by the restored one each time.
struct ServedPass {
  std::vector<double> tick_s;  // every tick outside the resume sections
  double tick_wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU over those ticks
  std::vector<ResumeSample> resumes;
  double busy_s = 0.0;  // shard serving time, from serve.step_seconds
  std::vector<serve::CompletedSession> completed;
};

double step_seconds_sum(const serve::ServeLoop& loop) {
  return loop.metrics().histogram_value("serve.step_seconds").sum;
}

ServedPass serve_pass(const sim::Experiment& experiment,
                      std::unique_ptr<serve::ServeLoop> loop,
                      const std::string& snapshot_path) {
  ServedPass pass;
  const std::vector<std::uint64_t> resume_at = resume_ticks(loop->arrivals());
  std::size_t next_resume = 0;
  double cpu_before = process_cpu_seconds();
  double busy_before = 0.0;
  while (!loop->done()) {
    if (next_resume < resume_at.size() && loop->now() == resume_at[next_resume]) {
      ++next_resume;
      pass.cpu_s += process_cpu_seconds() - cpu_before;
      auto fresh = std::make_unique<serve::ServeLoop>(experiment, loop->config());
      ResumeSample sample;
      const Clock::time_point t0 = Clock::now();
      loop->save(snapshot_path);
      const Clock::time_point t1 = Clock::now();
      fresh->restore(snapshot_path);
      const Clock::time_point t2 = Clock::now();
      const std::uint64_t served_before = fresh->status().slots_served;
      fresh->tick(1);
      const Clock::time_point t3 = Clock::now();
      sample.save_s = seconds_between(t0, t1);
      sample.restore_s = seconds_between(t1, t2);
      sample.first_tick_s = seconds_between(t2, t3);
      sample.slots = fresh->status().slots_served - served_before;
      sample.snapshot_bytes = std::filesystem::file_size(snapshot_path);
      std::filesystem::remove(snapshot_path);
      pass.resumes.push_back(sample);
      pass.busy_s += step_seconds_sum(*loop) - busy_before;
      busy_before = step_seconds_sum(*fresh);
      loop = std::move(fresh);
      cpu_before = process_cpu_seconds();
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    loop->tick(1);
    const double dt = seconds_between(t0, Clock::now());
    pass.tick_s.push_back(dt);
    pass.tick_wall_s += dt;
  }
  pass.cpu_s += process_cpu_seconds() - cpu_before;
  pass.busy_s += step_seconds_sum(*loop) - busy_before;
  pass.completed = loop->completed_sessions();
  return pass;
}

std::string snapshot_path(const Options& options, bool personalize) {
  return options.out_dir + (personalize ? "/serve_personalize.snap"
                                        : "/serve_sparse.snap");
}

}  // namespace

Result timed_serve(const Options& options, bool personalize) {
  const WorkloadSize size = serve_size(personalize);
  StealMeter steal;

  // Setup: experiment load from the warm model cache, warm-up, and the
  // first pass's loop, repeated; the last repeat's objects are kept.
  std::vector<double> setup_s;
  std::unique_ptr<sim::Experiment> experiment;
  std::unique_ptr<serve::ServeLoop> loop;
  for (int r = 0; r < kSetupRepeats; ++r) {
    loop.reset();
    experiment.reset();
    const Clock::time_point t0 = Clock::now();
    experiment = std::make_unique<sim::Experiment>(
        experiment_config(options.cache_dir, kSlots));
    warm_up(*experiment, options.seed, personalize);
    loop = std::make_unique<serve::ServeLoop>(
        *experiment, serve_config(*experiment, size.users, options.seed, 0, personalize));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Every timing figure is taken per pass and reported as the median over
  // the passes, so a pass disturbed by the host moves none of them.
  Result result;
  std::vector<double> rate, cpu_us, p50_s, p99_s, resume_s;
  double tick_wall_s = 0.0;
  std::uint64_t ticks = 0, slots = 0;
  std::vector<std::vector<OutputRecord>> served;
  std::vector<serve::CompletedSession> first_pass;
  std::uint64_t passes = 0;
  while (passes == 0 || tick_wall_s < options.seconds) {
    if (passes > 0) {
      loop = std::make_unique<serve::ServeLoop>(
          *experiment,
          serve_config(*experiment, size.users, options.seed, passes,
                       personalize));
    }
    ServedPass pass = serve_pass(*experiment, std::move(loop),
                                 snapshot_path(options, personalize));
    // Slots served by ticks outside the resume sections; resume_ms is the
    // mean of the pass's resume sections, which sit at different
    // live-session counts.
    std::uint64_t pass_slots = 0;
    for (const auto& c : pass.completed) pass_slots += c.slots;
    double pass_resume_s = 0.0;
    for (const ResumeSample& r : pass.resumes) {
      pass_resume_s += r.total_s();
      pass_slots -= r.slots;
    }
    rate.push_back(static_cast<double>(pass_slots) / pass.tick_wall_s);
    cpu_us.push_back(1e6 * pass.cpu_s / static_cast<double>(pass_slots));
    p50_s.push_back(median(pass.tick_s));
    p99_s.push_back(percentile(pass.tick_s, 0.99));
    resume_s.push_back(pass_resume_s / static_cast<double>(pass.resumes.size()));
    tick_wall_s += pass.tick_wall_s;
    ticks += pass.tick_s.size();
    slots += pass_slots;
    served.push_back(served_records(pass.completed));
    if (passes == 0) first_pass = std::move(pass.completed);
    ++passes;
  }
  const double steal_pct = steal.share_pct();

  // Oracles, outside the timed region.
  for (std::uint64_t p = 0; p < passes; ++p) {
    const auto config =
        serve_config(*experiment, size.users, options.seed, p, personalize);
    const auto oracle = oracle_records(
        *experiment, config, oracle_ids(size, options.seed, p, personalize));
    result.attempted += size.users;
    result.failed += count_failed(size.users, kSlots,
                                  served[p], oracle);
  }
  result.correct = result.failed == 0;

  // Deterministic output guards, from the first pass (always complete).
  double accuracy = 0.0, success = 0.0, joules = 0.0;
  std::uint64_t guard_slots = 0;
  for (const auto& c : first_pass) {
    accuracy += c.accuracy;
    success += c.success_rate;
    joules += c.consumed_j + c.personalize_j;
    guard_slots += c.slots;
  }
  const double n = std::max<double>(1.0, static_cast<double>(first_pass.size()));

  result.add("slots_per_s", median(rate), "1/s");
  result.add("cpu_us_per_slot", median(cpu_us), "us");
  result.add("tick_p50_ms", 1e3 * median(p50_s), "ms");
  result.add("tick_p99_ms", 1e3 * median(p99_s), "ms");
  result.add("resume_ms", 1e3 * median(resume_s), "ms");
  result.add("accuracy_pct", 100.0 * accuracy / n, "%");
  result.add("attempt_success_pct", success / n, "%");
  result.add("modelled_uj_per_slot",
             1e6 * joules / std::max<double>(1.0, static_cast<double>(guard_slots)),
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
  result.context.emplace_back("ticks", std::to_string(ticks));
  result.context.emplace_back("timed_s", std::to_string(tick_wall_s));
  result.context.emplace_back("slots", std::to_string(slots));
  result.context.emplace_back("host.steal_pct", std::to_string(steal_pct));
  return result;
}

Result traced_serve(const Options& options, bool personalize) {
  const WorkloadSize size = serve_size(personalize);
  StealMeter steal;
  const sim::Experiment experiment(
      experiment_config(options.cache_dir, kSlots));
  const serve::ServeConfig config =
      serve_config(experiment, size.users, options.seed, 0, personalize);

  Result result;
  add_layer_metric_defaults(result);

  // Loop level: the served run itself, on kThreads threads.
  const serve::ArrivalSchedule arrivals = arrival_schedule(experiment, config);
  const std::uint64_t resume_at = midpoint_resume_tick(arrivals);
  ServedPass pass = serve_pass(
      experiment, std::make_unique<serve::ServeLoop>(experiment, config),
      snapshot_path(options, personalize));
  const std::vector<OutputRecord> served = served_records(pass.completed);

  // Session construction (admission), timed over every spec of the
  // workload with the same derivation the loop uses.
  double ctor_s = 0.0;
  {
    const auto jobs = session_jobs(config);
    auto models = experiment.system().bl2_copy();
    for (std::size_t id = 0; id < jobs.size(); ++id) {
      serve::SessionSpec spec;
      spec.id = id;
      spec.arrival_tick = arrivals.tick(id);
      spec.user = jobs[id].user;
      spec.seed_offset = jobs[id].seed_offset;
      const Clock::time_point t0 = Clock::now();
      serve::Session session(experiment, spec, &models, config.ring_capacity,
                             config.batch_slots);
      ctor_s += seconds_between(t0, Clock::now());
    }
  }

  // Layer level: the single-threaded replica.
  result.attempted = size.users;
  result.failed = trace_replica(
      result, size.users, served,
      [&](SpanRecorder& spans) {
        return run_serve_replica(experiment, config, resume_at, spans);
      },
      options.out_dir + (personalize ? "/serve_personalize" : "/serve_sparse") +
          ".trace.json",
      64);

  double ticks_wall = pass.tick_wall_s;  // every served tick
  for (const ResumeSample& r : pass.resumes) ticks_wall += r.first_tick_s;
  result.set("serve.pool_busy_pct",
             100.0 * pass.busy_s / (kThreads * ticks_wall));
  result.set("serve.ticks",
             static_cast<double>(pass.tick_s.size() + pass.resumes.size()));
  result.set("serve.session_ctor_us",
             1e6 * ctor_s / static_cast<double>(size.users));
  const ResumeSample& mid = pass.resumes[pass.resumes.size() / 2];
  result.set("serve.snapshot.save_ms", 1e3 * mid.save_s);
  result.set("serve.snapshot.restore_ms", 1e3 * mid.restore_s);
  result.set("serve.snapshot.bytes", static_cast<double>(mid.snapshot_bytes));
  result.set("serve.resume_first_tick_ms", 1e3 * mid.first_tick_s);
  result.set("host.steal_pct", steal.share_pct());
  result.correct = result.failed == 0 && trace_valid(result);
  add_host_context(result);
  return result;
}

int self_test_serve(const Options& options, bool personalize) {
  // Toy size: a dozen 60-slot sessions arriving fast.
  const sim::Experiment experiment(experiment_config(options.cache_dir, 60));
  serve::ServeConfig config =
      serve_config(experiment, 12, options.seed, 0, personalize);
  config.arrival_rate_hz = 4.0;
  const char* name = personalize ? "serve_personalize" : "serve_sparse";
  int problems = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "[self-test] %s: %s: %s\n", name, what.c_str(),
                 ok ? "ok" : "FAILED");
    if (!ok) ++problems;
  };

  ServedPass pass = serve_pass(
      experiment, std::make_unique<serve::ServeLoop>(experiment, config),
      snapshot_path(options, personalize));
  std::vector<OutputRecord> served = served_records(pass.completed);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 0; id < (personalize ? 4u : 6u); ++id) ids.push_back(id);
  const auto oracle = oracle_records(experiment, config, ids);
  check(!pass.resumes.empty(), "save/restore sections ran");
  check(count_failed(config.users, 60, served, oracle) == 0,
        "served sessions match the oracle");

  // A corrupted record must be counted: flip one bit of a sampled
  // session's checksum, then drop an unsampled session's record.
  const auto record_of = [&](std::uint64_t id) {
    return std::find_if(served.begin(), served.end(),
                        [&](const OutputRecord& r) { return r.id == id; });
  };
  record_of(ids[1])->fnv ^= 1;
  check(count_failed(config.users, 60, served, oracle) == 1,
        "a corrupted output record counts as one failure");
  served.erase(record_of(config.users - 1));
  check(count_failed(config.users, 60, served, oracle) == 2,
        "a missing session counts as one more failure");

  SpanRecorder spans(true);
  const ReplicaRun replica = run_serve_replica(
      experiment, config,
      midpoint_resume_tick(arrival_schedule(experiment, config)),
      spans);
  check(count_failed(config.users, 60, served_records(pass.completed),
                     replica.outputs) == 0,
        "replica outputs equal the served ones");
  Result trace;
  add_layer_metric_defaults(trace);
  report_replica(trace, replica, spans, 0.0);
  check(trace_valid(trace), "replica stages sum to its wall time");
  return problems;
}

}  // namespace perfbench
