#include "replica.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "core/ensemble.hpp"
#include "serve/personalize.hpp"
#include "serve/session_table.hpp"
#include "sim/slot_stepper.hpp"

namespace perfbench {

namespace {

namespace data = origin::data;
namespace serve = origin::serve;
namespace sim = origin::sim;
using Models = std::array<origin::nn::Sequential, data::kNumSensors>;

/// Span names, interned once per recorder.
struct Names {
  explicit Names(SpanRecorder& r)
      : tick(r.name_id("serve.tick")),
        admit(r.name_id("serve.admit")),
        synth(r.name_id("data.synth")),
        rebind(r.name_id("data.rebind")),
        step_begin(r.name_id("sim.step_begin")),
        classify(r.name_id("nn.classify")),
        step_finish(r.name_id("sim.step_finish")),
        buffer(r.name_id("serve.personalize.buffer")),
        load(r.name_id("serve.personalize.load")),
        fit(r.name_id("nn.fit")),
        complete(r.name_id("serve.complete")),
        job(r.name_id("fleet.job")) {}
  int tick, admit, synth, rebind, step_begin, classify, step_finish, buffer,
      load, fit, complete, job;
};

/// One replica session: what serve::Session holds, with the cursor
/// reachable so the timing decorator can sit between it and the stepper.
struct ReplicaSession {
  ReplicaSession(const sim::Experiment& experiment,
                 const serve::ServeConfig& config,
                 const origin::fleet::FleetJob& job, std::uint64_t id_,
                 Models* models, SpanRecorder& spans,
                 int synth_name, const std::uint64_t* group,
                 std::uint64_t* windows_synthesized)
      : id(id_),
        policy(experiment.make_policy(config.policy, config.rr_cycle,
                                      config.set)),
        cursor(experiment.make_cursor(job.user, job.seed_offset, std::nullopt,
                                      config.ring_capacity)),
        source(cursor, spans, synth_name, group, windows_synthesized),
        stepper(experiment.spec(), models, &experiment.trace(), policy.get(),
                &source, experiment.sim_config()) {}

  std::uint64_t id;
  std::unique_ptr<origin::core::Policy> policy;
  data::StreamCursor cursor;
  TimedSource source;
  sim::SlotStepper stepper;
  serve::PersonalizeState personalize;
  std::size_t req_begin = 0;
  std::size_t req_end = 0;
};

struct ReplicaShard {
  Models models;
  std::unique_ptr<serve::Personalizer> personalizer;
  std::vector<std::unique_ptr<ReplicaSession>> active;
};

/// Gather buffers of one panel, reused across panels.
struct PanelScratch {
  std::vector<std::size_t> idx;
  std::vector<const origin::nn::Tensor*> windows;
  std::vector<float> probs;
};

/// Classifies the requests of `items` with the weights loaded in
/// `models`: one predict_proba_batch_into panel per sensor.
void classify_panels(Models& models, ReplicaSession* const* items,
                     std::size_t count,
                     const std::vector<sim::SlotStepper::ClassifyRequest>& requests,
                     std::vector<origin::net::Classification>& results,
                     PanelScratch& scratch, SpanRecorder& spans,
                     const Names& names, std::uint64_t tick,
                     LayerCounts& counts) {
  auto& [idx, windows, probs] = scratch;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    Scope scope(spans, names.classify, tick);
    idx.clear();
    windows.clear();
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t r = items[i]->req_begin; r < items[i]->req_end; ++r) {
        if (requests[r].sensor != static_cast<int>(s)) continue;
        idx.push_back(r);
        windows.push_back(requests[r].window);
      }
    }
    if (windows.empty()) continue;
    const std::size_t classes =
        models[s].predict_proba_batch_into(windows.data(), windows.size(), probs);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const float* row = probs.data() + k * classes;
      results[idx[k]] = origin::net::make_classification(
          std::vector<float>(row, row + classes));
    }
    ++counts.panels;
    counts.requests += windows.size();
  }
}

}  // namespace

serve::ArrivalSchedule arrival_schedule(const sim::Experiment& experiment,
                                        const serve::ServeConfig& config) {
  serve::ArrivalConfig arrival;
  arrival.users = config.users;
  arrival.rate_per_s = config.arrival_rate_hz;
  arrival.seed = config.arrival_seed;
  arrival.slot_seconds = experiment.spec().slot_seconds();
  return serve::ArrivalSchedule(arrival);
}

std::vector<origin::fleet::FleetJob> session_jobs(
    const serve::ServeConfig& config) {
  origin::fleet::PopulationConfig population;
  population.users = config.users;
  population.root_seed = config.population_seed;
  population.severity = config.severity;
  population.policy = config.policy;
  population.rr_cycle = config.rr_cycle;
  population.set = config.set;
  return origin::fleet::make_population(population);
}

ReplicaRun run_serve_replica(const sim::Experiment& experiment,
                             const serve::ServeConfig& config,
                             std::optional<std::uint64_t> replay_tick,
                             SpanRecorder& spans) {
  const Names names(spans);
  ReplicaRun run;
  LayerCounts& counts = run.counts;

  const serve::ArrivalSchedule arrivals = arrival_schedule(experiment, config);
  const auto jobs = session_jobs(config);

  std::vector<ReplicaShard> shards(config.shards);
  for (ReplicaShard& shard : shards) {
    shard.models = config.set == sim::ModelSet::Relaxed
                       ? experiment.system().relaxed_copy()
                       : experiment.system().bl2_copy();
    if (config.personalize.enabled) {
      shard.personalizer = std::make_unique<serve::Personalizer>(
          experiment, shard.models, config.personalize);
    }
  }

  std::vector<sim::SlotStepper::ClassifyRequest> requests;
  std::vector<origin::net::Classification> results;
  PanelScratch panel;
  std::vector<ReplicaSession*> pending, clean;
  std::uint64_t tick = 0;
  std::size_t next_admit = 0;
  std::size_t live = 0;
  const Clock::time_point begin = Clock::now();
  for (; next_admit < config.users || live > 0; ++tick) {
    Scope tick_scope(spans, names.tick, tick);
    const bool replay = replay_tick && tick == *replay_tick;
    const LayerCounts before = counts;
    if (replay) {
      for (ReplicaShard& shard : shards) {
        for (auto& session : shard.active) session->cursor.reset();
      }
    }
    while (next_admit < config.users && arrivals.tick(next_admit) <= tick) {
      Scope scope(spans, names.admit, tick);
      ReplicaShard& shard = shards[next_admit % config.shards];
      shard.active.push_back(std::make_unique<ReplicaSession>(
          experiment, config, jobs[next_admit], next_admit, &shard.models,
          spans, names.synth, &tick, &counts.windows_synthesized));
      ++next_admit;
      ++live;
    }
    for (ReplicaShard& shard : shards) {
      requests.clear();
      pending.clear();
      for (auto& session : shard.active) {
        Scope scope(spans, names.step_begin, tick);
        session->req_begin = requests.size();
        session->stepper.step_begin(requests);
        session->req_end = requests.size();
        pending.push_back(session.get());
      }
      if (pending.empty()) continue;
      results.assign(requests.size(), {});
      counts.windows_read += requests.size();

      if (!shard.personalizer) {
        classify_panels(shard.models, pending.data(), pending.size(), requests,
                        results, panel, spans, names, tick, counts);
      } else {
        clean.clear();
        for (ReplicaSession* s : pending) {
          if (!s->personalize.dirty()) clean.push_back(s);
        }
        if (!clean.empty()) {
          {
            Scope scope(spans, names.load, tick);
            shard.personalizer->load_base(shard.models);
          }
          classify_panels(shard.models, clean.data(), clean.size(), requests,
                          results, panel, spans, names, tick, counts);
        }
        for (ReplicaSession* s : pending) {
          if (!s->personalize.dirty()) continue;
          {
            Scope scope(spans, names.load, tick);
            shard.personalizer->load(s->personalize, s->id, shard.models);
          }
          classify_panels(shard.models, &s, 1, requests, results, panel, spans,
                          names, tick, counts);
        }
      }

      for (ReplicaSession* s : pending) {
        sim::SlotStepper::StepOutcome out;
        {
          Scope scope(spans, names.step_finish, tick);
          out = s->stepper.step_finish(results.data() + s->req_begin,
                                       s->req_end - s->req_begin);
        }
        ++counts.slots;
        if (shard.personalizer) {
          {
            Scope scope(spans, names.buffer, tick);
            shard.personalizer->buffer_step(s->personalize, out, s->source);
          }
          // buffer_step keeps every window of a correctly fused slot.
          if (out.predicted >= 0 && out.predicted == out.label) {
            counts.windows_read += data::kNumSensors;
          }
          if (shard.personalizer->fit_due(s->personalize, out)) {
            {
              Scope scope(spans, names.load, tick);
              shard.personalizer->load(s->personalize, s->id, shard.models);
              }
            Scope scope(spans, names.fit, tick);
            const std::uint64_t steps = shard.personalizer->run_fit(
                s->personalize, jobs[s->id].seed_offset, shard.models);
            if (steps > 0) {
              ++counts.fits;
              counts.fit_steps += steps;
            }
          }
        }
        if (s->stepper.done()) {
          Scope scope(spans, names.complete, tick);
          sim::SimResult result = s->stepper.take_result();
          run.outputs.push_back({s->id, result.completion.slots,
                                 serve::fnv1a_outputs(result.outputs)});
          --live;
        }
      }
      std::erase_if(shard.active,
                    [](const std::unique_ptr<ReplicaSession>& s) {
                      return s->stepper.done();
                    });
    }
    if (replay) {
      run.replay_group = tick;
      counts.replay_windows_synthesized =
          counts.windows_synthesized - before.windows_synthesized;
      counts.replay_windows_read = counts.windows_read - before.windows_read;
    }
  }
  run.wall_s = seconds_between(begin, Clock::now());
  std::sort(run.outputs.begin(), run.outputs.end(),
            [](const OutputRecord& a, const OutputRecord& b) {
              return a.id < b.id;
            });
  return run;
}

ReplicaRun run_fleet_replica(const sim::Experiment& experiment,
                             const std::vector<origin::fleet::FleetJob>& jobs,
                             SpanRecorder& spans) {
  const Names names(spans);
  ReplicaRun run;
  LayerCounts& counts = run.counts;
  if (jobs.empty()) return run;

  Models models = experiment.system().bl1_copy();
  const int classes = experiment.spec().num_classes();
  data::StreamCursor cursor =
      experiment.make_cursor(jobs[0].user, jobs[0].seed_offset);
  std::uint64_t group = 0;
  TimedSource source(cursor, spans, names.synth, &group,
                     &counts.windows_synthesized);
  std::vector<int> outputs;
  std::vector<origin::core::Ballot> ballots;
  const Clock::time_point begin = Clock::now();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    group = j;
    Scope job_scope(spans, names.job, group);
    {
      Scope scope(spans, names.rebind, group);
      experiment.rebind_cursor(cursor, jobs[j].user, jobs[j].seed_offset);
    }
    outputs.clear();
    std::array<origin::net::Classification, data::kNumSensors> votes;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const data::SlotSample& slot = source.slot(i);
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        Scope scope(spans, names.classify, group);
        votes[s] = origin::net::make_classification(
            models[s].predict_proba(slot.windows[s]));
      }
      Scope scope(spans, names.step_finish, group);
      // FullyPoweredBaseline::classify_slot's ballots: weight 1, ties to
      // the lower sensor index.
      ballots.clear();
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        ballots.push_back({votes[s].predicted_class, 1.0,
                           static_cast<double>(s)});
      }
      outputs.push_back(origin::core::majority_vote(ballots, classes).value());
    }
    counts.slots += outputs.size();
    counts.requests += outputs.size() * data::kNumSensors;
    counts.panels += outputs.size() * data::kNumSensors;
    counts.windows_read += outputs.size() * data::kNumSensors;
    run.outputs.push_back({j, outputs.size(), origin::serve::fnv1a_outputs(outputs)});
  }
  run.wall_s = seconds_between(begin, Clock::now());
  return run;
}

void report_replica(Result& result, const ReplicaRun& traced,
                    const SpanRecorder& spans, double overhead) {
  const auto totals = spans.totals();
  const auto find = [&](const std::string& name) -> SpanRecorder::Totals {
    const int id = spans.find_name(name);
    return id >= 0 ? totals[static_cast<std::size_t>(id)]
                   : SpanRecorder::Totals{};
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const LayerCounts& c = traced.counts;
  const auto slots = static_cast<double>(c.slots);
  const auto requests = static_cast<double>(c.requests);

  result.set("data.synth_us_per_slot", 1e6 * per(find("data.synth").self_s, slots));
  result.set("data.windows_synthesized", static_cast<double>(c.windows_synthesized));
  result.set("data.windows_read", static_cast<double>(c.windows_read));
  result.set("data.read_ratio", per(static_cast<double>(c.windows_read),
                                    static_cast<double>(c.windows_synthesized)));
  if (traced.replay_group) {
    result.set("data.replay.synth_ms",
               1e3 * spans.group_total_s(spans.find_name("data.synth"),
                                         *traced.replay_group));
    result.set("data.replay.windows_synthesized",
               static_cast<double>(c.replay_windows_synthesized));
    result.set("data.replay.windows_read",
               static_cast<double>(c.replay_windows_read));
    result.set("data.replay.read_ratio",
               per(static_cast<double>(c.replay_windows_read),
                   static_cast<double>(c.replay_windows_synthesized)));
  }
  result.set("sim.step_begin_us_per_slot",
             1e6 * per(find("sim.step_begin").self_s, slots));
  result.set("sim.step_finish_us_per_slot",
             1e6 * per(find("sim.step_finish").self_s, slots));
  result.set("sim.requests_per_slot", per(requests, slots));
  result.set("nn.classify_us_per_window",
             1e6 * per(find("nn.classify").self_s, requests));
  result.set("nn.panels", static_cast<double>(c.panels));
  result.set("nn.panel_occupancy", per(requests, static_cast<double>(c.panels)));
  const SpanRecorder::Totals fit = find("nn.fit");
  result.set("nn.fits", static_cast<double>(c.fits));
  result.set("nn.fit_steps", static_cast<double>(c.fit_steps));
  result.set("nn.fit_ms", 1e3 * per(fit.total_s, static_cast<double>(fit.count)));
  result.set("serve.personalize.buffer_us_per_slot",
             1e6 * per(find("serve.personalize.buffer").self_s, slots));
  const SpanRecorder::Totals load = find("serve.personalize.load");
  result.set("serve.personalize.load_us",
             1e6 * per(load.self_s, static_cast<double>(load.count)));

  // Layer split: self time by layer prefix, as a share of the wall time.
  double split[4] = {0, 0, 0, 0};
  const char* const prefixes[4] = {"data.", "sim.", "nn.", "serve."};
  const int root = spans.find_name("serve.tick");  // loop bookkeeping
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (static_cast<int>(i) == root) continue;
    const std::string& name = spans.names()[i];
    for (int k = 0; k < 4; ++k) {
      if (name.rfind(prefixes[k], 0) == 0) split[k] += totals[i].self_s;
    }
  }
  result.set("split.data_pct", 100.0 * per(split[0], traced.wall_s));
  result.set("split.sim_pct", 100.0 * per(split[1], traced.wall_s));
  result.set("split.nn_pct", 100.0 * per(split[2], traced.wall_s));
  result.set("split.serve_pct", 100.0 * per(split[3], traced.wall_s));
  result.set("trace.stage_sum_pct", 100.0 * per(spans.nonroot_self_s(), traced.wall_s));
  result.set("trace.overhead_pct", 100.0 * overhead);
  result.set("trace.replica_wall_s", traced.wall_s);
}

std::uint64_t trace_replica(Result& result, std::size_t users,
                            const std::vector<OutputRecord>& served,
                            const std::function<ReplicaRun(SpanRecorder&)>& run,
                            const std::string& chrome_path,
                            std::uint64_t chrome_stride) {
  SpanRecorder off_a(false), spans(true), off_b(false);
  const ReplicaRun before = run(off_a);
  const ReplicaRun traced = run(spans);
  const ReplicaRun after = run(off_b);
  spans.write_chrome(chrome_path, chrome_stride);
  std::uint64_t failed = 0;
  for (const ReplicaRun* r : {&before, &traced, &after}) {
    failed = std::max(failed, count_failed(users, kSlots, served, r->outputs));
  }
  report_replica(result, traced, spans,
                 2.0 * traced.wall_s / (before.wall_s + after.wall_s) - 1.0);
  return failed;
}

bool trace_valid(const Result& result) {
  for (const Metric& m : result.metrics) {
    if (m.name == "trace.stage_sum_pct") {
      return m.value >= 95.0 && m.value <= 105.0;
    }
  }
  return false;
}

}  // namespace perfbench
