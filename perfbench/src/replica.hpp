// Single-threaded replicas of the serving paths for the traced run. Each
// rebuilds a workload's serving path from the library's public calls —
// population specs from fleet::make_population, cursors from
// Experiment::make_cursor behind a timing decorator,
// SlotStepper::step_begin / per-sensor panels through
// Sequential::predict_proba_batch_into / step_finish, and the
// Personalizer's buffer/fit hooks — with a span around every call into a
// layer. Their per-session outputs must equal the served ones, which is
// what makes their stage times a breakdown of the served work.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/fleet_runner.hpp"
#include "serve/arrival.hpp"
#include "serve/serve_loop.hpp"
#include "spans.hpp"

namespace perfbench {

/// Work counted at the layer boundaries of a replica run.
struct LayerCounts {
  std::uint64_t slots = 0;
  std::uint64_t windows_synthesized = 0;
  /// Windows handed to a classifier or buffered for fine-tuning.
  std::uint64_t windows_read = 0;
  std::uint64_t requests = 0;  // windows classified
  std::uint64_t panels = 0;    // forward calls that classified them
  std::uint64_t fits = 0;
  std::uint64_t fit_steps = 0;
  /// The tick after an emulated restore: streams replayed from slot 0.
  std::uint64_t replay_windows_synthesized = 0;
  std::uint64_t replay_windows_read = 0;
};

struct ReplicaRun {
  std::vector<OutputRecord> outputs;  // by id
  LayerCounts counts;
  double wall_s = 0.0;
  /// Span group (tick) of the emulated restore's replay, if any.
  std::optional<std::uint64_t> replay_group;
};

/// The arrival schedule ServeLoop derives from `config`.
origin::serve::ArrivalSchedule arrival_schedule(
    const origin::sim::Experiment& experiment,
    const origin::serve::ServeConfig& config);

/// The per-session specs of `config` as batch jobs: fleet::make_population
/// with the loop's per-user derivation (session id = job index).
std::vector<origin::fleet::FleetJob> session_jobs(
    const origin::serve::ServeConfig& config);

/// Serves `config`'s whole workload on one thread, tick by tick, the way
/// ServeLoop's batched shards do. When `replay_tick` is set, every live
/// session's cursor is rewound before that tick, which makes it
/// re-synthesize its stream exactly as a session restored from a
/// snapshot does.
ReplicaRun run_serve_replica(const origin::sim::Experiment& experiment,
                             const origin::serve::ServeConfig& config,
                             std::optional<std::uint64_t> replay_tick,
                             SpanRecorder& spans);

/// Runs fully-powered baseline jobs (every sensor classifies every
/// window, then a majority vote) on one thread.
ReplicaRun run_fleet_replica(const origin::sim::Experiment& experiment,
                             const std::vector<origin::fleet::FleetJob>& jobs,
                             SpanRecorder& spans);

/// Sets the per-layer metrics of `traced`, a replica run recorded into
/// `spans`; `overhead` is the fractional wall-time cost of recording.
void report_replica(Result& result, const ReplicaRun& traced,
                    const SpanRecorder& spans, double overhead);

/// The traced run's layer level: `run` three times, spans off, on, off
/// (the symmetric order cancels a linear drift in host speed out of the
/// overhead). Reports the traced run's per-layer metrics, writes its spans
/// as a Chrome trace, and returns the most sessions / jobs any of the
/// three runs got wrong against `served`.
std::uint64_t trace_replica(Result& result, std::size_t users,
                            const std::vector<OutputRecord>& served,
                            const std::function<ReplicaRun(SpanRecorder&)>& run,
                            const std::string& chrome_path,
                            std::uint64_t chrome_stride);

/// Whether the replica's stage self times sum to within 5% of its wall
/// time (trace.stage_sum_pct in [95, 105]): nothing hides in "other".
bool trace_valid(const Result& result);

}  // namespace perfbench
