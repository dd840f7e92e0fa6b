#include "serve/session.hpp"

#include <stdexcept>

namespace origin::serve {

Session::Session(const sim::Experiment& experiment, SessionSpec spec,
                 std::array<nn::Sequential, data::kNumSensors>* models,
                 int ring_capacity, int batch_slots,
                 obs::TraceRecorder* trace)
    : spec_(std::move(spec)),
      policy_(experiment.make_policy(spec_.policy, spec_.rr_cycle, spec_.set)),
      cursor_(experiment.make_cursor(spec_.user, spec_.seed_offset,
                                     std::nullopt, ring_capacity)),
      stepper_(experiment.spec(), models, &experiment.trace(), policy_.get(),
               &cursor_,
               [&] {
                 sim::SimulatorConfig config = experiment.sim_config();
                 config.trace = trace;
                 return config;
               }()) {
  if (batch_slots != 0) {
    throw std::invalid_argument("Session: batch_slots must be 0");
  }
}

}  // namespace origin::serve
