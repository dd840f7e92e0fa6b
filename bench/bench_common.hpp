// Shared setup for the reproduction benches: one cached trained system per
// dataset (the model zoo lives in ./origin_models or $ORIGIN_CACHE_DIR, so
// the first bench trains and every later binary loads), standard stream
// seeds, and table-printing helpers. Every bench prints the rows of the
// paper figure/table it regenerates; EXPERIMENTS.md records the
// paper-vs-measured comparison.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/kernels/backend.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

namespace origin::bench {

inline std::string cache_dir() { return core::default_cache_dir(); }

inline sim::ExperimentConfig default_config(data::DatasetKind kind) {
  sim::ExperimentConfig cfg;
  cfg.pipeline.kind = kind;
  cfg.pipeline.cache_dir = cache_dir();
  cfg.stream_slots = 4000;
  return cfg;
}

inline sim::Experiment make_experiment(data::DatasetKind kind) {
  std::printf("[setup] building/loading %s system (cache: %s)...\n",
              to_string(kind), cache_dir().c_str());
  return sim::Experiment(default_config(kind));
}

/// Per-activity accuracies (in percent) in class order, then the overall.
inline std::vector<double> per_activity_pct(const sim::SimResult& result) {
  std::vector<double> row;
  for (int c = 0; c < result.accuracy.num_classes(); ++c) {
    row.push_back(100.0 * result.accuracy.per_class(c));
  }
  row.push_back(100.0 * result.accuracy.overall());
  return row;
}

inline std::vector<std::string> activity_header(const data::DatasetSpec& spec,
                                                const std::string& first) {
  std::vector<std::string> header{first};
  for (int c = 0; c < spec.num_classes(); ++c) {
    header.push_back(to_string(spec.activity_of(c)));
  }
  header.push_back("overall");
  return header;
}

/// Shared `--json <path>` reporting: scans argv once, and when the flag is
/// present writes a RunManifest (build provenance, CLI parameters, wall
/// time, optional metric snapshot) with every printed table attached as
/// structured rows — the machine-readable half of each figure's output.
/// Without the flag every call is a no-op, so benches wire it
/// unconditionally.
class JsonReport {
 public:
  JsonReport(int argc, char** argv, const char* tool) : manifest_(tool) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (!std::strcmp(argv[i], "--json")) path_ = argv[i + 1];
    }
    // Every bench manifest records which kernel backend produced its
    // numbers: SIMD and reference backends round differently, so a
    // number is only comparable with others from the same backend.
    manifest_.set("kernel_backend",
                  std::string(nn::kernels::active_backend().name));
    manifest_.set("simd", nn::kernels::simd_features());
  }

  explicit operator bool() const { return !path_.empty(); }
  obs::RunManifest& manifest() { return manifest_; }

  /// Attaches a copy of `table` under `name` (tables are tiny).
  void add_table(const std::string& name, const util::AsciiTable& table) {
    if (path_.empty()) return;
    tables_.emplace_back(name, table);
  }

  /// Writes the manifest with tables (and metrics, when given) spliced in.
  void write(const obs::MetricsSnapshot* metrics = nullptr) const {
    if (path_.empty()) return;
    obs::JsonWriter w;
    w.begin_object();
    for (const auto& [name, table] : tables_) {
      w.key(name).begin_array();
      for (const auto& row : table.rows()) {
        w.begin_object();
        for (std::size_t c = 0; c < row.size() && c < table.header().size();
             ++c) {
          w.kv(table.header()[c], row[c]);
        }
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    // Splice "tables" into the manifest object (same trick the manifest
    // uses for "metrics").
    std::string json = manifest_.to_json(metrics);
    json.pop_back();
    json += ",\"tables\":" + w.str() + "}\n";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out || !(out << json) || !out.flush()) {
      throw std::runtime_error("JsonReport: cannot write " + path_);
    }
    std::printf("[json] wrote %s\n", path_.c_str());
  }

 private:
  std::string path_;
  obs::RunManifest manifest_;
  std::vector<std::pair<std::string, util::AsciiTable>> tables_;
};

}  // namespace origin::bench
