// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around the calls it makes into each layer: name,
// start, end, parent (the innermost span open when it began) and a group
// id shared by every span of one tick or job. Nothing is written until
// the run ends; self time is a span's duration minus its children's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/stream_cursor.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and reads no clock.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}


  /// Dense id for `name` (interned on first use).
  int name_id(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }
  /// Id of an interned name, or -1.
  int find_name(const std::string& name) const;

  /// Opens a span under the innermost open one; returns its handle, or
  /// -1 when disabled.
  std::int64_t open(int name, std::uint64_t group);
  void close(std::int64_t handle);

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per-name totals, indexed by name id.
  std::vector<Totals> totals() const;
  /// Self time of every span that has a parent (all but the roots).
  double nonroot_self_s() const;
  /// Total duration of the spans named `name` in group `group`.
  double group_total_s(int name, std::uint64_t group) const;

  /// Writes the spans of every `group_stride`-th group as a Chrome trace
  /// (complete events, microseconds, one lane per nesting depth).
  void write_chrome(const std::string& path, std::uint64_t group_stride) const;

 private:
  struct Span {
    std::int32_t name = 0;
    std::int32_t depth = 0;
    std::int64_t parent = -1;
    std::uint64_t group = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<double> child_seconds() const;

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span.
class Scope {
 public:
  Scope(SpanRecorder& recorder, int name, std::uint64_t group)
      : recorder_(recorder), handle_(recorder.open(name, group)) {}
  ~Scope() { recorder_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t handle_;
};

/// Timing decorator over a stream cursor: a slot() request that makes the
/// cursor synthesize is recorded as a `data.synth` span, and the windows
/// it synthesized are counted. Requests served from the ring pass through.
class TimedSource final : public origin::data::SlotSource {
 public:
  TimedSource(origin::data::StreamCursor& cursor, SpanRecorder& spans,
              int synth_name, const std::uint64_t* group,
              std::uint64_t* windows_synthesized)
      : cursor_(cursor),
        spans_(spans),
        synth_name_(synth_name),
        group_(group),
        windows_synthesized_(windows_synthesized) {}

  const origin::data::DatasetSpec& spec() const override {
    return cursor_.spec();
  }
  std::size_t size() const override { return cursor_.size(); }
  std::size_t lookback() const override { return cursor_.lookback(); }
  const origin::data::SlotSample& slot(std::size_t i) override;

 private:
  origin::data::StreamCursor& cursor_;
  SpanRecorder& spans_;
  int synth_name_;
  const std::uint64_t* group_;  // the replica's current tick / job id
  std::uint64_t* windows_synthesized_;
};

}  // namespace perfbench
