#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::name_id(const std::string& name) {
  if (const int id = find_name(name); id >= 0) return id;
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int SpanRecorder::find_name(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::int64_t SpanRecorder::open(int name, std::uint64_t group) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.depth = static_cast<std::int32_t>(stack_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.group = group;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  const auto handle = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(handle);
  return handle;
}

void SpanRecorder::close(std::int64_t handle) {
  if (handle < 0) return;
  if (stack_.empty() || stack_.back() != handle) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(handle)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
}

std::vector<double> SpanRecorder::child_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return child;
}

std::vector<SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<Totals> out(names_.size());
  const std::vector<double> child = child_seconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[static_cast<std::size_t>(s.name)];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child[i];
  }
  return out;
}

double SpanRecorder::nonroot_self_s() const {
  const std::vector<double> child = child_seconds();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) continue;
    sum += 1e-9 * static_cast<double>(s.end_ns - s.start_ns) - child[i];
  }
  return sum;
}

double SpanRecorder::group_total_s(int name, std::uint64_t group) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.group == group) {
      sum += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return sum;
}

void SpanRecorder::write_chrome(const std::string& path,
                                std::uint64_t group_stride) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("SpanRecorder: cannot write " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (group_stride > 1 && s.group % group_stride != 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << names_[static_cast<std::size_t>(s.name)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.depth
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("SpanRecorder: write failed");
}

const origin::data::SlotSample& TimedSource::slot(std::size_t i) {
  if (i < cursor_.generated()) return cursor_.slot(i);
  const std::size_t before = cursor_.generated();
  Scope scope(spans_, synth_name_, *group_);
  const origin::data::SlotSample& sample = cursor_.slot(i);
  *windows_synthesized_ +=
      (cursor_.generated() - before) * origin::data::kNumSensors;
  return sample;
}

}  // namespace perfbench
