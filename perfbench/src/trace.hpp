// trace.hpp — in-memory span recorder for the benchmark's traced mode.
//
// A span is one timed interval — a phase of the run or one call into a
// library layer — with the span that was open when it began as its parent.
// The benchmark drives the library from a single client thread, so spans
// nest strictly and a stack gives the parents. Spans stay in memory and are
// written out once, when the run ends; a layer's self time is its span's
// duration minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Span {
  const char* name;  // a string literal
  double start_s;    // since the tracer was created
  double end_s;
  int parent;        // index into the span list, -1 for a root
};

class Tracer {
 public:
  explicit Tracer(bool active) : active_(active), t0_(Clock::now()) {}

  /// Pausing lets a traced run interleave untraced repetitions, so the
  /// tracing overhead is measured inside one process.
  void set_active(bool on) { active_ = on; }

  /// Opens a span; returns its id, or -1 while inactive.
  int begin(const char* name) {
    if (!active_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, seconds_since(t0_), -1.0, parent});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
    stack_.pop_back();
  }

  /// Runs `fn` inside a span named `name` and returns its wall seconds
  /// (measured whether or not the tracer is active).
  template <class Fn>
  double time(const char* name, Fn&& fn) {
    const int id = begin(name);
    const Clock::time_point t = Clock::now();
    std::forward<Fn>(fn)();
    const double s = seconds_since(t);
    end(id);
    return s;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the summed durations of its direct children.
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

 private:
  bool active_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
