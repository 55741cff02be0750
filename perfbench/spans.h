// In-memory span recording for the traced benchmark run, plus the span
// arithmetic the per-layer metrics are computed from.
//
// A span is one call into a layer: a name, a start and end in seconds since
// the recorder was created, the index of the span that caused it (which may
// have run on another thread), and a dense thread id. Spans are kept in
// memory while the run executes and exported once at the end, as Chrome
// trace-event JSON (Perfetto and chrome://tracing load it).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list; -1 for a root
  int thread = 0;   // dense id, in order of each thread's first span
};

// Thread-safe span store. Begin() and End() may be called from any thread;
// a span ends on the thread that began it.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int Begin(std::string name, int parent);
  void End(int id);
  // Seconds since the recorder was created.
  double Now() const;
  // A copy of every span recorded so far, in Begin() order.
  std::vector<Span> Snapshot() const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                    // guarded by mu_
  std::vector<std::thread::id> thread_ids_;    // guarded by mu_
};

// Records one span over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int parent)
      : recorder_(recorder), id_(recorder.Begin(std::move(name), parent)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  const int id_;
};

// Total length covered by a set of [start, end) intervals; overlaps count
// once.
double UnionLength(std::vector<std::pair<double, double>> intervals);

// Per span: its duration minus the part of it covered by the union of its
// children's intervals. Children may run on other threads and overlap each
// other; a child sticking out of its parent is clipped to the parent.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// 1 - (sum over threads of busy time) / (threads * wall_seconds), clamped to
// [0, 1]. A thread is busy inside any non-root span it ran, except a span
// with a child on another thread: that span was partly waiting on a join,
// so it counts only through its children on its own thread.
double IdleFraction(const std::vector<Span>& spans, int threads, double wall_seconds);

struct Summary {
  double median = 0.0;
  double max = 0.0;
  size_t samples = 0;
};

// Median (mean of the middle two for an even count) and maximum; all zero
// for an empty input.
Summary Summarize(std::vector<double> values);

// The spans as a Chrome trace-event document: one complete ("X") event per
// span, timestamps in microseconds, one lane per thread. Names are written
// unescaped, so they must not contain quotes or backslashes.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
