// Self-test of the span arithmetic on hand-built span sets: interval
// unions, self time with children overlapping across threads, executor
// idle fraction, the median / maximum summary, and the trace export.
// Exits non-zero on the first failed check; run by `ctest` in the
// benchmark's build tree and by run.py before every measurement.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void ExpectNear(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, actual, expected);
    ++failures;
  }
}

perfbench::Span MakeSpan(double start, double end, int parent, int thread) {
  perfbench::Span span;
  span.name = "s";
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.thread = thread;
  return span;
}

void TestUnionLength() {
  ExpectNear(perfbench::UnionLength({}), 0.0, "union of nothing");
  ExpectNear(perfbench::UnionLength({{0, 1}, {2, 3}}), 2.0, "disjoint union");
  ExpectNear(perfbench::UnionLength({{0, 2}, {1, 3}}), 3.0, "overlapping union");
  ExpectNear(perfbench::UnionLength({{1, 3}, {0, 5}, {2, 4}}), 5.0, "nested union");
  ExpectNear(perfbench::UnionLength({{0, 1}, {1, 2}}), 2.0, "touching union");
  ExpectNear(perfbench::UnionLength({{3, 3}, {2, 1}}), 0.0, "empty intervals");
}

void TestSelfTimes() {
  // A DC span [0, 10) on thread 0 with a serial child [0, 2) on its own
  // thread, then two cells overlapping on threads 1 and 2: [2, 7) and
  // [4, 9). The children cover [0, 9), so the DC's self time is 1, even
  // though the children's durations sum to 12 > 10.
  std::vector<perfbench::Span> spans = {
      MakeSpan(0, 10, -1, 0), MakeSpan(0, 2, 0, 0), MakeSpan(2, 7, 0, 1),
      MakeSpan(4, 9, 0, 2),   MakeSpan(5, 6, 3, 2),
  };
  const std::vector<double> self = perfbench::SelfTimes(spans);
  ExpectNear(self[0], 1.0, "self of parent with overlapping cross-thread children");
  ExpectNear(self[1], 2.0, "self of a leaf");
  ExpectNear(self[2], 5.0, "self of a leaf on another thread");
  ExpectNear(self[3], 4.0, "self of a span with one nested child");
  ExpectNear(self[4], 1.0, "self of a grandchild");

  // A child sticking out of its parent is clipped to the parent.
  spans = {MakeSpan(0, 4, -1, 0), MakeSpan(3, 6, 0, 1)};
  ExpectNear(perfbench::SelfTimes(spans)[0], 3.0, "self with a child clipped to the parent");
}

void TestIdleFraction() {
  // Two threads over a 10 s wall. Root [0, 10) on thread 0 is never busy
  // time. The DC span [0, 10) on thread 0 has a child on thread 1, so it
  // counts only through its own-thread child [0, 4); thread 1 is busy
  // [2, 8). Busy = 4 + 6 = 10 of 2 * 10 thread-seconds: idle 0.5.
  const std::vector<perfbench::Span> spans = {
      MakeSpan(0, 10, -1, 0), MakeSpan(0, 10, 0, 0), MakeSpan(0, 4, 1, 0),
      MakeSpan(2, 8, 1, 1),
  };
  ExpectNear(perfbench::IdleFraction(spans, 2, 10.0), 0.5, "idle with a join wait");
  // Single thread, everything serial under the root: no idle time.
  const std::vector<perfbench::Span> serial = {
      MakeSpan(0, 10, -1, 0), MakeSpan(0, 6, 0, 0), MakeSpan(6, 10, 0, 0)};
  ExpectNear(perfbench::IdleFraction(serial, 1, 10.0), 0.0, "idle of a serial run");
  // Four threads, one busy for half the wall: 1 - 5 / 40.
  const std::vector<perfbench::Span> one = {MakeSpan(0, 10, -1, 0), MakeSpan(0, 5, 0, 0)};
  ExpectNear(perfbench::IdleFraction(one, 4, 10.0), 0.875, "idle with three unused threads");
  ExpectNear(perfbench::IdleFraction(one, 0, 10.0), 0.0, "idle with no threads");
}

void TestSummarize() {
  perfbench::Summary summary = perfbench::Summarize({3, 1, 2});
  ExpectNear(summary.median, 2.0, "odd median");
  ExpectNear(summary.max, 3.0, "odd max");
  ExpectNear(static_cast<double>(summary.samples), 3.0, "odd samples");
  summary = perfbench::Summarize({4, 1, 3, 2});
  ExpectNear(summary.median, 2.5, "even median");
  ExpectNear(summary.max, 4.0, "even max");
  ExpectNear(static_cast<double>(summary.samples), 4.0, "even samples");
  summary = perfbench::Summarize({});
  ExpectNear(summary.median + summary.max + static_cast<double>(summary.samples), 0.0,
             "empty summary");
}

void TestRecorderAndExport() {
  perfbench::SpanRecorder recorder;
  {
    perfbench::ScopedSpan outer(recorder, "outer", -1);
    perfbench::ScopedSpan inner(recorder, "inner", outer.id());
  }
  const std::vector<perfbench::Span> spans = recorder.Snapshot();
  ExpectNear(static_cast<double>(spans.size()), 2.0, "recorded spans");
  ExpectNear(spans[1].parent, 0.0, "recorded parent");
  if (!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end)) {
    std::fprintf(stderr, "FAIL recorded nesting\n");
    ++failures;
  }
  const std::string json = perfbench::ChromeTraceJson(spans);
  if (json.find("\"traceEvents\"") == std::string::npos ||
      json.find("\"name\": \"inner\", \"ph\": \"X\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL trace export:\n%s", json.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  TestUnionLength();
  TestSelfTimes();
  TestIdleFraction();
  TestSummarize();
  TestRecorderAndExport();
  if (failures > 0) {
    std::fprintf(stderr, "spans_test: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("spans_test: all checks passed\n");
  return EXIT_SUCCESS;
}
