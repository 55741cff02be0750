#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int SpanRecorder::Begin(std::string name, int parent) {
  const double start = Now();
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(thread_ids_.begin(), thread_ids_.end(), self);
  if (it == thread_ids_.end()) {
    it = thread_ids_.insert(thread_ids_.end(), self);
  }
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = start;
  span.parent = parent;
  span.thread = static_cast<int>(it - thread_ids_.begin());
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double covered_to = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) {
      continue;
    }
    if (!open || start > covered_to) {
      total += end - start;
      covered_to = end;
      open = true;
    } else if (end > covered_to) {
      total += end - covered_to;
      covered_to = end;
    }
  }
  return total;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) {
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    children[static_cast<size_t>(span.parent)].emplace_back(
        std::max(span.start, parent.start), std::min(span.end, parent.end));
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end - spans[i].start) - UnionLength(std::move(children[i]));
  }
  return self;
}

double IdleFraction(const std::vector<Span>& spans, int threads, double wall_seconds) {
  if (threads <= 0 || wall_seconds <= 0.0) {
    return 0.0;
  }
  std::vector<bool> waits(spans.size(), false);
  int max_thread = 0;
  for (const Span& span : spans) {
    max_thread = std::max(max_thread, span.thread);
    if (span.parent >= 0 && spans[static_cast<size_t>(span.parent)].thread != span.thread) {
      waits[static_cast<size_t>(span.parent)] = true;
    }
  }
  std::vector<std::vector<std::pair<double, double>>> busy(static_cast<size_t>(max_thread) + 1);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 && !waits[i]) {
      busy[static_cast<size_t>(spans[i].thread)].emplace_back(spans[i].start, spans[i].end);
    }
  }
  double busy_seconds = 0.0;
  for (auto& intervals : busy) {
    busy_seconds += UnionLength(std::move(intervals));
  }
  const double idle = 1.0 - busy_seconds / (static_cast<double>(threads) * wall_seconds);
  return std::clamp(idle, 0.0, 1.0);
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.samples = values.size();
  if (values.empty()) {
    return summary;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  summary.median =
      values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
  summary.max = values.back();
  return summary;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                  span.name.c_str(), span.thread, span.start * 1e6,
                  (span.end - span.start) * 1e6, i, span.parent,
                  i + 1 < spans.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
