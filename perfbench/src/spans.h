// In-memory span log for the traced benchmark run.
//
// A span is one timed call into a library layer, recorded from outside the
// library: name, host start and end (seconds since the log was created),
// and the index of the enclosing span (-1 at the top level). Spans are
// kept in memory and written out as JSON once the run has ended, so the
// traced run does no I/O while it is being measured. A disabled log
// records nothing; the untraced run uses one so both runs share a path.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int Open(const std::string& name) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = SecondsSince(origin_);
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end = SecondsSince(origin_);
    open_.pop_back();
  }

  double Duration(int index) const {
    if (index < 0) {
      return 0.0;
    }
    const Span& span = spans_[static_cast<size_t>(index)];
    return span.end - span.start;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out, "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"parent\": %d}%s\n",
                   i, span.name.c_str(), span.start, span.end, span.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name) : log_(log), index_(log.Open(name)) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Closes the span (once) and returns its duration; 0 on a disabled log.
  double End() {
    if (open_) {
      log_.Close(index_);
      open_ = false;
    }
    return log_.Duration(index_);
  }

 private:
  SpanLog& log_;
  int index_;
  bool open_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
