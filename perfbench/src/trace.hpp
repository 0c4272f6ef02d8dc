#pragma once

/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// A span is one call into a layer: its name ("<module>.<call>"), start and
/// end (seconds on the steady clock, relative to the tracer's origin) and
/// the span that was open when it began (its parent).  Spans are appended
/// to a vector while the run executes and written out once at the end, so
/// recording costs two clock reads and one push_back.  A layer's self time
/// is its span's duration minus the part its child spans cover.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string: recording never allocates
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// RAII span; a null tracer records nothing.
  class Span {
   public:
    Span(Tracer* tracer, const char* name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Per-root breakdown: for every root span (one MD step, one sweep
  /// probe), the summed self and total durations of each span name in its
  /// subtree, in seconds.
  struct RootSummary {
    double duration = 0.0;
    std::map<std::string, double> self;
    std::map<std::string, double> total;
  };
  [[nodiscard]] std::vector<RootSummary> summarize() const;

  /// Write every span as JSON ({"spans": [{name, start, end, parent}]}).
  void write_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  int open(const char* name);
  void close(int id);
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
