// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer's public functions. Spans live in memory and are
// written out as Chrome trace-event JSON when the traced run ends. One
// thread records; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace cecbench {

class Trace {
 public:
  struct Span {
    std::string name;
    std::uint64_t job = 0;  ///< spans of one job share this id
    int parent = -1;        ///< index of the enclosing span, -1 at top
    double begin = 0.0;     ///< seconds since the trace started
    double end = 0.0;
  };

  /// Records one span for its lifetime; a null trace records nothing.
  class Scope {
   public:
    Scope(Trace* trace, std::string name, std::uint64_t job) : trace_(trace) {
      if (trace_ == nullptr) return;
      index_ = static_cast<int>(trace_->spans_.size());
      trace_->spans_.push_back(
          {std::move(name), job, trace_->open_, trace_->now(), 0.0});
      trace_->open_ = index_;
    }
    ~Scope() {
      if (trace_ == nullptr) return;
      Span& s = trace_->spans_[static_cast<std::size_t>(index_)];
      s.end = trace_->now();
      trace_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  std::size_t size() const { return spans_.size(); }

  /// Summed duration of the spans called `name` among spans [from, to).
  double total(const std::string& name, std::size_t from,
               std::size_t to) const {
    double sum = 0.0;
    for (std::size_t i = from; i < to && i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += spans_[i].end - spans_[i].begin;
    }
    return sum;
  }

  /// Writes every span as a Chrome trace-event "complete" event (one track
  /// per job), readable offline by Perfetto or chrome://tracing.
  bool writeChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.job
          << ",\"ts\":" << s.begin * 1e6 << ",\"dur\":"
          << (s.end - s.begin) * 1e6 << ",\"args\":{\"parent\":" << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace cecbench
