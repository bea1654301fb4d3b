// Spans recorded from the benchmark's side of each call into a pinsim
// layer, plus the set-up timer behind the setup_s metric.
//
// The untraced run only sums the time spent in set-up calls; a traced
// run also keeps every span in memory (name, parent, start, end) and
// writes them out when the benchmark ends. A layer's self time is its
// span's duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perf {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  std::int32_t parent;  // index into Recorder::spans(), -1 for a root
  std::int32_t pass;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Recorder {
 public:
  /// Start a pass: spans are kept only when `tracing`; the set-up sum
  /// restarts at zero either way.
  void begin_pass(int pass, bool tracing) {
    pass_ = pass;
    tracing_ = tracing;
    setup_ns_ = 0;
  }

  bool tracing() const { return tracing_; }
  std::int64_t setup_ns() const { return setup_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class Scope;

  bool tracing_ = false;
  std::int32_t pass_ = 0;
  std::int32_t current_ = -1;
  std::int64_t setup_ns_ = 0;
  std::vector<Span> spans_;
};

/// Times one call into a layer. `setup` marks the calls that build a
/// simulation before it runs; their time is summed even when tracing is
/// off. The destructor closes the span, so a call that throws still
/// leaves a well-formed trace.
class Scope {
 public:
  Scope(Recorder& recorder, const char* name, bool setup = false)
      : recorder_(recorder), setup_(setup) {
    if (!recorder_.tracing_ && !setup_) return;
    start_ns_ = now_ns();
    if (recorder_.tracing_) {
      index_ = static_cast<std::int32_t>(recorder_.spans_.size());
      recorder_.spans_.push_back(
          Span{name, recorder_.current_, recorder_.pass_, start_ns_, 0});
      recorder_.current_ = index_;
    }
  }

  ~Scope() {
    if (!recorder_.tracing_ && !setup_) return;
    const std::int64_t end = now_ns();
    if (setup_) recorder_.setup_ns_ += end - start_ns_;
    if (index_ >= 0) {
      Span& span = recorder_.spans_[static_cast<std::size_t>(index_)];
      span.end_ns = end;
      recorder_.current_ = span.parent;
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  bool setup_;
  std::int32_t index_ = -1;
  std::int64_t start_ns_ = 0;
};

}  // namespace perf
