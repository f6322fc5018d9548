// In-memory spans for the traced replay, exported as Chrome trace-event JSON.
//
// A Span times one call into a library layer. Spans opened on one thread
// nest: the innermost open span is the parent of the next one. Calls too
// frequent to record one by one (per-node adjacency reads) are timed and
// folded into the enclosing span instead, so self time still excludes them.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::string name;
  std::uint32_t lane = 0;    ///< worker (or thread role) shown as the trace's tid
  double start_us = 0.0;
  double end_us = 0.0;
  double folded_us = 0.0;    ///< time of nested calls timed without spans of their own

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  /// Completed spans, in the order they were opened.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  friend class Span;
  using Clock = std::chrono::steady_clock;

  void record(SpanRecord span);

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;      // guarded by mutex_
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint32_t lane);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Adds `us` of nested, span-less work to the innermost span open on this
  /// thread (no-op when none is open).
  static void fold(double us);

 private:
  Tracer* tracer_;
  SpanRecord record_;
  Span* outer_ = nullptr;
};

/// Self time of each span: its duration minus the part of it that child
/// spans cover (overlapping children counted once) and minus folded time.
[[nodiscard]] std::vector<double> self_times_us(std::span<const SpanRecord> spans);

/// Sum of durations (seconds) of the spans called `name`.
[[nodiscard]] double busy_s(std::span<const SpanRecord> spans, const std::string& name);

/// Sum of self times (seconds) of the spans called `name`.
[[nodiscard]] double self_s(std::span<const SpanRecord> spans, const std::string& name);

/// Number of spans called `name`.
[[nodiscard]] std::size_t count(std::span<const SpanRecord> spans, const std::string& name);

/// Writes the spans as Chrome trace-event JSON (complete events), which
/// Perfetto and chrome://tracing open offline.
void write_chrome_trace(std::ostream& out, std::span<const SpanRecord> spans);

}  // namespace perfbench
