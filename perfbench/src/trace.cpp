#include "trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {
thread_local Span* innermost = nullptr;
}  // namespace

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

Span::Span(Tracer& tracer, const char* name, std::uint32_t lane) : tracer_(&tracer) {
  {
    const std::lock_guard<std::mutex> lock(tracer.mutex_);
    record_.id = tracer.next_id_++;
  }
  record_.parent = innermost != nullptr ? innermost->record_.id : 0;
  record_.name = name;
  record_.lane = lane;
  outer_ = innermost;
  innermost = this;
  record_.start_us = tracer.now_us();
}

Span::~Span() {
  record_.end_us = tracer_->now_us();
  innermost = outer_;
  tracer_->record(std::move(record_));
}

void Span::fold(double us) {
  if (innermost != nullptr) innermost->record_.folded_us += us;
}

std::vector<double> self_times_us(std::span<const SpanRecord> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    const auto parent = index.find(span.parent);
    if (span.parent == 0 || parent == index.end()) continue;
    const SpanRecord& p = spans[parent->second];
    const double start = std::max(span.start_us, p.start_us);
    const double end = std::min(span.end_us, p.end_us);
    if (end > start) children[parent->second].emplace_back(start, end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = spans[i].start_us;
    for (const auto& [start, end] : intervals) {
      if (end <= reach) continue;
      covered += end - std::max(start, reach);
      reach = end;
    }
    self[i] = std::max(0.0, spans[i].duration_us() - covered - spans[i].folded_us);
  }
  return self;
}

double busy_s(std::span<const SpanRecord> spans, const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name == name) total += span.duration_us();
  }
  return total * 1e-6;
}

double self_s(std::span<const SpanRecord> spans, const std::string& name) {
  const std::vector<double> self = self_times_us(spans);
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) total += self[i];
  }
  return total * 1e-6;
}

std::size_t count(std::span<const SpanRecord> spans, const std::string& name) {
  return static_cast<std::size_t>(std::count_if(
      spans.begin(), spans.end(), [&](const SpanRecord& span) { return span.name == name; }));
}

void write_chrome_trace(std::ostream& out, std::span<const SpanRecord> spans) {
  const std::vector<double> self = self_times_us(spans);
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.lane
        << ",\"ts\":" << span.start_us << ",\"dur\":" << span.duration_us()
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"self_us\":" << self[i] << ",\"folded_us\":" << span.folded_us << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
