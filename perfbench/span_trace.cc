#include "span_trace.h"

#include <algorithm>
#include <iomanip>
#include <unordered_map>
#include <utility>

namespace perfbench {

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  // Ids are unique across threads: the thread number fills the high bits.
  span.id = (static_cast<uint64_t>(tracer_->thread_) + 1) << 48 |
            tracer_->next_id_++;
  span.thread = tracer_->thread_;
  if (tracer_->open_.empty()) {
    span.op = span.id;
  } else {
    span.parent = tracer_->open_.back().id;
    span.op = tracer_->open_.back().op;
  }
  span.start_ns = NowNs();
  tracer_->open_.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  Span span = tracer_->open_.back();
  tracer_->open_.pop_back();
  span.end_ns = NowNs();
  tracer_->spans_.push_back(span);
}

std::map<std::string, LayerTotals> SummarizeSpans(
    const std::vector<const Tracer*>& tracers) {
  // Child intervals per parent id, to subtract the covered part.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      if (span.parent != 0) {
        children[span.parent].emplace_back(span.start_ns, span.end_ns);
      }
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      LayerTotals& layer = totals[span.name];
      const int64_t duration = span.end_ns - span.start_ns;
      ++layer.count;
      layer.busy_ns += duration;
      int64_t covered = 0;
      auto it = children.find(span.id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>>& parts = it->second;
        std::sort(parts.begin(), parts.end());
        int64_t reach = span.start_ns;
        for (const auto& [start, end] : parts) {
          const int64_t from = std::max(start, reach);
          const int64_t to = std::min(end, span.end_ns);
          if (to > from) covered += to - from;
          reach = std::max(reach, to);
        }
      }
      layer.self_ns += duration - covered;
    }
  }
  return totals;
}

void WriteChromeTrace(const std::vector<const Tracer*>& tracers,
                      std::ostream& out) {
  int64_t origin = 0;
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      if (first || span.start_ns < origin) origin = span.start_ns;
      first = false;
    }
  }
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
  first = true;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << span.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
          << ", \"ts\": " << static_cast<double>(span.start_ns - origin) / 1e3
          << ", \"dur\": "
          << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ", \"args\": {\"id\": " << span.id << ", \"parent\": "
          << span.parent << ", \"op\": " << span.op << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
