#ifndef PROCSIM_PERFBENCH_SPAN_TRACE_H_
#define PROCSIM_PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span: a call into a layer, or the op that caused it.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root (an op span)
  uint64_t op = 0;      ///< id of the op span this span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// \brief Per-thread span recorder.  Spans stay in memory until the run
/// ends; one Tracer is owned by exactly one thread, so recording takes no
/// lock.  While disabled, opening a span costs one branch.
class Tracer {
 public:
  explicit Tracer(uint32_t thread) : thread_(thread) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;

  uint32_t thread_;
  bool enabled_ = false;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<Span> open_;  ///< stack of spans not yet closed
};

/// RAII span around one call.  The outermost open span on a thread is the
/// op span; every span nested inside it shares its op id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Count, busy time (sum of durations) and self time (durations minus the
/// part covered by child spans) of every span with one name.
struct LayerTotals {
  uint64_t count = 0;
  int64_t busy_ns = 0;
  int64_t self_ns = 0;
};

/// Aggregates the spans of all threads by name.
std::map<std::string, LayerTotals> SummarizeSpans(
    const std::vector<const Tracer*>& tracers);

/// Writes every span as Chrome trace JSON (loadable by Perfetto), with the
/// span, parent and op ids under "args".
void WriteChromeTrace(const std::vector<const Tracer*>& tracers,
                      std::ostream& out);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#endif  // PROCSIM_PERFBENCH_SPAN_TRACE_H_
