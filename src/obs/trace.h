#ifndef TSLRW_OBS_TRACE_H_
#define TSLRW_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/virtual_clock.h"

namespace tslrw {

/// \brief A deterministic key=value fact attached to a span at End time or
/// along the way (counts, decisions, outcome codes).
struct TraceAnnotation {
  std::string key;
  std::string value;
};

/// \brief An instant event inside a span (a retry firing, a fault injected,
/// a failover decision), stamped on the virtual clock.
struct TraceEvent {
  uint64_t at_ticks = 0;
  std::string text;
};

/// \brief One node of the span tree.
///
/// Timestamps are virtual-clock ticks, so with a fixed seed the whole
/// struct — and therefore every dump derived from it — is deterministic.
/// `wall_us` is the one exception: it is only populated when the owning
/// Tracer was built with `record_wall_time = true` and is rendered only
/// then, keeping the default dumps byte-identical across runs.
struct TraceSpan {
  std::string name;
  uint64_t start_ticks = 0;
  uint64_t end_ticks = 0;
  bool open = true;
  /// Index of the enclosing span in Tracer::spans(), or -1 for a root.
  int parent = -1;
  std::vector<TraceAnnotation> annotations;
  std::vector<TraceEvent> events;
  /// Wall-clock duration in microseconds; 0 unless wall time was recorded.
  uint64_t wall_us = 0;
};

/// \brief Builds a span tree off a VirtualClock and renders it as text or
/// Chrome `trace_event` JSON (loadable in chrome://tracing and Perfetto).
///
/// Spans must be created on the deterministic control path — the request
/// thread, the rewriter's producing thread — never inside worker threads,
/// whose interleaving is scheduling-dependent. Parentage is the stack of
/// currently-open spans, so the tracer expects one nesting discipline
/// (Begin/End properly bracketed, innermost first), which Validate()
/// checks. All methods take an internal mutex: a tracer is safe to *read*
/// (dump, snapshot) while another thread drives it, but concurrent Begin
/// calls from several threads would race for parentage and defeat
/// determinism — instrumented code never does that.
class Tracer {
 public:
  /// \param clock the virtual clock spans are stamped on; must outlive the
  ///        tracer. May be null, in which case every timestamp is 0 and
  ///        only structure, annotations, and events carry information.
  /// \param record_wall_time also record wall-clock span durations
  ///        (`wall_us`), trading byte-identical dumps for real timings.
  explicit Tracer(const VirtualClock* clock, bool record_wall_time = false)
      : clock_(clock), record_wall_time_(record_wall_time) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span named \p name under the innermost open span (or as a
  /// root) and returns its handle (index into spans()).
  int Begin(std::string_view name);

  /// Closes the span \p handle, stamping its end tick.
  void End(int handle);

  /// Attaches key=value to span \p handle. Annotation order is the call
  /// order, which must itself be deterministic.
  void Annotate(int handle, std::string_view key, std::string_view value);
  void Annotate(int handle, std::string_view key, uint64_t value);

  /// Records an instant event inside span \p handle at the current tick.
  void Event(int handle, std::string_view text);
  /// Records an instant event inside the innermost open span; a root-level
  /// pseudo-span is *not* created — with no open span the event is dropped.
  /// This is the hook for decorators (FaultInjector) that see the world
  /// mid-call without holding a span handle.
  void EventHere(std::string_view text);

  /// Rebinds the clock spans are stamped on. The serving layer builds the
  /// VirtualClock per request *after* the caller built its tracer, so it
  /// attaches the request clock here before opening the request span. The
  /// caller must rebind (or pass null) before reusing the tracer once the
  /// clock is gone; recorded spans and dumps never touch the clock again.
  void set_clock(const VirtualClock* clock) {
    std::lock_guard<std::mutex> lock(mu_);
    clock_ = clock;
  }

  /// Well-formedness: every span closed, start <= end, parents precede and
  /// contain their children, events inside their span's interval.
  Status Validate() const;

  /// Indented tree, one span per line with `[start..end]` ticks and
  /// annotations, events as `@tick` lines. Deterministic unless wall time
  /// was recorded.
  std::string ToText() const;

  /// Chrome trace_event JSON: one "ph":"X" complete event per span
  /// (ts = start ticks, dur = span ticks) and one "ph":"i" instant event
  /// per TraceEvent, all on pid 1 / tid 1.
  std::string ToChromeJson() const;

  /// Copy of the span tree (indices are stable handles).
  std::vector<TraceSpan> spans() const;

  bool record_wall_time() const { return record_wall_time_; }
  size_t span_count() const;

 private:
  uint64_t NowTicks() const { return clock_ != nullptr ? clock_->now() : 0; }

  const VirtualClock* clock_;
  const bool record_wall_time_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  /// Indices of currently-open spans, outermost first.
  std::vector<int> open_;
  /// Wall-clock start per span, parallel to spans_; only filled when
  /// record_wall_time_ is set.
  std::vector<std::chrono::steady_clock::time_point> wall_starts_;
};

/// \brief RAII span that tolerates a null tracer, so instrumented code
/// reads the same with observability on or off:
///
///     ScopedSpan span(options.tracer, "rewrite.search");
///     span.Annotate("candidates", n);
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ != nullptr) handle_ = tracer_->Begin(name);
  }
  ~ScopedSpan() { EndNow(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Annotate(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr && handle_ >= 0) {
      tracer_->Annotate(handle_, key, value);
    }
  }
  void Annotate(std::string_view key, uint64_t value) {
    if (tracer_ != nullptr && handle_ >= 0) {
      tracer_->Annotate(handle_, key, value);
    }
  }
  void Event(std::string_view text) {
    if (tracer_ != nullptr && handle_ >= 0) tracer_->Event(handle_, text);
  }
  /// Closes the span early (idempotent; the destructor becomes a no-op).
  void EndNow() {
    if (tracer_ != nullptr && handle_ >= 0) tracer_->End(handle_);
    handle_ = -1;
  }

  int handle() const { return handle_; }

 private:
  Tracer* tracer_;
  int handle_ = -1;
};

}  // namespace tslrw

#endif  // TSLRW_OBS_TRACE_H_
