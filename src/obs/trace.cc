#include "obs/trace.h"

#include <algorithm>
#include <sstream>

namespace tslrw {

namespace {

/// Minimal JSON string escaping: quotes, backslashes, and control bytes.
/// Span names and event texts are ASCII by construction, so this is enough
/// for chrome://tracing / Perfetto to load the output.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int Tracer::Begin(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.name = std::string(name);
  span.start_ticks = NowTicks();
  span.end_ticks = span.start_ticks;
  span.parent = open_.empty() ? -1 : open_.back();
  int handle = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(handle);
  if (record_wall_time_) {
    wall_starts_.resize(spans_.size());
    wall_starts_[static_cast<size_t>(handle)] =
        std::chrono::steady_clock::now();
  }
  return handle;
}

void Tracer::End(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle < 0 || static_cast<size_t>(handle) >= spans_.size()) return;
  TraceSpan& span = spans_[static_cast<size_t>(handle)];
  if (!span.open) return;
  span.open = false;
  span.end_ticks = NowTicks();
  if (record_wall_time_ &&
      static_cast<size_t>(handle) < wall_starts_.size()) {
    auto elapsed = std::chrono::steady_clock::now() -
                   wall_starts_[static_cast<size_t>(handle)];
    span.wall_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }
  // Well-bracketed callers close the innermost span; tolerate (and repair)
  // out-of-order closes so a dump is always possible.
  auto it = std::find(open_.rbegin(), open_.rend(), handle);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::Annotate(int handle, std::string_view key,
                      std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle < 0 || static_cast<size_t>(handle) >= spans_.size()) return;
  spans_[static_cast<size_t>(handle)].annotations.push_back(
      {std::string(key), std::string(value)});
}

void Tracer::Annotate(int handle, std::string_view key, uint64_t value) {
  Annotate(handle, key, std::to_string(value));
}

void Tracer::Event(int handle, std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle < 0 || static_cast<size_t>(handle) >= spans_.size()) return;
  spans_[static_cast<size_t>(handle)].events.push_back(
      {NowTicks(), std::string(text)});
}

void Tracer::EventHere(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty()) return;
  spans_[static_cast<size_t>(open_.back())].events.push_back(
      {NowTicks(), std::string(text)});
}

Status Tracer::Validate() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    if (span.open) {
      return Status::Internal("trace: span '" + span.name + "' (#" +
                              std::to_string(i) + ") was never closed");
    }
    if (span.start_ticks > span.end_ticks) {
      return Status::Internal("trace: span '" + span.name +
                              "' ends before it starts");
    }
    if (span.parent >= 0) {
      if (static_cast<size_t>(span.parent) >= i) {
        return Status::Internal("trace: span '" + span.name +
                                "' has parent #" +
                                std::to_string(span.parent) +
                                " not preceding it");
      }
      const TraceSpan& parent = spans_[static_cast<size_t>(span.parent)];
      if (span.start_ticks < parent.start_ticks ||
          span.end_ticks > parent.end_ticks) {
        return Status::Internal("trace: span '" + span.name +
                                "' [" + std::to_string(span.start_ticks) +
                                ".." + std::to_string(span.end_ticks) +
                                "] overflows parent '" + parent.name + "' [" +
                                std::to_string(parent.start_ticks) + ".." +
                                std::to_string(parent.end_ticks) + "]");
      }
    }
    for (const TraceEvent& event : span.events) {
      if (event.at_ticks < span.start_ticks ||
          event.at_ticks > span.end_ticks) {
        return Status::Internal("trace: event '" + event.text +
                                "' at tick " +
                                std::to_string(event.at_ticks) +
                                " outside span '" + span.name + "'");
      }
    }
  }
  return Status::OK();
}

std::string Tracer::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "trace (" << spans_.size() << " spans)\n";
  // Depth by chasing parents; spans_ is in Begin order, which is a
  // pre-order traversal of the forest, so printing in index order with
  // indentation renders the tree.
  std::vector<int> depth(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    if (span.parent >= 0) {
      depth[i] = depth[static_cast<size_t>(span.parent)] + 1;
    }
    for (int d = 0; d < depth[i]; ++d) out << "  ";
    out << "- " << span.name << " [" << span.start_ticks << ".."
        << span.end_ticks << "]";
    if (span.open) out << " OPEN";
    if (record_wall_time_) out << " wall_us=" << span.wall_us;
    for (const TraceAnnotation& a : span.annotations) {
      out << " " << a.key << "=" << a.value;
    }
    out << "\n";
    for (const TraceEvent& event : span.events) {
      for (int d = 0; d < depth[i] + 1; ++d) out << "  ";
      out << "@" << event.at_ticks << " " << event.text << "\n";
    }
  }
  return out.str();
}

std::string Tracer::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans_) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << JsonEscape(span.name)
        << "\",\"cat\":\"tslrw\",\"ph\":\"X\",\"ts\":" << span.start_ticks
        << ",\"dur\":" << (span.end_ticks - span.start_ticks)
        << ",\"pid\":1,\"tid\":1";
    if (!span.annotations.empty() || (record_wall_time_ && span.wall_us != 0)) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const TraceAnnotation& a : span.annotations) {
        if (!first_arg) out << ",";
        first_arg = false;
        out << "\"" << JsonEscape(a.key) << "\":\"" << JsonEscape(a.value)
            << "\"";
      }
      if (record_wall_time_ && span.wall_us != 0) {
        if (!first_arg) out << ",";
        out << "\"wall_us\":\"" << span.wall_us << "\"";
      }
      out << "}";
    }
    out << "}";
    for (const TraceEvent& event : span.events) {
      out << ",\n{\"name\":\"" << JsonEscape(event.text)
          << "\",\"cat\":\"tslrw\",\"ph\":\"i\",\"ts\":" << event.at_ticks
          << ",\"pid\":1,\"tid\":1,\"s\":\"t\"}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

std::vector<TraceSpan> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace tslrw
