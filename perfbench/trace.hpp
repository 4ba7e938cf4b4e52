// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public layers; nothing inside src/ is instrumented. They stay
// in memory while the run measures and are written once, at exit, as Chrome
// trace-event JSON (load the file in chrome://tracing or Perfetto). Each span
// has a name, a start, an end, a parent (the span open when it began) and the
// id of the scenario it belongs to, so every span of one scenario shares an
// identifier.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into spans(), -1 for a root
  std::int64_t scenario = -1; ///< shared id of the scenario's spans
};

/// Single-threaded span recorder; a disabled tracer records nothing and its
/// scopes cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled). A scenario id of -1 inherits the parent's.
  int begin(std::string name, std::int64_t scenario = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.parent = open_.empty() ? -1 : open_.back();
    s.scenario = scenario >= 0 || s.parent < 0
                     ? scenario
                     : spans_[static_cast<std::size_t>(s.parent)].scenario;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  /// RAII span. Spans nest strictly, so scopes must close in reverse order.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::int64_t scenario = -1)
        : tracer_(t), idx_(t.begin(std::move(name), scenario)) {}
    ~Scope() { tracer_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int idx_;
  };

  /// Writes every span as a Chrome "complete" event (microsecond units),
  /// plus `meta` as the trace's otherData. Returns false on an I/O error.
  bool write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
    for (std::size_t i = 0; i < meta.size(); ++i) {
      out << (i ? "," : "") << '"' << escaped(meta[i].first) << "\":\""
          << escaped(meta[i].second) << '"';
    }
    out << "},\"traceEvents\":[" << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << escaped(s.name)
          << "\",\"cat\":\"" << escaped(layer_of(s.name))
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"scenario\":" << s.scenario << "}}";
    }
    out << "\n]}\n";
    out.close();
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// "api.make_native" -> "api": the layer prefix is the trace category.
  [[nodiscard]] static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  [[nodiscard]] static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
