#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace commitbench {

using Clock = std::chrono::steady_clock;

/// One timed interval at a layer boundary. Spans of one element share `id`
/// (the element id); `parent` names the span that caused this one (0 = none).
struct Span {
  const char* name = "";  ///< static string: a layer boundary name
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// In-memory span log, written out once when the run ends. Not
/// thread-safe: one thread at a time records into it (the observer thread
/// while it runs, the main thread after joining it). A disabled log records
/// nothing, so the untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           Clock::time_point start, Clock::time_point end) {
    if (enabled_) spans_.push_back(Span{name, id, parent, start, end});
  }
  std::size_t size() const { return spans_.size(); }

  /// One JSON object per line: name, id, parent, start_us, end_us (both
  /// relative to `origin`). False when the file cannot be written.
  bool write_jsonl(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace commitbench
