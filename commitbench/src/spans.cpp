#include "spans.hpp"

#include <cinttypes>
#include <cstdio>

namespace commitbench {

namespace {
double us_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}
}  // namespace

bool SpanLog::write_jsonl(const std::string& path, Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"start_us\":%.1f,\"end_us\":%.1f}\n",
                 s.name, s.id, s.parent, us_since(origin, s.start),
                 us_since(origin, s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace commitbench
