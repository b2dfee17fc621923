// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark, around its calls into each layer's public functions, and written
// once when the run ends.

#ifndef MVDB_PERFBENCH_TRACE_H_
#define MVDB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span [start, end) and returns its id. `name` must
  /// be a string literal. Spans of one request share `request`.
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, int64_t request) {
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  size_t size() const { return spans_.size(); }
  size_t bytes() const { return spans_.capacity() * sizeof(Span); }

  /// Writes one JSON object per line: id, name, start/end in microseconds
  /// since the run's origin, parent id (-1 for roots) and request id.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %lld, \"request\": %lld}\n",
                   i, s.name, MsBetween(origin_, s.start) * 1e3,
                   MsBetween(origin_, s.end) * 1e3,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int64_t parent;
    int64_t request;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // MVDB_PERFBENCH_TRACE_H_
