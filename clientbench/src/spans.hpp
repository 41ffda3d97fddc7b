#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file spans.hpp
/// In-memory span log for the traced run: name, start, end, the span that
/// caused it, and a request id shared by the spans of one request. Spans
/// are written out once, when the run ends.

namespace clientbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not part of a client request
  const char* name = "";      // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Writes one JSON object per line; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace clientbench
