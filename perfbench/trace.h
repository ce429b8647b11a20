// Sample statistics and the benchmark's own span recorder.
//
// Spans are recorded by the benchmark around its calls into REACH's public
// API (Begin, Invoke, Execute, Commit, Drain) and around its own rule action
// bodies. They are kept in per-thread buffers in memory and written out as
// JSON lines when the run ends. Recording is off unless the run is traced.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

inline uint64_t NowNs() { return reach::obs::NowNanos(); }

/// Nearest-rank percentile (p in (0, 100]) of `v`; sorts `v` in place.
/// Returns 0 for an empty sample.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v->size()));
  return (*v)[std::clamp<size_t>(rank, 1, v->size()) - 1];
}

enum class SpanName : uint8_t {
  kRequest,  // one client transaction, Begin start to Commit end
  kBegin,
  kInvoke,
  kExecute,
  kCommit,
  kDrain,
  kAction,  // a rule action body run by the benchmark
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kBegin: return "Session::Begin";
    case SpanName::kInvoke: return "Session::Invoke";
    case SpanName::kExecute: return "QueryPm::Execute";
    case SpanName::kCommit: return "Session::Commit";
    case SpanName::kDrain: return "ReachDb::Drain";
    case SpanName::kAction: return "rule.action";
  }
  return "?";
}

struct Span {
  uint64_t request = 0;  // shared by every span of one request
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanName name = SpanName::kRequest;
};

/// Process-wide span store. Each thread appends to its own buffer; the
/// buffers are registered once under a mutex and read after the threads
/// that fill them have stopped.
class SpanLog {
 public:
  static SpanLog& Instance() {
    static SpanLog log;
    return log;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(SpanName name, uint64_t request, uint64_t start_ns,
              uint64_t end_ns) {
    if (!enabled()) return;
    std::vector<Span>* buf = Local();
    if (buf->size() >= kMaxPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf->push_back(Span{request, start_ns, end_ns, name});
  }

  /// Every recorded span. Call only once the recording threads are quiet.
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buf : buffers_) {
      all.insert(all.end(), buf->begin(), buf->end());
    }
    return all;
  }

  uint64_t dropped() const { return dropped_.load(); }

  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : Collect()) {
      std::fprintf(f,
                   "{\"request\":%llu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.request),
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr size_t kMaxPerThread = size_t{1} << 21;

  std::vector<Span>* Local() {
    thread_local std::vector<Span>* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<std::vector<Span>>();
      owned->reserve(1 << 14);
      buf = owned.get();
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(owned));
    }
    return buf;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Times one call and records it as a span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t request)
      : name_(name), request_(request), start_(NowNs()) {}
  ~ScopedSpan() {
    SpanLog::Instance().Record(name_, request_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanName name_;
  uint64_t request_;
  uint64_t start_;
};

}  // namespace perfbench
