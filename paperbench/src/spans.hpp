// spans.hpp — in-memory span log of the traced run.
//
// One span per call into a layer: its name, start and end (steady clock,
// seconds since the log was created), the span that was open when it began,
// and the job it belongs to.  Spans stay in memory until write_jsonl() at
// the end of the run, so recording costs two clock reads and a push_back.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace paperbench {

struct Span {
  const char* name;  // static storage
  std::uint32_t job;
  std::uint32_t id;
  std::uint32_t parent;  // kNoParent for a job's root span
  double start, end;
};

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// Spans opened from now on belong to job `id`.
  void set_job(std::uint32_t id) { job_ = id; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the spans called `name` (none of them nest).
  double total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (name == sp.name) s += sp.end - sp.start;
    return s;
  }
  std::uint64_t count(const std::string& name) const {
    std::uint64_t n = 0;
    for (const Span& sp : spans_) n += name == sp.name;
    return n;
  }

  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& sp : spans_)
      std::fprintf(f,
                   "{\"job\":%u,\"id\":%u,\"parent\":%lld,\"name\":\"%s\","
                   "\"start\":%.9f,\"end\":%.9f}\n",
                   sp.job, sp.id,
                   sp.parent == kNoParent ? -1LL : static_cast<long long>(sp.parent),
                   sp.name, sp.start, sp.end);
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
        .count();
  }
  std::size_t open(const char* name) {
    std::uint32_t parent = open_.empty() ? kNoParent : spans_[open_.back()].id;
    spans_.push_back({name, job_, static_cast<std::uint32_t>(spans_.size()),
                      parent, now(), 0.0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end = now();
    open_.pop_back();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::uint32_t job_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace paperbench
