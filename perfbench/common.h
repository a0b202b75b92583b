// Shared pieces of the measuring program: clocks, exact quantiles, the
// answer-checking sink, in-memory span tracing, the result report and
// process-wide failure handling.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/result_sink.h"
#include "obs/metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Failure handling. Every exit path kills and reaps the daemons the
// measuring process started (see daemon.h), so no process outlives a run.

/// Registers a daemon pid to be killed and reaped by Die/FailCorrectness.
void TrackChild(pid_t pid);
void UntrackChild(pid_t pid);

/// The benchmark itself could not run (set-up or I/O failure). Exit 2.
[[noreturn]] void Die(const std::string& what);
[[noreturn]] void Die(const std::string& what, const pbitree::Status& st);

/// An answer did not match its reference. Exit 3; no result is printed,
/// so a wrong answer can never be reported as a slow one.
[[noreturn]] void FailCorrectness(const std::string& what);

// ---------------------------------------------------------------------
// Exact quantiles over raw per-operation samples.

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Linear interpolation between closest ranks (q in [0, 1]); 0 when
  /// empty.
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> v_;
};

// ---------------------------------------------------------------------
// Join answers: pair count plus an order-independent hash, so any
// algorithm (and any stream split into batches) can be checked against
// one reference.

struct Answer {
  uint64_t pairs = 0;
  uint64_t hash = 0;
  friend bool operator==(const Answer&, const Answer&) = default;
};

std::string ToString(const Answer& a);

class Tracer;

/// Consumes a join's output, folding every pair into an Answer. Records
/// when the first batch arrived, when the last one was consumed and the
/// time spent consuming (the serve-layer first-batch / stream / tail
/// split); with a tracer attached each batch is a "bench.check" span.
class AnswerSink : public pbitree::ResultSink {
 public:
  explicit AnswerSink(Tracer* tracer = nullptr) : tracer_(tracer) {}

  pbitree::Status OnPair(pbitree::Code a, pbitree::Code d) override;
  pbitree::Status OnBatch(std::span<const pbitree::ResultPair> pairs) override;

  Answer answer() const { return answer_; }
  int64_t first_batch_ns() const { return first_batch_ns_; }
  int64_t last_batch_end_ns() const { return last_batch_end_ns_; }
  int64_t consume_ns() const { return consume_ns_; }

 private:
  void Fold(uint64_t a, uint64_t d);

  Tracer* tracer_;
  Answer answer_;
  int64_t first_batch_ns_ = 0;
  int64_t last_batch_end_ns_ = 0;
  int64_t consume_ns_ = 0;
};

// ---------------------------------------------------------------------
// Tracing: spans recorded in memory around the benchmark's calls into
// the library and the daemon, written out when the run ends. Each
// thread records into its own buffer; nothing is shared on the hot path.

class Tracer {
 public:
  struct SpanRecord {
    const char* name;  // string literal
    uint64_t op;       // operation id: spans of one request share it
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    // index in the same thread's buffer, -1 for roots
  };

  /// Spans kept per thread (about 40 MB); later spans are counted as
  /// dropped and left out of the totals.
  static constexpr size_t kMaxSpansPerThread = 1'000'000;
  /// Spans written to the span file, so traced runs stay small on disk;
  /// Totals() covers every kept span.
  static constexpr size_t kMaxSpansWritten = 10'000;

  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t index);

  struct NameTotals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time covered by child spans
  };
  /// Per span name, over every thread.
  std::map<std::string, NameTotals> Totals() const;

  /// Writes one JSON object per span to `path`, the first
  /// kMaxSpansWritten in thread order.
  pbitree::Status WriteJsonLines(const std::string& path) const;
  uint64_t dropped() const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;
    uint64_t dropped = 0;
  };
  Buffer* LocalBuffer();

  mutable std::mutex mu_;  // guards buffers_ (registration and reads)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, op) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// ---------------------------------------------------------------------
// Obs snapshots: the library's per-operation metrics, summed over runs.

void Accumulate(pbitree::obs::MetricsSnapshot* into,
                const pbitree::obs::MetricsSnapshot& add);

/// Reads `"<key>":<unsigned>` from the daemon's metrics JSON, where
/// `key` may be "outer.inner" for one level of nesting. Dies when the
/// key is missing (the metrics schema is stable by contract).
uint64_t JsonU64(const std::string& json, const std::string& key);

// ---------------------------------------------------------------------
// The report: metrics by name with their unit, plus a detail object of
// run facts and sample counts printed on the line before the result.

class Report {
 public:
  /// Sets a metric (replacing an earlier value of the same name).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a quantile metric and its sample count.
  void Quantile(const std::string& name, const Samples& s, double q,
                const std::string& unit);
  void Fact(const std::string& key, const std::string& json_value);
  void FactNum(const std::string& key, double v);
  void FactStr(const std::string& key, const std::string& v);

  /// Prints the detail line, then the result line, and flushes.
  void Print(uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::string>> metrics_;  // name -> JSON
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::pair<std::string, std::string>> samples_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 if unreadable.
double PeakRssMb(pid_t pid);

/// Size of `path` in bytes; dies if it cannot be read.
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
