#include "perfbench/common.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string_view>

namespace perfbench {
namespace {

std::mutex children_mu;
std::set<pid_t>& Children() {
  static std::set<pid_t> children;
  return children;
}

void KillChildren() {
  std::lock_guard<std::mutex> lock(children_mu);
  for (pid_t pid : Children()) {
    kill(pid, SIGKILL);
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  Children().clear();
}

// splitmix64 finalizer: spreads a pair over all 64 bits before the
// commutative sum, so reordering pairs cannot change the hash but any
// changed pair almost surely does.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void TrackChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(children_mu);
  Children().insert(pid);
}

void UntrackChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(children_mu);
  Children().erase(pid);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  KillChildren();
  std::fflush(nullptr);
  std::_Exit(2);
}

void Die(const std::string& what, const pbitree::Status& st) {
  Die(what + ": " + st.ToString());
}

void FailCorrectness(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
  KillChildren();
  std::fflush(nullptr);
  std::_Exit(3);
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Mean() const {
  if (v_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : v_) sum += v;
  return sum / static_cast<double>(v_.size());
}

std::string ToString(const Answer& a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 " pairs, hash %016" PRIx64,
                a.pairs, a.hash);
  return buf;
}

void AnswerSink::Fold(uint64_t a, uint64_t d) {
  ++answer_.pairs;
  answer_.hash += Mix(a * 0x9E3779B97F4A7C15ULL ^ Mix(d));
}

pbitree::Status AnswerSink::OnPair(pbitree::Code a, pbitree::Code d) {
  ++count_;
  Fold(a, d);
  return pbitree::Status::OK();
}

pbitree::Status AnswerSink::OnBatch(std::span<const pbitree::ResultPair> pairs) {
  const int64_t start = NowNs();
  if (first_batch_ns_ == 0) first_batch_ns_ = start;
  {
    Span span(tracer_, "bench.check", 0);
    count_ += pairs.size();
    for (const pbitree::ResultPair& p : pairs) {
      Fold(p.ancestor_code, p.descendant_code);
    }
  }
  last_batch_end_ns_ = NowNs();
  consume_ns_ += last_batch_end_ns_ - start;
  return pbitree::Status::OK();
}

Tracer::Buffer* Tracer::LocalBuffer() {
  // One buffer per (thread, tracer); a tracer lives for the whole run,
  // so the cached pointer never dangles while the tracer is in use.
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    owner = this;
  }
  return buffer;
}

int32_t Tracer::Begin(const char* name, uint64_t op) {
  Buffer* b = LocalBuffer();
  if (b->spans.size() >= kMaxSpansPerThread) {
    ++b->dropped;
    b->open.push_back(-1);
    return -1;
  }
  int32_t p = -1;  // innermost open span that is recorded
  for (auto it = b->open.rbegin(); it != b->open.rend(); ++it) {
    if (*it >= 0) {
      p = *it;
      break;
    }
  }
  // Children inherit the op id of their enclosing span.
  if (op == 0 && p >= 0) op = b->spans[static_cast<size_t>(p)].op;
  b->spans.push_back(SpanRecord{name, op, NowNs(), 0, p});
  const auto index = static_cast<int32_t>(b->spans.size() - 1);
  b->open.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  Buffer* b = LocalBuffer();
  if (!b->open.empty()) b->open.pop_back();
  if (index >= 0) b->spans[static_cast<size_t>(index)].end_ns = NowNs();
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, NameTotals> out;
  for (const auto& b : buffers_) {
    std::vector<int64_t> child_ns(b->spans.size(), 0);
    for (const SpanRecord& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      NameTotals& t = out[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      ++t.count;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    }
  }
  return out;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

pbitree::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return pbitree::Status::IOError("cannot write " + path);
  size_t written = 0;
  for (size_t t = 0; t < buffers_.size() && written < kMaxSpansWritten; ++t) {
    for (const SpanRecord& s : buffers_[t]->spans) {
      if (written == kMaxSpansWritten) break;
      ++written;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"op\":%" PRIu64 ",\"thread\":%zu,"
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"parent\":%d}\n",
                   s.name, s.op, t, s.start_ns, s.end_ns, s.parent);
    }
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? pbitree::Status::OK() : pbitree::Status::IOError("close " + path);
}

void Accumulate(pbitree::obs::MetricsSnapshot* into,
                const pbitree::obs::MetricsSnapshot& add) {
  using namespace pbitree::obs;
  for (size_t i = 0; i < kNumCounters; ++i) into->counters[i] += add.counters[i];
  for (size_t i = 0; i < kNumGauges; ++i) {
    into->gauges[i] = std::max(into->gauges[i], add.gauges[i]);
  }
  for (size_t i = 0; i < kNumPhases; ++i) {
    into->phases[i].count += add.phases[i].count;
    into->phases[i].total_nanos += add.phases[i].total_nanos;
    into->phases[i].max_nanos =
        std::max(into->phases[i].max_nanos, add.phases[i].max_nanos);
  }
  for (size_t i = 0; i < kNumLatencies; ++i) {
    into->latencies[i].count += add.latencies[i].count;
    into->latencies[i].total_nanos += add.latencies[i].total_nanos;
  }
}

namespace {

std::string QuotedKey(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 3);
  out.push_back('"');
  out.append(name);
  out.append("\":");
  return out;
}

}  // namespace

uint64_t JsonU64(const std::string& json, const std::string& key) {
  size_t pos = 0;
  std::string_view leaf = key;
  if (const size_t dot = key.find('.'); dot != std::string::npos) {
    pos = json.find(QuotedKey(leaf.substr(0, dot)));
    if (pos == std::string::npos) Die("daemon metrics lack '" + key + "'");
    leaf = leaf.substr(dot + 1);
  }
  const std::string needle = QuotedKey(leaf);
  pos = json.find(needle, pos);
  if (pos == std::string::npos) Die("daemon metrics lack '" + key + "'");
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

void Upsert(std::vector<std::pair<std::string, std::string>>* kv,
            const std::string& key, std::string value) {
  for (auto& [k, v] : *kv) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  kv->emplace_back(key, std::move(value));
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Upsert(&metrics_, name,
         "{\"value\": " + JsonNumber(value) + ", \"unit\": " + JsonString(unit) +
             "}");
}

void Report::Quantile(const std::string& name, const Samples& s, double q,
                      const std::string& unit) {
  Metric(name, s.Quantile(q), unit);
  Upsert(&samples_, name, std::to_string(s.size()));
}

void Report::Fact(const std::string& key, const std::string& json_value) {
  Upsert(&facts_, key, json_value);
}

void Report::FactNum(const std::string& key, double v) {
  Fact(key, JsonNumber(v));
}

void Report::FactStr(const std::string& key, const std::string& v) {
  Fact(key, JsonString(v));
}

namespace {

std::string JoinObject(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

}  // namespace

void Report::Print(uint64_t attempted, uint64_t failed) const {
  std::printf("{\"detail\": {\"facts\": %s, \"quantile_samples\": %s}}\n",
              JoinObject(facts_).c_str(), JoinObject(samples_).c_str());
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              attempted, failed, JoinObject(metrics_).c_str());
  std::fflush(stdout);
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) Die("cannot stat " + path);
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace perfbench
