#include "perfbench/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <set>

#include "pbitree/simd.h"
#include "storage/heap_file.h"

namespace perfbench {

using namespace pbitree;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"p50_ms", "ms"},
    {"p99_ms", "ms"},         {"ops_per_s", "1/s"},
    {"success_rate", "ratio"}, {"peak_rss_mb", "MiB"},
    {"space_amp", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.ping_ms", "ms"},
    {"serve.first_batch_ms", "ms"},
    {"serve.stream_ms", "ms"},
    {"serve.tail_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_lookups", "count"},
    {"serve.rejected", "count"},
    {"serve.update_p50_ms", "ms"},
    {"serve.update_p99_ms", "ms"},
    {"framework.prep_ms", "ms"},
    {"join.inljn_ms", "ms"},
    {"join.stacktree_ms", "ms"},
    {"join.adb_ms", "ms"},
    {"join.mpmgjn_ms", "ms"},
    {"join.shcj_ms", "ms"},
    {"join.mhcj_ms", "ms"},
    {"join.mhcj_rollup_ms", "ms"},
    {"join.vpj_ms", "ms"},
    {"join.false_hits", "count"},
    {"join.partitions", "count"},
    {"join.replicated_nodes", "count"},
    {"join.partition_ms", "ms"},
    {"join.build_ms", "ms"},
    {"join.probe_ms", "ms"},
    {"join.merge_ms", "ms"},
    {"join.flush_ms", "ms"},
    {"join.replay_ms", "ms"},
    {"sort.runs", "count"},
    {"sort.merge_passes", "count"},
    {"sort.ms", "ms"},
    {"index.probes", "count"},
    {"index.build_ms", "ms"},
    {"storage.page_reads", "count"},
    {"storage.page_writes", "count"},
    {"storage.evictions", "count"},
    {"storage.buf_hit_rate", "ratio"},
    {"storage.io_wait_ms", "ms"},
    {"storage.latch_wait_ms", "ms"},
    {"storage.scan_ns_per_page", "ns"},
    {"storage.mutate_ms", "ms"},
    {"storage.commit_ms", "ms"},
    {"storage.commit_page_writes", "count"},
    {"storage.db_bytes", "B"},
    {"pbitree.ancestor_ns", "ns"},
    {"pbitree.filter_descendants_ns", "ns"},
    {"exec.pool_tasks", "count"},
    {"exec.help_runs", "count"},
    {"exec.speedup", "ratio"},
    {"obs.trace_overhead", "ratio"},
};

const MetricDef* FindDef(const std::string& name) {
  for (const MetricDef& d : kEndToEnd) {
    if (name == d.name) return &d;
  }
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return &d;
  }
  Die("metric '" + name + "' is not in the benchmark's lists");
}

double PerOp(double total, uint64_t ops) {
  return ops > 0 ? total / static_cast<double>(ops) : 0.0;
}

}  // namespace

Report NewReport(const Args& args) {
  Report r;
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) r.Metric(d.name, 0.0, d.unit);
  } else {
    for (const MetricDef& d : kEndToEnd) r.Metric(d.name, 0.0, d.unit);
  }
  return r;
}

void Set(Report* r, const std::string& name, double value) {
  r->Metric(name, value, FindDef(name)->unit);
}

void SetQuantile(Report* r, const std::string& name, const Samples& s, double q) {
  r->Quantile(name, s, q, FindDef(name)->unit);
}

void AddRunFacts(Report* r, const Args& args, const DbInfo& info,
                 uint64_t db_bytes) {
  r->FactStr("workload", args.workload);
  r->FactNum("seed", static_cast<double>(args.seed));
  r->FactNum("seconds", args.seconds);
  r->FactStr("mode", args.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  r->FactNum("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  r->Fact("avx2_available", simd::Avx2Available() ? "true" : "false");
  r->Fact("simd_enabled", simd::Enabled() ? "true" : "false");
  r->FactStr("build_type", PERFBENCH_BUILD_TYPE);
  r->FactStr("source", args.source_id);
  r->FactNum("xmark_scale_factor", kScaleFactor);
  r->FactNum("db_elements", static_cast<double>(info.elements));
  r->FactNum("db_live_records", static_cast<double>(info.live_records));
  r->FactNum("db_pbitree_height", info.height);
  r->FactNum("db_bytes", static_cast<double>(db_bytes));
}

void AddObsPerOp(Report* r, const obs::MetricsSnapshot& s, uint64_t ops) {
  using obs::Counter;
  using obs::Latency;
  using obs::Phase;
  auto c = [&](Counter k) { return PerOp(static_cast<double>(s.counter(k)), ops); };
  auto ph = [&](Phase p) {
    return PerOp(static_cast<double>(s.phase(p).total_nanos) / 1e6, ops);
  };
  auto lat = [&](Latency l) {
    return PerOp(
        static_cast<double>(s.latencies[static_cast<size_t>(l)].total_nanos) / 1e6,
        ops);
  };
  Set(r, "storage.page_reads", c(Counter::kPageReads));
  Set(r, "storage.page_writes", c(Counter::kPageWrites));
  Set(r, "storage.evictions", c(Counter::kBufEvictions));
  const uint64_t fetches = s.counter(Counter::kBufFetches);
  Set(r, "storage.buf_hit_rate",
      fetches > 0 ? static_cast<double>(s.counter(Counter::kBufHits)) / fetches : 0.0);
  Set(r, "storage.io_wait_ms", lat(Latency::kIoWait));
  Set(r, "storage.latch_wait_ms", lat(Latency::kLatchWait));
  Set(r, "sort.runs", c(Counter::kSortRuns));
  Set(r, "sort.merge_passes", c(Counter::kSortMergePasses));
  Set(r, "sort.ms", ph(Phase::kSort));
  Set(r, "join.false_hits", c(Counter::kJoinFalseHits));
  Set(r, "join.partitions", c(Counter::kJoinPartitions));
  Set(r, "join.replicated_nodes", c(Counter::kJoinReplicatedNodes));
  Set(r, "index.probes", c(Counter::kJoinIndexProbes));
  Set(r, "join.partition_ms", ph(Phase::kPartition));
  Set(r, "join.build_ms", ph(Phase::kBuild));
  Set(r, "join.probe_ms", ph(Phase::kProbe));
  Set(r, "join.merge_ms", ph(Phase::kMerge));
  Set(r, "join.flush_ms", ph(Phase::kFlush));
  Set(r, "join.replay_ms", ph(Phase::kReplay));
  Set(r, "exec.pool_tasks", c(Counter::kPoolTasks));
  Set(r, "exec.help_runs", c(Counter::kPoolHelpRuns));
}

std::vector<std::string> InputTags(const std::vector<const Query*>& queries) {
  std::set<std::string> tags;
  for (const Query* q : queries) {
    tags.insert(q->a_tag);
    tags.insert(q->d_tag);
  }
  return {tags.begin(), tags.end()};
}

std::vector<ElementRecord> ReadRecords(OpenDatabase* db, const std::string& tag) {
  std::vector<ElementRecord> records;
  HeapFile::Scanner scan(db->bm.get(), db->Set(tag).file);
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    records.insert(records.end(), batch.begin(), batch.end());
  }
  if (!scan.status().ok()) Die("scan " + tag, scan.status());
  return records;
}

namespace {

std::vector<Code> ReadCodes(OpenDatabase* db, const std::string& tag) {
  std::vector<Code> codes;
  for (const ElementRecord& rec : ReadRecords(db, tag)) codes.push_back(rec.code);
  return codes;
}

/// Repeats `body` (which processes `per_call` elements) until at least
/// 50 ms have passed; returns ns per element.
template <typename Body>
double NsPerElement(Tracer* tracer, const char* span, double per_call, Body body) {
  Span s(tracer, span, 0);
  uint64_t calls = 0;
  const int64_t start = NowNs();
  int64_t now = start;
  while (now - start < 50'000'000) {
    body();
    ++calls;
    now = NowNs();
  }
  return static_cast<double>(now - start) / (static_cast<double>(calls) * per_call);
}

}  // namespace

void AddStorageAndKernelProbes(Report* r, OpenDatabase* db,
                               const std::vector<std::string>& tags,
                               Tracer* tracer) {
  // Cold full scans: pread, checksum and decode per page.
  uint64_t pages = 0;
  int64_t ns = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& tag : tags) {
      if (Status st = db->bm->PurgeAll(); !st.ok()) Die("purge", st);
      obs::MetricRegistry reg;
      obs::MetricScope scope(&reg);
      Span span(tracer, "storage.HeapFile::Scanner", 0);
      const int64_t start = NowNs();
      HeapFile::Scanner scan(db->bm.get(), db->Set(tag).file);
      uint64_t records = 0;
      for (auto batch = scan.NextElementBatch(); !batch.empty();
           batch = scan.NextElementBatch()) {
        records += batch.size();
      }
      ns += NowNs() - start;
      if (!scan.status().ok()) Die("scan " + tag, scan.status());
      if (records != db->Set(tag).num_records()) Die("short scan of " + tag);
      pages += reg.Snapshot().counter(obs::Counter::kPageReads);
    }
  }
  Set(r, "storage.scan_ns_per_page", pages > 0 ? static_cast<double>(ns) / pages : 0.0);

  // Ancestor-test kernels over B9's inputs (description // keyword), the
  // deepest recursive join: stacks of 32 ancestor codes against each
  // descendant, and one ancestor against the whole descendant list.
  const std::vector<Code> ancs = ReadCodes(db, QueryByName("B9").a_tag);
  const std::vector<Code> descs = ReadCodes(db, QueryByName("B9").d_tag);
  constexpr size_t kStack = 32;
  if (ancs.size() < kStack || descs.empty()) Die("B9 inputs too small for probes");
  uint64_t sink = 0;
  const double mask_ns = NsPerElement(
      tracer, "pbitree.simd::AncestorMask64", static_cast<double>(descs.size()), [&] {
        for (size_t i = 0; i < descs.size(); ++i) {
          const size_t base = i % (ancs.size() - kStack + 1);
          sink += simd::AncestorMask64(ancs.data() + base, kStack, descs[i]);
        }
      });
  std::vector<Code> out(descs.size());
  const size_t probe_ancs = std::min<size_t>(ancs.size(), 64);
  const double filter_ns = NsPerElement(
      tracer, "pbitree.simd::FilterDescendants",
      static_cast<double>(descs.size() * probe_ancs), [&] {
        for (size_t i = 0; i < probe_ancs; ++i) {
          sink += simd::FilterDescendants(ancs[i], descs.data(), 1, descs.size(),
                                          out.data());
        }
      });
  Set(r, "pbitree.ancestor_ns", mask_ns);
  Set(r, "pbitree.filter_descendants_ns", filter_ns);
  // Printed so the kernel calls cannot be optimized away.
  r->FactNum("kernel_probe_checksum", static_cast<double>(sink % 1000003));
}

void FinishTrace(Report* r, const Tracer& tracer, const Args& args) {
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (Status st = tracer.WriteJsonLines(path); !st.ok()) Die("write spans", st);
  std::string spans = "{";
  bool first = true;
  for (const auto& [name, t] : tracer.Totals()) {
    spans += std::string(first ? "" : ", ") + JsonString(name) +
             ": {\"count\": " + std::to_string(t.count) +
             ", \"total_ms\": " + JsonNumber(t.total_ms) +
             ", \"self_ms\": " + JsonNumber(t.self_ms) + "}";
    first = false;
  }
  r->Fact("spans", spans + "}");
  r->FactStr("span_file", path);
  r->FactNum("spans_dropped", static_cast<double>(tracer.dropped()));
}

void MaybePerturb(const Args& args, std::map<std::string, Answer>* ref) {
  if (!args.perturb_reference) return;
  for (auto& [name, answer] : *ref) ++answer.pairs;
}

}  // namespace perfbench
