// join_cold: one caller making direct library joins (RunJoin) on the
// file-backed XMark database, cold buffer pool, no simulated I/O.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "perfbench/workloads.h"

namespace perfbench {

using namespace pbitree;

namespace {

struct Combo {
  const Query* query;
  Algorithm alg;
};

/// Samples and counters of one timed phase.
struct Phase {
  Samples latency_ms;
  std::map<Algorithm, Samples> per_alg_ms;
  obs::MetricsSnapshot obs;
  double prep_ms = 0.0;
  double index_build_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
};

struct Setup {
  std::unique_ptr<OpenDatabase> db;
  std::string path;
  DbInfo info;
  std::map<std::string, Answer> reference;
  Samples setup_s;
};

/// Generate + encode + open, kSetupRepeats times; the last database
/// stays open for the run.
Setup DoSetup(const Args& args) {
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string path = args.tmp_dir + "/join-" + std::to_string(i) + ".db";
    const int64_t start = NowNs();
    DbInfo info = BuildDatabase(path, args.seed);
    std::unique_ptr<OpenDatabase> db = Open(path, kJoinPoolPages);
    s.setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    if (i == 0) {
      s.reference = ComputeReference(db.get());
      MaybePerturb(args, &s.reference);
    }
    if (s.db != nullptr) {
      s.db.reset();
      std::remove(s.path.c_str());
    }
    s.db = std::move(db);
    s.path = path;
    s.info = info;
  }
  return s;
}

RunOptions JoinOptions(size_t threads) {
  RunOptions opts;
  opts.work_pages = kJoinPoolPages;
  opts.cold_cache = true;
  opts.threads = threads;
  return opts;
}

/// Runs one join, checks its answer and returns its latency in ms
/// (negative when the join failed).
double TimedJoin(OpenDatabase* db, const Combo& c, size_t threads,
                 const std::map<std::string, Answer>& ref, Tracer* tracer,
                 uint64_t op, Phase* phase) {
  AnswerSink sink(tracer);
  const int64_t start = NowNs();
  StatusOr<RunResult> run = [&] {
    Span span(tracer, "framework.RunJoin", op);
    return RunJoin(c.alg, db->bm.get(), db->Set(c.query->a_tag),
                   db->Set(c.query->d_tag), &sink, JoinOptions(threads));
  }();
  const double ms = static_cast<double>(NowNs() - start) / 1e6;
  ++phase->attempted;
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s %s failed: %s\n", c.query->name.c_str(),
                 AlgorithmName(c.alg), run.status().ToString().c_str());
    ++phase->failed;
    return -1.0;
  }
  const Answer& want = ref.at(c.query->name);
  if (!(sink.answer() == want)) {
    FailCorrectness(c.query->name + " " + AlgorithmName(c.alg) + " threads=" +
                    std::to_string(threads) + ": got " + ToString(sink.answer()) +
                    ", reference " + ToString(want));
  }
  Accumulate(&phase->obs, run->metrics);
  phase->prep_ms += (run->stats.sort_seconds + run->stats.index_build_seconds) * 1e3;
  phase->index_build_ms += run->stats.index_build_seconds * 1e3;
  return ms;
}

/// Cycles through every combo until `seconds` have passed; only whole
/// cycles run, so every combo is sampled equally often.
Phase RunPhase(OpenDatabase* db, const std::vector<Combo>& combos, size_t threads,
               double seconds, const std::map<std::string, Answer>& ref,
               Tracer* tracer) {
  Phase phase;
  uint64_t op = 0;
  const int64_t start = NowNs();
  do {
    for (const Combo& c : combos) {
      const double ms = TimedJoin(db, c, threads, ref, tracer, ++op, &phase);
      if (ms < 0) continue;
      phase.latency_ms.Add(ms);
      phase.per_alg_ms[c.alg].Add(ms);
    }
  } while (static_cast<double>(NowNs() - start) / 1e9 < seconds);
  phase.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return phase;
}

const char* PerAlgMetric(Algorithm alg) {
  switch (alg) {
    case Algorithm::kShcj: return "join.shcj_ms";
    case Algorithm::kMhcj: return "join.mhcj_ms";
    case Algorithm::kMhcjRollup: return "join.mhcj_rollup_ms";
    case Algorithm::kVpj: return "join.vpj_ms";
    case Algorithm::kInljn: return "join.inljn_ms";
    case Algorithm::kStackTree: return "join.stacktree_ms";
    case Algorithm::kMpmgjn: return "join.mpmgjn_ms";
    case Algorithm::kAdb: return "join.adb_ms";
  }
  return "join.shcj_ms";
}

/// The exec layer, measured beside the workload in the traced run: the
/// partitioned algorithms on the largest queries, each combo at
/// threads=1 and threads=N alternately. exec.speedup is
/// median(threads=1) / median(threads=N); the pool counters are per
/// threads=N join.
void MeasureExec(OpenDatabase* db, const std::map<std::string, Answer>& ref,
                 Report* r) {
  const size_t threads =
      std::clamp<size_t>(static_cast<size_t>(sysconf(_SC_NPROCESSORS_ONLN)), 1, 4);
  std::vector<Combo> combos;
  for (const char* name : {"B5", "B8", "B9", "B10"}) {
    for (Algorithm alg : {Algorithm::kShcj, Algorithm::kMhcj, Algorithm::kMhcjRollup,
                          Algorithm::kVpj}) {
      if (Applicable(alg, *db, QueryByName(name))) {
        combos.push_back(Combo{&QueryByName(name), alg});
      }
    }
  }
  Phase serial, parallel;
  for (int round = 0; round < 5; ++round) {
    for (const Combo& c : combos) {
      for (int k = 0; k < 2; ++k) {
        const bool one = (k == 0) == (round % 2 == 0);
        Phase* phase = one ? &serial : &parallel;
        const double ms = TimedJoin(db, c, one ? 1 : threads, ref, nullptr, 0, phase);
        if (ms >= 0) phase->latency_ms.Add(ms);
      }
    }
  }
  const double p = parallel.latency_ms.Quantile(0.5);
  Set(r, "exec.speedup", p > 0 ? serial.latency_ms.Quantile(0.5) / p : 0.0);
  const double joins = static_cast<double>(parallel.latency_ms.size());
  Set(r, "exec.pool_tasks",
      static_cast<double>(parallel.obs.counter(obs::Counter::kPoolTasks)) / joins);
  Set(r, "exec.help_runs",
      static_cast<double>(parallel.obs.counter(obs::Counter::kPoolHelpRuns)) / joins);
  r->FactNum("exec_threads", static_cast<double>(threads));
  r->FactNum("exec_threads1_p50_ms", serial.latency_ms.Quantile(0.5));
  r->FactNum("exec_threadsN_p50_ms", p);
  r->FactNum("exec_page_io_per_join_threads1",
             static_cast<double>(serial.obs.counter(obs::Counter::kPageReads) +
                                 serial.obs.counter(obs::Counter::kPageWrites)) /
                 static_cast<double>(serial.latency_ms.size()));
  r->FactNum("exec_page_io_per_join_threadsN",
             static_cast<double>(parallel.obs.counter(obs::Counter::kPageReads) +
                                 parallel.obs.counter(obs::Counter::kPageWrites)) /
                 joins);
}

}  // namespace

void RunJoinCold(const Args& args) {
  constexpr size_t threads = 1;
  std::vector<const Query*> queries;
  for (const Query& q : Queries()) queries.push_back(&q);
  Setup setup = DoSetup(args);
  OpenDatabase* db = setup.db.get();

  std::vector<Combo> combos;
  std::vector<std::string> skipped;
  for (const Query* q : queries) {
    for (const AlgorithmInfo& info : AllAlgorithms()) {
      const Algorithm alg = info.alg;
      if (Applicable(alg, *db, *q)) {
        combos.push_back(Combo{q, alg});
      } else {
        skipped.push_back(q->name + "/" + AlgorithmName(alg));
      }
    }
  }

  Report r = NewReport(args);
  Tracer tracer;
  Phase measured;
  if (!args.trace) {
    measured = RunPhase(db, combos, threads, args.seconds, setup.reference, nullptr);
  } else {
    // Half untraced, half traced: the p50 ratio is the tracing overhead.
    const Phase plain =
        RunPhase(db, combos, threads, args.seconds / 2, setup.reference, nullptr);
    measured = RunPhase(db, combos, threads, args.seconds / 2, setup.reference, &tracer);
    const double base = plain.latency_ms.Quantile(0.5);
    Set(&r, "obs.trace_overhead",
        base > 0 ? measured.latency_ms.Quantile(0.5) / base - 1.0 : 0.0);
    measured.attempted += plain.attempted;
    measured.failed += plain.failed;
  }

  const uint64_t joins = measured.latency_ms.size();
  const uint64_t db_bytes = FileBytes(setup.path);
  if (!args.trace) {
    SetQuantile(&r, "setup_s", setup.setup_s, 0.5);
    SetQuantile(&r, "p50_ms", measured.latency_ms, 0.5);
    SetQuantile(&r, "p99_ms", measured.latency_ms, 0.99);
    Set(&r, "ops_per_s", static_cast<double>(joins) / measured.elapsed_s);
    Set(&r, "success_rate",
        1.0 - static_cast<double>(measured.failed) / measured.attempted);
    Set(&r, "peak_rss_mb", PeakRssMb(getpid()));
    Set(&r, "space_amp",
        static_cast<double>(db_bytes) / (static_cast<double>(db->LiveRecords()) * 16));
  } else {
    for (const auto& [alg, samples] : measured.per_alg_ms) {
      SetQuantile(&r, PerAlgMetric(alg), samples, 0.5);
    }
    AddObsPerOp(&r, measured.obs, joins);
    Set(&r, "framework.prep_ms", measured.prep_ms / static_cast<double>(joins));
    Set(&r, "index.build_ms", measured.index_build_ms / static_cast<double>(joins));
    Set(&r, "storage.db_bytes", static_cast<double>(db_bytes));
    MeasureExec(db, setup.reference, &r);
    AddStorageAndKernelProbes(&r, db, InputTags(queries), &tracer);
    FinishTrace(&r, tracer, args);
  }

  AddRunFacts(&r, args, setup.info, db_bytes);
  r.FactNum("error_rate",
            static_cast<double>(measured.failed) / measured.attempted);
  r.FactNum("threads", static_cast<double>(threads));
  r.FactNum("buffer_pool_pages", static_cast<double>(kJoinPoolPages));
  r.FactNum("work_pages", static_cast<double>(kJoinPoolPages));
  r.FactNum("combos_per_cycle", static_cast<double>(combos.size()));
  std::string skip_list;
  for (const std::string& s : skipped) skip_list += (skip_list.empty() ? "" : " ") + s;
  r.FactStr("skipped_inapplicable", skip_list);
  r.FactStr("fits_in_cache",
            "no: the buffer pool (" + std::to_string(kJoinPoolPages) +
                " pages) is smaller than the larger join inputs and every join "
                "starts cold; the OS page cache does hold the database file");
  r.Print(measured.attempted, measured.failed);
}

}  // namespace perfbench
