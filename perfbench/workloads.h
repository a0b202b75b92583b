// The benchmark workloads and the measurement helpers they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "perfbench/common.h"
#include "perfbench/dataset.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmp_dir;    // per-run scratch directory (removed by run.py)
  std::string trace_dir;  // where the traced run writes its spans
  std::string serverd;    // pbitree_serverd binary
  std::string source_id;  // git sha or source digest of the build
  /// Test hook: corrupts every reference answer, so the correctness gate
  /// must trip.
  bool perturb_reference = false;
};

/// Set-ups repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

void RunJoinCold(const Args& args);
void RunServeMixed(const Args& args);

// --- shared helpers (workloads.cc) -----------------------------------

/// Starts a report holding every metric of the run's kind: the
/// end-to-end list untraced, the per-layer list traced (layers a
/// workload does not exercise stay 0).
Report NewReport(const Args& args);

/// Sets a metric of the benchmark's lists; the unit comes from the list.
void Set(Report* r, const std::string& name, double value);
void SetQuantile(Report* r, const std::string& name, const Samples& s, double q);

/// Host and run facts every result carries.
void AddRunFacts(Report* r, const Args& args, const DbInfo& info,
                 uint64_t db_bytes);

/// Per-operation averages of the library's counters and phase timers.
void AddObsPerOp(Report* r, const pbitree::obs::MetricsSnapshot& s,
                 uint64_t ops);

/// storage.scan_ns_per_page and pbitree.* probes on the workload's data.
void AddStorageAndKernelProbes(Report* r, OpenDatabase* db,
                               const std::vector<std::string>& tags,
                               Tracer* tracer);

/// Writes the spans and adds their per-name totals (with self time) to
/// the report's facts.
void FinishTrace(Report* r, const Tracer& tracer, const Args& args);

/// Applies --perturb-reference.
void MaybePerturb(const Args& args, std::map<std::string, Answer>* ref);

/// Every record of a stored set, in scan order.
std::vector<pbitree::ElementRecord> ReadRecords(OpenDatabase* db,
                                                const std::string& tag);

/// Tags used by a set of queries (each once, sorted).
std::vector<std::string> InputTags(const std::vector<const Query*>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
