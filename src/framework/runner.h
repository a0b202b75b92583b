#ifndef PBITREE_FRAMEWORK_RUNNER_H_
#define PBITREE_FRAMEWORK_RUNNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "framework/planner.h"
#include "index/bptree.h"
#include "index/interval_index.h"
#include "join/element_set.h"
#include "join/join_context.h"
#include "join/mhcj_rollup.h"
#include "join/result_sink.h"
#include "join/segmented_set.h"
#include "join/vpj.h"
#include "obs/metrics.h"

namespace pbitree {

/// \brief Pre-existing access paths a run may use, grouped so call
/// sites pass one value instead of four loose pointers.
///
/// All pointers are borrowed (caller keeps ownership and must keep the
/// indexes alive for the duration of the run); null means "absent".
/// When an algorithm needs a path that is missing, the runner builds it
/// on the fly (the "naive" mode whose cost the experiments charge to
/// the region-based algorithms) and records the build time.
struct AccessPaths {
  const BPTree* d_code_index = nullptr;         // INLJN probe index on D
  const IntervalIndex* a_interval_index = nullptr;  // ADB+ interval index on A
  const BPTree* a_start_index = nullptr;        // Start-order index on A
  const BPTree* d_start_index = nullptr;        // Start-order index on D

  bool any() const {
    return d_code_index != nullptr || a_interval_index != nullptr ||
           a_start_index != nullptr || d_start_index != nullptr;
  }
};

/// \brief Configuration for one measured join execution.
struct RunOptions {
  /// The paper's b: buffer pages the algorithm may use for working
  /// storage. Must not exceed the buffer pool size.
  size_t work_pages = 500;

  /// Every run executes on the calling thread; this value does not
  /// change the plan, the I/O or the result order. It is validated
  /// (>= 1) and kept so existing callers that set it still compile.
  size_t threads = 1;

  /// Flush dirty pool pages after the run so their writes are charged
  /// to it — the measurement protocol of the benchmarks. The serve
  /// daemon disables this: FlushAll is a pool-wide phase operation that
  /// must not run while concurrent queries hold pins, and the daemon's
  /// durability point is the shutdown Sync barrier instead.
  bool flush_pool = true;

  /// Per-page simulated disk latency in milliseconds, added to the wall
  /// time to produce `simulated_seconds`. The paper's numbers are
  /// disk-bound on 2002 hardware; counted page I/O times a fixed
  /// latency reproduces that regime machine-independently. 0 disables.
  double simulated_io_ms = 0.0;

  /// Purge the buffer pool before the run (cold cache), reproducing the
  /// paper's raw-disk protocol where no algorithm benefits from pages a
  /// previous run left behind. Benchmarks enable this.
  bool cold_cache = false;

  /// Overrides the SIMD kernel toggle for the duration of this run
  /// (restored afterwards): false forces the scalar fallbacks, true
  /// enables the AVX2 paths where the host supports them. Unset
  /// inherits the process setting (PBITREE_SIMD, default on). Join
  /// output is byte-identical either way — this knob exists for A/B
  /// measurement and differential testing. The toggle is
  /// process-global.
  std::optional<bool> simd;

  /// Pre-existing access paths (see AccessPaths); missing ones are
  /// built on the fly and their build time recorded in the stats.
  AccessPaths paths;

  RollupHeightPolicy rollup_policy = RollupHeightPolicy::kMax;
  VpjOptions vpj;
};

/// \brief Measured outcome of one join execution.
struct RunResult {
  Algorithm algorithm = Algorithm::kShcj;
  JoinStats stats;
  uint64_t output_pairs = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  double wall_seconds = 0.0;
  /// wall_seconds + simulated_io_ms * (reads + writes) / 1000.
  double simulated_seconds = 0.0;
  /// Full per-operation metrics (counters, phase spans, wait
  /// histograms), attributed through the run's registry scope —
  /// everything this run caused and nothing anyone else did.
  /// `page_reads`/`page_writes` above are copies of its I/O counters.
  obs::MetricsSnapshot metrics;

  uint64_t TotalIO() const { return page_reads + page_writes; }
};

/// \brief Runs `alg` on (a, d), materialising any missing prerequisite
/// (sorted copy, index) on the fly and charging it to the measurement —
/// exactly the experimental protocol of Section 4.
///
/// I/O and event counts come from a per-operation obs::MetricRegistry
/// scope installed for the duration of the call, so concurrent traffic
/// on the same DiskManager is never billed to this run; wall time
/// includes preparation. Temporary files and indexes are dropped before
/// return. When the caller already has a registry scope installed (a
/// query pipeline accumulating several joins), the run bills into it
/// and `result.metrics` is the delta this run contributed.
StatusOr<RunResult> RunJoin(Algorithm alg, BufferManager* bm,
                          const ElementSet& a, const ElementSet& d,
                          ResultSink* sink, const RunOptions& options);

/// \brief The paper's MIN_RGN: runs INLJN, STACKTREE and ADB+ (each in
/// naive on-the-fly mode) and reports all three plus the best.
struct MinRgnResult {
  RunResult inljn;
  RunResult stacktree;
  RunResult adb;
  /// The minimum by simulated time — what Table 2(e) calls MIN_RGN.
  const RunResult& best() const;
};

StatusOr<MinRgnResult> RunMinRgn(BufferManager* bm, const ElementSet& a,
                               const ElementSet& d, const RunOptions& options);

/// Framework entry point: picks the algorithm per Table 1 from the sets'
/// metadata and the indexes present in `options`, then runs it.
StatusOr<RunResult> RunAuto(BufferManager* bm, const ElementSet& a,
                          const ElementSet& d, ResultSink* sink,
                          const RunOptions& options);

/// \brief Scatter-gather execution over a code-space-sharded pair: the
/// join runs on each matching segment pair in turn (segment k of A
/// against segment k of D — the VPJ lemma guarantees no cross-segment
/// pair exists), so the emitted sequence is the segment-order
/// concatenation of the per-segment results.
///
/// Both sets must come from the same SegmentStore (matching level and
/// per-segment pools). Ancestor replicas stay in the A input (the lemma
/// needs them) but are filtered from the D input of each segment, so
/// every result pair is produced exactly once. Level 0 is delegated to
/// RunJoin unchanged — byte-identical results and page-I/O to the
/// unsegmented layout.
StatusOr<RunResult> RunSegmentedJoin(Algorithm alg, const SegmentedSet& a,
                                     const SegmentedSet& d, ResultSink* sink,
                                     const RunOptions& options);

/// Table-1 selection over a segmented pair (segment pieces carry no
/// prebuilt indexes, so the choice reduces to sortedness and the
/// ancestor height profile), then RunSegmentedJoin.
StatusOr<RunResult> RunSegmentedAuto(const SegmentedSet& a,
                                     const SegmentedSet& d, ResultSink* sink,
                                     const RunOptions& options);

}  // namespace pbitree

#endif  // PBITREE_FRAMEWORK_RUNNER_H_
