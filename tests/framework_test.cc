// Tests for the query-processing framework: Table 1 algorithm
// selection, the naive on-the-fly wrappers (sort / index build charged
// to the run), prebuilt-index fast paths, MIN_RGN, and RunAuto.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "sort/external_sort.h"

namespace pbitree {
namespace {

TEST(PlannerTest, Table1Selection) {
  InputProperties none, sorted, indexed, both;
  sorted.sorted = true;
  indexed.indexed = true;
  both.sorted = both.indexed = true;

  EXPECT_EQ(ChooseAlgorithm(indexed, indexed, false), Algorithm::kInljn);
  EXPECT_EQ(ChooseAlgorithm(sorted, sorted, false), Algorithm::kStackTree);
  EXPECT_EQ(ChooseAlgorithm(both, both, false), Algorithm::kAdb);
  EXPECT_EQ(ChooseAlgorithm(none, none, false), Algorithm::kVpj);
  EXPECT_EQ(ChooseAlgorithm(none, none, true), Algorithm::kShcj);
  // Mixed properties degrade to the weaker row.
  EXPECT_EQ(ChooseAlgorithm(sorted, none, false), Algorithm::kVpj);
  EXPECT_EQ(ChooseAlgorithm(both, indexed, false), Algorithm::kInljn);
}

// Merged stats come from runs executed one after another (the segments
// of a segmented join), so phase time adds up; recursion depth stays a
// maximum.
TEST(JoinStatsMergeTest, PhaseTimersSumAcrossSerialRuns) {
  JoinStats a, b;
  a.output_pairs = 10;
  a.sort_seconds = 1.0;
  a.index_build_seconds = 0.5;
  a.recursion_depth = 3;
  b.output_pairs = 5;
  b.sort_seconds = 2.0;
  b.index_build_seconds = 0.25;
  b.recursion_depth = 7;

  a.Merge(b);
  EXPECT_EQ(a.output_pairs, 15u);
  EXPECT_DOUBLE_EQ(a.sort_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.index_build_seconds, 0.75);
  EXPECT_EQ(a.recursion_depth, 7u);
}

TEST(PlannerTest, AlgorithmNamesAreStable) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kVpj), "VPJ");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMhcjRollup), "MHCJ+Rollup");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAdb), "ADB+");
}

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 128);

    Random rng(3);
    PBiTreeSpec spec{14};
    std::unordered_set<Code> seen;
    std::vector<Code> a_codes, d_codes;
    while (a_codes.size() < 500) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (HeightOf(c) >= 2 && seen.insert(c).second) a_codes.push_back(c);
    }
    while (d_codes.size() < 1500) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (HeightOf(c) < 6 && seen.insert(c).second) d_codes.push_back(c);
    }
    a_ = Make(a_codes);
    d_ = Make(d_codes);

    expected_ = 0;
    for (Code x : a_codes) {
      for (Code y : d_codes) {
        if (IsAncestor(x, y)) ++expected_;
      }
    }
  }

  ElementSet Make(const std::vector<Code>& codes) {
    auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{14});
    EXPECT_TRUE(b.ok());
    for (Code c : codes) EXPECT_TRUE(b->AddCode(c).ok());
    return b->Build();
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
  ElementSet a_, d_;
  uint64_t expected_ = 0;
};

TEST_F(RunnerTest, NaiveStackTreeChargesTheSort) {
  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 16;
  auto run = RunJoin(Algorithm::kStackTree, bm_.get(), a_, d_, &sink, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output_pairs, expected_);
  EXPECT_GT(run->stats.sort_seconds, 0.0);
  EXPECT_GT(run->TotalIO(), 0u);
}

TEST_F(RunnerTest, PresortedStackTreeSkipsTheSort) {
  auto sorted_a = ExternalSort(bm_.get(), a_.file, 16, SortOrder::kStartOrder);
  auto sorted_d = ExternalSort(bm_.get(), d_.file, 16, SortOrder::kStartOrder);
  ASSERT_TRUE(sorted_a.ok() && sorted_d.ok());
  ElementSet sa = a_, sd = d_;
  sa.file = *sorted_a;
  sa.sorted_by_start = true;
  sd.file = *sorted_d;
  sd.sorted_by_start = true;

  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 16;
  auto run = RunJoin(Algorithm::kStackTree, bm_.get(), sa, sd, &sink, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->output_pairs, expected_);
  EXPECT_EQ(run->stats.sort_seconds, 0.0);
  // Sorted stack-tree reads each input once: I/O close to ||A|| + ||D||.
  EXPECT_LE(run->page_reads, sa.num_pages() + sd.num_pages() + 4);
}

TEST_F(RunnerTest, NaiveInljnChargesIndexBuild) {
  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 16;
  auto run = RunJoin(Algorithm::kInljn, bm_.get(), a_, d_, &sink, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->output_pairs, expected_);
  EXPECT_GT(run->stats.index_build_seconds, 0.0);
  EXPECT_GT(run->stats.index_probes, 0u);
}

TEST_F(RunnerTest, PrebuiltIndexInljnIsCheaper) {
  auto sorted_d = ExternalSort(bm_.get(), d_.file, 16, SortOrder::kCodeOrder);
  ASSERT_TRUE(sorted_d.ok());
  auto d_index = BPTree::BulkLoad(bm_.get(), *sorted_d, KeyKind::kCode);
  ASSERT_TRUE(d_index.ok());
  ASSERT_TRUE(sorted_d->Drop(bm_.get()).ok());

  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 16;
  opts.paths.d_code_index = &d_index.value();
  auto run = RunJoin(Algorithm::kInljn, bm_.get(), a_, d_, &sink, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->output_pairs, expected_);
  EXPECT_EQ(run->stats.index_build_seconds, 0.0);
}

TEST_F(RunnerTest, MinRgnRunsAllThreeAndAgrees) {
  RunOptions opts;
  opts.work_pages = 16;
  auto min_rgn = RunMinRgn(bm_.get(), a_, d_, opts);
  ASSERT_TRUE(min_rgn.ok()) << min_rgn.status().ToString();
  EXPECT_EQ(min_rgn->inljn.output_pairs, expected_);
  EXPECT_EQ(min_rgn->stacktree.output_pairs, expected_);
  EXPECT_EQ(min_rgn->adb.output_pairs, expected_);
  const RunResult& best = min_rgn->best();
  EXPECT_LE(best.simulated_seconds, min_rgn->inljn.simulated_seconds);
  EXPECT_LE(best.simulated_seconds, min_rgn->stacktree.simulated_seconds);
  EXPECT_LE(best.simulated_seconds, min_rgn->adb.simulated_seconds);
}

TEST_F(RunnerTest, RunAutoPicksPartitioningForRawInputs) {
  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 16;
  auto run = RunAuto(bm_.get(), a_, d_, &sink, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->algorithm, Algorithm::kVpj);  // multi-height ancestor set
  EXPECT_EQ(run->output_pairs, expected_);
}

TEST_F(RunnerTest, SimulatedTimeAddsIoLatency) {
  CountingSink s1, s2;
  RunOptions opts;
  opts.work_pages = 16;
  auto plain = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a_, d_, &s1, opts);
  ASSERT_TRUE(plain.ok());
  opts.simulated_io_ms = 1.0;
  auto simulated = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a_, d_, &s2, opts);
  ASSERT_TRUE(simulated.ok());
  EXPECT_GT(simulated->simulated_seconds,
            simulated->wall_seconds + 1e-3 * simulated->TotalIO() - 1e-9);
  EXPECT_EQ(plain->simulated_seconds, plain->wall_seconds);
}

TEST_F(RunnerTest, WorkPagesValidation) {
  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 2;
  auto run = RunJoin(Algorithm::kVpj, bm_.get(), a_, d_, &sink, opts);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RunnerTest, RollupPolicyMedianAgreesWithMax) {
  CountingSink s1, s2;
  RunOptions opts;
  opts.work_pages = 16;
  opts.rollup_policy = RollupHeightPolicy::kMax;
  auto max_run = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a_, d_, &s1, opts);
  opts.rollup_policy = RollupHeightPolicy::kMedian;
  auto med_run = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a_, d_, &s2, opts);
  ASSERT_TRUE(max_run.ok() && med_run.ok());
  EXPECT_EQ(max_run->output_pairs, expected_);
  EXPECT_EQ(med_run->output_pairs, expected_);
}

}  // namespace
}  // namespace pbitree
