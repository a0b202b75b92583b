// Fault-tolerance suite for the pluggable IoBackend storage API: CRC32C
// vectors, fault-schedule parsing, the FaultInjectingBackend decorator,
// the DiskManager retry/checksum layer, and end-to-end join runs under
// injected faults — transient schedules must be absorbed by retries with
// correct results, permanent ones must fail the run without leaking a
// single pinned frame or temp page, and torn/short transfers must be
// detected as kCorruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/io_backend.h"

namespace pbitree {
namespace {

// ---------------------------------------------------------------------
// CRC32C: the RFC 3720 check vectors pin the exact polynomial and bit
// order — any table or reflection bug fails these, not just "changes".

TEST(Crc32cTest, Rfc3720Vectors) {
  char zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62A8AB43u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data, sizeof(data));
  uint32_t split = Crc32cExtend(Crc32c(data, 10), data + 10, sizeof(data) - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  char page[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) page[i] = static_cast<char>(i * 31);
  uint32_t before = Crc32c(page, kPageSize);
  page[kPageSize / 2] ^= 0x01;
  EXPECT_NE(before, Crc32c(page, kPageSize));
}

// ---------------------------------------------------------------------
// FaultSchedule parsing (the PBITREE_FAULT_SCHEDULE surface).

TEST(FaultScheduleTest, ParseFullSpec) {
  auto s = FaultSchedule::Parse(
      "seed=7,write_every=13,read_every=5,transient=2,write_p=0.25,"
      "torn_writes=1,short_reads=1");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->seed, 7u);
  EXPECT_EQ(s->write_every, 13u);
  EXPECT_EQ(s->read_every, 5u);
  EXPECT_EQ(s->transient, 2u);
  EXPECT_DOUBLE_EQ(s->write_p, 0.25);
  EXPECT_TRUE(s->torn_writes);
  EXPECT_TRUE(s->short_reads);
  EXPECT_TRUE(s->Enabled());
}

TEST(FaultScheduleTest, EmptySpecDisabled) {
  auto s = FaultSchedule::Parse("");
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s->Enabled());
  EXPECT_FALSE(FaultSchedule{}.Enabled());
}

TEST(FaultScheduleTest, RejectsGarbage) {
  EXPECT_EQ(FaultSchedule::Parse("bogus_key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultSchedule::Parse("write_every=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultSchedule::Parse("read_p=1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultSchedule::Parse("no_equals_sign").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultScheduleTest, ToStringRoundTrips) {
  auto s = FaultSchedule::Parse("seed=9,read_every=3,transient=1");
  ASSERT_TRUE(s.ok());
  auto again = FaultSchedule::Parse(s->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->seed, 9u);
  EXPECT_EQ(again->read_every, 3u);
  EXPECT_EQ(again->transient, 1u);
}

// ---------------------------------------------------------------------
// Backend factory (the CLI's --backend surface).

TEST(IoBackendFactoryTest, KnownKindsAndRejection) {
  auto mem = MakeIoBackend("mem", "");
  ASSERT_TRUE(mem.ok());
  EXPECT_STREQ((*mem)->name(), "mem");
  EXPECT_EQ(MakeIoBackend("tape", "x").status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// DiskManager over a FaultInjectingBackend: retry, checksum, exhaustion.

struct FaultRig {
  std::unique_ptr<DiskManager> dm;
  FaultInjectingBackend* fb = nullptr;  // owned by dm
};

FaultRig MakeFaultRig() {
  auto fault = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemIoBackend>(), FaultSchedule{});
  FaultRig rig;
  rig.fb = fault.get();
  auto dm = DiskManager::OpenWithBackend(std::move(fault),
                                         /*restore_frontier=*/false);
  EXPECT_TRUE(dm.ok());
  rig.dm.reset(*dm);
  return rig;
}

FaultSchedule MustParse(const std::string& spec) {
  auto s = FaultSchedule::Parse(spec);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return *s;
}

TEST(FaultInjectionTest, TransientWriteFaultsAbsorbedByRetry) {
  FaultRig rig = MakeFaultRig();
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  // Every 5th write attempt starts a burst of 2 failures: 3 attempts of
  // the 4-attempt budget, so every logical write still succeeds.
  rig.fb->Arm(MustParse("write_every=5,transient=2"));
  char out[kPageSize], in[kPageSize];
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    auto pid = rig.dm->AllocatePage();
    ASSERT_TRUE(pid.ok());
    std::memset(out, 'a' + i, kPageSize);
    ASSERT_TRUE(rig.dm->WritePage(*pid, out).ok()) << i;
    pages.push_back(*pid);
  }
  rig.fb->Disarm();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.dm->ReadPage(pages[i], in).ok());
    EXPECT_EQ(in[17], 'a' + i);
  }
  EXPECT_GT(rig.fb->faults_injected(), 0u);
  auto snap = reg.Snapshot();
  EXPECT_GT(snap.counter(obs::Counter::kIoRetries), 0u);
  EXPECT_GT(snap.counter(obs::Counter::kIoFaultsInjected), 0u);
  EXPECT_EQ(snap.counter(obs::Counter::kIoChecksumFailures), 0u);
}

TEST(FaultInjectionTest, StickyFaultExhaustsRetriesAndLatches) {
  FaultRig rig = MakeFaultRig();
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  char buf[kPageSize] = {};
  // transient=0: the first triggered write fails permanently.
  rig.fb->Arm(MustParse("write_every=1,transient=0"));
  Status st = rig.dm->WritePage(*pid, buf);
  EXPECT_EQ(st.code(), StatusCode::kRetryExhausted) << st.ToString();
  // Latched: later writes fail too, without re-triggering.
  EXPECT_EQ(rig.dm->WritePage(*pid, buf).code(), StatusCode::kRetryExhausted);
  // Re-arming clears the latch.
  rig.fb->Disarm();
  EXPECT_TRUE(rig.dm->WritePage(*pid, buf).ok());
}

TEST(FaultInjectionTest, RetryPolicyBoundsAttempts) {
  FaultRig rig = MakeFaultRig();
  RetryPolicy tight;
  tight.max_attempts = 2;
  tight.backoff_initial_us = 0;
  rig.dm->set_retry_policy(tight);
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  rig.fb->Arm(MustParse("write_every=1,transient=0"));
  char buf[kPageSize] = {};
  EXPECT_EQ(rig.dm->WritePage(*pid, buf).code(), StatusCode::kRetryExhausted);
  // Exactly max_attempts backend attempts were faulted.
  EXPECT_EQ(rig.fb->faults_injected(), 2u);
}

TEST(FaultInjectionTest, TornWriteDetectedAsCorruptionOnRead) {
  FaultRig rig = MakeFaultRig();
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  char out[kPageSize], in[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) out[i] = static_cast<char>(i * 13 + 1);
  // The torn write *reports success*; only the checksum catches it.
  rig.fb->Arm(MustParse("write_every=1,transient=1,torn_writes=1"));
  ASSERT_TRUE(rig.dm->WritePage(*pid, out).ok());
  rig.fb->Disarm();
  Status st = rig.dm->ReadPage(*pid, in);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  auto snap = reg.Snapshot();
  EXPECT_GE(snap.counter(obs::Counter::kIoChecksumFailures), 1u);
  // Corruption is not retried: the same bytes would come back.
  EXPECT_EQ(snap.counter(obs::Counter::kIoRetries), 0u);
}

TEST(FaultInjectionTest, ShortReadDetectedAsCorruption) {
  FaultRig rig = MakeFaultRig();
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  char out[kPageSize], in[kPageSize];
  std::memset(out, 0x5A, kPageSize);  // nonzero tail, else the zeroed
                                      // short read would be a no-op
  ASSERT_TRUE(rig.dm->WritePage(*pid, out).ok());
  rig.fb->Arm(MustParse("read_every=1,transient=1,short_reads=1"));
  EXPECT_EQ(rig.dm->ReadPage(*pid, in).code(), StatusCode::kCorruption);
  rig.fb->Disarm();
  // The stored bytes are intact; a clean read still succeeds.
  ASSERT_TRUE(rig.dm->ReadPage(*pid, in).ok());
  EXPECT_EQ(0, std::memcmp(out, in, kPageSize));
}

TEST(FaultInjectionTest, DeterministicAcrossRuns) {
  // Identical schedule, identical operation sequence → identical fault
  // count. This is the property the CI fault job relies on.
  auto run_once = [] {
    FaultRig rig = MakeFaultRig();
    rig.fb->Arm(MustParse("seed=42,write_p=0.3,transient=1"));
    char buf[kPageSize] = {'x'};
    for (int i = 0; i < 50; ++i) {
      auto pid = rig.dm->AllocatePage();
      EXPECT_TRUE(pid.ok());
      EXPECT_TRUE(rig.dm->WritePage(*pid, buf).ok());
    }
    return rig.fb->faults_injected();
  };
  uint64_t first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run_once());
}

// ---------------------------------------------------------------------
// End-to-end: containment joins over a fault-injecting DiskManager.

constexpr int kTreeHeight = 16;

// `threads` is RunOptions::threads. Every run executes on the calling
// thread, so a threads=2 case must behave exactly like threads=1.
struct FaultJoinCase {
  Algorithm algorithm;
  size_t threads;
};

std::string FaultCaseName(const ::testing::TestParamInfo<FaultJoinCase>& info) {
  std::string n = AlgorithmName(info.param.algorithm);
  for (char& c : n) {
    if (c == '+') c = 'P';
  }
  return n + "_t" + std::to_string(info.param.threads);
}

class FaultInjectionJoinTest : public ::testing::TestWithParam<FaultJoinCase> {
 protected:
  void SetUp() override {
    auto fault = std::make_unique<FaultInjectingBackend>(
        std::make_unique<MemIoBackend>(), FaultSchedule{});
    fb_ = fault.get();
    auto dm = DiskManager::OpenWithBackend(std::move(fault),
                                           /*restore_frontier=*/false);
    ASSERT_TRUE(dm.ok());
    disk_.reset(*dm);
    // A pool far smaller than the data forces real backend traffic
    // (evictions and re-reads) during the join.
    bm_ = std::make_unique<BufferManager>(disk_.get(), 32);

    Random rng(1234);
    a_codes_ = RandomCodes(&rng, 4000, 1, kTreeHeight - 1);
    d_codes_ = RandomCodes(&rng, 6000, 0, kTreeHeight - 2);
    a_ = MakeSet(a_codes_);
    d_ = MakeSet(d_codes_);
    expect_ = BruteForce(a_codes_, d_codes_);
    baseline_live_pages_ = disk_->num_live_pages();
  }

  void TearDown() override {
    if (fb_ != nullptr) fb_->Disarm();
    EXPECT_TRUE(a_.file.Drop(bm_.get()).ok());
    EXPECT_TRUE(d_.file.Drop(bm_.get()).ok());
  }

  ElementSet MakeSet(const std::vector<Code>& codes) {
    auto builder =
        ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{kTreeHeight});
    EXPECT_TRUE(builder.ok());
    for (Code c : codes) EXPECT_TRUE(builder->AddCode(c).ok());
    return builder->Build();
  }

  std::vector<Code> RandomCodes(Random* rng, int n, int min_height,
                                int max_height) {
    std::vector<Code> out;
    std::set<Code> seen;
    PBiTreeSpec spec{kTreeHeight};
    while (static_cast<int>(out.size()) < n) {
      Code c = rng->UniformRange(1, spec.MaxCode());
      int h = HeightOf(c);
      if (h < min_height || h > max_height) continue;
      if (seen.insert(c).second) out.push_back(c);
    }
    return out;
  }

  static std::vector<ResultPair> BruteForce(const std::vector<Code>& a,
                                            const std::vector<Code>& d) {
    std::vector<ResultPair> out;
    for (Code x : a) {
      for (Code y : d) {
        if (IsAncestor(x, y)) out.push_back(ResultPair{x, y});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  RunOptions Opts() const {
    RunOptions o;
    o.work_pages = 8;  // tiny budget: partitioning + temp files guaranteed
    o.threads = GetParam().threads;
    return o;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
  FaultInjectingBackend* fb_ = nullptr;
  std::vector<Code> a_codes_, d_codes_;
  ElementSet a_, d_;
  std::vector<ResultPair> expect_;
  uint64_t baseline_live_pages_ = 0;
};

TEST_P(FaultInjectionJoinTest, TransientFaultsYieldCorrectResults) {
  // read_every/write_every chosen so a burst of `transient` failures
  // plus the sated attempt fits in the default 4-attempt budget.
  fb_->Arm(MustParse("write_every=9,read_every=11,transient=2"));
  VectorSink collected;
  VerifyingSink sink(&collected);
  auto run = RunJoin(GetParam().algorithm, bm_.get(), a_, d_, &sink, Opts());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  fb_->Disarm();

  collected.Sort();
  ASSERT_EQ(collected.pairs().size(), expect_.size());
  EXPECT_EQ(collected.pairs(), expect_);
  EXPECT_GT(fb_->faults_injected(), 0u);
  EXPECT_GT(run->metrics.counter(obs::Counter::kIoRetries), 0u);
  EXPECT_GT(run->metrics.counter(obs::Counter::kIoFaultsInjected), 0u);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), baseline_live_pages_);
}

TEST_P(FaultInjectionJoinTest, PermanentFaultFailsRunWithoutLeaks) {
  // Sticky fault on the 25th write: partitioning trips it, every retry
  // fails, and the error must surface through Run with all buffer
  // frames unpinned and every temp page freed.
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  fb_->Arm(MustParse("write_every=25,transient=0"));
  VectorSink collected;
  auto run = RunJoin(GetParam().algorithm, bm_.get(), a_, d_, &collected,
                     Opts());
  fb_->Disarm();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kRetryExhausted)
      << run.status().ToString();
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), baseline_live_pages_);
  EXPECT_GT(reg.Snapshot().counter(obs::Counter::kIoFaultsInjected), 0u);
}

TEST_P(FaultInjectionJoinTest, TornWritesSurfaceAsCorruption) {
  // Every write lands torn but reports success; the first evicted temp
  // page read back from the backend fails its checksum. The pool (32
  // pages) is far smaller than the partition spill, so a re-read is
  // guaranteed.
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  fb_->Arm(MustParse("write_every=1,transient=1,torn_writes=1"));
  VectorSink collected;
  auto run = RunJoin(GetParam().algorithm, bm_.get(), a_, d_, &collected,
                     Opts());
  fb_->Disarm();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCorruption)
      << run.status().ToString();
  EXPECT_GE(reg.Snapshot().counter(obs::Counter::kIoChecksumFailures), 1u);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), baseline_live_pages_);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, FaultInjectionJoinTest,
    ::testing::Values(FaultJoinCase{Algorithm::kMhcj, 1},
                      FaultJoinCase{Algorithm::kMhcj, 2},
                      FaultJoinCase{Algorithm::kMhcjRollup, 1},
                      FaultJoinCase{Algorithm::kVpj, 1},
                      FaultJoinCase{Algorithm::kVpj, 2}),
    FaultCaseName);

}  // namespace
}  // namespace pbitree
