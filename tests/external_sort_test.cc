// Tests for the external merge sort: correctness across run counts and
// memory budgets, both sort orders, and the document-order tie-break
// (ancestor before descendant on equal Starts).

#include "sort/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "storage/heap_file.h"

namespace pbitree {
namespace {

struct SortCase {
  int num_records;
  size_t work_pages;
};

class ExternalSortTest : public ::testing::TestWithParam<SortCase> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);
  }

  HeapFile MakeFile(const std::vector<Code>& codes) {
    auto file = HeapFile::Create(bm_.get());
    EXPECT_TRUE(file.ok());
    HeapFile::Appender app(bm_.get(), &file.value());
    for (Code c : codes) {
      EXPECT_TRUE(app.AppendElement(ElementRecord{c, 0, 0}).ok());
    }
    EXPECT_TRUE(app.Finish().ok());
    return *file;
  }

  std::vector<Code> ReadCodes(const HeapFile& file) {
    std::vector<Code> out;
    HeapFile::Scanner scan(bm_.get(), file);
    ElementRecord rec;
    while (scan.NextElement(&rec)) out.push_back(rec.code);
    EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(ExternalSortTest, SortsByCodeAcrossBudgets) {
  const auto& param = GetParam();
  Random rng(7);
  std::vector<Code> codes;
  for (int i = 0; i < param.num_records; ++i) {
    codes.push_back(rng.UniformRange(1, 1 << 30));
  }
  HeapFile input = MakeFile(codes);
  auto sorted = ExternalSort(bm_.get(), input, param.work_pages,
                             SortOrder::kCodeOrder);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();

  std::vector<Code> expect = codes;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(ReadCodes(*sorted), expect);

  auto check = IsSorted(bm_.get(), *sorted, SortOrder::kCodeOrder);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(*check);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_P(ExternalSortTest, SortsByStartOrder) {
  const auto& param = GetParam();
  Random rng(11);
  std::vector<Code> codes;
  for (int i = 0; i < param.num_records; ++i) {
    codes.push_back(rng.UniformRange(1, (Code{1} << 24) - 1));
  }
  HeapFile input = MakeFile(codes);
  auto sorted = ExternalSort(bm_.get(), input, param.work_pages,
                             SortOrder::kStartOrder);
  ASSERT_TRUE(sorted.ok());
  auto check = IsSorted(bm_.get(), *sorted, SortOrder::kStartOrder);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(*check);
  EXPECT_EQ(ReadCodes(*sorted).size(), codes.size());
}

// A static table, not ::testing::Values temporaries: gtest prints the
// parameter's raw bytes into the test name, and only a statically
// initialised SortCase has zeroed padding, so only then is the name the
// same from build to build.
constexpr SortCase kSortCases[] = {
    {0, 3}, {1, 3}, {255, 3}, {10000, 3}, {10000, 4}, {100000, 8}, {100000, 64},
};

INSTANTIATE_TEST_SUITE_P(Cases, ExternalSortTest,
                         ::testing::ValuesIn(kSortCases));

using ExternalSortSingleTest = ExternalSortTest;

TEST_F(ExternalSortSingleTest, DocumentOrderPutsAncestorsBeforeDescendants) {
  // Codes 18 (h=1, Start 17) and 17 (h=0, Start 17) tie on Start; the
  // higher node must come first.
  HeapFile input = MakeFile({17, 18, 19, 16, 20});
  auto sorted = ExternalSort(bm_.get(), input, 4, SortOrder::kStartOrder);
  ASSERT_TRUE(sorted.ok());
  std::vector<Code> got = ReadCodes(*sorted);
  // Starts: 16 -> 1 (h=4), 20 -> 17 (h=2), 18 -> 17 (h=1), 17 -> 17,
  // 19 -> 19.
  EXPECT_EQ(got, (std::vector<Code>{16, 20, 18, 17, 19}));
}

TEST_F(ExternalSortSingleTest, RejectsTinyBudget) {
  HeapFile input = MakeFile({1, 2, 3});
  auto sorted = ExternalSort(bm_.get(), input, 2, SortOrder::kCodeOrder);
  EXPECT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExternalSortSingleTest, ElementLessIsAStrictWeakOrder) {
  Random rng(13);
  for (int i = 0; i < 2000; ++i) {
    ElementRecord a{rng.UniformRange(1, 1 << 16), 0, 0};
    ElementRecord b{rng.UniformRange(1, 1 << 16), 0, 0};
    for (SortOrder order : {SortOrder::kStartOrder, SortOrder::kCodeOrder}) {
      EXPECT_FALSE(ElementLess(a, a, order));
      if (ElementLess(a, b, order)) {
        EXPECT_FALSE(ElementLess(b, a, order));
      }
      if (a.code != b.code) {
        // Total on distinct codes.
        EXPECT_NE(ElementLess(a, b, order), ElementLess(b, a, order));
      }
    }
  }
}

}  // namespace
}  // namespace pbitree
