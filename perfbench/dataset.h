// The benchmark database: an XMark-like document (the paper's Section
// 4.2 BENCHMARK data) encoded into a file-backed PBiTree database, the
// B1-B10 tag joins over it, and the reference answers every timed join
// is checked against.

#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "framework/planner.h"
#include "join/element_set.h"
#include "perfbench/common.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"

namespace perfbench {

/// XMark scale factor of the benchmark document (about 600k elements).
inline constexpr double kScaleFactor = 0.5;

/// The paper's buffer of 500 Minibase pages per SF=1, divided by 4
/// because 16-byte element records pack about 4x denser (the ratio
/// bench_fig6c_xmark uses): smaller than the larger join inputs, so
/// cold joins really page.
inline constexpr size_t kJoinPoolPages = static_cast<size_t>(125 * kScaleFactor);

/// Buffer pool used while encoding (large enough that encoding never
/// re-reads what it just wrote).
inline constexpr size_t kEncodePoolPages = 1024;

struct Query {
  std::string name;    // "B1" .. "B10"
  std::string a_tag;   // ancestor set
  std::string d_tag;   // descendant set
};

/// B1-B10 in paper order.
const std::vector<Query>& Queries();
const Query& QueryByName(const std::string& name);

/// Facts about one built database.
struct DbInfo {
  uint64_t elements = 0;     // document elements
  int height = 0;            // PBiTree height
  uint64_t live_records = 0; // records over every stored set
};

/// Generates the document from `seed`, binarizes it with update slack
/// and stores one element set per tag the queries use in a new
/// file-backed database at `path`.
DbInfo BuildDatabase(const std::string& path, uint64_t seed);

/// A database opened for direct library joins.
struct OpenDatabase {
  std::unique_ptr<pbitree::DiskManager> disk;
  std::unique_ptr<pbitree::BufferManager> bm;
  std::map<std::string, pbitree::ElementSet> sets;

  const pbitree::ElementSet& Set(const std::string& tag) const;
  uint64_t LiveRecords() const;
};

/// Opens `path` (replaying any commit log first) with a pool of
/// `pool_pages` frames and loads every catalogued set.
std::unique_ptr<OpenDatabase> Open(const std::string& path, size_t pool_pages);

/// Whether `alg` can run the query at all: SHCJ needs a single-height
/// ancestor set.
bool Applicable(pbitree::Algorithm alg, const OpenDatabase& db, const Query& q);

/// Reference answers per query name, agreed by every applicable
/// algorithm at threads=1. Dies via FailCorrectness on disagreement.
std::map<std::string, Answer> ComputeReference(OpenDatabase* db);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
