#include "perfbench/dataset.h"

#include <cstdio>
#include <set>

#include "datagen/xmark_gen.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "pbitree/binarize.h"
#include "storage/element_store.h"
#include "storage/io_backend.h"

namespace perfbench {

using namespace pbitree;

const std::vector<Query>& Queries() {
  static const std::vector<Query> queries = [] {
    std::vector<Query> out;
    for (const TagJoinSpec& j : XmarkJoins()) {
      out.push_back(Query{j.name, j.ancestor_tag, j.descendant_tag});
    }
    return out;
  }();
  return queries;
}

const Query& QueryByName(const std::string& name) {
  for (const Query& q : Queries()) {
    if (q.name == name) return q;
  }
  Die("unknown query " + name);
}

namespace {

std::unique_ptr<DiskManager> OpenDisk(const std::string& path) {
  auto backend = MakeIoBackend("file", path);
  if (!backend.ok()) Die("open " + path, backend.status());
  auto disk = DiskManager::OpenWithBackend(std::move(*backend),
                                           /*restore_frontier=*/true);
  if (!disk.ok()) Die("open " + path, disk.status());
  std::unique_ptr<DiskManager> owned(*disk);
  if (Status st = ElementSetStore::Recover(owned.get()); !st.ok()) {
    Die("recover " + path, st);
  }
  return owned;
}

}  // namespace

DbInfo BuildDatabase(const std::string& path, uint64_t seed) {
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = kScaleFactor;
  gen.seed = seed;
  if (Status st = GenerateXmark(&tree, gen); !st.ok()) Die("generate", st);
  PBiTreeSpec spec;
  BinarizeOptions bopts;
  bopts.slack_levels = 2;  // update headroom, as `pbitree_cli encode` leaves
  if (Status st = BinarizeTree(&tree, &spec, bopts); !st.ok()) {
    Die("binarize", st);
  }

  DbInfo info;
  info.elements = tree.size();
  std::remove(path.c_str());  // a fresh database, never appended to
  info.height = spec.height;
  std::unique_ptr<DiskManager> disk = OpenDisk(path);
  BufferManager bm(disk.get(), kEncodePoolPages);
  auto catalog = Catalog::Load(&bm);
  if (!catalog.ok()) Die("catalog", catalog.status());
  std::set<std::string> tags;
  for (const Query& q : Queries()) {
    tags.insert(q.a_tag);
    tags.insert(q.d_tag);
  }
  for (const std::string& tag : tags) {
    auto set = ExtractTagSetByName(&bm, tree, spec, tag);
    if (!set.ok()) Die("extract " + tag, set.status());
    info.live_records += set->num_records();
    if (Status st = catalog->Put(tag, *set); !st.ok()) Die("catalog put", st);
  }
  if (Status st = catalog->Save(&bm); !st.ok()) Die("catalog save", st);
  return info;
}

const ElementSet& OpenDatabase::Set(const std::string& tag) const {
  auto it = sets.find(tag);
  if (it == sets.end()) Die("database lacks set " + tag);
  return it->second;
}

uint64_t OpenDatabase::LiveRecords() const {
  uint64_t n = 0;
  for (const auto& [name, set] : sets) n += set.num_records();
  return n;
}

std::unique_ptr<OpenDatabase> Open(const std::string& path, size_t pool_pages) {
  auto db = std::make_unique<OpenDatabase>();
  db->disk = OpenDisk(path);
  db->bm = std::make_unique<BufferManager>(db->disk.get(), pool_pages);
  auto catalog = Catalog::Load(db->bm.get());
  if (!catalog.ok()) Die("catalog", catalog.status());
  for (const std::string& name : catalog->Names()) {
    auto set = catalog->Get(db->bm.get(), name);
    if (!set.ok()) Die("catalog get " + name, set.status());
    db->sets.emplace(name, std::move(*set));
  }
  return db;
}

bool Applicable(Algorithm alg, const OpenDatabase& db, const Query& q) {
  return alg != Algorithm::kShcj || db.Set(q.a_tag).SingleHeight();
}

std::map<std::string, Answer> ComputeReference(OpenDatabase* db) {
  std::map<std::string, Answer> ref;
  for (const Query& q : Queries()) {
    std::string first_alg;
    for (const AlgorithmInfo& info : AllAlgorithms()) {
      if (!Applicable(info.alg, *db, q)) continue;
      RunOptions opts;
      opts.work_pages = db->bm->pool_pages();
      opts.cold_cache = true;
      AnswerSink sink;
      auto run = RunJoin(info.alg, db->bm.get(), db->Set(q.a_tag),
                         db->Set(q.d_tag), &sink, opts);
      if (!run.ok()) Die("reference " + q.name + " " + info.name, run.status());
      auto [it, inserted] = ref.emplace(q.name, sink.answer());
      if (inserted) {
        first_alg = info.name;
      } else if (!(it->second == sink.answer())) {
        FailCorrectness("reference for " + q.name + ": " + info.name + " gives " +
                        ToString(sink.answer()) + ", " + first_alg + " gives " +
                        ToString(it->second));
      }
    }
  }
  return ref;
}

}  // namespace perfbench
