// serve_mixed: two closed-loop client connections to the shipped
// pbitree_serverd (file backend, default pool, result cache on, mutable
// store attached) sending `auto` joins over B1-B10 picked by a seeded
// Zipf draw; one operation in ten is a committed insert or delete.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/random.h"
#include "perfbench/daemon.h"
#include "perfbench/workloads.h"
#include "serve/client.h"
#include "storage/element_store.h"

namespace perfbench {

using namespace pbitree;

namespace {

constexpr int kClients = 2;
constexpr double kUpdateShare = 0.10;
/// Inserts a client keeps before it deletes the oldest, so the live
/// size of the updated set stays level.
constexpr size_t kMaxOutstandingInserts = 4;
/// Updates insert `keyword` children under random `description`
/// elements: B8 and B9 answers change with every commit.
constexpr const char* kUpdateSet = "keyword";
constexpr const char* kParentSet = "description";
constexpr int kPings = 50;
/// Replayed updates in the traced serve_mixed run.
constexpr size_t kMaxReplayed = 200;

/// Zipf(s = 1) over B1..B10 with B1 the most popular. The ranking is
/// fixed; the seed only drives the draw sequence.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double sum = 0.0;
    for (size_t k = 1; k <= n; ++k) {
      sum += 1.0 / static_cast<double>(k);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Random* rng) const {
    const double u = rng->NextDouble();
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct UpdateEvent {
  uint64_t epoch = 0;      // commit epoch: orders events across clients
  bool insert = false;
  Code code = 0;           // inserted or deleted code
  Code parent = 0;         // inserts: the parent
  uint64_t insert_id = 0;  // the insert this event created or deleted
};

struct Inserted {
  Code code;
  uint64_t insert_id;
};

/// State the clients share.
struct MixedState {
  std::vector<Code> parents;
  uint32_t keyword_tag = 0;
  std::mutex mu;  // guards everything below
  std::map<std::pair<std::string, uint64_t>, Answer> answer_at_epoch;
  std::vector<UpdateEvent> events;
  uint64_t next_insert_id = 0;
  uint64_t epoch_checked_joins = 0;
};

struct ClientStats {
  Samples join_ms, update_ms;
  std::map<std::string, Samples> per_query_ms;
  // Per-join split of the wait: request -> first batch, between batches
  // (excluding the benchmark's own consumption), last batch -> return.
  Samples first_batch_ms, stream_ms, tail_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t joins = 0;
  uint64_t updates = 0;
};

struct Setup {
  std::string path;
  DbInfo info;
  std::map<std::string, Answer> reference;
  Samples setup_s;
  uint64_t base_keyword_records = 0;
  std::vector<Code> parents;  // update parents
  uint32_t keyword_tag = 0;
  std::unique_ptr<Daemon> daemon;
};

void Connect(serve::Client* c, int port) {
  if (Status st = c->Connect("127.0.0.1", port); !st.ok()) Die("connect", st);
}

/// One join per query, each checked against the reference.
void Warm(int port, const std::map<std::string, Answer>& ref) {
  serve::Client c;
  Connect(&c, port);
  for (const Query& q : Queries()) {
    AnswerSink sink;
    auto summary = c.Join(q.a_tag, q.d_tag, "auto", &sink);
    if (!summary.ok()) Die("warm-up join " + q.name, summary.status());
    if (!(sink.answer() == ref.at(q.name))) {
      FailCorrectness("warm-up " + q.name + " over the wire: got " +
                      ToString(sink.answer()) + ", reference " +
                      ToString(ref.at(q.name)));
    }
  }
}

/// Generate + encode, then start and warm the daemon, kSetupRepeats
/// times; the last daemon keeps running. The reference comes from the
/// first database, opened by the library directly before its daemon
/// starts; the database the run serves is not opened here until
/// its daemon is gone.
Setup DoSetup(const Args& args) {
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string path = args.tmp_dir + "/serve-" + std::to_string(i) + ".db";
    int64_t start = NowNs();
    const DbInfo info = BuildDatabase(path, args.seed);
    int64_t setup_ns = NowNs() - start;
    if (i == 0) {
      std::unique_ptr<OpenDatabase> db = Open(path, kJoinPoolPages);
      s.reference = ComputeReference(db.get());
      MaybePerturb(args, &s.reference);
      const std::vector<ElementRecord> keywords = ReadRecords(db.get(), kUpdateSet);
      s.base_keyword_records = keywords.size();
      s.keyword_tag = keywords.at(0).tag;
      for (const ElementRecord& rec : ReadRecords(db.get(), kParentSet)) {
        s.parents.push_back(rec.code);
      }
    } else if (info.live_records != s.info.live_records) {
      Die("set-up is not deterministic for one seed");
    }
    if (s.daemon != nullptr) {
      s.daemon->Stop();
      std::remove(s.path.c_str());
    }
    start = NowNs();
    s.daemon = std::make_unique<Daemon>(args.serverd, path);
    Warm(s.daemon->port(), s.reference);
    setup_ns += NowNs() - start;
    s.setup_s.Add(static_cast<double>(setup_ns) / 1e9);
    s.path = path;
    s.info = info;
  }
  return s;
}

struct ClientCtx {
  int port = 0;
  MixedState* mixed = nullptr;
  Tracer* tracer = nullptr;
};

void CheckMixedJoin(MixedState* m, const Query& q, uint64_t epoch,
                    const Answer& got) {
  std::lock_guard<std::mutex> lock(m->mu);
  ++m->epoch_checked_joins;
  auto [it, first] = m->answer_at_epoch.emplace(std::make_pair(q.name, epoch), got);
  if (!first && !(it->second == got)) {
    FailCorrectness(q.name + " at epoch " + std::to_string(epoch) + ": got " +
                    ToString(got) + ", earlier " + ToString(it->second));
  }
}

void DoUpdate(serve::Client* c, const ClientCtx& ctx, Random* rng,
              std::deque<Inserted>* mine, ClientStats* st, uint64_t* epoch) {
  MixedState* m = ctx.mixed;
  const bool remove = !mine->empty() &&
                      (mine->size() >= kMaxOutstandingInserts || rng->Uniform(2) == 0);
  UpdateEvent ev;
  StatusOr<serve::Client::UpdateResult> res = Status::OK();
  const int64_t start = NowNs();
  if (remove) {
    Span span(ctx.tracer, "serve::Client::DeleteElement", 0);
    ev.code = mine->front().code;
    ev.insert_id = mine->front().insert_id;
    res = c->DeleteElement(kUpdateSet, ev.code);
  } else {
    Span span(ctx.tracer, "serve::Client::InsertChild", 0);
    ev.insert = true;
    ev.parent = m->parents[rng->Uniform(m->parents.size())];
    res = c->InsertChild(kUpdateSet, ev.parent, m->keyword_tag, 0);
  }
  const double ms = static_cast<double>(NowNs() - start) / 1e6;
  ++st->attempted;
  if (!res.ok()) {
    std::fprintf(stderr, "perfbench: update failed: %s\n",
                 res.status().ToString().c_str());
    ++st->failed;
    return;
  }
  st->update_ms.Add(ms);
  ++st->updates;
  ev.epoch = res->epoch;
  *epoch = res->epoch;
  std::lock_guard<std::mutex> lock(m->mu);
  if (remove) {
    mine->pop_front();
  } else {
    ev.code = res->code;
    ev.insert_id = m->next_insert_id++;
    mine->push_back(Inserted{ev.code, ev.insert_id});
  }
  m->events.push_back(ev);
}

/// A closed-loop client on one connection until `seconds` pass. After
/// every join it reads the server epoch, which brackets the epoch the
/// join ran at for the parity check.
void ClientLoop(const ClientCtx& ctx, uint64_t seed, double seconds,
                std::deque<Inserted>* mine, ClientStats* st) {
  serve::Client c;
  Connect(&c, ctx.port);
  auto initial = c.Epoch();
  if (!initial.ok()) Die("epoch", initial.status());
  uint64_t epoch = *initial;  // a lower bound of the server epoch
  Random rng(seed);
  const Zipf zipf(Queries().size());
  uint64_t op = seed << 32;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    if (rng.NextDouble() < kUpdateShare) {
      DoUpdate(&c, ctx, &rng, mine, st, &epoch);
      continue;
    }
    const Query& q = Queries()[zipf.Draw(&rng)];
    AnswerSink sink(ctx.tracer);
    const int64_t start = NowNs();
    StatusOr<serve::JoinSummary> summary = [&] {
      Span span(ctx.tracer, "serve::Client::Join", ++op);
      return c.Join(q.a_tag, q.d_tag, "auto", &sink);
    }();
    const int64_t done = NowNs();
    ++st->attempted;
    if (!summary.ok()) {
      std::fprintf(stderr, "perfbench: join %s failed: %s\n", q.name.c_str(),
                   summary.status().ToString().c_str());
      ++st->failed;
      continue;
    }
    ++st->joins;
    st->join_ms.Add(static_cast<double>(done - start) / 1e6);
    st->per_query_ms[q.name].Add(static_cast<double>(done - start) / 1e6);
    if (sink.first_batch_ns() > 0) {
      st->first_batch_ms.Add(static_cast<double>(sink.first_batch_ns() - start) / 1e6);
      st->stream_ms.Add(static_cast<double>(sink.last_batch_end_ns() -
                                            sink.first_batch_ns() - sink.consume_ns()) /
                        1e6);
      st->tail_ms.Add(static_cast<double>(done - sink.last_batch_end_ns()) / 1e6);
    }
    // The join ran at one epoch in [epoch, after]; when both bounds
    // agree its answer must equal every other answer at that epoch.
    auto after = c.Epoch();
    if (!after.ok()) Die("epoch", after.status());
    if (*after == epoch) CheckMixedJoin(ctx.mixed, q, epoch, sink.answer());
    epoch = *after;
  }
}

struct PhaseResult {
  ClientStats all;
  double elapsed_s = 0.0;
};

PhaseResult RunPhase(const ClientCtx& ctx, uint64_t seed, double seconds,
                     std::vector<std::deque<Inserted>>* mine) {
  std::vector<ClientStats> stats(kClients);
  const int64_t start = NowNs();
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        ClientLoop(ctx, seed * 16 + static_cast<uint64_t>(i) + 1, seconds,
                   &(*mine)[static_cast<size_t>(i)], &stats[static_cast<size_t>(i)]);
      });
    }
  }
  PhaseResult r;
  r.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const ClientStats& s : stats) {
    r.all.join_ms.Append(s.join_ms);
    r.all.first_batch_ms.Append(s.first_batch_ms);
    r.all.stream_ms.Append(s.stream_ms);
    r.all.tail_ms.Append(s.tail_ms);
    r.all.update_ms.Append(s.update_ms);
    for (const auto& [name, samples] : s.per_query_ms) {
      r.all.per_query_ms[name].Append(samples);
    }
    r.all.attempted += s.attempted;
    r.all.failed += s.failed;
    r.all.joins += s.joins;
    r.all.updates += s.updates;
  }
  return r;
}

/// The daemon's obs registry, parsed from its `metrics` op.
obs::MetricsSnapshot DaemonMetrics(serve::Client* control) {
  auto json = control->Metrics();
  if (!json.ok()) Die("metrics", json.status());
  obs::MetricsSnapshot s;
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    s.counters[i] = JsonU64(*json, obs::CounterName(static_cast<obs::Counter>(i)));
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const std::string name = obs::PhaseName(static_cast<obs::Phase>(i));
    s.phases[i].count = JsonU64(*json, name + ".count");
    s.phases[i].total_nanos = JsonU64(*json, name + ".total_nanos");
  }
  for (size_t i = 0; i < obs::kNumLatencies; ++i) {
    const std::string name = obs::LatencyName(static_cast<obs::Latency>(i));
    s.latencies[i].count = JsonU64(*json, name + ".count");
    s.latencies[i].total_nanos = JsonU64(*json, name + ".total_nanos");
  }
  return s;
}

void AddServeLayer(Report* r, const obs::MetricsSnapshot& d, const PhaseResult& p,
                   const Samples& ping_ms) {
  using obs::Counter;
  SetQuantile(r, "serve.ping_ms", ping_ms, 0.5);
  // Means, not medians: the Nagle stall hits only some requests, and the
  // means add up (with the consumption time) to the mean latency.
  Set(r, "serve.first_batch_ms", p.all.first_batch_ms.Mean());
  Set(r, "serve.stream_ms", p.all.stream_ms.Mean());
  Set(r, "serve.tail_ms", p.all.tail_ms.Mean());
  r->FactNum("serve_join_mean_ms", p.all.join_ms.Mean());
  const obs::HistogramStat& qw =
      d.latencies[static_cast<size_t>(obs::Latency::kServeQueueWait)];
  Set(r, "serve.queue_wait_ms",
      qw.count > 0 ? static_cast<double>(qw.total_nanos) / 1e6 / qw.count : 0.0);
  const uint64_t hits = d.counter(Counter::kServeCacheHits);
  const uint64_t lookups = hits + d.counter(Counter::kServeCacheMisses);
  Set(r, "serve.cache_hit_rate",
      lookups > 0 ? static_cast<double>(hits) / lookups : 0.0);
  Set(r, "serve.cache_lookups", static_cast<double>(lookups));
  Set(r, "serve.rejected", static_cast<double>(d.counter(Counter::kServeRejected)));
  if (!p.all.update_ms.empty()) {
    SetQuantile(r, "serve.update_p50_ms", p.all.update_ms, 0.5);
    SetQuantile(r, "serve.update_p99_ms", p.all.update_ms, 0.99);
  }
  AddObsPerOp(r, d, p.all.joins);
}

/// After the SIGKILL and recovery: every acknowledged insert must be
/// present and every acknowledged delete gone.
void CheckDurability(OpenDatabase* db, ElementSetStore* store, uint64_t base_records,
                     const MixedState& m, Report* r) {
  std::vector<UpdateEvent> events = m.events;
  std::sort(events.begin(), events.end(),
            [](const UpdateEvent& a, const UpdateEvent& b) { return a.epoch < b.epoch; });
  std::set<Code> live, deleted;
  for (const UpdateEvent& ev : events) {
    if (ev.insert) {
      live.insert(ev.code);
      deleted.erase(ev.code);
    } else {
      live.erase(ev.code);
      deleted.insert(ev.code);
    }
  }
  std::set<Code> stored;
  uint64_t records = 0;
  {
    ElementSetStore::ReadPin pin = store->PinForRead();
    auto set = store->GetSet(kUpdateSet);
    if (!set.ok()) Die("reopened store", set.status());
    HeapFile::Scanner scan(db->bm.get(), (*set)->file);
    for (auto batch = scan.NextElementBatch(); !batch.empty();
         batch = scan.NextElementBatch()) {
      for (const ElementRecord& rec : batch) stored.insert(rec.code);
      records += batch.size();
    }
    if (!scan.status().ok()) Die("scan after recovery", scan.status());
  }
  for (Code c : live) {
    if (stored.count(c) == 0) {
      FailCorrectness("acknowledged insert of code " + std::to_string(c) +
                      " lost after SIGKILL + recovery");
    }
  }
  for (Code c : deleted) {
    if (stored.count(c) != 0) {
      FailCorrectness("acknowledged delete of code " + std::to_string(c) +
                      " undone after SIGKILL + recovery");
    }
  }
  if (records != base_records + live.size()) {
    FailCorrectness("after recovery '" + std::string(kUpdateSet) + "' holds " +
                    std::to_string(records) + " records, expected " +
                    std::to_string(base_records + live.size()));
  }
  r->Fact("durability",
          "{\"ok\": true, \"acknowledged_updates\": " + std::to_string(events.size()) +
              ", \"live_inserts_present\": " + std::to_string(live.size()) +
              ", \"deleted_codes_absent\": " + std::to_string(deleted.size()) +
              ", \"note\": " +
              JsonString("SIGKILL leaves the OS page cache intact, so this checks "
                         "the commit protocol and recovery, not device flushes") +
              "}");
}

/// Replays the acknowledged update stream (in commit order) directly
/// through ElementSetStore, one commit per update as the daemon does.
void ReplayUpdates(ElementSetStore* store, const MixedState& m, Report* r,
                   Tracer* tracer) {
  std::vector<UpdateEvent> events = m.events;
  std::sort(events.begin(), events.end(),
            [](const UpdateEvent& a, const UpdateEvent& b) { return a.epoch < b.epoch; });
  if (events.size() > kMaxReplayed) events.resize(kMaxReplayed);
  std::map<uint64_t, Code> replayed;  // insert id -> code it got in the replay
  Samples mutate_ms, commit_ms;
  uint64_t commit_writes = 0;
  uint64_t refused = 0;
  for (const UpdateEvent& ev : events) {
    const int64_t start = NowNs();
    if (ev.insert) {
      Span span(tracer, "storage.ElementSetStore::InsertChild", 0);
      // The replay starts from the recovered state, which still holds the
      // run's outstanding inserts, so a parent can run out of slack here.
      auto code = store->InsertChild(kUpdateSet, ev.parent, m.keyword_tag, 0);
      if (!code.ok()) {
        if (Status st = store->Rollback(); !st.ok()) Die("replay rollback", st);
        ++refused;
        continue;
      }
      replayed[ev.insert_id] = *code;
    } else {
      auto it = replayed.find(ev.insert_id);
      if (it == replayed.end()) continue;  // inserted before the replay window
      Span span(tracer, "storage.ElementSetStore::DeleteElement", 0);
      if (Status st = store->DeleteElement(kUpdateSet, it->second); !st.ok()) {
        Die("replayed delete", st);
      }
    }
    mutate_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    obs::MetricRegistry reg;
    obs::MetricScope scope(&reg);
    const int64_t commit_start = NowNs();
    {
      Span span(tracer, "storage.ElementSetStore::Commit", 0);
      if (Status st = store->Commit(); !st.ok()) Die("replayed commit", st);
    }
    commit_ms.Add(static_cast<double>(NowNs() - commit_start) / 1e6);
    commit_writes += reg.Snapshot().counter(obs::Counter::kPageWrites);
  }
  r->FactNum("replay_refused_inserts", static_cast<double>(refused));
  SetQuantile(r, "storage.mutate_ms", mutate_ms, 0.5);
  SetQuantile(r, "storage.commit_ms", commit_ms, 0.5);
  Set(r, "storage.commit_page_writes",
      commit_ms.empty() ? 0.0 : static_cast<double>(commit_writes) / commit_ms.size());
}

std::string QuantileFact(const Samples& s, double q) {
  return "{\"value\": " + JsonNumber(s.Quantile(q)) +
         ", \"samples\": " + std::to_string(s.size()) + "}";
}

}  // namespace

void RunServeMixed(const Args& args) {
  Setup setup = DoSetup(args);
  Daemon& daemon = *setup.daemon;
  MixedState mstate;
  mstate.parents = setup.parents;
  mstate.keyword_tag = setup.keyword_tag;

  // Joins at the initial epoch must give the reference answers.
  const uint64_t initial_epoch = [&] {
    serve::Client c;
    Connect(&c, daemon.port());
    auto e = c.Epoch();
    if (!e.ok()) Die("epoch", e.status());
    return *e;
  }();
  for (const auto& [name, answer] : setup.reference) {
    mstate.answer_at_epoch.emplace(std::make_pair(name, initial_epoch), answer);
  }

  ClientCtx ctx;
  ctx.port = daemon.port();
  ctx.mixed = &mstate;
  std::vector<std::deque<Inserted>> mine(kClients);

  Report r = NewReport(args);
  Tracer tracer;
  PhaseResult measured;
  if (!args.trace) {
    measured = RunPhase(ctx, args.seed, args.seconds, &mine);
  } else {
    // Half untraced, half traced: the p50 ratio is the tracing overhead.
    const PhaseResult plain = RunPhase(ctx, args.seed, args.seconds / 2, &mine);
    serve::Client control;
    Connect(&control, daemon.port());
    Samples ping_ms;
    for (int i = 0; i < kPings; ++i) {
      Span span(&tracer, "serve::Client::Ping", 0);
      const int64_t start = NowNs();
      if (Status st = control.Ping(); !st.ok()) Die("ping", st);
      ping_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    }
    const obs::MetricsSnapshot before = DaemonMetrics(&control);
    ctx.tracer = &tracer;
    measured = RunPhase(ctx, args.seed ^ 0x5bd1e995, args.seconds / 2, &mine);
    const obs::MetricsSnapshot after = DaemonMetrics(&control);
    AddServeLayer(&r, after.Delta(before), measured, ping_ms);
    const double base = plain.all.join_ms.Quantile(0.5);
    Set(&r, "obs.trace_overhead",
        base > 0 ? measured.all.join_ms.Quantile(0.5) / base - 1.0 : 0.0);
    measured.all.attempted += plain.all.attempted;
    measured.all.failed += plain.all.failed;
  }

  const double daemon_rss_mb = PeakRssMb(daemon.pid());
  const std::string banner = daemon.banner();
  daemon.Kill();  // the crash of the durability check
  const uint64_t db_bytes = FileBytes(setup.path);
  std::unique_ptr<OpenDatabase> db = Open(setup.path, kJoinPoolPages);
  const uint64_t live_records = db->LiveRecords();
  if (args.trace) {
    std::vector<const Query*> all;
    for (const Query& q : Queries()) all.push_back(&q);
    AddStorageAndKernelProbes(&r, db.get(), InputTags(all), &tracer);
    Set(&r, "storage.db_bytes", static_cast<double>(db_bytes));
  }
  {
    auto store = ElementSetStore::Open(db->bm.get());
    if (!store.ok()) Die("reopen store", store.status());
    CheckDurability(db.get(), store->get(), setup.base_keyword_records, mstate, &r);
    if (args.trace) ReplayUpdates(store->get(), mstate, &r, &tracer);
  }
  if (args.trace) FinishTrace(&r, tracer, args);

  const ClientStats& st = measured.all;
  if (!args.trace) {
    SetQuantile(&r, "setup_s", setup.setup_s, 0.5);
    SetQuantile(&r, "p50_ms", st.join_ms, 0.5);
    SetQuantile(&r, "p99_ms", st.join_ms, 0.99);
    Set(&r, "ops_per_s", static_cast<double>(st.joins + st.updates) / measured.elapsed_s);
    Set(&r, "success_rate", 1.0 - static_cast<double>(st.failed) / st.attempted);
    Set(&r, "peak_rss_mb", PeakRssMb(getpid()) + daemon_rss_mb);
    Set(&r, "space_amp",
        static_cast<double>(db_bytes) / (static_cast<double>(live_records) * 16));
  }

  AddRunFacts(&r, args, setup.info, db_bytes);
  r.FactNum("error_rate", static_cast<double>(st.failed) / st.attempted);
  r.FactNum("clients", kClients);
  r.FactNum("joins", static_cast<double>(st.joins));
  r.FactNum("updates", static_cast<double>(st.updates));
  r.FactStr("daemon", banner);
  r.FactStr("result_cache", "on, default byte budget (64 MiB unless "
                            "PBITREE_RESULT_CACHE_BYTES is set)");
  uint64_t result_bytes = 0;
  for (const auto& [name, answer] : setup.reference) result_bytes += answer.pairs * 16;
  r.FactNum("all_results_bytes", static_cast<double>(result_bytes));
  std::string per_query;
  for (const Query& q : Queries()) {
    auto it = st.per_query_ms.find(q.name);
    if (it == st.per_query_ms.end()) continue;
    per_query += std::string(per_query.empty() ? "" : ", ") + JsonString(q.name) +
                 ": {\"p50_ms\": " + JsonNumber(it->second.Quantile(0.5)) +
                 ", \"mean_ms\": " + JsonNumber(it->second.Mean()) +
                 ", \"samples\": " + std::to_string(it->second.size()) + "}";
  }
  r.Fact("per_query", "{" + per_query + "}");
  r.FactNum("update_share", kUpdateShare);
  r.Fact("update_p50_ms", QuantileFact(st.update_ms, 0.5));
  r.Fact("update_p99_ms", QuantileFact(st.update_ms, 0.99));
  r.FactNum("epoch_checked_joins", static_cast<double>(mstate.epoch_checked_joins));
  r.FactStr("flush_policy", "every commit syncs before it is acknowledged");
  r.FactStr("fits_in_cache",
            "partly: all B1-B10 results fit the result cache, but every "
            "commit invalidates it, so joins after a commit run on the "
            "daemon's buffer pool (which holds the whole database)");
  r.Print(st.attempted, st.failed);
}

}  // namespace perfbench
