#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "checks.h"
#include "client/client.h"
#include "common/string_util.h"
#include "core/loader.h"
#include "core/micro_suite.h"
#include "core/scenarios.h"
#include "net/remote_driver.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "shard/shard_router.h"
#include "stats.h"
#include "storage/storage.h"
#include "storage/vfs.h"
#include "streams.h"
#include "tigergen/tigergen.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using jackpine::Result;
using jackpine::StrFormat;
using jackpine::client::Connection;
using jackpine::client::Statement;
using jackpine::obs::QueryTrace;
using jackpine::obs::SpanRecord;
using jackpine::obs::SpanRecorder;

// The dataset of the ROADMAP figures, the same in every run.
constexpr double kScale = 0.5;
constexpr uint64_t kDataSeed = 42;
// An untraced run is kRounds rounds, each timed set-ups for
// kSetupSecondsPerRound (and at least kMinSetupsPerRound of them) and then
// 1/kRounds of the measured time, so the set-ups sample the host over the
// whole run as the passes do; setup_s is the median of them all. A traced
// run sets up for one round's set-up time before it measures.
constexpr int kRounds = 10;
constexpr double kSetupSecondsPerRound = 0.25;
constexpr int kMinSetupsPerRound = 3;
// paper_shard2: passes of the 127 suite queries until the round's time
// is up, and at least one a round, so every query has kRounds or more tries
// at its best latency.
constexpr int kTracedPasses = 3;
// served_mixed_rw: a suite client runs its passes over the served
// connection while the read/write mix runs beside it, for the whole run.
// README.md gives the source of each value or calls it an assumption.
constexpr int kReaders = 2;
// Reads per writer operation: YCSB workload B's 95/5 read/update mix.
constexpr uint64_t kReadsPerWriterOp = 19;
// Probes (cache misses) per read: the miss share of the repo's Zipf 1.1
// cache experiment (BENCH_cache_overload.json, hit rate 0.963).
constexpr double kProbeShare = 0.04;
constexpr double kZipfS = 1.1;      // the same experiment's skew
constexpr int kReadbackEvery = 16;  // assumption
constexpr double kServedPerRound = 1000.0;  // ops per per-layer round
constexpr int kSpanEvery = 4;  // traced mix: one op in four gets a span
constexpr const char* kWriterTable = "bench_w";
constexpr const char* kWriterDdl[] = {
    "CREATE TABLE bench_w (id BIGINT, geom GEOMETRY)",
    "CREATE SPATIAL INDEX ON bench_w (geom)"};
constexpr const char* kReadbackSql = "SELECT COUNT(*), SUM(id) FROM bench_w";
constexpr int kShardPortBase = 47431;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Independent stream seeds from the run seed (splitmix64 finaliser).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Category { kTopo = 0, kAnalysis = 1, kMacro = 2 };
constexpr const char* kCategoryName[] = {"topo", "analysis", "macro"};

struct SuiteQuery {
  std::string id;
  std::string sql;
  Category category;
};

// The scenario seed of the suite as benchmark_runner runs it. E1-E3 are a
// fixed suite, like the paper's: --seed drives only the streams around it
// (the written rows, the served mix), so runs with different seeds measure
// the same query work.
constexpr uint64_t kScenarioSeed = 7;

// E1 (22 topological), E2 (14 analysis) and E3 (six scenarios, 91 queries)
// in the paper's order.
std::vector<SuiteQuery> PaperSuite(const TigerDataset& ds) {
  std::vector<SuiteQuery> out;
  for (auto& q : jackpine::core::BuildTopologicalSuite(ds)) {
    out.push_back({q.id, q.sql, kTopo});
  }
  for (auto& q : jackpine::core::BuildAnalysisSuite(ds)) {
    out.push_back({q.id, q.sql, kAnalysis});
  }
  for (auto& s : jackpine::core::BuildScenarios(ds, kScenarioSeed)) {
    for (auto& q : s.queries) out.push_back({q.id, q.sql, kMacro});
  }
  return out;
}

// The served readers' hot pool: the map, geocode and revgeo scenarios.
std::vector<std::string> ReaderPool(const TigerDataset& ds) {
  std::vector<std::string> pool;
  for (auto& s : jackpine::core::BuildScenarios(ds, kScenarioSeed)) {
    if (s.id != "map" && s.id != "geocode" && s.id != "revgeo") continue;
    for (auto& q : s.queries) pool.push_back(q.sql);
  }
  return pool;
}

// An in-process SUT holding the dataset: the reference engines.
Result<Connection> OpenLoaded(const std::string& sut, const TigerDataset& ds,
                              bool index) {
  JACKPINE_ASSIGN_OR_RETURN(Connection conn,
                            Connection::Open("jackpine:" + sut));
  JACKPINE_RETURN_IF_ERROR(
      jackpine::core::LoadDataset(ds, &conn, index).status());
  return conn;
}

// Suite samples of one measured phase.
struct Samples {
  std::vector<double> pass_ms[3];  // per category, per pass
  std::vector<Category> category;  // of each suite query
  std::vector<double> best_us;     // per suite query: fastest latency
  std::vector<uint64_t> timed;     // per suite query: answers timed
  // Every latency per suite query, kept only for the traced run's median
  // comparison, so a run's memory does not grow with its passes.
  std::vector<std::vector<double>> all_us;

  void Add(size_t query, double us) {
    best_us[query] =
        timed[query]++ == 0 ? us : std::min(best_us[query], us);
    if (!all_us.empty()) all_us[query].push_back(us);
  }
};

// Latencies of the served mix.
struct MixSamples {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t reads = 0, writer_ops = 0;  // started, read-backs included
  double window_s = 0.0;
};

struct SetupTimes {
  std::vector<double> sync_wait_ms;  // served: fsync waits left out of setup_s
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<double> load_ms;
  std::vector<double> index_ms;
};

// Every per-layer metric, zero where the workload has no such layer.
struct Layers {
  double generate_ms = 0, load_ms = 0, index_build_ms = 0;
  double client_overhead_us = 0, parse_us = 0, plan_us = 0;
  double exec_ms[3] = {0, 0, 0};
  double rows_scanned = 0, rows_examined = 0;
  double probes = 0, nodes = 0, candidates = 0;
  double filter_keep = 0, filter_base = 0;
  double refine_checks = 0, refine_survivors = 0, refine_keep = 0;
  double refine_ns_per_check = 0;
  double rpc_overhead_us = 0, bytes_sent = 0, rows_shipped = 0;
  double subqueries = 0, merge_in = 0, merge_out = 0, dedup = 0;
  double scatter_ms = 0, merge_ms = 0, border_dup = 0;
  double hit_ratio = 0, hits = 0, misses = 0, coalesced = 0;
  double admissions = 0, evictions = 0, invalidations = 0, cache_bytes = 0;
  double wal_bytes_per_row = 0, wal_fsyncs = 0, fsync_ms = 0;
  double checkpoints = 0, checkpoint_ms = 0;
  double overhead_pct = 0;
};

void EmitLayers(const Layers& l, Report* rep) {
  const char* kRound = "count/round";
  rep->Add("tigergen.generate_ms", l.generate_ms, "ms");
  rep->Add("core.load_ms", l.load_ms, "ms");
  rep->Add("core.index_build_ms", l.index_build_ms, "ms");
  rep->Add("client.overhead_us", l.client_overhead_us, "us");
  rep->Add("engine.parse_us", l.parse_us, "us");
  rep->Add("engine.plan_us", l.plan_us, "us");
  rep->Add("engine.exec_ms.topo", l.exec_ms[kTopo], "ms/round");
  rep->Add("engine.exec_ms.analysis", l.exec_ms[kAnalysis], "ms/round");
  rep->Add("engine.exec_ms.macro", l.exec_ms[kMacro], "ms/round");
  rep->Add("engine.rows_scanned", l.rows_scanned, kRound);
  rep->Add("engine.rows_examined", l.rows_examined, kRound);
  rep->Add("index.probes", l.probes, kRound);
  rep->Add("index.nodes_visited", l.nodes, kRound);
  rep->Add("index.candidates", l.candidates, kRound);
  rep->Add("index.filter_keep_ratio", l.filter_keep, "ratio");
  rep->Add("index.filter_base_candidates", l.filter_base, kRound);
  rep->Add("topo.refine_checks", l.refine_checks, kRound);
  rep->Add("topo.refine_survivors", l.refine_survivors, kRound);
  rep->Add("topo.refine_keep_ratio", l.refine_keep, "ratio");
  rep->Add("topo.refine_ns_per_check", l.refine_ns_per_check, "ns");
  rep->Add("net.rpc_overhead_us", l.rpc_overhead_us, "us");
  rep->Add("net.bytes_sent", l.bytes_sent, "bytes/round");
  rep->Add("net.rows_shipped", l.rows_shipped, kRound);
  rep->Add("shard.subqueries", l.subqueries, kRound);
  rep->Add("shard.merge_rows_in", l.merge_in, kRound);
  rep->Add("shard.merge_rows_out", l.merge_out, kRound);
  rep->Add("shard.dedup_dropped", l.dedup, kRound);
  rep->Add("shard.scatter_ms", l.scatter_ms, "ms/round");
  rep->Add("shard.merge_ms", l.merge_ms, "ms/round");
  rep->Add("shard.border_dup_factor", l.border_dup, "ratio");
  rep->Add("cache.hit_ratio", l.hit_ratio, "ratio");
  rep->Add("cache.hits", l.hits, kRound);
  rep->Add("cache.misses", l.misses, kRound);
  rep->Add("cache.coalesced", l.coalesced, kRound);
  rep->Add("cache.admissions", l.admissions, kRound);
  rep->Add("cache.evictions", l.evictions, kRound);
  rep->Add("cache.invalidations", l.invalidations, kRound);
  rep->Add("cache.bytes", l.cache_bytes, "bytes");
  rep->Add("storage.wal_bytes_per_row", l.wal_bytes_per_row, "bytes");
  rep->Add("storage.wal_fsyncs", l.wal_fsyncs, kRound);
  rep->Add("storage.fsync_ms", l.fsync_ms, "ms");
  rep->Add("storage.checkpoints", l.checkpoints, kRound);
  rep->Add("storage.checkpoint_ms", l.checkpoint_ms, "ms");
  rep->Add("trace.overhead_pct", l.overhead_pct, "%");
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Geometric mean of the per-query median latencies: the tracing-overhead
// comparison, where the two phases run different numbers of passes (a best
// of N would favour the longer phase).
double MedianGeoMeanUs(const Samples& s) {
  std::vector<double> medians;
  for (const auto& q : s.all_us) medians.push_back(Median(q));
  return GeoMean(medians).value_or(0.0);
}

// A query's cost on this path is its fastest latency over the passes (on a
// shared host the vCPU speed swings by a third within seconds, so medians
// over passes follow the host's load; the best of N passes does not). A
// query without a timed answer fails the run instead of leaving a hole in
// the sums.
void EmitEndToEnd(const SetupTimes& setup, const Samples& s,
                  const std::vector<SuiteQuery>& suite, Report* rep) {
  double best_ms[3] = {0, 0, 0};
  for (size_t i = 0; i < s.best_us.size(); ++i) {
    if (s.timed[i] == 0) {
      rep->Check(suite[i].id +
                 ": no timed answer, its metrics would be partial");
      return;
    }
    best_ms[s.category[i]] += s.best_us[i] / 1e3;
  }
  rep->Add("setup_s", Median(setup.setup_s), "s");
  rep->Add("peak_rss_mb", PeakRssMb(), "MB");
  rep->Add("topo_pass_ms", best_ms[kTopo], "ms");
  rep->Add("analysis_pass_ms", best_ms[kAnalysis], "ms");
  rep->Add("macro_pass_ms", best_ms[kMacro], "ms");
  rep->Add("query_geomean_us", GeoMean(s.best_us).value_or(0.0), "us");
  for (int c = 0; c < 3; ++c) {
    const auto& v = s.pass_ms[c];
    if (v.empty()) continue;
    rep->notes.push_back(StrFormat(
        "%s pass ms: best-of-passes sum %.3f; whole passes min %.3f, "
        "median %.3f, max %.3f",
        kCategoryName[c], best_ms[c], *std::min_element(v.begin(), v.end()),
        Median(v), *std::max_element(v.begin(), v.end())));
  }
  const auto& su = setup.setup_s;
  rep->notes.push_back(StrFormat("set-up s: min %.6f, median %.6f, max %.6f",
                                 *std::min_element(su.begin(), su.end()),
                                 Median(su),
                                 *std::max_element(su.begin(), su.end())));
  if (!setup.sync_wait_ms.empty()) {
    rep->notes.push_back(StrFormat(
        "set-up fsync wait (left out of setup_s): median %.3f ms, max %.3f ms",
        Median(setup.sync_wait_ms),
        *std::max_element(setup.sync_wait_ms.begin(),
                          setup.sync_wait_ms.end())));
  }
  rep->notes.push_back(StrFormat("samples: %zu set-ups, %zu suite passes",
                                 setup.setup_s.size(),
                                 s.pass_ms[kTopo].size()));
}

// The served mix as its clients saw it (reported, not gated: README.md).
void ReportMix(const MixSamples& m, Report* rep) {
  auto line = [&](const char* what, const std::vector<double>& ms) {
    const auto p99 = TailP99(ms);
    rep->notes.push_back(StrFormat(
        "%s: %zu ops, %.1f ops/s, p50 %.4f ms, p99 %s (window %.2f s)", what,
        ms.size(), Ratio(static_cast<double>(ms.size()), m.window_s),
        Median(ms),
        p99 ? StrFormat("%.4f ms", *p99).c_str()
            : "not reported (< 10 samples beyond it)",
        m.window_s));
  };
  line("mix reads", m.read_ms);
  line("mix writes (durable INSERT)", m.write_ms);
  rep->notes.push_back(StrFormat(
      "mix ratio: %llu reads per %llu writer operations (%.2f : 1, fixed at "
      "%llu : 1; read-backs are writer operations)",
      static_cast<unsigned long long>(m.reads),
      static_cast<unsigned long long>(m.writer_ops),
      Ratio(static_cast<double>(m.reads), static_cast<double>(m.writer_ops)),
      static_cast<unsigned long long>(kReadsPerWriterOp)));
}

void FillSetupLayers(const SetupTimes& setup, Layers* l) {
  l->generate_ms = Median(setup.generate_ms);
  l->load_ms = Median(setup.load_ms);
  l->index_build_ms = Median(setup.index_ms);
}

// Overhead of tracing: the traced phase's figure against the untraced
// phase's, as a percentage, with both printed.
double TraceOverhead(const char* what, double untraced, double traced,
                     Report* rep) {
  const double pct = untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
  rep->notes.push_back(StrFormat(
      "tracing overhead on %s: untraced %.4f, traced %.4f (%+.1f%%)", what,
      untraced, traced, pct));
  return pct;
}

void PrintSelfTimes(const std::vector<SpanRecord>& spans, Report* rep) {
  rep->notes.push_back("layer self time (spans):");
  rep->notes.push_back(StrFormat("  %-28s %8s %12s %12s", "span", "count",
                                 "total_ms", "self_ms"));
  for (const LayerTime& t : SelfTimes(spans)) {
    rep->notes.push_back(StrFormat("  %-28s %8llu %12.3f %12.3f",
                                   t.name.c_str(),
                                   static_cast<unsigned long long>(t.spans),
                                   t.total_ms, t.self_ms));
  }
}

void FinishTrace(const Options& opts, std::vector<SpanRecord> spans,
                 Report* rep) {
  rep->notes.push_back(StrFormat(
      "%zu spans recorded, %llu dropped (recorder full)", spans.size(),
      static_cast<unsigned long long>(
          jackpine::obs::GlobalSpanRecorder().dropped())));
  PrintSelfTimes(spans, rep);
  const std::string path =
      StrFormat("%s/trace-%s.json", kOutDir,
                opts.workload.c_str());
  if (WriteChromeTrace(path, spans)) {
    rep->notes.push_back("chrome trace: " + path);
  } else {
    rep->notes.push_back("chrome trace: could not write " + path);
  }
}

uint64_t CounterValue(const char* name) {
  return jackpine::obs::GlobalRegistry().GetCounter(name)->value();
}

jackpine::obs::Histogram::Snapshot HistogramSnapshot(const char* name) {
  return jackpine::obs::GlobalRegistry().GetHistogram(name)->snapshot();
}

// Mean of a registry histogram over an interval, from two snapshots.
double IntervalMean(const jackpine::obs::Histogram::Snapshot& before,
                    const jackpine::obs::Histogram::Snapshot& after) {
  return Ratio(after.sum - before.sum,
               static_cast<double>(after.count - before.count));
}

// ---------------------------------------------------------------------------
// paper_shard2

// The system under test for one set-up: the dataset, the two shard servers
// and the router's client connection.
struct PaperEnv {
  TigerDataset ds;
  std::vector<std::unique_ptr<jackpine::net::Server>> servers;
  std::optional<Connection> conn;

  ~PaperEnv() {
    conn.reset();
    for (auto& s : servers) s->Shutdown();
  }
};

// The dataset, timed into `times`.
TigerDataset Generate(SetupTimes* times) {
  jackpine::obs::Span span =
      jackpine::obs::GlobalSpanRecorder().StartSpan("bench.setup.generate");
  const double t0 = Now();
  jackpine::tigergen::TigerGenOptions gen;
  gen.scale = kScale;
  gen.seed = kDataSeed;
  TigerDataset ds = jackpine::tigergen::GenerateTiger(gen);
  times->generate_ms.push_back((Now() - t0) * 1e3);
  return ds;
}

Result<std::unique_ptr<PaperEnv>> SetUpPaper(SetupTimes* times) {
  SpanRecorder& rec = jackpine::obs::GlobalSpanRecorder();
  auto env = std::make_unique<PaperEnv>();
  const double t0 = Now();
  env->ds = Generate(times);
  jackpine::obs::Span span = rec.StartSpan("bench.setup.server_start");
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    // The router hashes cells to shards by endpoint label (host:port), so
    // fixed ports give every run the same partition. Another port would
    // measure another partition: a taken port fails the set-up.
    jackpine::net::ServerOptions so;
    so.cache_off = true;
    so.port = static_cast<uint16_t>(kShardPortBase + i);
    JACKPINE_ASSIGN_OR_RETURN(auto server, jackpine::net::Server::Start(so));
    endpoints.push_back(StrFormat("127.0.0.1:%u", unsigned{server->port()}));
    env->servers.push_back(std::move(server));
  }
  span.End();
  const std::string url =
      StrFormat("jackpine:shard(%s;replicate=county)/pine-rtree",
                jackpine::Join(endpoints, ",").c_str());
  JACKPINE_ASSIGN_OR_RETURN(Connection conn, Connection::Open(url));
  env->conn.emplace(std::move(conn));
  jackpine::obs::Span load_span = rec.StartSpan("bench.setup.load");
  JACKPINE_ASSIGN_OR_RETURN(jackpine::core::LoadTiming lt,
                            jackpine::core::LoadDataset(env->ds, &*env->conn));
  load_span.End();
  times->setup_s.push_back(Now() - t0);
  times->load_ms.push_back((lt.create_s + lt.insert_s) * 1e3);
  times->index_ms.push_back(lt.index_s * 1e3);
  return env;
}

// Per-layer accumulation over traced queries.
struct LayerTrace {
  QueryTrace total;
  double exec_s[3] = {0, 0, 0};
  double overhead_s = 0.0;  // client latency minus engine total, summed
  uint64_t fed_candidates = 0, fed_survivors = 0;  // index-fed queries
  double refine_exec_s = 0.0;  // T5..T11
  uint64_t refine_checks = 0;  // T5..T11

  // Folds one query's trace in. The filter ratio counts index-fed queries
  // only (no heap-scanned rows), so its survivors all came from candidates.
  void Add(const QueryTrace& qt) {
    total += qt;
    if (qt.rows_scanned == 0 && qt.index_candidates > 0) {
      fed_candidates += qt.index_candidates;
      fed_survivors += qt.refine_survivors;
    }
  }
};

// The pipeline counters of `t`, per round.
void FillPipelineLayers(const LayerTrace& t, double rounds, Layers* l) {
  l->rows_scanned = t.total.rows_scanned / rounds;
  l->rows_examined = t.total.rows_examined / rounds;
  l->probes = t.total.index_probes / rounds;
  l->nodes = t.total.index_nodes_visited / rounds;
  l->candidates = t.total.index_candidates / rounds;
  l->filter_base = t.fed_candidates / rounds;
  l->filter_keep = Ratio(t.fed_survivors, t.fed_candidates);
  l->refine_checks = t.total.refine_checks / rounds;
  l->refine_survivors = t.total.refine_survivors / rounds;
  l->refine_keep = Ratio(t.total.refine_survivors, t.total.refine_checks);
}

bool IsRefineBound(const std::string& id) {
  static const char* kIds[] = {"T5", "T6", "T7", "T8", "T9", "T10", "T11"};
  return std::find(std::begin(kIds), std::end(kIds), id) != std::end(kIds);
}

struct PaperRun {
  PaperEnv* env;
  std::vector<SuiteQuery> suite;
  std::vector<AnswerDigest> reference;
  std::optional<Statement> stmt;
  Report* rep;
};

// Starts an empty sample set for `suite`; `keep_all` keeps every latency.
Samples NewSamples(const std::vector<SuiteQuery>& suite, bool keep_all) {
  Samples s;
  for (const SuiteQuery& q : suite) s.category.push_back(q.category);
  s.best_us.assign(suite.size(), 0.0);
  s.timed.assign(suite.size(), 0);
  if (keep_all) s.all_us.resize(suite.size());
  return s;
}

// One pass of the suite, every answer compared with the reference.
void RunPass(PaperRun* run, Samples* s, LayerTrace* trace) {
  SpanRecorder& rec = jackpine::obs::GlobalSpanRecorder();
  Report* rep = run->rep;
  Statement& stmt = *run->stmt;
  double pass_ms[3] = {0, 0, 0};
  for (size_t i = 0; i < run->suite.size(); ++i) {
    const SuiteQuery& q = run->suite[i];
    QueryTrace qt;
    jackpine::obs::Span span;
    if (trace != nullptr) {
      span = rec.StartSpan("bench.query", rec.NewTraceId());
      span.Annotate("id", q.id);
      jackpine::ExecLimits limits;
      limits.trace = &qt;
      limits.spans = &rec;
      limits.trace_id = span.trace_id();
      limits.parent_span_id = span.span_id();
      stmt.SetExecLimits(limits);
    }
    const double t0 = Now();
    auto r = stmt.ExecuteQuery(q.sql);
    const double dt = Now() - t0;
    span.End();
    ++rep->attempted;
    if (!r.ok()) {
      ++rep->failed;
      rep->Check(q.id + " failed: " + r.status().ToString());
      continue;
    }
    rep->Check(CheckSameAnswer(q.id, Digest(r->raw()), run->reference[i]));
    pass_ms[q.category] += dt * 1e3;
    s->Add(i, dt * 1e6);
    if (trace != nullptr) {
      trace->Add(qt);
      trace->exec_s[q.category] += qt.exec_s;
      trace->overhead_s += dt - qt.total_s;
      if (IsRefineBound(q.id)) {
        trace->refine_exec_s += qt.exec_s;
        trace->refine_checks += qt.refine_checks;
      }
    }
  }
  if (trace != nullptr) stmt.SetExecLimits(jackpine::ExecLimits{});
  for (int c = 0; c < 3; ++c) s->pass_ms[c].push_back(pass_ms[c]);
}

// Passes into `s` for `seconds`, and at least `min_passes`.
void MeasurePasses(PaperRun* run, double seconds, int min_passes, Samples* s,
                   LayerTrace* trace) {
  const double deadline = Now() + seconds;
  for (int pass = 0; pass < min_passes || Now() < deadline; ++pass) {
    RunPass(run, s, trace);
  }
}

// Checks of the warm-up pass: closed forms, bounds, T8 <= T7, pine-mbr as
// an upper bound on envelope-monotone predicates, and the reference answer.
void CheckWarmup(const PaperRun& run,
                 const std::vector<jackpine::engine::QueryResult>& answers,
                 Report* rep) {
  const ClosedForm cf = ComputeClosedForm(run.env->ds);
  auto mbr = OpenLoaded("pine-mbr", run.env->ds, true);
  if (!mbr.ok()) {
    rep->Check("pine-mbr reference: " + mbr.status().ToString());
    return;
  }
  Statement mbr_stmt = mbr->CreateStatement();
  const jackpine::engine::QueryResult* t7 = nullptr;
  const jackpine::engine::QueryResult* t8 = nullptr;
  for (size_t i = 0; i < run.suite.size(); ++i) {
    const SuiteQuery& q = run.suite[i];
    rep->Check(CheckSameAnswer(q.id, Digest(answers[i]), run.reference[i]));
    rep->Check(CheckClosedForm(cf, q.id, answers[i]));
    if (q.id == "T7") t7 = &answers[i];
    if (q.id == "T8") t8 = &answers[i];
    if (IsEnvelopeMonotone(q.id)) {
      auto m = mbr_stmt.ExecuteQuery(q.sql);
      if (!m.ok()) {
        rep->Check(q.id + " on pine-mbr: " + m.status().ToString());
      } else {
        rep->Check(CheckMbrAtLeastExact(q.id, m->raw(), answers[i]));
      }
    }
  }
  if (t7 != nullptr && t8 != nullptr) {
    rep->Check(CheckCrossesWithinIntersects(*t7, *t8));
  } else {
    rep->Check("T7/T8 missing from the suite");
  }
}

// An index must not change an answer: every reference answer (pine-rtree)
// against the index-free pine-scan SUT.
void CheckIndexFree(const PaperRun& run, Report* rep) {
  auto scan = OpenLoaded("pine-scan", run.env->ds, false);
  if (!scan.ok()) {
    rep->Check("pine-scan reference: " + scan.status().ToString());
    return;
  }
  Statement st = scan->CreateStatement();
  for (size_t i = 0; i < run.suite.size(); ++i) {
    const SuiteQuery& q = run.suite[i];
    auto r = st.ExecuteQuery(q.sql);
    if (!r.ok()) {
      rep->Check(q.id + " on pine-scan: " + r.status().ToString());
      continue;
    }
    rep->Check(CheckSameAnswer(q.id + " (pine-rtree against pine-scan)",
                               run.reference[i], Digest(r->raw())));
  }
}

// Rows stored across the shards per dataset row.
double BorderDupFactor(PaperEnv* env) {
  double stored = 0.0;
  for (auto& server : env->servers) {
    Statement st = server->connection().CreateStatement();
    for (const char* t : {"county", "edges", "pointlm", "arealm", "areawater"}) {
      auto r = st.ExecuteQuery(StrFormat("SELECT COUNT(*) FROM %s", t));
      if (r.ok()) stored += static_cast<double>(CellInt(r->raw()));
    }
  }
  return Ratio(stored, static_cast<double>(env->ds.TotalRows()));
}

void RunShard(const Options& opts, Report* rep) {
  SetupTimes times;
  std::unique_ptr<PaperEnv> env;
  // One round's set-ups in a row; the last one stays up.
  auto set_up = [&] {
    const double end = Now() + kSetupSecondsPerRound;
    for (int k = 0; k < kMinSetupsPerRound || Now() < end; ++k) {
      env.reset();
      auto made = SetUpPaper(&times);
      if (!made.ok()) {
        rep->Check("set-up failed: " + made.status().ToString());
        return false;
      }
      env = std::move(*made);
    }
    return true;
  };
  if (!set_up()) return;

  PaperRun run;
  run.env = env.get();
  run.rep = rep;
  run.suite = PaperSuite(env->ds);
  // The reference: an in-process pine-rtree engine.
  auto ref = OpenLoaded("pine-rtree", env->ds, true);
  if (!ref.ok()) {
    rep->Check("reference engine: " + ref.status().ToString());
    return;
  }
  Statement ref_stmt = ref->CreateStatement();
  for (const SuiteQuery& q : run.suite) {
    auto r = ref_stmt.ExecuteQuery(q.sql);
    if (!r.ok()) {
      rep->Check(q.id + " on the reference: " + r.status().ToString());
      return;
    }
    run.reference.push_back(Digest(r->raw()));
  }

  run.stmt.emplace(env->conn->CreateStatement());

  // Warm-up pass: every answer checked in full, nothing measured.
  std::vector<jackpine::engine::QueryResult> answers;
  for (const SuiteQuery& q : run.suite) {
    auto r = run.stmt->ExecuteQuery(q.sql);
    if (!r.ok()) {
      rep->Check(q.id + " warm-up: " + r.status().ToString());
      return;
    }
    answers.push_back(r->ReleaseRaw());
  }
  CheckWarmup(run, answers, rep);
  CheckIndexFree(run, rep);

  if (!opts.trace) {
    Samples s = NewSamples(run.suite, false);
    for (int round = 0; round < kRounds; ++round) {
      if (round > 0) {
        run.stmt.reset();
        if (!set_up()) return;
        run.env = env.get();
        run.stmt.emplace(env->conn->CreateStatement());
      }
      MeasurePasses(&run, opts.seconds / kRounds, 1, &s, nullptr);
    }
    EmitEndToEnd(times, s, run.suite, rep);
    return;
  }

  // Traced run: an untraced phase, then kTracedPasses traced passes.
  Samples untraced = NewSamples(run.suite, true);
  MeasurePasses(&run, opts.seconds / 2, 3, &untraced, nullptr);
  auto* subq = jackpine::obs::GlobalRegistry().GetCounter("shard.subqueries");
  const uint64_t sub0 = subq->value();
  const uint64_t in0 = CounterValue("shard.merge.rows_in");
  const uint64_t out0 = CounterValue("shard.merge.rows_out");
  const uint64_t dd0 = CounterValue("shard.dedup_dropped");
  uint64_t bytes0 = 0, rows0 = 0;
  for (auto& sv : env->servers) {
    bytes0 += sv->counters().bytes_sent;
    rows0 += sv->counters().rows_returned;
  }
  LayerTrace pt;
  Samples traced = NewSamples(run.suite, true);
  MeasurePasses(&run, 0.0, kTracedPasses, &traced, &pt);
  std::vector<SpanRecord> spans = jackpine::obs::GlobalSpanRecorder().Drain();

  // The in-process client's own cost (client latency minus the engine's
  // total), from traced passes on the in-process reference engine, after
  // the spans above are drained so they stay out of the span tables.
  PaperRun local;
  local.env = env.get();
  local.rep = rep;
  local.suite = run.suite;
  local.reference = run.reference;
  local.stmt.emplace(ref->CreateStatement());
  LayerTrace lt;
  Samples local_s = NewSamples(run.suite, false);
  MeasurePasses(&local, 0.0, kTracedPasses, &local_s, &lt);
  jackpine::obs::GlobalSpanRecorder().Drain();

  const double passes = kTracedPasses;
  const double queries = static_cast<double>(run.suite.size()) * passes;
  Layers l;
  FillSetupLayers(times, &l);
  l.rpc_overhead_us = pt.overhead_s / queries * 1e6;
  l.client_overhead_us = lt.overhead_s / queries * 1e6;
  l.parse_us = pt.total.parse_s / queries * 1e6;
  l.plan_us = pt.total.plan_s / queries * 1e6;
  for (int c = 0; c < 3; ++c) l.exec_ms[c] = pt.exec_s[c] / passes * 1e3;
  FillPipelineLayers(pt, passes, &l);
  l.refine_ns_per_check = Ratio(pt.refine_exec_s * 1e9, pt.refine_checks);
  uint64_t bytes1 = 0, rows1 = 0;
  for (auto& sv : env->servers) {
    bytes1 += sv->counters().bytes_sent;
    rows1 += sv->counters().rows_returned;
  }
  l.bytes_sent = (bytes1 - bytes0) / passes;
  l.rows_shipped = (rows1 - rows0) / passes;
  l.subqueries = (subq->value() - sub0) / passes;
  l.merge_in = (CounterValue("shard.merge.rows_in") - in0) / passes;
  l.merge_out = (CounterValue("shard.merge.rows_out") - out0) / passes;
  l.dedup = (CounterValue("shard.dedup_dropped") - dd0) / passes;
  l.scatter_ms = SpanTotalMs(spans, "shard.scatter") / passes;
  l.merge_ms = SpanTotalMs(spans, "shard.merge") / passes;
  l.border_dup = BorderDupFactor(env.get());
  rep->notes.push_back(StrFormat(
      "border duplication: %.4f rows stored across the shards per dataset "
      "row (%zu dataset rows)",
      l.border_dup, env->ds.TotalRows()));
  rep->notes.push_back(StrFormat(
      "client overhead: %.2f us per query in process (reference engine), "
      "%.2f us through the router and the wire",
      l.client_overhead_us, l.rpc_overhead_us));
  rep->notes.push_back(StrFormat(
      "filter ratio over index-fed queries (rows_scanned == 0): %.4f of "
      "%.0f candidates per pass",
      l.filter_keep, l.filter_base));
  l.overhead_pct =
      TraceOverhead("query latency (geomean of per-query medians, us)",
                    MedianGeoMeanUs(untraced), MedianGeoMeanUs(traced), rep);
  for (int c = 0; c < 3; ++c) {
    TraceOverhead(StrFormat("%s pass (median, ms)", kCategoryName[c]).c_str(),
                  Median(untraced.pass_ms[c]), Median(traced.pass_ms[c]), rep);
  }
  FinishTrace(opts, std::move(spans), rep);
  EmitLayers(l, rep);
}

// ---------------------------------------------------------------------------
// served_mixed_rw

// The real filesystem, with the time its fsyncs (files and directories)
// wait added up. A served set-up leaves that wait out of setup_s: on a
// shared disk it varies from run to run by more than the set-up's own work
// (README.md).
class SyncTimedVfs : public jackpine::storage::Vfs {
 public:
  double sync_s() const { return sync_ns_.load() / 1e9; }

  Result<std::unique_ptr<jackpine::storage::WritableFile>> OpenAppend(
      const std::string& path) override {
    JACKPINE_ASSIGN_OR_RETURN(auto file, base_->OpenAppend(path));
    return std::unique_ptr<jackpine::storage::WritableFile>(
        std::make_unique<File>(std::move(file), &sync_ns_));
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  jackpine::Status Rename(const std::string& from,
                          const std::string& to) override {
    return base_->Rename(from, to);
  }
  jackpine::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  jackpine::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  jackpine::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  jackpine::Status SyncDir(const std::string& path) override {
    return Timed(&sync_ns_, [&] { return base_->SyncDir(path); });
  }

 private:
  template <typename Call>
  static jackpine::Status Timed(std::atomic<uint64_t>* ns, Call call) {
    const auto t0 = std::chrono::steady_clock::now();
    jackpine::Status st = call();
    *ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count();
    return st;
  }

  class File : public jackpine::storage::WritableFile {
   public:
    File(std::unique_ptr<jackpine::storage::WritableFile> base,
         std::atomic<uint64_t>* sync_ns)
        : base_(std::move(base)), sync_ns_(sync_ns) {}
    jackpine::Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    jackpine::Status Sync() override {
      return Timed(sync_ns_, [&] { return base_->Sync(); });
    }
    jackpine::Status Close() override { return base_->Close(); }
    uint64_t size() const override { return base_->size(); }

   private:
    std::unique_ptr<jackpine::storage::WritableFile> base_;
    std::atomic<uint64_t>* sync_ns_;
  };

  jackpine::storage::Vfs* base_ = jackpine::storage::RealVfs();
  std::atomic<uint64_t> sync_ns_{0};
};

struct ServedEnv {
  TigerDataset ds;
  std::string dir;
  SyncTimedVfs vfs;  // outlives the storage manager
  std::unique_ptr<jackpine::net::Server> server;
  std::unique_ptr<jackpine::storage::StorageManager> store;

  // Stops the server, then drops the storage manager without Close() —
  // the crash model: whatever was acknowledged must be in the WAL.
  void Crash() {
    if (server) server->Shutdown();
    store.reset();
  }
  ~ServedEnv() {
    Crash();
    server.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

jackpine::storage::StorageOptions StoreOptions(
    const std::string& dir, jackpine::storage::Vfs* vfs = nullptr) {
  jackpine::storage::StorageOptions so;
  so.dir = dir;
  so.vfs = vfs;
  so.group_commit_window_s = 0.0;   // one fsync per acknowledged write
  so.checkpoint_interval_s = 1e9;   // no timed checkpoints: only the
  so.checkpoint_wal_bytes = 64 << 10;  // WAL-size trigger, every 64 KiB
  return so;
}

Result<std::unique_ptr<ServedEnv>> SetUpServed(int k, SetupTimes* times) {
  SpanRecorder& rec = jackpine::obs::GlobalSpanRecorder();
  auto env = std::make_unique<ServedEnv>();
  const double t0 = Now();
  env->ds = Generate(times);
  env->dir = StrFormat("%s/served-store-%d", kOutDir, k);
  std::error_code ec;
  fs::remove_all(env->dir, ec);
  fs::create_directories(env->dir, ec);
  {
    jackpine::obs::Span span = rec.StartSpan("bench.setup.server_start");
    jackpine::net::ServerOptions so;  // result cache on (the default)
    JACKPINE_ASSIGN_OR_RETURN(env->server, jackpine::net::Server::Create(so));
  }
  {
    jackpine::obs::Span span = rec.StartSpan("bench.setup.storage_open");
    JACKPINE_ASSIGN_OR_RETURN(
        env->store,
        jackpine::storage::StorageManager::Open(
            StoreOptions(env->dir, &env->vfs),
            &env->server->connection().database()));
  }
  jackpine::obs::Span load_span = rec.StartSpan("bench.setup.load");
  JACKPINE_ASSIGN_OR_RETURN(
      jackpine::core::LoadTiming lt,
      jackpine::core::LoadDataset(env->ds, &env->server->connection()));
  JACKPINE_RETURN_IF_ERROR(env->store->Checkpoint());
  load_span.End();
  env->server->StartServing();
  times->setup_s.push_back(Now() - t0 - env->vfs.sync_s());
  times->sync_wait_ms.push_back(env->vfs.sync_s() * 1e3);
  times->load_ms.push_back((lt.create_s + lt.insert_s) * 1e3);
  times->index_ms.push_back(lt.index_s * 1e3);
  return env;
}

// The served mix as one operation stream: every cycle is
// kReadsPerWriterOp reads and one writer operation. A read waits while the
// reads of the current cycle have all started, and the writer waits until
// they have, so the read:write ratio is the same whatever the speed of
// either side.
class MixGate {
 public:
  explicit MixGate(double deadline)
      : deadline_(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(deadline)))) {}

  // Each returns false once the deadline has passed.
  bool EnterRead() {
    return Enter([this] { return reads_ < (writes_ + 1) * kReadsPerWriterOp; },
                 &reads_);
  }
  bool EnterWrite() {
    return Enter([this] { return reads_ >= (writes_ + 1) * kReadsPerWriterOp; },
                 &writes_);
  }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  template <typename Ready>
  bool Enter(Ready ready, uint64_t* started) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_until(lock, deadline_, ready)) return false;
    if (std::chrono::steady_clock::now() >= deadline_) return false;
    ++*started;
    cv_.notify_all();
    return true;
  }

  const std::chrono::steady_clock::time_point deadline_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t reads_ = 0, writes_ = 0;
};

// A reader keeps, per read, its latency, and per probe what the checks need
// (the digest); the probe's SQL is replayed from a second stream with the
// same seed when the probes are checked after the window.
struct Reader {
  std::optional<Connection> conn;
  std::optional<Statement> stmt;
  std::optional<ZipfStream> zipf;
  std::optional<ProbeStream> probes;
  std::optional<ProbeStream> replay;  // the same probes, for the checks
  std::optional<jackpine::Rng> mix;
  std::vector<double> read_ms;
  std::vector<AnswerDigest> probe_answers;
  std::vector<std::string> problems;
  uint64_t attempted = 0, failed = 0;
};

struct Writer {
  std::optional<Connection> conn;
  std::optional<Statement> stmt;
  std::optional<WriteStream> rows;
  std::vector<double> write_ms;
  std::vector<std::string> problems;
  uint64_t ops = 0;  // writer operations, read-backs included
  uint64_t attempted = 0, failed = 0;
  int64_t acked = 0, acked_sum = 0;
};

void ReaderLoop(Reader* r, MixGate* gate, const std::vector<std::string>& pool,
                const std::vector<AnswerDigest>& pool_ref, SpanRecorder* rec) {
  while (gate->EnterRead()) {
    int slot = -1;  // pool slot, or -1 for a probe
    std::string sql;
    if (r->mix->NextBool(kProbeShare)) {
      sql = r->probes->Next().sql;
    } else {
      slot = static_cast<int>(r->zipf->Next());
      sql = pool[slot];
    }
    jackpine::obs::Span span;
    if (rec != nullptr && r->attempted % kSpanEvery == 0) {
      span = rec->StartSpan("bench.read");
    }
    const double t0 = Now();
    auto res = r->stmt->ExecuteQuery(sql);
    const double ms = (Now() - t0) * 1e3;
    span.End();
    ++r->attempted;
    if (!res.ok()) {
      ++r->failed;
      r->problems.push_back("read failed: " + res.status().ToString());
      continue;
    }
    r->read_ms.push_back(ms);
    if (slot >= 0) {
      const std::string verdict =
          CheckSameAnswer(StrFormat("pool slot %d", slot), Digest(res->raw()),
                          pool_ref[slot]);
      if (!verdict.empty()) r->problems.push_back(verdict);
    } else {
      r->probe_answers.push_back(Digest(res->raw()));
    }
  }
}

void WriterLoop(Writer* w, MixGate* gate, SpanRecorder* rec) {
  while (gate->EnterWrite()) {
    const bool readback = (w->ops + 1) % kReadbackEvery == 0;
    ++w->ops;
    ++w->attempted;
    if (readback) {
      auto res = w->stmt->ExecuteQuery(kReadbackSql);
      if (!res.ok()) {
        ++w->failed;
        w->problems.push_back("read-back failed: " + res.status().ToString());
        continue;
      }
      const std::string verdict =
          CheckReadback(res->raw(), w->acked, w->acked_sum);
      if (!verdict.empty()) w->problems.push_back(verdict);
      continue;
    }
    int64_t id = 0;
    const std::string sql = w->rows->NextInsert(kWriterTable, &id);
    jackpine::obs::Span span;
    if (rec != nullptr && w->ops % kSpanEvery == 0) {
      span = rec->StartSpan("bench.write");
    }
    const double t0 = Now();
    auto res = w->stmt->ExecuteUpdate(sql);
    const double ms = (Now() - t0) * 1e3;
    span.End();
    if (!res.ok()) {
      ++w->failed;
      w->problems.push_back("write failed: " + res.status().ToString());
      continue;
    }
    w->acked += 1;
    w->acked_sum += id;
    w->write_ms.push_back(ms);
  }
}

// One mixed window: kReaders readers and the writer, closed loop, at the
// fixed read:write ratio.
MixSamples RunMix(std::vector<Reader>* readers, Writer* writer,
                  const std::vector<std::string>& pool,
                  const std::vector<AnswerDigest>& pool_ref, double seconds,
                  SpanRecorder* rec, Report* rep) {
  const double t0 = Now();
  MixGate gate(t0 + seconds);
  std::vector<std::thread> threads;
  for (Reader& r : *readers) {
    threads.emplace_back(ReaderLoop, &r, &gate, std::cref(pool),
                         std::cref(pool_ref), rec);
  }
  threads.emplace_back(WriterLoop, writer, &gate, rec);
  for (auto& t : threads) t.join();

  MixSamples mix;
  mix.window_s = Now() - t0;
  mix.reads = gate.reads();
  mix.writer_ops = gate.writes();
  for (Reader& r : *readers) {
    mix.read_ms.insert(mix.read_ms.end(), r.read_ms.begin(), r.read_ms.end());
    r.read_ms = {};
    rep->attempted += r.attempted;
    rep->failed += r.failed;
    r.attempted = r.failed = 0;
    for (auto& p : r.problems) rep->Check(p);
    r.problems.clear();
  }
  rep->attempted += writer->attempted;
  rep->failed += writer->failed;
  writer->attempted = writer->failed = 0;
  for (auto& p : writer->problems) rep->Check(p);
  writer->problems.clear();
  mix.write_ms = std::move(writer->write_ms);
  writer->write_ms = {};
  return mix;
}

void AppendMix(MixSamples window, MixSamples* mix) {
  mix->read_ms.insert(mix->read_ms.end(), window.read_ms.begin(),
                      window.read_ms.end());
  mix->write_ms.insert(mix->write_ms.end(), window.write_ms.begin(),
                       window.write_ms.end());
  mix->reads += window.reads;
  mix->writer_ops += window.writer_ops;
  mix->window_s += window.window_s;
}

// Probes never repeat, so each is checked after the window: its SQL is
// replayed on the in-process reference engine, and nearest-road answers
// are checked against the brute force. `trace` (nullable) collects the
// replay's pipeline counters — the index work the server did for these
// cache misses.
void CheckProbes(std::vector<Reader>* readers, const TigerDataset& ds,
                 Statement* ref, LayerTrace* trace, Report* rep) {
  for (Reader& reader : *readers) {
    for (const AnswerDigest& got : reader.probe_answers) {
      const Probe probe = reader.replay->Next();
      QueryTrace qt;
      jackpine::ExecLimits limits;
      limits.trace = &qt;
      ref->SetExecLimits(limits);
      auto r = ref->ExecuteQuery(probe.sql);
      if (!r.ok()) {
        rep->Check("probe on the reference: " + r.status().ToString());
        continue;
      }
      if (trace != nullptr) trace->Add(qt);
      rep->Check(CheckSameAnswer("probe", got, Digest(r->raw())));
      if (probe.kind == Probe::Kind::kNearestRoad) {
        rep->Check(CheckNearestRoad(ds, probe.x, probe.y, got));
      }
    }
    reader.probe_answers = {};
  }
  ref->SetExecLimits(jackpine::ExecLimits{});
}

// After the run: crash the server, recover its directory into a fresh
// engine, and require exactly the acknowledged writer rows.
void CheckDurability(ServedEnv* env, const Writer& writer, Report* rep) {
  env->Crash();
  jackpine::engine::Database db;
  auto store =
      jackpine::storage::StorageManager::Open(StoreOptions(env->dir), &db);
  if (!store.ok()) {
    rep->Check("recovery: " + store.status().ToString());
    return;
  }
  auto r = db.Execute(kReadbackSql);
  if (!r.ok()) {
    rep->Check("recovered read-back: " + r.status().ToString());
    return;
  }
  rep->Check(CheckReadback(*r, writer.acked, writer.acked_sum));
  (*store)->Close().code();
}

void RunServed(const Options& opts, Report* rep) {
  SpanRecorder& rec = jackpine::obs::GlobalSpanRecorder();
  SetupTimes times;
  std::unique_ptr<ServedEnv> env;
  int setups = 0;  // each set-up gets its own storage directory
  const double setup_end = Now() + kSetupSecondsPerRound;
  for (int k = 0; k < kMinSetupsPerRound || Now() < setup_end; ++k) {
    env.reset();
    auto made = SetUpServed(setups++, &times);
    if (!made.ok()) {
      rep->Check("set-up failed: " + made.status().ToString());
      return;
    }
    env = std::move(*made);
  }
  // Client sessions must not negotiate tracing: a span-traced session
  // bypasses the result cache. The recorder is off while they connect.
  const bool tracing = rec.enabled();
  rec.set_enabled(false);

  const TigerDataset& ds = env->ds;
  auto ref = OpenLoaded("pine-rtree", ds, true);
  if (!ref.ok()) {
    rep->Check("reference engine: " + ref.status().ToString());
    return;
  }
  Statement ref_stmt = ref->CreateStatement();
  auto run_ref = [&](const std::string& sql, std::vector<AnswerDigest>* out) {
    auto r = ref_stmt.ExecuteQuery(sql);
    if (!r.ok()) {
      rep->Check("reference: " + r.status().ToString());
      return false;
    }
    out->push_back(Digest(r->raw()));
    return true;
  };
  const std::vector<SuiteQuery> suite = PaperSuite(ds);
  const std::vector<std::string> pool = ReaderPool(ds);
  std::vector<AnswerDigest> suite_ref, pool_ref;
  for (const SuiteQuery& q : suite) {
    if (!run_ref(q.sql, &suite_ref)) return;
  }
  for (const std::string& sql : pool) {
    if (!run_ref(sql, &pool_ref)) return;
  }

  const std::string url = StrFormat("jackpine:tcp://127.0.0.1:%u/pine-rtree",
                                    unsigned{env->server->port()});
  auto open = [&](std::optional<Connection>* conn,
                  std::optional<Statement>* stmt) {
    auto c = Connection::Open(url);
    if (!c.ok()) {
      rep->Check("connect: " + c.status().ToString());
      return false;
    }
    conn->emplace(std::move(*c));
    stmt->emplace((*conn)->CreateStatement());
    // Open the session now, while the recorder is off.
    auto r = (*stmt)->ExecuteQuery("SELECT COUNT(*) FROM county");
    if (!r.ok()) rep->Check("first query: " + r.status().ToString());
    return r.ok();
  };

  Writer writer;
  if (!open(&writer.conn, &writer.stmt)) return;
  for (const char* ddl : kWriterDdl) {
    if (auto r = writer.stmt->ExecuteUpdate(ddl); !r.ok()) {
      rep->Check("writer table: " + r.status().ToString());
      return;
    }
  }
  writer.rows.emplace(ds.extent, StreamSeed(opts.seed, 1));
  std::vector<Reader> readers(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    Reader& r = readers[i];
    if (!open(&r.conn, &r.stmt)) return;
    r.zipf.emplace(pool.size(), kZipfS, StreamSeed(opts.seed, 10 + i));
    r.probes.emplace(ds.extent, StreamSeed(opts.seed, 20 + i), i, kReaders);
    r.replay.emplace(ds.extent, StreamSeed(opts.seed, 20 + i), i, kReaders);
    r.mix.emplace(StreamSeed(opts.seed, 30 + i));
  }

  // The suite over the served connection: a warm-up pass checked in full
  // (it also fills the result cache), then measured passes.
  std::optional<Connection> suite_conn;
  std::optional<Statement> suite_stmt;
  if (!open(&suite_conn, &suite_stmt)) return;
  const ClosedForm cf = ComputeClosedForm(ds);
  Samples passes = NewSamples(suite, false);
  Report suite_rep;  // merged after the suite client's thread joins
  // One pass of the suite; the warm-up pass (measure = false) also checks
  // the closed forms.
  auto suite_pass = [&](bool measure) {
    double pass_ms[3] = {0, 0, 0};
    for (size_t i = 0; i < suite.size(); ++i) {
      const double t0 = Now();
      auto r = suite_stmt->ExecuteQuery(suite[i].sql);
      const double dt = Now() - t0;
      ++suite_rep.attempted;
      if (!r.ok()) {
        ++suite_rep.failed;
        suite_rep.Check(suite[i].id + " failed: " + r.status().ToString());
        continue;
      }
      suite_rep.Check(
          CheckSameAnswer(suite[i].id, Digest(r->raw()), suite_ref[i]));
      if (!measure) {
        suite_rep.Check(CheckClosedForm(cf, suite[i].id, r->raw()));
        continue;
      }
      pass_ms[suite[i].category] += dt * 1e3;
      passes.Add(i, dt * 1e6);
    }
    if (!measure) return;
    for (int c = 0; c < 3; ++c) passes.pass_ms[c].push_back(pass_ms[c]);
  };
  auto merge_suite = [&] {
    rep->attempted += suite_rep.attempted;
    rep->failed += suite_rep.failed;
    for (auto& p : suite_rep.problems) rep->Check(p);
    suite_rep = Report{};
  };
  suite_pass(false);
  merge_suite();

  auto* server = env->server.get();
  if (!opts.trace) {
    // kRounds rounds. Each sets up spare servers (the first round's
    // set-ups made the measured one), timed and stopped while the measured
    // server idles; then the suite client runs its passes alongside the
    // mix, on the loaded server.
    MixSamples mix;
    for (int round = 0; round < kRounds; ++round) {
      const double end = Now() + kSetupSecondsPerRound;
      for (int k = 0; round > 0 && (k < kMinSetupsPerRound || Now() < end);
           ++k) {
        auto spare = SetUpServed(setups++, &times);
        if (!spare.ok()) {
          rep->Check("set-up failed: " + spare.status().ToString());
          return;
        }
      }
      const double window = opts.seconds / kRounds;
      std::thread suite_client([&] {
        const double end = Now() + window;
        do {
          suite_pass(true);
        } while (Now() < end);
      });
      AppendMix(RunMix(&readers, &writer, pool, pool_ref, window, nullptr, rep),
                &mix);
      suite_client.join();
    }
    merge_suite();
    suite_conn.reset();
    CheckProbes(&readers, ds, &ref_stmt, nullptr, rep);
    CheckDurability(env.get(), writer, rep);
    EmitEndToEnd(times, passes, suite, rep);
    ReportMix(mix, rep);
    return;
  }

  // Traced run: an untraced window, then a traced one. The server-side
  // figures come from its registry and counters, never from the reader
  // sessions (a stats-fetching session bypasses the cache).
  const MixSamples untraced = RunMix(&readers, &writer, pool, pool_ref,
                                     opts.seconds / 2, nullptr, rep);
  CheckProbes(&readers, ds, &ref_stmt, nullptr, rep);
  rec.set_enabled(tracing);
  const auto cache0 = server->query_cache()->stats();
  const auto counters0 = server->counters();
  const auto lat0 = HistogramSnapshot("server.query_latency_s");
  const auto fsync0 = HistogramSnapshot("storage.wal_fsync_s");
  const auto ckpt0 = HistogramSnapshot("storage.checkpoint_s");
  const uint64_t wal_bytes0 = CounterValue("storage.wal_bytes");
  const uint64_t fsyncs0 = CounterValue("storage.wal_fsyncs");
  const uint64_t ckpts0 = CounterValue("storage.checkpoints");
  const int64_t acked0 = writer.acked;
  const MixSamples traced = RunMix(&readers, &writer, pool, pool_ref,
                                   opts.seconds / 2, &rec, rep);
  const auto cache1 = server->query_cache()->stats();
  const auto counters1 = server->counters();
  const auto lat1 = HistogramSnapshot("server.query_latency_s");
  LayerTrace probe_trace;
  CheckProbes(&readers, ds, &ref_stmt, &probe_trace, rep);

  Layers l;
  FillSetupLayers(times, &l);
  const double rounds =
      static_cast<double>(traced.reads + traced.writer_ops) / kServedPerRound;
  double read_ms_sum = 0.0;
  for (double ms : traced.read_ms) read_ms_sum += ms;
  const double read_mean_us =
      Ratio(read_ms_sum * 1e3, static_cast<double>(traced.read_ms.size()));
  l.rpc_overhead_us = read_mean_us - IntervalMean(lat0, lat1) * 1e6;
  l.bytes_sent = (counters1.bytes_sent - counters0.bytes_sent) / rounds;
  l.rows_shipped = (counters1.rows_returned - counters0.rows_returned) / rounds;
  FillPipelineLayers(probe_trace, rounds, &l);
  rep->notes.push_back(StrFormat(
      "filter ratio over the window's probe replays (index-fed): %.4f of "
      "%.0f candidates per 1000 ops",
      l.filter_keep, l.filter_base));
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  l.hit_ratio = Ratio(hits, hits + misses);
  l.hits = hits / rounds;
  l.misses = misses / rounds;
  l.coalesced = (cache1.coalesced - cache0.coalesced) / rounds;
  l.admissions = (cache1.admissions - cache0.admissions) / rounds;
  l.evictions = (cache1.evictions - cache0.evictions) / rounds;
  l.invalidations = (cache1.invalidations - cache0.invalidations) / rounds;
  l.cache_bytes = static_cast<double>(cache1.bytes);
  l.wal_bytes_per_row =
      Ratio(static_cast<double>(CounterValue("storage.wal_bytes") - wal_bytes0),
            static_cast<double>(writer.acked - acked0));
  l.wal_fsyncs = (CounterValue("storage.wal_fsyncs") - fsyncs0) / rounds;
  l.fsync_ms = IntervalMean(fsync0, HistogramSnapshot("storage.wal_fsync_s")) * 1e3;
  l.checkpoints = (CounterValue("storage.checkpoints") - ckpts0) / rounds;
  l.checkpoint_ms =
      IntervalMean(ckpt0, HistogramSnapshot("storage.checkpoint_s")) * 1e3;
  rep->notes.push_back(StrFormat(
      "cache hit ratio %.4f of %.0f lookups; %llu reads, %zu writes in the "
      "traced window",
      l.hit_ratio, hits + misses,
      static_cast<unsigned long long>(traced.read_ms.size()),
      traced.write_ms.size()));
  l.overhead_pct = TraceOverhead("read_p50_ms", Median(untraced.read_ms),
                                 Median(traced.read_ms), rep);
  TraceOverhead("write_p50_ms", Median(untraced.write_ms),
                Median(traced.write_ms), rep);
  ReportMix(traced, rep);
  CheckDurability(env.get(), writer, rep);
  FinishTrace(opts, rec.Drain(), rep);
  EmitLayers(l, rep);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_shard2", "served_mixed_rw"};
  return kNames;
}

Report RunWorkload(const Options& opts) {
  jackpine::net::RegisterRemoteDriver();
  jackpine::shard::RegisterShardDriver();
  std::error_code ec;
  fs::create_directories(kOutDir, ec);
  // A traced run records spans from the first set-up on, so client sessions
  // opened during set-up negotiate tracing with the servers.
  jackpine::obs::GlobalSpanRecorder().set_enabled(opts.trace);
  Report rep;
  if (opts.workload == "paper_shard2") {
    RunShard(opts, &rep);
  } else if (opts.workload == "served_mixed_rw") {
    RunServed(opts, &rep);
  } else {
    rep.Check("unknown workload " + opts.workload);
  }
  jackpine::obs::GlobalSpanRecorder().set_enabled(false);
  return rep;
}

}  // namespace perfbench
