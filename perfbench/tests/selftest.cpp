// Self-test of the benchmark's own code: the p99 rule, the geometric mean,
// the seeded streams, and every answer check against a perturbed answer.
// Run: python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "client/client.h"
#include "core/loader.h"
#include "stats.h"
#include "streams.h"
#include "tigergen/tigergen.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

using jackpine::engine::QueryResult;
using jackpine::engine::Row;
using jackpine::engine::Value;

QueryResult OneRow(std::vector<Value> cells) {
  QueryResult r;
  for (size_t i = 0; i < cells.size(); ++i) {
    r.columns.push_back("c" + std::to_string(i));
  }
  r.rows.push_back(Row(std::move(cells)));
  return r;
}

QueryResult Count(int64_t n) { return OneRow({Value::Int(n)}); }
QueryResult Real(double v) { return OneRow({Value::Real(v)}); }

void TestStats() {
  using perfbench::GeoMean;
  using perfbench::TailP99;
  // p99 rule on the samples 1..n: n = 901 leaves 9 samples beyond the
  // (interpolated) p99, n = 902 leaves 10.
  std::vector<double> v;
  for (int i = 1; i <= 901; ++i) v.push_back(i);
  Expect(!TailP99(v).has_value(), "no p99 with 9 samples beyond it");
  v.push_back(902);
  Expect(TailP99(v).has_value(), "p99 with 10 samples beyond it");
  Expect(!TailP99({1, 2, 3}).has_value(), "no p99 from 3 samples");
  // Ties at the top: many equal maxima leave nothing strictly beyond.
  Expect(!TailP99(std::vector<double>(5000, 7.0)).has_value(),
         "no p99 when no sample lies beyond it");
  Expect(std::fabs(perfbench::Median({3, 1, 2}) - 2.0) < 1e-12, "median");
  Expect(std::fabs(perfbench::Quantile({1, 2, 3, 4}, 0.25) - 1.75) < 1e-12,
         "type-7 quantile");
  // Geometric mean.
  Expect(std::fabs(*GeoMean({1, 100}) - 10.0) < 1e-9, "geomean 1,100");
  Expect(std::fabs(*GeoMean({2, 8, 4}) - 4.0) < 1e-9, "geomean 2,8,4");
  Expect(!GeoMean({}).has_value(), "geomean of nothing");
  Expect(!GeoMean({1.0, 0.0}).has_value(), "geomean rejects zero");
}

void TestStreams() {
  using perfbench::ProbeStream;
  using perfbench::WriteStream;
  using perfbench::ZipfStream;
  ZipfStream a(69, 1.1, 7), b(69, 1.1, 7), c(69, 1.1, 8);
  std::vector<size_t> sa, sb, sc;
  std::vector<int> hist(69, 0);
  for (int i = 0; i < 2000; ++i) {
    sa.push_back(a.Next());
    sb.push_back(b.Next());
    sc.push_back(c.Next());
    hist[sa.back()] += 1;
  }
  Expect(sa == sb, "zipf: same seed, same slots");
  Expect(sa != sc, "zipf: other seed, other slots");
  Expect(hist[0] > hist[10] && hist[10] > 0, "zipf: skewed towards slot 0");

  const jackpine::geom::Envelope extent(0, 0, 100, 100);
  ProbeStream p(extent, 7, 0, 2), q(extent, 7, 0, 2), r(extent, 8, 0, 2);
  ProbeStream other_lane(extent, 7, 1, 2);
  std::vector<std::string> pp, qq, rr;
  std::vector<std::string> all;
  for (int i = 0; i < 500; ++i) {
    pp.push_back(p.Next().sql);
    qq.push_back(q.Next().sql);
    rr.push_back(r.Next().sql);
    all.push_back(pp.back());
    all.push_back(other_lane.Next().sql);
  }
  Expect(pp == qq, "probes: same seed, same probes");
  Expect(pp != rr, "probes: other seed, other probes");
  std::sort(all.begin(), all.end());
  Expect(std::adjacent_find(all.begin(), all.end()) == all.end(),
         "probes never repeat, within or across lanes");

  WriteStream w1(extent, 3), w2(extent, 3), w3(extent, 4);
  int64_t id1 = 0, id2 = 0, id3 = 0;
  const std::string s1 = w1.NextInsert("t", &id1);
  Expect(s1 == w2.NextInsert("t", &id2) && id1 == 1 && id2 == 1,
         "writes: same seed, same rows");
  Expect(s1 != w3.NextInsert("t", &id3), "writes: other seed, other rows");
}

void TestChecks() {
  using namespace perfbench;
  jackpine::tigergen::TigerGenOptions gen;
  gen.scale = 0.1;
  gen.seed = 42;
  const auto ds = jackpine::tigergen::GenerateTiger(gen);
  const ClosedForm cf = ComputeClosedForm(ds);

  // Closed forms pass on the engine's own answers and fail when perturbed.
  auto conn = jackpine::client::Connection::Open("jackpine:pine-rtree");
  Expect(conn.ok(), "open pine-rtree");
  Expect(jackpine::core::LoadDataset(ds, &*conn).ok(), "load");
  auto stmt = conn->CreateStatement();
  auto answer = [&](const char* sql) {
    auto r = stmt.ExecuteQuery(sql);
    Expect(r.ok(), std::string("query ") + sql);
    return r.ok() ? r->raw() : QueryResult{};
  };
  struct Case {
    const char* id;
    const char* sql;
  };
  const Case cases[] = {
      {"A1", "SELECT SUM(ST_Area(geom)) FROM arealm"},
      {"A2", "SELECT SUM(ST_Length(geom)) FROM edges"},
      {"A3", "SELECT SUM(ST_Perimeter(geom)) FROM county"},
      {"A5", "SELECT SUM(ST_Area(ST_Envelope(geom))) FROM areawater"},
  };
  for (const Case& c : cases) {
    const QueryResult good = answer(c.sql);
    Expect(CheckClosedForm(cf, c.id, good).empty(),
           std::string(c.id) + " passes on the engine's answer");
    const double v = CellDouble(good);
    Expect(!CheckClosedForm(cf, c.id, Real(v * (1 + 1e-7))).empty(),
           std::string(c.id) + " fails when perturbed");
  }
  const QueryResult a14 = answer(
      "SELECT COUNT(*), SUM(ST_NumPoints(geom)), SUM(ST_Dimension(geom)) "
      "FROM edges");
  Expect(CheckClosedForm(cf, "A14", a14).empty(), "A14 passes");
  for (int col = 0; col < 3; ++col) {
    std::vector<Value> cells = {Value::Int(CellInt(a14, 0)),
                                Value::Int(CellInt(a14, 1)),
                                Value::Int(CellInt(a14, 2))};
    cells[col] = Value::Int(CellInt(a14, col) + 1);
    Expect(!CheckClosedForm(cf, "A14", OneRow(cells)).empty(),
           "A14 fails when column " + std::to_string(col) + " is perturbed");
  }
  Expect(CheckClosedForm(cf, "T1", Count(cf.t1_count)).empty(), "T1 passes");
  Expect(!CheckClosedForm(cf, "T1", Count(cf.t1_count + 1)).empty(),
         "T1 fails when perturbed");
  for (const auto& [id, bound] : cf.join_bound) {
    Expect(CheckClosedForm(cf, id, Count(bound)).empty(),
           id + " passes at its bound");
    Expect(!CheckClosedForm(cf, id, Count(bound + 1)).empty(),
           id + " fails above its bound");
  }
  Expect(CheckCrossesWithinIntersects(Count(5), Count(5)).empty(), "T8 = T7");
  Expect(!CheckCrossesWithinIntersects(Count(5), Count(6)).empty(),
         "T8 > T7 fails");
  Expect(IsEnvelopeMonotone("T7") && !IsEnvelopeMonotone("T8"),
         "monotone predicates");
  Expect(CheckMbrAtLeastExact("T7", Count(9), Count(9)).empty(), "mbr = exact");
  Expect(!CheckMbrAtLeastExact("T7", Count(8), Count(9)).empty(),
         "mbr < exact fails");
  // Answers are compared by digest (row count and checksum), which is all
  // a served reader keeps of a probe's answer.
  Expect(CheckSameAnswer("x", Digest(Count(3)), Digest(Count(3))).empty(),
         "same answer");
  Expect(!CheckSameAnswer("x", Digest(Count(3)), Digest(Count(4))).empty(),
         "different answer fails");
  QueryResult two = Count(3);
  two.rows.push_back(two.rows[0]);
  Expect(!CheckSameAnswer("x", Digest(two), Digest(Count(3))).empty(),
         "extra row fails");
  Expect(CheckReadback(OneRow({Value::Int(4), Value::Int(10)}), 4, 10).empty(),
         "read-back passes");
  Expect(!CheckReadback(OneRow({Value::Int(5), Value::Int(10)}), 4, 10).empty(),
         "read-back count perturbed fails");
  Expect(!CheckReadback(OneRow({Value::Int(4), Value::Int(11)}), 4, 10).empty(),
         "read-back sum perturbed fails");

  // Nearest road: the engine's answer passes; a perturbed road or distance
  // fails.
  const double x = 37.25, y = 61.5;
  const QueryResult nn = answer(perfbench::NearestRoadSql(x, y).c_str());
  Expect(CheckNearestRoad(ds, x, y, Digest(nn)).empty(),
         "nearest road passes");
  const int64_t tlid = CellInt(nn, 0);
  const double dist = CellDouble(nn, 1);
  int64_t other = ds.edges.front().tlid == tlid ? ds.edges.back().tlid
                                                : ds.edges.front().tlid;
  Expect(!CheckNearestRoad(
              ds, x, y, Digest(OneRow({Value::Int(other), Value::Real(dist)})))
              .empty(),
         "nearest road with another road fails");
  Expect(!CheckNearestRoad(ds, x, y,
                           Digest(OneRow(
                               {Value::Int(tlid), Value::Real(dist * 1.01)})))
              .empty(),
         "nearest road with another distance fails");
  Expect(!CheckNearestRoad(ds, x, y, Digest(QueryResult{})).empty(),
         "nearest road without a row fails");
}

}  // namespace

int main() {
  TestStats();
  TestStreams();
  TestChecks();
  if (failures > 0) {
    std::printf("%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
