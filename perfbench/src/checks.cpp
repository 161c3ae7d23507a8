#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "common/string_util.h"

namespace perfbench {

using jackpine::StrFormat;
using jackpine::geom::Coord;
using jackpine::geom::Geometry;
using jackpine::geom::GeometryType;

namespace {

double RingArea(const std::vector<Coord>& ring) {
  double twice = 0.0;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    twice += ring[i].x * ring[i + 1].y - ring[i + 1].x * ring[i].y;
  }
  return std::fabs(twice) / 2.0;
}

double PathLength(const std::vector<Coord>& path) {
  double len = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    len += std::hypot(path[i + 1].x - path[i].x, path[i + 1].y - path[i].y);
  }
  return len;
}

// All coordinates of a generated geometry (points, lines and polygons only:
// that is all tigergen makes).
std::vector<Coord> CoordsOf(const Geometry& g) {
  switch (g.type()) {
    case GeometryType::kPoint:
      return {g.AsPoint()};
    case GeometryType::kLineString:
      return g.AsLineString();
    case GeometryType::kPolygon: {
      std::vector<Coord> out = g.AsPolygon().shell;
      for (const auto& hole : g.AsPolygon().holes) {
        out.insert(out.end(), hole.begin(), hole.end());
      }
      return out;
    }
    default:
      return {};
  }
}

struct Box {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

Box BoxOf(const Geometry& g) {
  const std::vector<Coord> cs = CoordsOf(g);
  Box b{cs.front().x, cs.front().y, cs.front().x, cs.front().y};
  for (const Coord& c : cs) {
    b.x0 = std::min(b.x0, c.x);
    b.y0 = std::min(b.y0, c.y);
    b.x1 = std::max(b.x1, c.x);
    b.y1 = std::max(b.y1, c.y);
  }
  return b;
}

bool Overlap(const Box& a, const Box& b, double grow) {
  return a.x0 - grow <= b.x1 && b.x0 <= a.x1 + grow && a.y0 - grow <= b.y1 &&
         b.y0 <= a.y1 + grow;
}

// One side of a join: envelopes plus the attributes the join filters use.
struct Side {
  std::vector<Box> boxes;
  std::vector<int64_t> key;  // tlid / fips; the a.key < b.key filters
};

template <typename Rows, typename Keep, typename Key>
Side MakeSide(const Rows& rows, Keep keep, Key key) {
  Side s;
  for (const auto& r : rows) {
    if (!keep(r)) continue;
    s.boxes.push_back(BoxOf(r.geom));
    s.key.push_back(key(r));
  }
  return s;
}

int64_t CountOverlaps(const Side& a, const Side& b, double grow,
                      bool key_less) {
  int64_t n = 0;
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    for (size_t j = 0; j < b.boxes.size(); ++j) {
      if (key_less && !(a.key[i] < b.key[j])) continue;
      if (Overlap(a.boxes[i], b.boxes[j], grow)) ++n;
    }
  }
  return n;
}

// The distances the suites print with %.6f, grown by a hair so rounding can
// only loosen the bound.
double Grown(double d) { return d * (1.0 + 1e-9) + 1e-9; }

bool Near(double got, double expected, double rel) {
  return std::fabs(got - expected) <= rel * std::max(1.0, std::fabs(expected));
}

std::string Mismatch(const std::string& id, const char* what, double got,
                     double expected) {
  return StrFormat("%s: %s is %.17g, expected %.17g", id.c_str(), what, got,
                   expected);
}

}  // namespace

double CellDouble(const QueryResult& r, size_t col) {
  if (r.rows.empty() || r.rows[0].size() <= col) return 0.0;
  auto v = r.rows[0][col].AsDouble();
  return v.ok() ? *v : 0.0;
}

int64_t CellInt(const QueryResult& r, size_t col) {
  if (r.rows.empty() || r.rows[0].size() <= col) return 0;
  auto v = r.rows[0][col].AsInt64();
  return v.ok() ? *v : 0;
}

ClosedForm ComputeClosedForm(const TigerDataset& ds) {
  ClosedForm cf;
  for (const auto& a : ds.arealm) {
    const auto& poly = a.geom.AsPolygon();
    double area = RingArea(poly.shell);
    for (const auto& hole : poly.holes) area -= RingArea(hole);
    cf.a1_area += area;
  }
  for (const auto& e : ds.edges) {
    cf.a2_length += PathLength(e.geom.AsLineString());
    cf.a14_points += static_cast<int64_t>(e.geom.AsLineString().size());
    cf.a14_dims += 1;
  }
  cf.a14_count = static_cast<int64_t>(ds.edges.size());
  for (const auto& c : ds.counties) {
    const auto& poly = c.geom.AsPolygon();
    cf.a3_perimeter += PathLength(poly.shell);
    for (const auto& hole : poly.holes) cf.a3_perimeter += PathLength(hole);
  }
  for (const auto& w : ds.areawater) {
    const Box b = BoxOf(w.geom);
    cf.a5_env_area += (b.x1 - b.x0) * (b.y1 - b.y0);
  }
  // T1's probe is the first urban centre as the suite prints it (%.6f).
  const Coord urban = ds.urban_centers.front();
  const double px = std::strtod(StrFormat("%.6f", urban.x).c_str(), nullptr);
  const double py = std::strtod(StrFormat("%.6f", urban.y).c_str(), nullptr);
  for (const auto& p : ds.pointlm) {
    if (p.geom.AsPoint().x == px && p.geom.AsPoint().y == py) ++cf.t1_count;
  }

  const double extent = ds.extent.Width();
  auto all = [](const auto&) { return true; };
  auto mtfcc = [](const char* code) {
    return [code](const auto& r) { return r.mtfcc == code; };
  };
  auto tlid = [](const auto& r) { return r.tlid; };
  auto none = [](const auto&) { return int64_t{0}; };
  auto fips = [](const auto& r) { return r.fips; };
  const Side points = MakeSide(ds.pointlm, all, none);
  const Side highways = MakeSide(ds.edges, mtfcc("S1100"), tlid);
  const Side secondary = MakeSide(ds.edges, mtfcc("S1200"), tlid);
  const Side edges = MakeSide(ds.edges, all, tlid);
  const Side water = MakeSide(ds.areawater, all, none);
  const Side parks = MakeSide(ds.arealm, all, none);
  const Side counties = MakeSide(ds.counties, all, fips);
  const double small = Grown(extent * 0.005);
  const double margin = Grown(extent * 0.01);
  auto& jb = cf.join_bound;
  jb["T5"] = CountOverlaps(points, highways, 0.0, false);
  jb["T6"] = CountOverlaps(points, secondary, small, false);
  jb["T7"] = CountOverlaps(highways, secondary, 0.0, false);
  jb["T8"] = jb["T7"];
  jb["T9"] = CountOverlaps(highways, highways, 0.0, true);
  jb["T10"] = jb["T9"];
  jb["T11"] = CountOverlaps(edges, water, 0.0, false);
  jb["T16"] = CountOverlaps(counties, counties, 0.0, true);
  jb["T17"] = CountOverlaps(parks, water, 0.0, false);
  jb["T18"] = jb["T17"];
  jb["T20"] = CountOverlaps(counties, parks, 0.0, false);
  jb["flood.landmarks"] = CountOverlaps(parks, water, margin, false);
  jb["flood.roads"] = CountOverlaps(edges, water, margin, false);
  jb["flood.points"] = CountOverlaps(points, water, margin, false);
  jb["land.adjacency"] = jb["T16"];
  std::set<int64_t> county_fips;
  for (const auto& c : ds.counties) county_fips.insert(c.fips);
  int64_t audit = 0;
  for (const auto& a : ds.arealm) audit += county_fips.count(a.county_fips);
  jb["land.audit"] = audit;
  return cf;
}

std::string CheckClosedForm(const ClosedForm& cf, const std::string& id,
                            const QueryResult& r) {
  constexpr double kRel = 1e-9;
  if (id == "A1" && !Near(CellDouble(r), cf.a1_area, kRel)) {
    return Mismatch(id, "area sum", CellDouble(r), cf.a1_area);
  }
  if (id == "A2" && !Near(CellDouble(r), cf.a2_length, kRel)) {
    return Mismatch(id, "length sum", CellDouble(r), cf.a2_length);
  }
  if (id == "A3" && !Near(CellDouble(r), cf.a3_perimeter, kRel)) {
    return Mismatch(id, "perimeter sum", CellDouble(r), cf.a3_perimeter);
  }
  if (id == "A5" && !Near(CellDouble(r), cf.a5_env_area, kRel)) {
    return Mismatch(id, "envelope area sum", CellDouble(r), cf.a5_env_area);
  }
  if (id == "A14") {
    const int64_t got[3] = {CellInt(r, 0), CellInt(r, 1), CellInt(r, 2)};
    const int64_t want[3] = {cf.a14_count, cf.a14_points, cf.a14_dims};
    for (int i = 0; i < 3; ++i) {
      if (got[i] != want[i]) {
        return Mismatch(id, "metadata column", static_cast<double>(got[i]),
                        static_cast<double>(want[i]));
      }
    }
  }
  if (id == "T1" && CellInt(r) != cf.t1_count) {
    return Mismatch(id, "count", static_cast<double>(CellInt(r)),
                    static_cast<double>(cf.t1_count));
  }
  if (auto it = cf.join_bound.find(id); it != cf.join_bound.end()) {
    if (r.rows.size() != 1 || CellInt(r) < 0 || CellInt(r) > it->second) {
      return StrFormat("%s: join count %lld outside [0, %lld] (envelope "
                       "overlap bound)",
                       id.c_str(), static_cast<long long>(CellInt(r)),
                       static_cast<long long>(it->second));
    }
  }
  return "";
}

std::string CheckCrossesWithinIntersects(const QueryResult& t7,
                                         const QueryResult& t8) {
  if (CellInt(t8) > CellInt(t7)) {
    return StrFormat("T8 crosses count %lld exceeds T7 intersects count %lld",
                     static_cast<long long>(CellInt(t8)),
                     static_cast<long long>(CellInt(t7)));
  }
  return "";
}

bool IsEnvelopeMonotone(const std::string& id) {
  static const std::set<std::string> kIds = {
      "T1", "T3", "T4", "T5", "T7", "T11", "T13", "T15",
      "T17", "T19", "T20", "T21"};
  return kIds.count(id) > 0;
}

std::string CheckMbrAtLeastExact(const std::string& id,
                                 const QueryResult& mbr,
                                 const QueryResult& exact) {
  if (CellInt(mbr) < CellInt(exact)) {
    return StrFormat("%s: pine-mbr count %lld below the exact count %lld",
                     id.c_str(), static_cast<long long>(CellInt(mbr)),
                     static_cast<long long>(CellInt(exact)));
  }
  return "";
}

AnswerDigest Digest(const QueryResult& r) {
  return {r.rows.size(), r.Checksum(), {CellInt(r, 0), CellDouble(r, 1)}};
}

std::string CheckSameAnswer(const std::string& id, const AnswerDigest& got,
                            const AnswerDigest& reference) {
  if (got.rows != reference.rows || got.checksum != reference.checksum) {
    return StrFormat("%s: answer differs from the reference (%zu rows, "
                     "checksum %016llx; reference %zu rows, %016llx)",
                     id.c_str(), got.rows,
                     static_cast<unsigned long long>(got.checksum),
                     reference.rows,
                     static_cast<unsigned long long>(reference.checksum));
  }
  return "";
}

namespace {

double PointToPath(const std::vector<Coord>& path, double x, double y) {
  double d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const double dx = path[i + 1].x - path[i].x;
    const double dy = path[i + 1].y - path[i].y;
    const double len2 = dx * dx + dy * dy;
    double t = len2 > 0.0
                   ? ((x - path[i].x) * dx + (y - path[i].y) * dy) / len2
                   : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    d = std::min(d, std::hypot(x - (path[i].x + t * dx),
                               y - (path[i].y + t * dy)));
  }
  return d;
}

}  // namespace

NearestRoad BruteForceNearestRoad(const TigerDataset& ds, double x,
                                  double y) {
  NearestRoad best{0, std::numeric_limits<double>::infinity()};
  for (const auto& e : ds.edges) {
    const double d = PointToPath(e.geom.AsLineString(), x, y);
    if (d < best.distance || (d == best.distance && e.tlid < best.tlid)) {
      best = {e.tlid, d};
    }
  }
  return best;
}

std::string CheckNearestRoad(const TigerDataset& ds, double x, double y,
                             const AnswerDigest& got) {
  if (got.rows != 1) {
    return StrFormat("nearest road: %zu rows, expected 1", got.rows);
  }
  const NearestRoad expected = BruteForceNearestRoad(ds, x, y);
  const int64_t tlid = got.first.tlid;
  const double dist = got.first.distance;
  if (!Near(dist, expected.distance, 1e-9)) {
    return StrFormat("nearest road: distance %.17g, brute force %.17g",
                     dist, expected.distance);
  }
  if (tlid == expected.tlid) return "";
  for (const auto& e : ds.edges) {
    if (e.tlid == tlid &&
        Near(PointToPath(e.geom.AsLineString(), x, y), expected.distance,
             1e-12)) {
      return "";  // a tie to rounding
    }
  }
  return StrFormat("nearest road: tlid %lld, brute force %lld",
                   static_cast<long long>(tlid),
                   static_cast<long long>(expected.tlid));
}

std::string CheckReadback(const QueryResult& r, int64_t count, int64_t sum) {
  if (CellInt(r, 0) != count || CellInt(r, 1) != sum) {
    return StrFormat("writer read-back: %lld rows (id sum %lld), %lld "
                     "acknowledged (id sum %lld)",
                     static_cast<long long>(CellInt(r, 0)),
                     static_cast<long long>(CellInt(r, 1)),
                     static_cast<long long>(count),
                     static_cast<long long>(sum));
  }
  return "";
}

}  // namespace perfbench
