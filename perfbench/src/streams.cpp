#include "streams.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace perfbench {

using jackpine::StrFormat;

ZipfStream::ZipfStream(size_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfStream::Next() {
  const double u = rng_.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

ProbeStream::ProbeStream(const jackpine::geom::Envelope& extent,
                         uint64_t seed, uint32_t lane, uint32_t lanes)
    : extent_(extent), rng_(seed), lane_(lane), lanes_(lanes) {}

namespace {

// A coordinate inside [lo, hi) rounded to 1e-4, with `unique` (< 1e6)
// written into the digits below that: two distinct indexes never print the
// same coordinate.
double UniqueCoord(jackpine::Rng* rng, double lo, double hi, uint64_t unique) {
  const double base = std::floor(rng->NextDouble(lo, hi) * 1e4) / 1e4;
  return base + static_cast<double>(unique % 1000000) * 1e-10;
}

constexpr const char* kLayers[] = {"edges", "arealm", "pointlm", "areawater"};

}  // namespace

std::string NearestRoadSql(double x, double y) {
  const std::string pt = StrFormat("POINT (%.10f %.10f)", x, y);
  return StrFormat(
      "SELECT tlid, ST_Distance(geom, ST_GeomFromText('%s')) FROM edges "
      "ORDER BY ST_Distance(geom, ST_GeomFromText('%s')), tlid LIMIT 1",
      pt.c_str(), pt.c_str());
}

Probe ProbeStream::Next() {
  const uint64_t unique = sequence_++ * lanes_ + lane_;
  Probe p;
  p.x = UniqueCoord(&rng_, extent_.min_x(), extent_.max_x(), unique);
  p.y = UniqueCoord(&rng_, extent_.min_y(), extent_.max_y(), unique);
  if (rng_.NextBool(0.5)) {
    p.kind = Probe::Kind::kNearestRoad;
    p.sql = NearestRoadSql(p.x, p.y);
    return p;
  }
  p.kind = Probe::Kind::kMapWindow;
  p.layer = kLayers[rng_.NextBounded(4)];
  p.half = extent_.Width() * 0.02;
  p.sql = StrFormat(
      "SELECT geom FROM %s WHERE ST_Intersects(geom, ST_GeomFromText("
      "'POLYGON ((%.10f %.10f, %.10f %.10f, %.10f %.10f, %.10f %.10f, "
      "%.10f %.10f))'))",
      p.layer.c_str(), p.x - p.half, p.y - p.half, p.x + p.half, p.y - p.half,
      p.x + p.half, p.y + p.half, p.x - p.half, p.y + p.half, p.x - p.half,
      p.y - p.half);
  return p;
}

WriteStream::WriteStream(const jackpine::geom::Envelope& extent,
                         uint64_t seed)
    : extent_(extent), rng_(seed) {}

std::string WriteStream::NextInsert(const std::string& table, int64_t* id) {
  *id = next_id_++;
  const double x = rng_.NextDouble(extent_.min_x(), extent_.max_x());
  const double y = rng_.NextDouble(extent_.min_y(), extent_.max_y());
  return StrFormat(
      "INSERT INTO %s VALUES (%lld, ST_GeomFromText('POINT (%.6f %.6f)'))",
      table.c_str(), static_cast<long long>(*id), x, y);
}

}  // namespace perfbench
