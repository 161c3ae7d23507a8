// Seeded operation streams for the served read/write mix: Zipf draws over
// the hot query pool, never-repeating probes (nearest-road k-NN and
// map-window queries), and the writer's point rows. Every stream is a pure
// function of its seed, so one --seed replays the same SQL.

#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "geom/envelope.h"

namespace perfbench {

// Zipf(s) over slots [0, n): slot k is drawn with weight 1 / (k + 1)^s.
class ZipfStream {
 public:
  ZipfStream(size_t n, double s, uint64_t seed);
  size_t Next();

 private:
  std::vector<double> cdf_;
  jackpine::Rng rng_;
};

struct Probe {
  enum class Kind { kNearestRoad, kMapWindow };
  Kind kind = Kind::kNearestRoad;
  double x = 0.0;
  double y = 0.0;
  double half = 0.0;       // window half-width (kMapWindow)
  std::string layer;       // queried table (kMapWindow)
  std::string sql;
};

// Probes that never repeat, within one stream or across the `lanes`
// streams of one run: each coordinate carries the probe's unique index
// (sequence * lanes + lane) in its last printed digits.
class ProbeStream {
 public:
  ProbeStream(const jackpine::geom::Envelope& extent, uint64_t seed,
              uint32_t lane, uint32_t lanes);
  Probe Next();

 private:
  jackpine::geom::Envelope extent_;
  jackpine::Rng rng_;
  uint32_t lane_;
  uint32_t lanes_;
  uint64_t sequence_ = 0;
};

// Nearest-road probe SQL for a point (ORDER BY distance, tlid LIMIT 1).
std::string NearestRoadSql(double x, double y);

// The writer's rows: (id, point) with ids 1, 2, 3, ... and seeded points
// inside `extent`.
class WriteStream {
 public:
  WriteStream(const jackpine::geom::Envelope& extent, uint64_t seed);
  // INSERT statement for the next row into `table`; sets *id to its id.
  std::string NextInsert(const std::string& table, int64_t* id);

 private:
  jackpine::geom::Envelope extent_;
  jackpine::Rng rng_;
  int64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
