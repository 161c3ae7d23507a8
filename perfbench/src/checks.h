// Answer checks. Every expected value here is computed apart from the path
// under test: closed forms straight from the generated coordinates, bounds
// from envelope overlap, and properties relating two answers. Each check
// returns an empty string when the answer passes and a one-line reason when
// it does not, so the self-test can feed it perturbed answers.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>

#include "engine/executor.h"
#include "tigergen/tigergen.h"

namespace perfbench {

using jackpine::engine::QueryResult;
using jackpine::tigergen::TigerDataset;

// Reference values derived from the dataset alone.
struct ClosedForm {
  double a1_area = 0.0;        // SUM(ST_Area) over arealm
  double a2_length = 0.0;      // SUM(ST_Length) over edges
  double a3_perimeter = 0.0;   // SUM(ST_Perimeter) over county
  double a5_env_area = 0.0;    // SUM(ST_Area(ST_Envelope)) over areawater
  int64_t a14_count = 0;       // edges rows
  int64_t a14_points = 0;      // SUM(ST_NumPoints) over edges
  int64_t a14_dims = 0;        // SUM(ST_Dimension) over edges
  int64_t t1_count = 0;        // points equal to the T1 probe point
  // Upper bound for every join COUNT(*), by query id: pairs whose
  // envelopes (grown by the query's distance) overlap, after the query's
  // attribute filters; land.audit is bounded by its attribute join.
  std::map<std::string, int64_t> join_bound;
};

ClosedForm ComputeClosedForm(const TigerDataset& ds);

// The closed-form or bound check for `id`; queries without one pass.
std::string CheckClosedForm(const ClosedForm& cf, const std::string& id,
                            const QueryResult& r);

// T8 (crosses) can never count more pairs than T7 (intersects).
std::string CheckCrossesWithinIntersects(const QueryResult& t7,
                                         const QueryResult& t8);

// Topological queries whose predicate is envelope-monotone (the exact
// predicate implies the MBR predicate), so pine-mbr's count is an upper
// bound of the exact count.
bool IsEnvelopeMonotone(const std::string& id);
std::string CheckMbrAtLeastExact(const std::string& id,
                                 const QueryResult& mbr,
                                 const QueryResult& exact);

// Brute-force nearest road: the smallest point-to-segment distance over
// every edge, ties broken by the smaller tlid.
struct NearestRoad {
  int64_t tlid = 0;
  double distance = 0.0;
};

// What the checks need of an answer kept past a measured window: its row
// count and order-independent checksum, and its first row read as a
// nearest-road answer (tlid, distance).
struct AnswerDigest {
  size_t rows = 0;
  uint64_t checksum = 0;
  NearestRoad first;
};
AnswerDigest Digest(const QueryResult& r);

// The answer must equal the reference answer (same order-independent
// checksum and row count).
std::string CheckSameAnswer(const std::string& id, const AnswerDigest& got,
                            const AnswerDigest& reference);

NearestRoad BruteForceNearestRoad(const TigerDataset& ds, double x, double y);
// Passes when the answer's distance matches the brute-force minimum and its
// road lies at that distance (a different road only on an exact tie).
std::string CheckNearestRoad(const TigerDataset& ds, double x, double y,
                             const AnswerDigest& got);

// A read-back of the writer's table (COUNT(*), SUM(id)) must show exactly
// the acknowledged rows.
std::string CheckReadback(const QueryResult& r, int64_t count, int64_t sum);

// First cell of a one-row result as a double / integer (0 when absent).
double CellDouble(const QueryResult& r, size_t col = 0);
int64_t CellInt(const QueryResult& r, size_t col = 0);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
