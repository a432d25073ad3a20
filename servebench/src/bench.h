// Shared declarations of the serving benchmark: request families and
// their seeded generators, the isomorphic relabelling used by
// wire_renamed, and the answer checks, each written independently of the
// engines they check.

#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"
#include "service/workload.h"
#include "util/rng.h"

namespace servebench {

using cspdb::service::EngineAnswer;
using cspdb::service::ServiceRequest;

int64_t NowNs();

/// splitmix64 finaliser over a combined pair: derives independent,
/// reproducible per-request seeds from (seed, client, index).
uint64_t MixSeed(uint64_t a, uint64_t b);

/// Instance families. The first four are the request kinds (in
/// RequestKind order) of the pools that hot_repeats and wire_renamed
/// repeat, drawn by the repository's GenerateRequestStream; the rest are
/// cold_mixed's tutorial families (README "Workloads").
enum class Family : uint8_t {
  kPoolCsp = 0,
  kPoolCq,
  kPoolDatalog,
  kPoolContainment,
  kRandomCsp,
  kTreewidthCsp,
  kPathCq,
  kStarCq,
  kTcDatalog,
  kTwoColDatalog,
  kContainment,
};
inline constexpr int kNumFamilies = 11;

const char* FamilyName(Family family);

struct Item {
  Family family;
  ServiceRequest request;
};

/// A fresh instance of `family`, drawn from `rng`.
Item MakeItem(Family family, cspdb::Rng* rng);

/// The distinct requests of GenerateRequestStream(options), in order of
/// first appearance, and the stream as indices into them (requests are
/// the same when their wire encodings are).
struct PooledStream {
  std::vector<Item> pool;
  std::vector<int> stream;
};
PooledStream PoolStream(const cspdb::service::WorkloadOptions& options);

/// An isomorphic relabelling of `request`: CSP variables permuted and
/// constraints and tuples shuffled; query and rule variables renamed and
/// atoms and rules shuffled; database tuples shuffled. Answers are equal
/// up to the CSP variable permutation.
ServiceRequest Relabel(const ServiceRequest& request, cspdb::Rng* rng);

/// FNV-1a digest of an answer's full content (kind, rows, flags, counts).
uint64_t AnswerDigest(const EngineAnswer& answer);

// --- answer checks (oracle.cc) ---------------------------------------------

/// True iff `solution` assigns every variable a value in range and every
/// constraint of `csp` allows the projected tuple.
bool CspSolutionSatisfies(const cspdb::CspInstance& csp,
                          const std::vector<int>& solution);

/// The benchmark's own complete search (forward checking over binary
/// constraints, MRV order).
bool CspSatisfiable(const cspdb::CspInstance& csp);

/// The answer the benchmark expects for a non-CSP request, computed
/// without the library's engines: indexed nested loops for queries,
/// exactly-L walk counts for path queries, BFS reachability (transitive
/// closure, with goal T or a cycle goal G) and BFS 2-colouring of the
/// (vertex, walk parity) graph (the non-2-colourability program, goal Q)
/// for the Datalog programs, and a homomorphism search into the canonical
/// database for containment.
EngineAnswer ExpectedAnswer(Family family, const ServiceRequest& request);

/// Checks `answer` for `request`. CSP answers are checked by
/// satisfaction (and UNSAT by the benchmark's own search); every other
/// kind must equal ExpectedAnswer exactly, which also requires rows to be
/// sorted and duplicate-free. On failure `*why` says what differed.
bool CheckAnswer(Family family, const ServiceRequest& request,
                 const EngineAnswer& answer, std::string* why);

/// Corrupts a known-good answer five ways and confirms every check
/// rejects each corruption (and accepts the original). Returns 0 on pass.
int RunSelfTest();

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
