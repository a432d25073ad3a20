// Seeded request families (README "Workloads") and the isomorphic
// relabelling of wire_renamed.

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "bench.h"
#include "csp/instance.h"
#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "gen/generators.h"
#include "net/wire.h"
#include "relational/structure.h"
#include "service/workload.h"

namespace servebench {

using cspdb::Atom;
using cspdb::ConjunctiveQuery;
using cspdb::CspInstance;
using cspdb::DatalogProgram;
using cspdb::DatalogRule;
using cspdb::Rng;
using cspdb::Structure;
using cspdb::Tuple;
namespace svc = cspdb::service;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kPoolCsp: return "pool_csp";
    case Family::kPoolCq: return "pool_cq";
    case Family::kPoolDatalog: return "pool_datalog";
    case Family::kPoolContainment: return "pool_containment";
    case Family::kRandomCsp: return "random_csp";
    case Family::kTreewidthCsp: return "treewidth_csp";
    case Family::kPathCq: return "path_cq";
    case Family::kStarCq: return "star_cq";
    case Family::kTcDatalog: return "tc_datalog";
    case Family::kTwoColDatalog: return "twocol_datalog";
    case Family::kContainment: return "containment";
  }
  return "?";
}

namespace {

// Instance sizes per family; README "Workloads" lists the same numbers.
constexpr int kColdDbNodes = 80;
constexpr double kColdDbEdgeP = 0.04;
constexpr int kPathAtoms = 3;
constexpr int kStarLeaves = 3;
constexpr int kContainmentVariables = 6;
constexpr double kContainmentEdgeP = 0.23;  // about 7 atoms per query

std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  rng->Shuffle(&p);
  return p;
}

template <typename T>
void ShuffleVector(std::vector<T>* v, Rng* rng) {
  std::shuffle(v->begin(), v->end(), rng->engine());
}

// A query whose body is the edge set of a random digraph G(n, p) on its
// variables (a random canonical database), with head (x0, x1). A
// variable on no edge gets one edge to a random variable, so every
// variable occurs in the body.
ConjunctiveQuery GraphQuery(int n, double p, Rng* rng) {
  const Structure g = cspdb::RandomDigraph(n, p, rng);
  std::vector<Atom> body;
  std::vector<bool> used(n, false);
  for (const Tuple& t : g.tuples(g.vocabulary().IndexOf("E"))) {
    body.push_back({"E", {t[0], t[1]}});
    used[t[0]] = used[t[1]] = true;
  }
  for (int v = 0; v < n; ++v) {
    if (!used[v]) body.push_back({"E", {v, rng->UniformInt(0, n - 1)}});
  }
  return ConjunctiveQuery(n, {0, 1}, std::move(body));
}

// E(x0,x1), ..., E(x_{L-1},x_L) with head (x0, x_L).
ConjunctiveQuery PathCq(int atoms) {
  std::vector<Atom> body;
  for (int i = 0; i < atoms; ++i) body.push_back({"E", {i, i + 1}});
  return ConjunctiveQuery(atoms + 1, {0, atoms}, std::move(body));
}

// A centre x0 with `leaves` edges of random direction; head (x0, x1).
ConjunctiveQuery StarCq(int leaves, Rng* rng) {
  std::vector<Atom> body;
  for (int i = 1; i <= leaves; ++i) {
    if (rng->Bernoulli(0.5)) {
      body.push_back({"E", {0, i}});
    } else {
      body.push_back({"E", {i, 0}});
    }
  }
  return ConjunctiveQuery(leaves + 1, {0, 1}, std::move(body));
}

// A containment pair over `num_variables` variables. Half the pairs drop
// atoms of q1 to form q2 (so q1 ⊆ q2 holds through the identity), half
// draw q2 independently.
svc::CheckContainmentRequest ContainmentPair(int num_variables, double edge_p,
                                             Rng* rng) {
  ConjunctiveQuery q1 = GraphQuery(num_variables, edge_p, rng);
  if (rng->Bernoulli(0.5)) {
    return {q1, GraphQuery(num_variables, edge_p, rng)};
  }
  std::vector<Atom> kept;
  std::vector<bool> covered(num_variables, false);
  for (const Atom& atom : q1.body()) {
    if (rng->Bernoulli(0.6)) {
      kept.push_back(atom);
      for (int v : atom.args) covered[v] = true;
    }
  }
  // Keep the head safe: re-add an atom for each uncovered head variable.
  for (int h : q1.head()) {
    if (covered[h]) continue;
    for (const Atom& atom : q1.body()) {
      if (std::find(atom.args.begin(), atom.args.end(), h) !=
          atom.args.end()) {
        kept.push_back(atom);
        for (int v : atom.args) covered[v] = true;
        break;
      }
    }
  }
  // Compact the surviving variables to 0..k-1.
  std::vector<int> remap(num_variables, -1);
  int next = 0;
  for (int h : q1.head()) {
    if (remap[h] < 0) remap[h] = next++;
  }
  for (Atom& atom : kept) {
    for (int& v : atom.args) {
      if (remap[v] < 0) remap[v] = next++;
      v = remap[v];
    }
  }
  std::vector<int> head;
  for (int h : q1.head()) head.push_back(remap[h]);
  return {q1, ConjunctiveQuery(next, std::move(head), std::move(kept))};
}

DatalogProgram TransitiveClosure() {
  DatalogProgram p;
  p.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  p.AddRule({{"T", {0, 1}}, {{"T", {0, 2}}, {"E", {2, 1}}}, 3});
  p.SetGoal("T");
  return p;
}

Structure Relabel(const Structure& s, Rng* rng) {
  Structure out(s.vocabulary(), s.domain_size());
  for (int rel = 0; rel < s.vocabulary().size(); ++rel) {
    std::vector<Tuple> tuples = s.tuples(rel);
    ShuffleVector(&tuples, rng);
    for (Tuple& t : tuples) out.AddTuple(rel, std::move(t));
  }
  return out;
}

ConjunctiveQuery Relabel(const ConjunctiveQuery& q, Rng* rng) {
  const std::vector<int> p = Permutation(q.num_variables(), rng);
  std::vector<Atom> body = q.body();
  for (Atom& atom : body) {
    for (int& v : atom.args) v = p[v];
  }
  ShuffleVector(&body, rng);
  std::vector<int> head = q.head();
  for (int& v : head) v = p[v];
  return ConjunctiveQuery(q.num_variables(), std::move(head), std::move(body));
}

CspInstance Relabel(const CspInstance& csp, Rng* rng) {
  const std::vector<int> p = Permutation(csp.num_variables(), rng);
  std::vector<int> order(csp.constraints().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng->Shuffle(&order);
  CspInstance out(csp.num_variables(), csp.num_values());
  for (int c : order) {
    const cspdb::Constraint& constraint = csp.constraint(c);
    std::vector<int> scope = constraint.scope;
    for (int& v : scope) v = p[v];
    std::vector<Tuple> allowed = constraint.allowed;
    ShuffleVector(&allowed, rng);
    out.AddConstraint(std::move(scope), std::move(allowed));
  }
  return out;
}

DatalogProgram Relabel(const DatalogProgram& program, Rng* rng) {
  std::vector<DatalogRule> rules = program.rules();
  for (DatalogRule& rule : rules) {
    const std::vector<int> p = Permutation(rule.num_variables, rng);
    for (int& v : rule.head.args) v = p[v];
    for (cspdb::DatalogAtom& atom : rule.body) {
      for (int& v : atom.args) v = p[v];
    }
    ShuffleVector(&rule.body, rng);
  }
  ShuffleVector(&rules, rng);
  DatalogProgram out;
  for (DatalogRule& rule : rules) out.AddRule(std::move(rule));
  out.SetGoal(program.goal());
  return out;
}

}  // namespace

namespace {

// One request of `kind` from the repository's own stream generator
// (service/workload.h) with its default sizes: a one-request stream over a
// one-base pool of that kind alone.
ServiceRequest PoolRequest(svc::RequestKind kind, Rng* rng) {
  svc::WorkloadOptions options;
  options.seed = rng->engine()();
  options.num_requests = 1;
  options.pool_size = 1;
  options.weight_solve_csp = kind == svc::RequestKind::kSolveCsp ? 1 : 0;
  options.weight_eval_cq = kind == svc::RequestKind::kEvalCq ? 1 : 0;
  options.weight_datalog = kind == svc::RequestKind::kDatalogFixpoint ? 1 : 0;
  options.weight_containment =
      kind == svc::RequestKind::kCheckContainment ? 1 : 0;
  return svc::GenerateRequestStream(options)[0];
}

ServiceRequest MakeRequest(Family family, Rng* rng) {
  svc::ServiceRequest request = svc::SolveCspRequest{CspInstance(1, 1)};
  switch (family) {
    case Family::kPoolCsp:
    case Family::kPoolCq:
    case Family::kPoolDatalog:
    case Family::kPoolContainment:
      request = PoolRequest(static_cast<svc::RequestKind>(family), rng);
      break;
    case Family::kRandomCsp:
      request = svc::SolveCspRequest{
          cspdb::RandomBinaryCsp(20, 4, 40, 0.45, rng)};
      break;
    case Family::kTreewidthCsp:
      request = svc::SolveCspRequest{
          cspdb::RandomTreewidthCsp(40, 2, 3, 0.4, 0.8, rng)};
      break;
    case Family::kPathCq:
      request = svc::EvalCqRequest{
          PathCq(kPathAtoms),
          cspdb::RandomDigraph(kColdDbNodes, kColdDbEdgeP, rng)};
      break;
    case Family::kStarCq: {
      ConjunctiveQuery q = StarCq(kStarLeaves, rng);
      request = svc::EvalCqRequest{
          std::move(q), cspdb::RandomDigraph(kColdDbNodes, kColdDbEdgeP, rng)};
      break;
    }
    case Family::kTcDatalog:
      request = svc::DatalogFixpointRequest{
          TransitiveClosure(), cspdb::RandomDigraph(40, 0.04, rng)};
      break;
    case Family::kTwoColDatalog:
      request = svc::DatalogFixpointRequest{
          cspdb::NonTwoColorabilityProgram(),
          cspdb::RandomUndirectedGraph(30, 0.07, rng)};
      break;
    case Family::kContainment:
      request = ContainmentPair(kContainmentVariables, kContainmentEdgeP, rng);
      break;
  }
  return request;
}

}  // namespace

Item MakeItem(Family family, Rng* rng) {
  return {family, MakeRequest(family, rng)};
}

PooledStream PoolStream(const svc::WorkloadOptions& options) {
  PooledStream out;
  std::map<std::vector<uint8_t>, int> index;
  std::vector<uint8_t> bytes;
  for (ServiceRequest& request : svc::GenerateRequestStream(options)) {
    bytes.clear();
    cspdb::net::EncodeRequestPayload(request, &bytes);
    const auto [it, inserted] =
        index.emplace(bytes, static_cast<int>(out.pool.size()));
    if (inserted) {
      const auto family = static_cast<Family>(svc::KindOf(request));
      out.pool.push_back({family, std::move(request)});
    }
    out.stream.push_back(it->second);
  }
  return out;
}

ServiceRequest Relabel(const ServiceRequest& request, Rng* rng) {
  switch (cspdb::service::KindOf(request)) {
    case svc::RequestKind::kSolveCsp:
      return svc::SolveCspRequest{
          Relabel(std::get<svc::SolveCspRequest>(request).instance, rng)};
    case svc::RequestKind::kEvalCq: {
      const auto& r = std::get<svc::EvalCqRequest>(request);
      return svc::EvalCqRequest{Relabel(r.query, rng),
                                Relabel(r.database, rng)};
    }
    case svc::RequestKind::kDatalogFixpoint: {
      const auto& r = std::get<svc::DatalogFixpointRequest>(request);
      return svc::DatalogFixpointRequest{Relabel(r.program, rng),
                                         Relabel(r.edb, rng)};
    }
    case svc::RequestKind::kCheckContainment: {
      const auto& r = std::get<svc::CheckContainmentRequest>(request);
      return svc::CheckContainmentRequest{Relabel(r.q1, rng),
                                          Relabel(r.q2, rng)};
    }
  }
  return request;
}

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint64_t>(x >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void AddRows(const svc::RowsAnswer& rows) {
    Add(rows.arity);
    Add(rows.num_rows);
    Add(static_cast<int64_t>(rows.rows.size()));
    for (int v : rows.rows) Add(v);
  }
};

}  // namespace

uint64_t AnswerDigest(const EngineAnswer& answer) {
  Fnv f;
  f.Add(static_cast<int64_t>(answer.index()));
  if (const auto* csp = std::get_if<svc::CspAnswer>(&answer)) {
    f.Add(csp->complete ? 1 : 0);
    f.Add(csp->solution.has_value() ? 1 : 0);
    if (csp->solution.has_value()) {
      for (int v : *csp->solution) f.Add(v);
    }
  } else if (const auto* rows = std::get_if<svc::RowsAnswer>(&answer)) {
    f.AddRows(*rows);
  } else if (const auto* dl = std::get_if<svc::DatalogAnswer>(&answer)) {
    f.Add(dl->goal_derived ? 1 : 0);
    f.AddRows(dl->goal_facts);
    f.Add(dl->total_idb_facts);
  } else {
    f.Add(std::get<svc::BoolAnswer>(answer).value ? 1 : 0);
  }
  return f.h;
}

}  // namespace servebench
