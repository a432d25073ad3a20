// Baseline-vs-optimized kernel microbenchmarks, the measured side of
// BENCH_kernels.json. Every op comes in a `baseline` variant (the frozen
// pre-optimization kernels in reference/reference_gac.h and
// reference/reference_join.h) and an `optimized` variant (the shipping
// word-packed / flat-storage kernels), over identical seeded inputs, so
// bench/run_benchmarks.sh can distill per-(op, size) speedups.
//
// Naming contract with bench/distill_bench.py: BM_<op>_<side>/<size>.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "consistency/arc_consistency.h"
#include "csp/instance.h"
#include "db/algebra.h"
#include "db/relation.h"
#include "gen/generators.h"
#include "reference/reference_gac.h"
#include "reference/reference_join.h"
#include "util/rng.h"

namespace cspdb {
namespace {

// --------------------------------------------------------------------------
// GAC revision: the ordering chain x_0 < x_1 < ... < x_{n-1} over domain
// [0, n). Arc consistency triggers the full domino cascade (~n^2/6
// prunings through d^2/2-tuple constraints), so the measurement is
// dominated by the revision loop — tuple-at-a-time support scans in the
// baseline vs word-parallel mask probes in the optimized kernel. Random
// dense instances are deliberately NOT used here: they reach the fixpoint
// with almost no pruning, which measures mask construction, not revision
// (see EXPERIMENTS.md).

CspInstance MakeOrderingChain(int n) {
  CspInstance csp(n, n);
  std::vector<Tuple> less;
  for (int x = 0; x < n; ++x) {
    for (int y = x + 1; y < n; ++y) less.push_back({x, y});
  }
  for (int v = 0; v + 1 < n; ++v) csp.AddConstraint({v, v + 1}, less);
  return csp;
}

void BM_gac_revision_baseline(benchmark::State& state) {
  CspInstance csp = MakeOrderingChain(static_cast<int>(state.range(0)));
  int64_t prunings = 0;
  for (auto _ : state) {
    ReferenceAcResult r = ReferenceEnforceGac(csp);
    benchmark::DoNotOptimize(r.consistent);
    prunings = r.prunings;
  }
  state.counters["prunings"] = static_cast<double>(prunings);
}
BENCHMARK(BM_gac_revision_baseline)->Arg(16)->Arg(48)->Arg(96);

void BM_gac_revision_optimized(benchmark::State& state) {
  CspInstance csp = MakeOrderingChain(static_cast<int>(state.range(0)));
  int64_t prunings = 0;
  for (auto _ : state) {
    AcResult r = EnforceGac(csp);
    benchmark::DoNotOptimize(r.consistent);
    prunings = r.prunings;
  }
  state.counters["prunings"] = static_cast<double>(prunings);
}
BENCHMARK(BM_gac_revision_optimized)->Arg(16)->Arg(48)->Arg(96);

// --------------------------------------------------------------------------
// SAC: smaller tiers — the baseline rebuilds a full restricted instance
// per (variable, value) probe, which is exactly the cost being measured.

CspInstance MakeSacInstance(int n) {
  Rng rng(6789 + n);
  int d = 4;
  int m = std::min(n * (n - 1) / 2, 2 * n);
  return RandomBinaryCsp(n, d, m, /*tightness=*/0.3, &rng);
}

void BM_sac_baseline(benchmark::State& state) {
  CspInstance csp = MakeSacInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ReferenceAcResult r = ReferenceEnforceSingletonArcConsistency(csp);
    benchmark::DoNotOptimize(r.consistent);
  }
}
BENCHMARK(BM_sac_baseline)->Arg(8)->Arg(16)->Arg(24);

void BM_sac_optimized(benchmark::State& state) {
  CspInstance csp = MakeSacInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    AcResult r = EnforceSingletonArcConsistency(csp);
    benchmark::DoNotOptimize(r.consistent);
  }
}
BENCHMARK(BM_sac_optimized)->Arg(8)->Arg(16)->Arg(24);

// --------------------------------------------------------------------------
// Joins: R(0,1) ⋈ S(1,2) with value range n/4, so the output carries ~4n
// rows — enough to expose per-output-row allocation in the baseline.

void MakeJoinInputs(int n, DbRelation* r, DbRelation* s) {
  Rng rng(777 + n);
  int values = std::max(4, n / 4);
  *r = DbRelation({0, 1});
  *s = DbRelation({1, 2});
  r->Reserve(n);
  s->Reserve(n);
  for (int i = 0; i < n; ++i) {
    r->AddRow({rng.UniformInt(0, values - 1), rng.UniformInt(0, values - 1)});
    s->AddRow({rng.UniformInt(0, values - 1), rng.UniformInt(0, values - 1)});
  }
}

void BM_natural_join_baseline(benchmark::State& state) {
  DbRelation r({0}), s({0});
  MakeJoinInputs(static_cast<int>(state.range(0)), &r, &s);
  ReferenceRelation ref_r = ToReferenceRelation(r);
  ReferenceRelation ref_s = ToReferenceRelation(s);
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ReferenceRelation out = ReferenceNaturalJoin(ref_r, ref_s);
    benchmark::DoNotOptimize(out.rows.data());
    out_rows = out.size();
  }
  state.counters["peak_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_natural_join_baseline)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_natural_join_optimized(benchmark::State& state) {
  DbRelation r({0}), s({0});
  MakeJoinInputs(static_cast<int>(state.range(0)), &r, &s);
  std::size_t out_rows = 0;
  for (auto _ : state) {
    DbRelation out = NaturalJoin(r, s);
    benchmark::DoNotOptimize(out.data());
    out_rows = out.size();
  }
  state.counters["peak_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_natural_join_optimized)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_semijoin_baseline(benchmark::State& state) {
  DbRelation r({0}), s({0});
  MakeJoinInputs(static_cast<int>(state.range(0)), &r, &s);
  ReferenceRelation ref_r = ToReferenceRelation(r);
  ReferenceRelation ref_s = ToReferenceRelation(s);
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ReferenceRelation out = ReferenceSemijoin(ref_r, ref_s);
    benchmark::DoNotOptimize(out.rows.data());
    out_rows = out.size();
  }
  state.counters["peak_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_semijoin_baseline)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_semijoin_optimized(benchmark::State& state) {
  DbRelation r({0}), s({0});
  MakeJoinInputs(static_cast<int>(state.range(0)), &r, &s);
  std::size_t out_rows = 0;
  for (auto _ : state) {
    DbRelation out = Semijoin(r, s);
    benchmark::DoNotOptimize(out.data());
    out_rows = out.size();
  }
  state.counters["peak_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_semijoin_optimized)->Arg(1000)->Arg(10000)->Arg(50000);

// --------------------------------------------------------------------------
// Deduplicating insert: flat store + open-addressed row hash vs one heap
// Tuple and one unordered_set node per row.

void BM_relation_insert_baseline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(555);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({rng.UniformInt(0, n), rng.UniformInt(0, n),
                    rng.UniformInt(0, 7)});
  }
  std::size_t total = 0;
  for (auto _ : state) {
    ReferenceRelation rel({0, 1, 2});
    for (const Tuple& t : rows) rel.AddRow(t);
    benchmark::DoNotOptimize(rel.rows.data());
    total = rel.size();
  }
  state.counters["peak_rows"] = static_cast<double>(total);
}
BENCHMARK(BM_relation_insert_baseline)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_relation_insert_optimized(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(555);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({rng.UniformInt(0, n), rng.UniformInt(0, n),
                    rng.UniformInt(0, 7)});
  }
  std::size_t total = 0;
  for (auto _ : state) {
    DbRelation rel({0, 1, 2});
    for (const Tuple& t : rows) rel.AddRow(t);
    benchmark::DoNotOptimize(rel.data());
    total = rel.size();
  }
  state.counters["peak_rows"] = static_cast<double>(total);
}
BENCHMARK(BM_relation_insert_optimized)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace cspdb
