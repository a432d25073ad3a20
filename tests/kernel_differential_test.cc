// Differential tests pinning the optimized word-packed kernels to the
// frozen pre-optimization references, on the repo's 250-seed fuzz corpus
// (the same seeded recipes as analysis_fuzz_test.cc):
//
//   * EnforceGac / EnforceSingletonArcConsistency (bitset domains,
//     compact-table support masks) vs the byte-map tuple-scanning
//     kernels in reference/reference_gac.h — identical consistency
//     verdicts, identical fixpoint domains, identical pruning counts.
//   * NaturalJoin / Semijoin / Project / JoinAll on the flat-storage
//     DbRelation vs the Tuple-per-row kernels in
//     reference/reference_join.h — identical schemas and row sets.
//
// Revision counters are deliberately NOT compared: the engines schedule
// revisions differently, and GAC-fixpoint uniqueness makes the domains
// the meaningful contract. On wipeout the partially pruned domains are
// order-dependent, so domains are compared only for consistent runs.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "consistency/arc_consistency.h"
#include "csp/convert.h"
#include "csp/instance.h"
#include "db/algebra.h"
#include "db/relation.h"
#include "gen/generators.h"
#include "reference/reference_gac.h"
#include "reference/reference_join.h"
#include "util/rng.h"

namespace cspdb {
namespace {

// The three CSP-producing corpus recipes of analysis_fuzz_test.cc.
CspInstance BinaryCorpusInstance(uint64_t seed) {
  Rng rng(1000 + seed);
  int n = 6 + static_cast<int>(seed % 5);
  int d = 2 + static_cast<int>(seed % 3);
  int max_constraints = n * (n - 1) / 2;
  int m = std::min(max_constraints, n + static_cast<int>(seed % n));
  double tightness = 0.15 + 0.04 * static_cast<double>(seed % 10);
  return RandomBinaryCsp(n, d, m, tightness, &rng);
}

CspInstance TreewidthCorpusInstance(uint64_t seed) {
  Rng rng(7000 + seed);
  int n = 8 + static_cast<int>(seed % 6);
  int k = 2 + static_cast<int>(seed % 2);
  int d = 2 + static_cast<int>(seed % 3);
  double tightness = 0.1 + 0.05 * static_cast<double>(seed % 8);
  return RandomTreewidthCsp(n, k, d, tightness, 0.85, &rng);
}

CspInstance HomCorpusInstance(uint64_t seed) {
  Rng rng(31000 + seed);
  Structure a = RandomDigraph(5 + static_cast<int>(seed % 3), 0.35, &rng);
  Structure b = RandomDigraph(3, 0.6, &rng, /*allow_loops=*/true);
  return ToCspInstance(a, b);
}

void ExpectSameDomains(const AcResult& fast, const ReferenceAcResult& ref,
                       const CspInstance& csp, const std::string& label) {
  ASSERT_EQ(fast.domains.size(), ref.domains.size()) << label;
  for (int v = 0; v < csp.num_variables(); ++v) {
    for (int d = 0; d < csp.num_values(); ++d) {
      EXPECT_EQ(fast.domains[v].Test(d), ref.domains[v][d] != 0)
          << label << " variable " << v << " value " << d;
    }
  }
}

void ExpectGacAgrees(const CspInstance& csp, const std::string& label) {
  AcResult fast = EnforceGac(csp);
  ReferenceAcResult ref = ReferenceEnforceGac(csp);
  ASSERT_EQ(fast.consistent, ref.consistent) << label;
  if (fast.consistent) {
    ExpectSameDomains(fast, ref, csp, label);
    // Both engines prune each dead (variable, value) pair exactly once,
    // and the fixpoint is unique.
    EXPECT_EQ(fast.prunings, ref.prunings) << label;
  }
}

void ExpectSacAgrees(const CspInstance& csp, const std::string& label) {
  AcResult fast = EnforceSingletonArcConsistency(csp);
  ReferenceAcResult ref = ReferenceEnforceSingletonArcConsistency(csp);
  ASSERT_EQ(fast.consistent, ref.consistent) << label;
  if (fast.consistent) {
    ExpectSameDomains(fast, ref, csp, label);
    EXPECT_EQ(fast.prunings, ref.prunings) << label;
  }
}

TEST(KernelDifferential, GacMatchesReferenceOnBinaryCorpus) {
  for (uint64_t seed = 0; seed < 120; ++seed) {
    ExpectGacAgrees(BinaryCorpusInstance(seed),
                    "binary seed " + std::to_string(seed));
  }
}

TEST(KernelDifferential, GacMatchesReferenceOnTreewidthCorpus) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    ExpectGacAgrees(TreewidthCorpusInstance(seed),
                    "treewidth seed " + std::to_string(seed));
  }
}

TEST(KernelDifferential, GacMatchesReferenceOnHomCorpus) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    ExpectGacAgrees(HomCorpusInstance(seed),
                    "hom seed " + std::to_string(seed));
  }
}

TEST(KernelDifferential, SacMatchesReferenceOnBinaryCorpus) {
  // Every third seed: the reference SAC rebuilds a full instance per
  // (variable, value) probe, so the full corpus would dominate the suite.
  for (uint64_t seed = 0; seed < 120; seed += 3) {
    ExpectSacAgrees(BinaryCorpusInstance(seed),
                    "binary seed " + std::to_string(seed));
  }
}

TEST(KernelDifferential, SacMatchesReferenceOnTreewidthCorpus) {
  for (uint64_t seed = 0; seed < 60; seed += 3) {
    ExpectSacAgrees(TreewidthCorpusInstance(seed),
                    "treewidth seed " + std::to_string(seed));
  }
}

TEST(KernelDifferential, GacMatchesReferenceOnDuplicateScopes) {
  // Repeated scope variables exercise the support/killer mask split: a
  // tuple whose repeated positions disagree supports nothing but must
  // still die when either of its values is pruned.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(91000 + seed);
    int n = 4 + static_cast<int>(seed % 3);
    int d = 2 + static_cast<int>(seed % 3);
    CspInstance csp(n, d);
    int m = 4 + static_cast<int>(seed % 5);
    for (int c = 0; c < m; ++c) {
      int arity = rng.UniformInt(2, 3);
      std::vector<int> scope;
      for (int q = 0; q < arity; ++q) scope.push_back(rng.UniformInt(0, n - 1));
      std::vector<Tuple> allowed;
      int num_tuples = rng.UniformInt(1, 2 * d);
      for (int t = 0; t < num_tuples; ++t) {
        Tuple tuple;
        for (int q = 0; q < arity; ++q) {
          tuple.push_back(rng.UniformInt(0, d - 1));
        }
        allowed.push_back(std::move(tuple));
      }
      csp.AddConstraint(std::move(scope), std::move(allowed));
    }
    ExpectGacAgrees(csp, "dup seed " + std::to_string(seed));
    ExpectSacAgrees(csp, "dup seed " + std::to_string(seed));
  }
}

TEST(KernelDifferential, GacMatchesReferenceOnWideMasksAndDomains) {
  // Support masks are bitsets over a constraint's tuple list and domains
  // are bitsets over values; the corpora above keep both to a word or
  // two, so the SIMD word kernels never leave their scalar tails. These
  // instances push tuple counts past 500 (several 4-word AVX2 blocks
  // plus a remainder) and domains past 64 values, running the
  // multi-block and boundary paths under the differential.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(64000 + seed);
    const int n = 5;
    const int d = 66 + static_cast<int>(seed % 7);
    CspInstance csp(n, d);
    for (int c = 0; c < 4; ++c) {
      int a = rng.UniformInt(0, n - 1);
      int b = rng.UniformInt(0, n - 2);
      if (b >= a) ++b;
      std::vector<Tuple> allowed;
      int num_tuples = 500 + rng.UniformInt(0, 400);
      for (int t = 0; t < num_tuples; ++t) {
        allowed.push_back(
            {rng.UniformInt(0, d - 1), rng.UniformInt(0, d - 1)});
      }
      csp.AddConstraint({a, b}, std::move(allowed));
    }
    ExpectGacAgrees(csp, "wide seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Relational kernels.

DbRelation RandomRelation(std::vector<int> schema, int num_values,
                          int num_rows, Rng* rng) {
  DbRelation out(std::move(schema));
  Tuple row(out.arity());
  for (int i = 0; i < num_rows; ++i) {
    for (std::size_t q = 0; q < row.size(); ++q) {
      row[q] = rng->UniformInt(0, num_values - 1);
    }
    out.AddRow(row);
  }
  return out;
}

std::vector<int> RandomSchema(int max_attr, int arity, Rng* rng) {
  // Distinct attributes drawn from [0, max_attr].
  std::vector<int> pool;
  for (int a = 0; a <= max_attr; ++a) pool.push_back(a);
  std::vector<int> schema;
  for (int i = 0; i < arity && !pool.empty(); ++i) {
    int pick = rng->UniformInt(0, static_cast<int>(pool.size()) - 1);
    schema.push_back(pool[pick]);
    pool.erase(pool.begin() + pick);
  }
  return schema;
}

TEST(KernelDifferential, JoinOpsMatchReferenceOnRandomRelations) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(53000 + seed);
    const std::string label = "join seed " + std::to_string(seed);
    int num_values = 2 + static_cast<int>(seed % 4);
    DbRelation r = RandomRelation(RandomSchema(5, rng.UniformInt(1, 3), &rng),
                                  num_values, rng.UniformInt(0, 40), &rng);
    DbRelation s = RandomRelation(RandomSchema(5, rng.UniformInt(1, 3), &rng),
                                  num_values, rng.UniformInt(0, 40), &rng);
    ReferenceRelation ref_r = ToReferenceRelation(r);
    ReferenceRelation ref_s = ToReferenceRelation(s);

    EXPECT_TRUE(SameRows(NaturalJoin(r, s), ReferenceNaturalJoin(ref_r, ref_s)))
        << label;
    EXPECT_TRUE(SameRows(Semijoin(r, s), ReferenceSemijoin(ref_r, ref_s)))
        << label;

    // Project onto a random nonempty subset of r's schema.
    if (!r.schema().empty()) {
      std::vector<int> attrs;
      for (int a : r.schema()) {
        if (rng.UniformInt(0, 1) == 1) attrs.push_back(a);
      }
      if (attrs.empty()) attrs.push_back(r.schema()[0]);
      EXPECT_TRUE(SameRows(Project(r, attrs), ReferenceProject(ref_r, attrs)))
          << label;
    }
  }
}

TEST(KernelDifferential, JoinAllMatchesReferenceOnConstraintRelations) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const std::string label = "joinall seed " + std::to_string(seed);
    CspInstance csp =
        BinaryCorpusInstance(seed).NormalizedDistinctScopes();
    std::vector<DbRelation> rels = ConstraintsAsRelations(csp);
    std::vector<ReferenceRelation> ref_rels;
    ref_rels.reserve(rels.size());
    for (const DbRelation& r : rels) {
      ref_rels.push_back(ToReferenceRelation(r));
    }
    int64_t peak = 0;
    int64_t ref_peak = 0;
    DbRelation joined = JoinAll(rels, &peak);
    ReferenceRelation ref_joined = ReferenceJoinAll(ref_rels, &ref_peak);
    EXPECT_TRUE(SameRows(joined, ref_joined)) << label;
    // Same join order, same deduplicated inputs: identical intermediates.
    EXPECT_EQ(peak, ref_peak) << label;
  }
}

}  // namespace
}  // namespace cspdb
