// Frozen pre-optimization GAC kernels (byte-map domains, tuple-at-a-time
// support scans). These are the exact algorithms the bit-packed kernels
// in arc_consistency.* replaced; they exist solely as the trusted oracle
// for differential tests and as the "before" side of the
// BENCH_kernels.json trajectory. Do not optimize this file.

#ifndef CSPDB_REFERENCE_REFERENCE_GAC_H_
#define CSPDB_REFERENCE_REFERENCE_GAC_H_

#include <cstdint>
#include <vector>

#include "csp/instance.h"

namespace cspdb {

/// Result of the reference GAC pass; mirrors the pre-change AcResult with
/// its byte-per-value domain maps.
struct ReferenceAcResult {
  bool consistent = true;
  std::vector<std::vector<char>> domains;  ///< domains[v][d] == 1 iff alive
  int64_t revisions = 0;
  int64_t prunings = 0;
};

/// The pre-change GAC-3: scans every allowed tuple per (value, revision).
ReferenceAcResult ReferenceEnforceGac(const CspInstance& csp);

/// The pre-change SAC: rebuilds a full restricted CspInstance per
/// (variable, value) probe via ReferenceRestrictToDomains.
ReferenceAcResult ReferenceEnforceSingletonArcConsistency(
    const CspInstance& csp);

/// The pre-change domain write-back (one unary constraint per variable).
CspInstance ReferenceRestrictToDomains(
    const CspInstance& csp, const std::vector<std::vector<char>>& domains);

}  // namespace cspdb

#endif  // CSPDB_REFERENCE_REFERENCE_GAC_H_
