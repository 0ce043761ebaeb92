#ifndef HATT_MAPPING_HATT_HPP
#define HATT_MAPPING_HATT_HPP

/**
 * @file
 * The Hamiltonian-Adaptive Ternary Tree construction — the paper's core
 * contribution (Sec. III-C, IV).
 *
 * Bottom-up greedy construction: start from the 2N+1 leaves, and in step i
 * pick three parentless nodes to become the X/Y/Z children of a new
 * internal node carrying qubit i, chosen to minimize the Hamiltonian's
 * Pauli weight on that qubit. The reduced Hamiltonian is maintained as a
 * multiset of node-support sets; a candidate triple's weight on qubit i is
 *
 *     cnt1[a] + cnt1[b] + cnt1[c] - cnt2[a,b] - cnt2[a,c] - cnt2[b,c]
 *
 * (terms containing exactly one or two of the three nodes produce a
 * non-identity operator; zero or all three produce identity), so every
 * candidate is O(1) after per-step counting.
 *
 * Three variants, all exposed through HattOptions:
 *  - Algorithm 1 (vacuumPairing = false): free triple selection, O(N^4),
 *    does not guarantee vacuum-state preservation ("HATT (unopt)").
 *  - Algorithm 2 (vacuumPairing = true, descCache = false): only (OX, OZ)
 *    are free; OY is forced by the Z-descendant pairing rule so every
 *    Majorana pair (M_2l, M_2l+1) shares an (X,Y) on one qubit — vacuum
 *    preserving. Z-descendants found by walking the tree.
 *  - Algorithm 3 (vacuumPairing = true, descCache = true): same output as
 *    Algorithm 2 but with O(1) descZ / traverse-up maps, O(N^3) total.
 *
 * Both pairing variants cache each pair's score and, after a merge,
 * re-score only the pairs the merge touched (docs/DESIGN.md, "HATT
 * construction: incremental selection"); the selected trees are the
 * seed's full-scan trees bit for bit.
 */

#include <cstdint>
#include <vector>

#include "fermion/majorana.hpp"
#include "common/deadline.hpp"
#include "mapping/mapping.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt {

/** Variant switches for the HATT construction. */
struct HattOptions
{
    /** Enforce vacuum-state preservation via operator pairing (Alg. 2). */
    bool vacuumPairing = true;
    /** Use the O(1) descZ/up caches (Alg. 3); requires vacuumPairing. */
    bool descCache = true;
    /** Cooperative run budget, checked (throwing DeadlineExceededError /
        CancelledError) once per step on the calling thread. Algorithm 1
        also polls it at candidate-scan chunk boundaries; the pairing
        path (Algorithms 2/3) has no scan chunks. */
    RunLimits limits = {};
};

/** Construction statistics, used by the scalability experiments. */
struct HattStats
{
    std::vector<uint64_t> stepWeights; //!< settled weight per qubit
    uint64_t predictedWeight = 0;      //!< sum of stepWeights
    /** Candidate triples in the greedy search space. For the pairing
        variants this is the seed's closed form sum_s (m_s-1)(m_s-2),
        m_s = 2N+1-2s, not the work done. */
    uint64_t candidatesEvaluated = 0;
    /** OX whose cached score was (re)computed by the pairing variants;
        the two OX of a pair share one score. 0 for Algorithm 1. */
    uint64_t oxRescored = 0;
    double seconds = 0.0;
};

/** Output of the HATT construction. */
struct HattResult
{
    FermionQubitMapping mapping;
    TernaryTree tree;
    HattStats stats;
};

/**
 * Compile a Hamiltonian-adaptive ternary tree mapping for @p poly.
 *
 * @param poly  preprocessed Majorana polynomial (see MajoranaPolynomial).
 * @param options algorithm variant selection.
 */
HattResult buildHattMapping(const MajoranaPolynomial &poly,
                            const HattOptions &options = {});

} // namespace hatt

#endif // HATT_MAPPING_HATT_HPP
