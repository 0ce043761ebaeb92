#ifndef HATT_MAPPING_HATT_COUNTS_HPP
#define HATT_MAPPING_HATT_COUNTS_HPP

/**
 * @file
 * Packed-support term multiset with incremental occurrence counts — the
 * data engine behind buildHattMapping's candidate scans.
 *
 * The reduced Hamiltonian is a multiset of node-support sets over ids
 * 0 .. max_id-1 (leaves + internal nodes). The seed implementation keyed a
 * hash map by sorted std::vector<int> supports and re-accumulated dense
 * O(max_id^2) pair-count tables from scratch at every merge step; this
 * version stores each support as a fixed-width uint64_t bit mask in a flat
 * arena (stride = word count, i.e. a single inline word for <= 64 active
 * ids — no per-term allocation at any size), hashes masks with a
 * splitmix64 mix, and maintains the counts incrementally:
 *
 *  - cnt1[id]: summed multiplicity of terms containing id;
 *  - pair counts, stored sparsely as per-id adjacency hash maps (memory
 *    O(nnz) instead of O(max_id^2)), with zero entries erased eagerly so
 *    every stored count is strictly positive;
 *  - an id -> term-index inverted index (lazily cleaned) so a merge only
 *    touches terms whose support intersects the merged triple.
 *
 * merge(a, b, c, parent) applies exactly the seed's reduction rule: drop
 * a/b/c from each intersecting support, append parent iff an odd number
 * were present, fold equal supports together, drop emptied terms — and
 * applies the matching count deltas for only those terms.
 */

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace hatt::detail {

/** Term multiset over packed supports with incremental counts. */
class TermCounts
{
  public:
    explicit TermCounts(uint32_t max_id);

    uint32_t maxId() const { return max_id_; }
    uint32_t words() const { return words_; }

    /** Add one initial term (ascending ids); call before finalize(). */
    void addTerm(const std::vector<uint32_t> &support, int64_t mult = 1);

    /** Build cnt1 / pair adjacency / inverted index from the terms. */
    void finalize();

    /** Merge nodes (a, b, c) into @p parent, updating counts by deltas. */
    void merge(int a, int b, int c, int parent);

    /** Summed multiplicity of live terms containing @p id. */
    int64_t count1(int id) const { return cnt1_[id]; }

    /** Summed multiplicity of live terms containing both ids (0 if none). */
    int64_t pairCount(int a, int b) const;

    /** Seed formula: Hamiltonian weight settled on the new qubit. */
    int64_t
    tripleWeight(int a, int b, int c) const
    {
        return cnt1_[a] + cnt1_[b] + cnt1_[c] - pairCount(a, b) -
               pairCount(a, c) - pairCount(b, c);
    }

    /** Sparse nonzero pair counts of @p id (every stored count > 0). */
    const std::unordered_map<int, int64_t> &
    adjacency(int id) const
    {
        return adj_[id];
    }

    /** Number of live terms (distinct supports with mult > 0). */
    size_t liveTerms() const { return live_terms_; }

    /** Sorted (support, mult) snapshot, for tests and debugging. */
    std::vector<std::pair<std::vector<int>, int64_t>> snapshot() const;

  private:
    uint64_t maskHash(uint32_t term) const;
    bool masksEqual(uint32_t lhs, uint32_t rhs) const;
    uint64_t *maskOf(uint32_t term) { return bits_.data() + size_t{term} * words_; }
    const uint64_t *
    maskOf(uint32_t term) const
    {
        return bits_.data() + size_t{term} * words_;
    }

    /** Collect the set bit ids of @p term into @p out (cleared first). */
    void maskIds(uint32_t term, std::vector<int> &out) const;

    void addCounts(const std::vector<int> &ids, int64_t mult);
    void removeCounts(const std::vector<int> &ids, int64_t mult);
    void adjAdd(int a, int b, int64_t mult);

    /**
     * Dedup-insert the mask already written at term slot @p term: either
     * keeps it (returns true) or folds its @p mult into an equal live term
     * and kills the slot (returns false).
     */
    bool dedupInsert(uint32_t term, int64_t mult);

    struct MaskSetHash
    {
        const TermCounts *owner;
        size_t operator()(uint32_t t) const { return owner->hash_[t]; }
    };
    struct MaskSetEq
    {
        const TermCounts *owner;
        bool
        operator()(uint32_t a, uint32_t b) const
        {
            return owner->masksEqual(a, b);
        }
    };

    uint32_t max_id_;
    uint32_t words_;
    size_t live_terms_ = 0;

    std::vector<uint64_t> bits_; //!< term masks, arena of stride words_
    std::vector<int64_t> mult_;  //!< per-term multiplicity; 0 = dead
    std::vector<uint64_t> hash_; //!< cached mask hash per term

    std::unordered_set<uint32_t, MaskSetHash, MaskSetEq> dedup_;

    std::vector<int64_t> cnt1_;
    std::vector<std::unordered_map<int, int64_t>> adj_;
    std::vector<std::vector<uint32_t>> inv_; //!< id -> term ids (lazy)

    std::vector<uint32_t> touch_stamp_; //!< per-term stamp for merge dedup
    uint32_t stamp_ = 0;

    std::vector<int> scratch_ids_;
    std::vector<uint32_t> scratch_terms_;
};

} // namespace hatt::detail

#endif // HATT_MAPPING_HATT_COUNTS_HPP
