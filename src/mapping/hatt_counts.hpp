#ifndef HATT_MAPPING_HATT_COUNTS_HPP
#define HATT_MAPPING_HATT_COUNTS_HPP

/**
 * @file
 * Sparse-support term multiset with incremental occurrence counts — the
 * data engine behind buildHattMapping's candidate scans.
 *
 * The reduced Hamiltonian is a multiset of node-support sets over ids
 * 0 .. max_id-1 (leaves + internal nodes). The seed implementation keyed a
 * hash map by sorted std::vector<int> supports and re-accumulated dense
 * O(max_id^2) pair-count tables from scratch at every merge step; this
 * version stores each support as its ascending id list in one flat arena
 * (per-term start and length, so storage is O(total support length) at
 * any max_id), hashes each support as the XOR of per-id splitmix64 keys
 * (so a merge updates a hash in O(1)), and maintains the counts
 * incrementally:
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
 * applies the matching count deltas for only those terms. Each support is
 * rewritten in place: at least one id is dropped and parent is the
 * largest id so far, so the list never grows and stays ascending.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hatt::detail {

/** Term multiset over sorted id-list supports with incremental counts. */
class TermCounts
{
  public:
    explicit TermCounts(uint32_t max_id);

    /** Pre-size the per-term arrays for @p terms addTerm() calls. */
    void reserve(size_t terms);

    /** Add one initial term (ascending ids), counts included; call
        before the first merge(). */
    void addTerm(const std::vector<uint32_t> &support, int64_t mult = 1);

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

    /** Sorted (support, mult) snapshot, for tests and debugging. */
    std::vector<std::pair<std::vector<int>, int64_t>> snapshot() const;

  private:
    /** Hash key of one id; a support hashes to the XOR of its keys. */
    static uint64_t idKey(int id);

    std::span<int>
    supportOf(uint32_t term)
    {
        return {ids_.data() + start_[term], size_[term]};
    }
    std::span<const int>
    supportOf(uint32_t term) const
    {
        return {ids_.data() + start_[term], size_[term]};
    }

    /** Add @p mult (negative to remove) to the counts of one support. */
    void addCounts(std::span<const int> ids, int64_t mult);
    void adjAdd(int a, int b, int64_t mult);

    /**
     * Dedup-insert the support already written at term slot @p term:
     * either keeps it (returns true) or folds its @p mult into an equal
     * live term and kills the slot (returns false).
     */
    bool dedupInsert(uint32_t term, int64_t mult);

    struct SupportHash
    {
        const TermCounts *owner;
        size_t operator()(uint32_t t) const { return owner->hash_[t]; }
    };
    struct SupportEq
    {
        const TermCounts *owner;
        bool
        operator()(uint32_t a, uint32_t b) const
        {
            // Sized ranges: compares lengths first, then the ids.
            return std::ranges::equal(owner->supportOf(a),
                                      owner->supportOf(b));
        }
    };

    std::vector<int> ids_;       //!< all supports, ascending per term
    std::vector<size_t> start_;  //!< per-term offset into ids_
    std::vector<uint32_t> size_; //!< per-term support length
    std::vector<int64_t> mult_;  //!< per-term multiplicity; 0 = dead
    std::vector<uint64_t> hash_; //!< support hash per term (XOR of idKey)

    std::unordered_set<uint32_t, SupportHash, SupportEq> dedup_;

    std::vector<int64_t> cnt1_;
    std::vector<std::unordered_map<int, int64_t>> adj_;
    std::vector<std::vector<uint32_t>> inv_; //!< id -> term ids (lazy)

    std::vector<uint32_t> touch_stamp_; //!< per-term stamp for merge dedup
    uint32_t stamp_ = 0;

    std::vector<uint32_t> scratch_terms_;
};

} // namespace hatt::detail

#endif // HATT_MAPPING_HATT_COUNTS_HPP
