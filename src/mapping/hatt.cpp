#include "mapping/hatt.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "mapping/hatt_counts.hpp"

namespace hatt {

namespace {

using detail::TermCounts;

/**
 * The candidate scans below never evaluate every triple. For a fixed
 * prefix (two chosen nodes with summed count `base`), the weight of
 * completing the triple with node v in slot p (active position in
 * Algorithm 1, node id in the pairing selector) is
 *
 *     w(p) = base + cnt1[p] - corrections(p)
 *
 * where corrections(p) > 0 only for the sparse set of slots adjacent
 * (via a nonzero pair count) to the two chosen nodes. Since corrections
 * are strictly positive, the first-argmin over all p is obtained exactly
 * by combining
 *   - the explicit first-argmin over the corrected slots, and
 *   - the first-argmin of plain cnt1 (a per-step suffix-argmin array in
 *     Algorithm 1, a top-3 of the active roots in the pairing selector),
 * with value-then-slot tie-breaking. This reproduces the seed's "first
 * strict minimum in scan order" selection bit-exactly while doing
 * O(adjacency) work per prefix instead of O(active).
 */
struct ScanScratch
{
    std::vector<int64_t> corr;
    std::vector<uint64_t> stamp;
    std::vector<int> cand;
    uint64_t epoch = 0;

    void
    prepare(size_t m)
    {
        if (corr.size() < m) {
            corr.resize(m);
            stamp.assign(corr.size(), 0);
        }
    }

    void
    begin()
    {
        ++epoch;
        cand.clear();
    }

    void
    add(int pos, int64_t count)
    {
        if (stamp[pos] != epoch) {
            stamp[pos] = epoch;
            corr[pos] = 0;
            cand.push_back(pos);
        }
        corr[pos] += count;
    }
};

thread_local ScanScratch tls_scratch;

/** Winning triple of one scan; w < 0 means "none seen yet". */
struct BestTriple
{
    int64_t w = -1;
    int bx = -1, by = -1, bz = -1;
};

/** Chunk result: local best (in scan order) + seed-compatible stats. */
struct ChunkResult
{
    BestTriple best;
    uint64_t candidates = 0;
};

/** Fold chunk results in chunk order: strict < keeps the earliest min. */
ChunkResult
combineChunks(ChunkResult acc, const ChunkResult &next)
{
    acc.candidates += next.candidates;
    if (next.best.w >= 0 && (acc.best.w < 0 || next.best.w < acc.best.w))
        acc.best = next.best;
    return acc;
}

/** First-argmin over corrected slots: lex-min of (cnt1 - corr, slot). */
template <typename Cnt1>
std::pair<int64_t, int>
correctedBest(const ScanScratch &s, Cnt1 cnt1)
{
    int64_t cv = std::numeric_limits<int64_t>::max();
    int cp = std::numeric_limits<int>::max();
    for (int p : s.cand) {
        int64_t v = cnt1(p) - s.corr[p];
        if (v < cv || (v == cv && p < cp)) {
            cv = v;
            cp = p;
        }
    }
    return {cv, cp};
}

constexpr int64_t kAbsent = std::numeric_limits<int64_t>::max();

/**
 * Lex-min of (value, id) over the fixed id range [0, n): a tournament
 * tree whose internal nodes hold the winning leaf, the left (lower id)
 * one on ties. kAbsent marks an id that takes no part.
 */
class MinTree
{
  public:
    explicit MinTree(size_t n)
    {
        while (leaves_ < n)
            leaves_ *= 2;
        val_.assign(leaves_, kAbsent);
        win_.resize(2 * leaves_);
        for (size_t i = 0; i < leaves_; ++i)
            win_[leaves_ + i] = static_cast<int>(i);
        for (size_t k = leaves_; k-- > 1;)
            win_[k] = win_[2 * k];
    }

    void
    set(int id, int64_t v)
    {
        val_[id] = v;
        for (size_t k = (leaves_ + static_cast<size_t>(id)) / 2; k >= 1;
             k /= 2) {
            const int l = win_[2 * k], r = win_[2 * k + 1];
            win_[k] = val_[r] < val_[l] ? r : l;
        }
    }

    /** (value, id) of the winner; value is kAbsent when all are absent. */
    std::pair<int64_t, int>
    min() const
    {
        return {val_[win_[1]], win_[1]};
    }

  private:
    size_t leaves_ = 1;
    std::vector<int64_t> val_;
    std::vector<int> win_;
};

/** The (X, Y) roots of one pair: cx carries the even leaf. */
struct PairRoots
{
    int cx = -1, cy = -1;
};

/**
 * Incremental candidate selection for the vacuum-pairing construction
 * (Algorithms 2/3). In that search OX is free, OY is the root holding
 * the partner leaf of OX's Z-descendant, and OZ is free among the rest,
 * so OX and OY score the same (cx, cy) pair: the seed's first strict
 * minimum in scan order is the lex-min of (w, min(cx, cy)) over pairs,
 * and every pair is cached once under that key. A pair's weight is
 *
 *     w = base + min over v != cx, cy of (cnt1[v] - corr[v])
 *     base = cnt1[cx] + cnt1[cy] - pair(cx, cy)
 *     corr[v] = pair(cx, v) + pair(cy, v)
 *
 * corr is nonzero only on adj(cx) u adj(cy); the cache holds base and
 * the lex-min (cv, cz) over that corrected set. The uncorrected part is
 * the first (cnt1, id) entry of the active roots that is neither cx nor
 * cy (T_excl), read from a global top-3 at selection time.
 *
 * A merge of (a, b, c) into parent leaves cnt1 and every pair count
 * outside {a, b, c, parent} unchanged, and parent is adjacent only to
 * roots that were adjacent to a, b or c. So only the pairs of those
 * roots and of parent (whose partner is c's former partner) go stale;
 * every other cached (base, cv, cz) is still exact.
 */
class PairingSelector
{
  public:
    using PairOf = std::function<PairRoots(int)>;

    PairingSelector(TermCounts &counts, size_t max_id, int num_leaves,
                    PairOf pair_of)
        : counts_(counts), pair_of_(std::move(pair_of)), score_(max_id),
          key_of_(max_id, -1), key_stamp_(max_id, 0),
          touch_stamp_(max_id, 0), corr_(max_id), base_(max_id)
    {
        scratch_.prepare(max_id);
        ++epoch_;
        for (int id = 0; id < num_leaves; ++id) {
            by_count_.emplace(counts_.count1(id), id);
            rescore(id);
        }
    }

    /** The triple the seed's full scan would pick at this step. */
    BestTriple
    select()
    {
        Entry top[3];
        auto it = by_count_.begin();
        for (Entry &e : top) {
            assert(it != by_count_.end());
            e = *it++;
        }
        auto t_excl = [&](const Score &s) -> const Entry & {
            for (const Entry &e : top)
                if (e.second != s.cx && e.second != s.cy)
                    return e;
            throw std::logic_error("buildHattMapping: no OZ candidate");
        };

        // Lex-min of (base + cv, key), then of (base + T_excl, key):
        // T_excl is top[0] unless the pair holds a top-3 root, so those
        // (at most three) pairs are evaluated explicitly and held out
        // of the (base, key) minimum.
        std::pair<int64_t, int> best = corr_.min();
        int held[3];
        int num_held = 0;
        for (const Entry &t : top) {
            const int k = key_of_[t.second];
            if (k < 0 || std::find(held, held + num_held, k) !=
                             held + num_held)
                continue;
            const Score &s = score_[k];
            best = std::min(best, {s.base + t_excl(s).first, k});
            base_.set(k, kAbsent);
            held[num_held++] = k;
        }
        if (auto [b, k] = base_.min(); b != kAbsent)
            best = std::min(best, {b + top[0].first, k});
        for (int i = 0; i < num_held; ++i)
            base_.set(held[i], score_[held[i]].base);
        if (best.first == kAbsent)
            throw std::logic_error("buildHattMapping: no candidate triple");

        const Score &s = score_[best.second];
        std::pair<int64_t, int> z = t_excl(s);
        z = std::min(z, {s.cv, s.cz});
        return {s.base + z.first, s.cx, s.cy, z.second};
    }

    /** counts.merge(a, b, c, parent), re-scoring only the stale pairs. */
    void
    merge(int a, int b, int c, int parent)
    {
        ++epoch_;
        touched_.clear();
        for (int id : {a, b, c}) {
            for (const auto &entry : counts_.adjacency(id))
                touch(entry.first);
            by_count_.erase({counts_.count1(id), id});
            corr_.set(id, kAbsent);
            base_.set(id, kAbsent);
        }
        counts_.merge(a, b, c, parent);
        by_count_.emplace(counts_.count1(parent), parent);
        touch(parent);
        for (int id : touched_)
            if (id != a && id != b && id != c)
                rescore(id);
    }

    uint64_t oxRescored() const { return ox_rescored_; }

  private:
    using Entry = std::pair<int64_t, int>; //!< (cnt1, id)

    struct Score
    {
        int cx = -1, cy = -1;
        int64_t base = 0;
        int64_t cv = kAbsent; //!< corrected best value, kAbsent if none
        int cz = -1;
    };

    void
    touch(int id)
    {
        if (touch_stamp_[id] != epoch_) {
            touch_stamp_[id] = epoch_;
            touched_.push_back(id);
        }
    }

    /** Recompute the pair of root @p id (once per epoch per pair). */
    void
    rescore(int id)
    {
        const PairRoots r = pair_of_(id);
        if (r.cx < 0)
            return; // the root of leaf 2N is never paired
        const int k = std::min(r.cx, r.cy);
        if (key_stamp_[k] == epoch_)
            return;
        key_stamp_[k] = epoch_;

        int64_t pair_xy = 0;
        scratch_.begin();
        for (const auto &[v, cnt] : counts_.adjacency(r.cx)) {
            if (v == r.cy)
                pair_xy = cnt;
            else
                scratch_.add(v, cnt);
        }
        for (const auto &[v, cnt] : counts_.adjacency(r.cy))
            if (v != r.cx)
                scratch_.add(v, cnt);
        auto [cv, cz] = correctedBest(
            scratch_, [&](int v) { return counts_.count1(v); });

        Score &s = score_[k];
        s = {r.cx, r.cy,
             counts_.count1(r.cx) + counts_.count1(r.cy) - pair_xy, cv, cz};
        base_.set(k, s.base);
        corr_.set(k, cv == kAbsent ? kAbsent : s.base + cv);
        key_of_[r.cx] = key_of_[r.cy] = k;
        ox_rescored_ += 2; // both OX of the pair share this score
    }

    TermCounts &counts_;
    PairOf pair_of_;
    std::vector<Score> score_;        //!< by pair key
    std::vector<int> key_of_;         //!< root -> its pair key, -1 if none
    std::vector<uint64_t> key_stamp_; //!< pair key -> epoch last scored
    std::vector<uint64_t> touch_stamp_;
    std::vector<int> touched_;
    uint64_t epoch_ = 0;
    MinTree corr_; //!< pair key -> base + cv
    MinTree base_; //!< pair key -> base
    std::set<Entry> by_count_;
    ScanScratch scratch_;
    uint64_t ox_rescored_ = 0;
};

} // namespace

HattResult
buildHattMapping(const MajoranaPolynomial &poly, const HattOptions &options)
{
    const uint32_t n = poly.numModes();
    if (n == 0)
        throw std::invalid_argument("buildHattMapping: zero modes");
    if (options.descCache && !options.vacuumPairing)
        throw std::invalid_argument(
            "buildHattMapping: descCache requires vacuumPairing");

    Timer timer;
    trace::Span span("mapping", "hatt_construct");
    const int num_leaves = static_cast<int>(2 * n + 1);
    const int last_leaf = num_leaves - 1; // leaf 2N: never paired
    const size_t max_id = static_cast<size_t>(3 * n + 1);

    TernaryTree tree(n);

    // Reduced Hamiltonian: sorted id-list supports + incremental counts.
    TermCounts counts(static_cast<uint32_t>(max_id));
    counts.reserve(poly.terms().size());
    for (const auto &t : poly.terms()) {
        if (t.indices.empty())
            continue;
        counts.addTerm(t.indices);
    }

    // Algorithm 3 caches: node -> descZ(node) and descZ(node) -> node.
    std::vector<int> mdown(max_id, -1), mup(max_id, -1);
    for (int i = 0; i < num_leaves; ++i) {
        mdown[i] = i;
        mup[i] = i;
    }

    std::vector<bool> paired(num_leaves, false);

    HattStats stats;
    stats.stepWeights.reserve(n);

    auto desc_z = [&](int id) {
        return options.descCache ? mdown[id] : tree.zDescendant(id);
    };
    auto traverse_up = [&](int leaf) {
        if (options.descCache)
            return mup[leaf];
        int id = leaf;
        while (tree.node(id).parent != -1)
            id = tree.node(id).parent;
        return id;
    };

    const RunLimits &limits = options.limits;
    const bool bounded = limits.bounded();

    // Algorithm 1 state: the active (parentless) roots, kept sorted for
    // determinism, and per-step scan tables, allocated once.
    std::vector<int> active;
    std::vector<int> pos_of;
    std::vector<int64_t> cnt1pos;
    std::vector<int64_t> sufv; // suffix-argmin of cnt1pos (value)
    std::vector<int> sufp;     //   ... and its position
    const unsigned threads = parallelThreads();

    // Algorithms 2/3: cached pair scores, re-scored per merge.
    std::optional<PairingSelector> pairing;
    if (options.vacuumPairing) {
        pairing.emplace(counts, max_id, num_leaves, [&](int root) {
            // OX = root; OY holds the partner leaf of its Z-descendant.
            const int x = desc_z(root);
            assert(!paired[x]);
            if (x == last_leaf)
                return PairRoots{}; // S_2N is discarded and never paired
            const int y = (x % 2 == 0) ? x + 1 : x - 1;
            assert(!paired[y]);
            const int oy = traverse_up(y);
            assert(oy != root);
            // Even leaf goes on the X branch -> pair reads (X, Y).
            return (x % 2 == 0) ? PairRoots{root, oy} : PairRoots{oy, root};
        });
    } else {
        active.resize(num_leaves);
        for (int i = 0; i < num_leaves; ++i)
            active[i] = i;
        pos_of.assign(max_id, -1);
    }

    for (uint32_t step = 0; step < n; ++step) {
        // Caller-thread checkpoint once per step (throws on expiry).
        limits.check();

        BestTriple best;
        if (pairing) {
            best = pairing->select();
            // The seed scanned m - 2 OZ for each of the m - 1 pairable
            // OX; report that search-space size, not the work done.
            const uint64_t m = static_cast<uint64_t>(num_leaves) - 2 * step;
            stats.candidatesEvaluated += (m - 1) * (m - 2);
        } else {
            // Algorithm 1: free choice of three nodes. The weight on the
            // new qubit does not depend on which child is X/Y/Z, so
            // combinations suffice; children are assigned in id order.
            const size_t m = active.size();
            cnt1pos.resize(m);
            for (size_t p = 0; p < m; ++p) {
                pos_of[active[p]] = static_cast<int>(p);
                cnt1pos[p] = counts.count1(active[p]);
            }
            sufv.resize(m);
            sufp.resize(m);
            sufv[m - 1] = cnt1pos[m - 1];
            sufp[m - 1] = static_cast<int>(m - 1);
            for (size_t p = m - 1; p-- > 0;) {
                if (cnt1pos[p] <= sufv[p + 1]) {
                    sufv[p] = cnt1pos[p];
                    sufp[p] = static_cast<int>(p);
                } else {
                    sufv[p] = sufv[p + 1];
                    sufp[p] = sufp[p + 1];
                }
            }

            auto scan_chunk = [&](size_t lo, size_t hi) {
                ScanScratch &scr = tls_scratch;
                scr.prepare(m);
                ChunkResult local;
                if (bounded && limits.shouldStop())
                    return local; // discarded: the check() below throws
                for (size_t i = lo; i < hi; ++i) {
                    const int a = active[i];
                    const auto &adj_a = counts.adjacency(a);
                    for (size_t j = i + 1; j + 1 < m; ++j) {
                        const int b = active[j];
                        int64_t pair_ab = 0;
                        scr.begin();
                        for (const auto &[id, cv] : adj_a) {
                            const int p = pos_of[id];
                            if (p == static_cast<int>(j))
                                pair_ab = cv;
                            else if (p > static_cast<int>(j))
                                scr.add(p, cv);
                        }
                        for (const auto &[id, cv] : counts.adjacency(b)) {
                            const int p = pos_of[id];
                            if (p > static_cast<int>(j))
                                scr.add(p, cv);
                        }

                        int64_t best_v = sufv[j + 1];
                        int best_p = sufp[j + 1];
                        if (!scr.cand.empty()) {
                            auto [cv, cp] = correctedBest(
                                scr, [&](int p) { return cnt1pos[p]; });
                            if (cv < best_v) {
                                best_v = cv;
                                best_p = cp;
                            } else if (cv == best_v) {
                                best_p = std::min(best_p, cp);
                            }
                        }

                        const int64_t w =
                            cnt1pos[i] + cnt1pos[j] - pair_ab + best_v;
                        local.candidates += m - 1 - j;
                        if (local.best.w < 0 || w < local.best.w)
                            local.best = {w, a, b, active[best_p]};
                    }
                }
                return local;
            };

            const size_t grain =
                threads <= 1 ? m : std::max<size_t>(1, m / (4 * threads));
            const ChunkResult scan = parallelReduceChunks(
                m, grain, ChunkResult{}, scan_chunk, combineChunks);
            // If any chunk bailed, the scan is incomplete: expiry is
            // monotonic, so this throws before the step can commit it.
            limits.check();
            stats.candidatesEvaluated += scan.candidates;
            best = scan.best;
        }

        const int bx = best.bx, by = best.by, bz = best.bz;
        if (bx < 0)
            throw std::logic_error("buildHattMapping: no candidate triple");
        assert(best.w == counts.tripleWeight(bx, by, bz));

        const int qubit = static_cast<int>(step);
        const int parent = tree.addInternal(qubit, bx, by, bz);
        assert(parent == static_cast<int>(2 * n + 1 + step));

        if (options.vacuumPairing) {
            int px = desc_z(bx);
            int py = desc_z(by);
            assert(px % 2 == 0 && py == px + 1);
            paired[px] = true;
            paired[py] = true;
        }

        // Maintain Algorithm 3 maps: the new parent inherits the Z child's
        // Z-descendant.
        int zdesc = mdown[bz];
        if (zdesc >= 0) {
            mdown[parent] = zdesc;
            mup[zdesc] = parent;
        }

        if (pairing) {
            pairing->merge(bx, by, bz, parent);
        } else {
            // Remove children, insert parent at end: parent has the
            // largest id so the vector stays sorted.
            active.erase(std::remove_if(active.begin(), active.end(),
                                        [&](int id) {
                                            return id == bx || id == by ||
                                                   id == bz;
                                        }),
                         active.end());
            active.push_back(parent);
            counts.merge(bx, by, bz, parent);
        }

        stats.stepWeights.push_back(static_cast<uint64_t>(best.w));
        stats.predictedWeight += static_cast<uint64_t>(best.w);
    }

    assert(tree.isCompleteTree());
    if (pairing)
        stats.oxRescored = pairing->oxRescored();

    HattResult result{FermionQubitMapping{}, std::move(tree), stats};
    result.mapping = mappingFromTree(
        result.tree, options.vacuumPairing ? "HATT" : "HATT-unopt");
    result.stats.seconds = timer.seconds();
    // Bulk-added once per construction, never per candidate: the totals
    // are pinned deterministic by the parity tests.
    metrics::add("hatt.constructions");
    metrics::add("hatt.steps", stats.stepWeights.size());
    metrics::add("hatt.candidates", stats.candidatesEvaluated);
    metrics::add("hatt.rescored", stats.oxRescored);
    return result;
}

} // namespace hatt
