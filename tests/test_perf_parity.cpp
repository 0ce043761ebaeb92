/**
 * @file
 * Guards for the high-throughput construction engine: the packed-support /
 * incremental-count / delta-evaluation hot paths must agree EXACTLY with
 * naive full re-evaluation references and with recorded seed outputs.
 *
 *  - a straight port of the seed buildHattMapping (vector-keyed support
 *    map, dense per-step recount, full triple scans) is compared
 *    tree-for-tree against the optimized implementation;
 *  - recorded seed weights/string hashes for H2/LiH-scale inputs pin the
 *    outputs across future refactors;
 *  - TermCounts (incremental) is checked against recounting its snapshot;
 *  - DeltaWeightEvaluator is checked against full path-counting;
 *  - results must be identical for every work-pool thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <utility>

#include "common/parallel.hpp"
#include "io/serialize.hpp"
#include "io/stream.hpp"
#include "common/rng.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/hatt_counts.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/mapper.hpp"
#include "mapping/search.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "preprocess_streams.hpp"

namespace hatt {
namespace {

// --------------------------------------------------- seed reference port

using RefSupportMap = std::map<std::vector<int>, int64_t>;

struct RefCounts
{
    size_t n;
    std::vector<int64_t> cnt1, cnt2;

    explicit RefCounts(size_t max_id)
        : n(max_id), cnt1(max_id, 0), cnt2(max_id * max_id, 0)
    {
    }

    void
    accumulate(const RefSupportMap &terms)
    {
        std::fill(cnt1.begin(), cnt1.end(), 0);
        std::fill(cnt2.begin(), cnt2.end(), 0);
        for (const auto &[support, mult] : terms)
            for (size_t i = 0; i < support.size(); ++i) {
                cnt1[support[i]] += mult;
                for (size_t j = i + 1; j < support.size(); ++j)
                    cnt2[static_cast<size_t>(support[i]) * n +
                         support[j]] += mult;
            }
    }

    int64_t
    pair(int a, int b) const
    {
        if (a > b)
            std::swap(a, b);
        return cnt2[static_cast<size_t>(a) * n + b];
    }

    int64_t
    triple(int a, int b, int c) const
    {
        return cnt1[a] + cnt1[b] + cnt1[c] - pair(a, b) - pair(a, c) -
               pair(b, c);
    }
};

RefSupportMap
refReduce(const RefSupportMap &terms, int a, int b, int c, int parent)
{
    RefSupportMap out;
    std::vector<int> scratch;
    for (const auto &[support, mult] : terms) {
        int present = 0;
        scratch.clear();
        for (int id : support) {
            if (id == a || id == b || id == c)
                ++present;
            else
                scratch.push_back(id);
        }
        if (present & 1)
            scratch.push_back(parent);
        if (scratch.empty())
            continue;
        out[scratch] += mult;
    }
    return out;
}

struct RefResult
{
    TernaryTree tree;
    std::vector<uint64_t> stepWeights;
    uint64_t candidates = 0;
    std::vector<PauliString> strings;
};

/** Seed buildHattMapping, verbatim logic with full scans + recounts. */
RefResult
refBuildHatt(const MajoranaPolynomial &poly, bool pairing)
{
    const uint32_t n = poly.numModes();
    const int num_leaves = static_cast<int>(2 * n + 1);
    const int last_leaf = num_leaves - 1;
    const size_t max_id = static_cast<size_t>(3 * n + 1);

    TernaryTree tree(n);
    std::vector<int> active(num_leaves);
    std::iota(active.begin(), active.end(), 0);

    RefSupportMap terms;
    for (const auto &t : poly.terms()) {
        if (t.indices.empty())
            continue;
        terms[std::vector<int>(t.indices.begin(), t.indices.end())] += 1;
    }

    std::vector<int> mdown(max_id, -1), mup(max_id, -1);
    for (int i = 0; i < num_leaves; ++i)
        mdown[i] = mup[i] = i;

    RefResult res{TernaryTree(n), {}, 0, {}};
    RefCounts counts(max_id);

    for (uint32_t step = 0; step < n; ++step) {
        counts.accumulate(terms);
        int64_t best_w = -1;
        int bx = -1, by = -1, bz = -1;
        const size_t m = active.size();

        if (!pairing) {
            for (size_t i = 0; i < m; ++i)
                for (size_t j = i + 1; j < m; ++j)
                    for (size_t k = j + 1; k < m; ++k) {
                        int64_t w = counts.triple(active[i], active[j],
                                                  active[k]);
                        ++res.candidates;
                        if (best_w < 0 || w < best_w) {
                            best_w = w;
                            bx = active[i];
                            by = active[j];
                            bz = active[k];
                        }
                    }
        } else {
            for (int ox : active) {
                int x = mdown[ox];
                if (x == last_leaf)
                    continue;
                int y = (x % 2 == 0) ? x + 1 : x - 1;
                int oy = mup[y];
                int cx = (x % 2 == 0) ? ox : oy;
                int cy = (x % 2 == 0) ? oy : ox;
                for (int oz : active) {
                    if (oz == ox || oz == oy)
                        continue;
                    int64_t w = counts.triple(cx, cy, oz);
                    ++res.candidates;
                    if (best_w < 0 || w < best_w) {
                        best_w = w;
                        bx = cx;
                        by = cy;
                        bz = oz;
                    }
                }
            }
        }

        const int parent = tree.addInternal(static_cast<int>(step), bx, by,
                                            bz);
        int zdesc = mdown[bz];
        if (zdesc >= 0) {
            mdown[parent] = zdesc;
            mup[zdesc] = parent;
        }
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](int id) {
                                        return id == bx || id == by ||
                                               id == bz;
                                    }),
                     active.end());
        active.push_back(parent);
        terms = refReduce(terms, bx, by, bz, parent);
        res.stepWeights.push_back(static_cast<uint64_t>(best_w));
    }

    res.strings = tree.extractStrings();
    res.tree = std::move(tree);
    return res;
}

/** FNV-1a over the concatenated string forms, as used for the baseline. */
uint64_t
stringsHash(const FermionQubitMapping &map)
{
    uint64_t h = 1469598103934665603ull;
    for (const auto &m : map.majorana)
        for (char c : m.string.toString()) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    return h;
}

/** FNV-1a over term order, coefficient bit patterns and string forms —
    any reordering, re-association of a coefficient sum, or string change
    in a mapped Hamiltonian flips it. */
uint64_t
sumHash(const PauliSum &sum)
{
    uint64_t h = 1469598103934665603ull;
    auto mix_bytes = [&](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const PauliTerm &t : sum.terms()) {
        double re = t.coeff.real(), im = t.coeff.imag();
        mix_bytes(&re, sizeof(re));
        mix_bytes(&im, sizeof(im));
        std::string s = t.string.toString();
        mix_bytes(s.data(), s.size());
    }
    return h;
}

// ------------------------------------------------------------- the tests

TEST(PerfParity, MatchesSeedReferenceOnRandomPolynomials)
{
    for (uint64_t seed : {101ull, 202ull, 303ull, 404ull}) {
        MajoranaPolynomial poly = randomMajoranaPolynomial(6, 17, seed);
        for (bool pairing : {false, true}) {
            HattOptions opt;
            opt.vacuumPairing = pairing;
            opt.descCache = pairing;
            HattResult fast = buildHattMapping(poly, opt);
            RefResult ref = refBuildHatt(poly, pairing);

            ASSERT_EQ(fast.stats.stepWeights, ref.stepWeights)
                << "seed=" << seed << " pairing=" << pairing;
            EXPECT_EQ(fast.stats.candidatesEvaluated, ref.candidates);
            for (size_t id = 0; id < fast.tree.numNodes(); ++id) {
                EXPECT_EQ(fast.tree.node(id).child,
                          ref.tree.node(id).child)
                    << "node " << id;
            }
            for (uint32_t i = 0; i < 2 * poly.numModes(); ++i)
                EXPECT_EQ(fast.mapping.majorana[i].string, ref.strings[i]);
        }
    }
}

TEST(PerfParity, MatchesRecordedSeedOutputs)
{
    struct Case
    {
        const char *name;
        bool pairing;
        uint64_t predicted, candidates, strhash;
    };
    // Recorded from the seed implementation (pre-refactor), 2026-07.
    const Case cases[] = {
        {"chain4", true, 16, 100, 1423797113422355161ull},
        {"chain4", false, 16, 130, 12144985536010747639ull},
        {"chain12", true, 71, 2444, 4074255786502979964ull},
        {"chain12", false, 71, 8086, 9717090316095096431ull},
        {"hub22", true, 76, 744, 2707256268756362103ull},
        {"hub22", false, 82, 1716, 1691760206947840021ull},
        {"hub23", true, 135, 2444, 12066988154865659689ull},
        {"rand6", true, 34, 322, 17077076422476393563ull},
        {"rand6", false, 34, 581, 11015018835673045068ull},
        {"rand7", true, 65, 504, 12335443444128996422ull},
    };
    auto build = [](const std::string &name) -> MajoranaPolynomial {
        if (name == "chain4")
            return majoranaChain(4);
        if (name == "chain12")
            return majoranaChain(12);
        if (name == "hub22")
            return MajoranaPolynomial::fromFermion(
                hubbardModel({2, 2, 1.0, 4.0}));
        if (name == "hub23")
            return MajoranaPolynomial::fromFermion(
                hubbardModel({2, 3, 1.0, 4.0}));
        if (name == "rand6")
            return randomMajoranaPolynomial(6, 14, 1);
        return randomMajoranaPolynomial(7, 21, 2); // rand7
    };
    for (const Case &c : cases) {
        MajoranaPolynomial poly = build(c.name);
        HattOptions opt;
        opt.vacuumPairing = c.pairing;
        opt.descCache = c.pairing;
        HattResult res = buildHattMapping(poly, opt);
        EXPECT_EQ(res.stats.predictedWeight, c.predicted) << c.name;
        EXPECT_EQ(res.stats.candidatesEvaluated, c.candidates) << c.name;
        EXPECT_EQ(stringsHash(res.mapping), c.strhash) << c.name;
    }
}

TEST(PerfParity, RegistryBuildReproducesRecordedSeedOutputs)
{
    // The MapperRegistry round-trip pins: requesting the HATT kinds
    // through the unified API reproduces the recorded seed outputs
    // (same table as MatchesRecordedSeedOutputs), so the registry
    // dispatch layer is provably a zero-cost indirection.
    struct Case
    {
        const char *name;
        const char *kind;
        uint64_t predicted, candidates, strhash;
    };
    const Case cases[] = {
        {"chain12", "hatt", 71, 2444, 4074255786502979964ull},
        {"chain12", "hatt-unopt", 71, 8086, 9717090316095096431ull},
        {"hub22", "hatt", 76, 744, 2707256268756362103ull},
        {"hub22", "hatt-unopt", 82, 1716, 1691760206947840021ull},
        {"rand6", "hatt", 34, 322, 17077076422476393563ull},
    };
    for (const Case &c : cases) {
        MajoranaPolynomial poly =
            std::string(c.name) == "chain12" ? majoranaChain(12)
            : std::string(c.name) == "hub22"
                ? MajoranaPolynomial::fromFermion(
                      hubbardModel({2, 2, 1.0, 4.0}))
                : randomMajoranaPolynomial(6, 14, 1);
        MappingRequest req;
        req.kind = c.kind;
        req.poly = &poly;
        StatusOr<MappingResult> built =
            MapperRegistry::instance().build(req);
        ASSERT_TRUE(built.ok())
            << c.name << "/" << c.kind << ": " << built.status().message();
        EXPECT_EQ(built->metrics.counters.at("predicted_weight"),
                  c.predicted)
            << c.name << "/" << c.kind;
        ASSERT_TRUE(built->metrics.candidates.has_value());
        EXPECT_EQ(*built->metrics.candidates, c.candidates)
            << c.name << "/" << c.kind;
        EXPECT_EQ(stringsHash(built->mapping), c.strhash)
            << c.name << "/" << c.kind;
    }
}

TEST(PerfParity, TermCountsMatchNaiveRecountThroughMerges)
{
    for (uint64_t seed : {7ull, 8ull, 9ull}) {
        Rng rng(seed);
        const uint32_t n = 6;
        const uint32_t max_id = 3 * n + 1;

        // Random initial supports over the 2N+1 leaves.
        detail::TermCounts counts(max_id);
        RefSupportMap ref;
        for (int t = 0; t < 30; ++t) {
            std::vector<uint32_t> support;
            for (uint32_t id = 0; id < 2 * n; ++id)
                if (rng.chance(0.3))
                    support.push_back(id);
            if (support.empty())
                support.push_back(
                    static_cast<uint32_t>(rng.nextInt(2 * n)));
            counts.addTerm(support);
            ref[std::vector<int>(support.begin(), support.end())] += 1;
        }
        counts.finalize();

        std::vector<int> active(2 * n + 1);
        std::iota(active.begin(), active.end(), 0);

        auto check = [&]() {
            // Snapshot must equal the reference multiset...
            auto snap = counts.snapshot();
            std::vector<std::pair<std::vector<int>, int64_t>> want(
                ref.begin(), ref.end());
            ASSERT_EQ(snap, want);
            // ...and incremental counts must equal recounting it.
            RefCounts rc(max_id);
            rc.accumulate(ref);
            for (uint32_t a = 0; a < max_id; ++a) {
                ASSERT_EQ(counts.count1(a), rc.cnt1[a]) << "id " << a;
                for (uint32_t b = a + 1; b < max_id; ++b)
                    ASSERT_EQ(counts.pairCount(a, b), rc.pair(a, b))
                        << a << "," << b;
            }
        };

        check();
        int parent = static_cast<int>(2 * n + 1);
        while (active.size() > 1) {
            // Merge a random triple, as the construction loop would.
            std::vector<int> picked;
            for (int k = 0; k < 3; ++k) {
                size_t idx = rng.nextInt(active.size());
                picked.push_back(active[idx]);
                active.erase(active.begin() + static_cast<long>(idx));
            }
            std::sort(picked.begin(), picked.end());
            counts.merge(picked[0], picked[1], picked[2], parent);
            ref = refReduce(ref, picked[0], picked[1], picked[2], parent);
            active.push_back(parent++);
            check();
        }
    }
}

TEST(PerfParity, DeltaEvaluatorMatchesFullEvaluation)
{
    for (uint64_t seed : {11ull, 12ull, 13ull}) {
        const uint32_t n = 5;
        const uint32_t num_leaves = 2 * n + 1;
        MajoranaPolynomial poly = randomMajoranaPolynomial(n, 15, seed);
        TernaryTree tree = TernaryTree::balanced(n);

        std::vector<int> labels(num_leaves);
        std::iota(labels.begin(), labels.end(), 0);
        Rng rng(seed * 17);
        std::shuffle(labels.begin(), labels.end(), rng.engine());

        auto full = [&](const std::vector<int> &lab) {
            std::vector<int> assign(num_leaves);
            for (uint32_t pos = 0; pos < num_leaves; ++pos)
                assign[lab[pos]] = static_cast<int>(pos);
            assign.resize(2 * n);
            return treeAssignmentWeight(tree, assign, poly);
        };

        DeltaWeightEvaluator eval(tree, poly);
        uint64_t cur = eval.reset(labels);
        EXPECT_EQ(cur, full(labels));

        // Random accept/reject walk: every proposal must equal the full
        // re-evaluation of the hypothetically swapped assignment.
        for (int step = 0; step < 300; ++step) {
            uint32_t i =
                static_cast<uint32_t>(rng.nextInt(num_leaves));
            uint32_t j =
                static_cast<uint32_t>(rng.nextInt(num_leaves));
            if (i == j)
                continue;
            uint64_t w = eval.proposeSwap(i, j);
            std::vector<int> swapped = labels;
            std::swap(swapped[i], swapped[j]);
            ASSERT_EQ(w, full(swapped)) << "step " << step;
            if (rng.chance(0.5)) {
                eval.acceptSwap();
                labels = swapped;
                cur = w;
            }
            ASSERT_EQ(eval.total(), cur);
            ASSERT_EQ(eval.total(), full(labels));
        }
    }
}

TEST(PerfParity, ResultsIdenticalAcrossThreadCounts)
{
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(hubbardModel({2, 3, 1.0, 4.0}));

    setParallelThreads(1);
    HattResult h1 = buildHattMapping(poly);
    SearchResult s1 = stochasticTreeSearch(poly, 4, 10, 99);

    setParallelThreads(4);
    HattResult h4 = buildHattMapping(poly);
    SearchResult s4 = stochasticTreeSearch(poly, 4, 10, 99);
    setParallelThreads(0); // restore the environment default

    EXPECT_EQ(h1.stats.stepWeights, h4.stats.stepWeights);
    EXPECT_EQ(h1.stats.candidatesEvaluated, h4.stats.candidatesEvaluated);
    ASSERT_EQ(h1.mapping.majorana.size(), h4.mapping.majorana.size());
    for (size_t i = 0; i < h1.mapping.majorana.size(); ++i)
        EXPECT_EQ(h1.mapping.majorana[i].string,
                  h4.mapping.majorana[i].string);

    EXPECT_EQ(s1.weight, s4.weight);
    EXPECT_EQ(s1.evaluated, s4.evaluated);
    for (size_t i = 0; i < s1.mapping.majorana.size(); ++i)
        EXPECT_EQ(s1.mapping.majorana[i].string,
                  s4.mapping.majorana[i].string);
}

TEST(PerfParity, BatchMappingBitIdenticalAcrossThreadsAndToSerialSeed)
{
    // Recorded from the serial mapToQubits fold (pre-engine), 2026-07:
    // FNV over (coeff bits, string) in term order. The batched engine
    // must reproduce them for every thread count.
    struct Case
    {
        const char *name;
        size_t terms;
        uint64_t weight, hash;
    };
    const Case cases[] = {
        {"hub22/HATT", 29, 76, 1471160324954237459ull},
        {"hub23/HATT", 47, 135, 11577326214939731686ull},
        {"chain12/BTT", 24, 72, 9163729825062424225ull},
        {"rand6/JW", 14, 42, 10860057066747007876ull},
        {"rand6/BK", 14, 46, 15276335327018491142ull},
    };
    MajoranaPolynomial hub22 = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    MajoranaPolynomial hub23 = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 3, 1.0, 4.0}));
    MajoranaPolynomial chain12 = majoranaChain(12);
    MajoranaPolynomial rand6 = randomMajoranaPolynomial(6, 14, 1);
    auto problem = [&](const std::string &name)
        -> std::pair<const MajoranaPolynomial *, FermionQubitMapping> {
        if (name == "hub22/HATT")
            return {&hub22, buildHattMapping(hub22).mapping};
        if (name == "hub23/HATT")
            return {&hub23, buildHattMapping(hub23).mapping};
        if (name == "chain12/BTT")
            return {&chain12, balancedTernaryTreeMapping(12)};
        if (name == "rand6/JW")
            return {&rand6, jordanWignerMapping(6)};
        return {&rand6, bravyiKitaevMapping(6)};
    };

    for (const Case &c : cases) {
        auto [poly, map] = problem(c.name);
        for (unsigned threads : {1u, 2u, 8u}) {
            setParallelThreads(threads);
            PauliSum hq = mapToQubits(*poly, map);
            EXPECT_EQ(hq.size(), c.terms)
                << c.name << " threads=" << threads;
            EXPECT_EQ(hq.pauliWeight(), c.weight)
                << c.name << " threads=" << threads;
            EXPECT_EQ(sumHash(hq), c.hash)
                << c.name << " threads=" << threads;

            // The streaming entry point (one term at a time through the
            // engine) must agree with the one-shot batch exactly.
            QubitMappingEngine engine(map);
            for (const MajoranaTerm &t : poly->terms())
                engine.add(t);
            EXPECT_EQ(sumHash(engine.finish()), c.hash)
                << c.name << " threads=" << threads;

            // Interleaving add() and addBatch() must preserve feed
            // order: buffered terms flush before the batch maps.
            QubitMappingEngine mixed(map);
            const auto &terms = poly->terms();
            const size_t head = terms.size() / 3;
            for (size_t t = 0; t < head; ++t)
                mixed.add(terms[t]);
            mixed.addBatch(terms.data() + head, terms.size() - head);
            EXPECT_EQ(sumHash(mixed.finish()), c.hash)
                << c.name << " threads=" << threads;
        }
        setParallelThreads(0);
    }
}

TEST(PerfParity, ShardedPreprocessingBitIdenticalAcrossThreadsAndToBatch)
{
    // Sharded Majorana preprocessing (per-block shard accumulators whose
    // logs merge in block order) must reproduce the serial
    // MajoranaPolynomial::fromFermion bits — term order, indices,
    // coefficient bit patterns and content hash — for every thread
    // count. Tiny block and flush sizes force many shards and multiple
    // flush rounds on the 2x2 Hubbard stream (20 fermionic terms) and on
    // the mixed-key stream, whose packed and wide monomial keys
    // interleave (tests/preprocess_streams.hpp).
    HubbardParams params{2, 2, 1.0, 4.0};
    const FermionHamiltonian mixed = test::mixedKeyHamiltonian();
    using Feed = std::function<void(io::ShardedMajoranaPreprocessor &)>;
    const std::pair<FermionHamiltonian, Feed> inputs[] = {
        {hubbardModel(params),
         [&](io::ShardedMajoranaPreprocessor &pre) {
             streamHubbardTerms(params, [&](FermionTerm &&t) {
                 pre.add(std::move(t));
             });
             pre.ensureModes(hubbardNumModes(params));
         }},
        {mixed,
         [&](io::ShardedMajoranaPreprocessor &pre) {
             for (const FermionTerm &t : mixed.terms())
                 pre.add(FermionTerm(t));
             pre.ensureModes(mixed.numModes());
         }},
    };

    for (const auto &[hf, feed] : inputs) {
        const MajoranaPolynomial batch = MajoranaPolynomial::fromFermion(hf);
        const uint64_t batch_hash = io::majoranaContentHash(batch);
        for (unsigned threads : {1u, 2u, 8u}) {
            setParallelThreads(threads);
            for (auto [block, flush] :
                 {std::pair<size_t, size_t>{1, 4}, {3, 7}, {256, 8192}}) {
                io::ShardedMajoranaPreprocessor pre(0, block, flush);
                feed(pre);
                MajoranaPolynomial sharded = pre.finish();

                ASSERT_EQ(sharded.numModes(), batch.numModes());
                ASSERT_EQ(sharded.size(), batch.size())
                    << "threads=" << threads << " block=" << block;
                for (size_t i = 0; i < batch.size(); ++i) {
                    ASSERT_EQ(sharded.terms()[i].indices,
                              batch.terms()[i].indices)
                        << "threads=" << threads << " term " << i;
                    ASSERT_EQ(std::memcmp(&sharded.terms()[i].coeff,
                                          &batch.terms()[i].coeff,
                                          sizeof(cplx)),
                              0)
                        << "threads=" << threads << " block=" << block
                        << " term " << i;
                }
                EXPECT_EQ(io::majoranaContentHash(sharded), batch_hash)
                    << "threads=" << threads << " block=" << block;
            }
        }
    }
    setParallelThreads(0);
}

TEST(PerfParity, ExhaustiveSearchBitIdenticalAcrossThreadsAndToSerialSeed)
{
    // Recorded from the serial exhaustiveTreeSearch (full WeightEvaluator
    // per permutation, pre-fan-out), 2026-07. The parallel delta-walk
    // must reproduce weight, candidate count, and the first-strict-
    // minimum winner for every thread count.
    struct Case
    {
        const char *name;
        uint64_t weight, evaluated, strhash;
    };
    const Case cases[] = {
        {"rand3", 10, 60480, 13040671004769807172ull},
        {"chain3", 11, 60480, 6512608034965880247ull},
        {"rand2", 1, 360, 4844266751097107073ull},
    };
    auto build = [](const std::string &name) -> MajoranaPolynomial {
        if (name == "rand3")
            return randomMajoranaPolynomial(3, 8, 42);
        if (name == "chain3")
            return majoranaChain(3);
        return randomMajoranaPolynomial(2, 6, 5); // rand2
    };
    for (const Case &c : cases) {
        MajoranaPolynomial poly = build(c.name);
        for (unsigned threads : {1u, 2u, 8u}) {
            setParallelThreads(threads);
            auto res = exhaustiveTreeSearch(poly, 3);
            ASSERT_TRUE(res.has_value());
            EXPECT_EQ(res->weight, c.weight)
                << c.name << " threads=" << threads;
            EXPECT_EQ(res->evaluated, c.evaluated)
                << c.name << " threads=" << threads;
            EXPECT_EQ(stringsHash(res->mapping), c.strhash)
                << c.name << " threads=" << threads;
        }
        setParallelThreads(0);
    }
}

TEST(PerfParity, ParallelReduceIsDeterministic)
{
    const size_t n = 10'000;
    auto chunk = [](size_t lo, size_t hi) {
        uint64_t s = 0;
        for (size_t i = lo; i < hi; ++i)
            s += i * i;
        return s;
    };
    auto combine = [](uint64_t a, uint64_t b) { return a + b; };

    uint64_t serial = chunk(0, n);
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(parallelReduceChunks(n, 128, uint64_t{0}, chunk, combine),
                  serial)
            << threads << " threads";
        uint64_t counter = 0;
        std::vector<uint64_t> hits(n, 0);
        parallelFor(n, 64, [&](size_t i) {
            hits[i] += i;
            (void)counter;
        });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i], i);
    }
    setParallelThreads(0);
}

TEST(PerfParity, WidePauliStringsSurviveSmallBufferBoundary)
{
    // Exercise both storage regimes (<= 64 inline, > 64 heap) and the
    // copy/move/assign paths around the boundary.
    for (uint32_t n : {1u, 63u, 64u, 65u, 130u}) {
        PauliString s(n);
        for (uint32_t q = 0; q < n; q += 3)
            s.setOp(q, static_cast<PauliOp>(1 + (q % 3)));
        PauliString copy = s;
        EXPECT_EQ(copy, s);
        EXPECT_EQ(copy.hashValue(), s.hashValue());
        EXPECT_EQ(copy.toString(), s.toString());

        PauliString moved = std::move(copy);
        EXPECT_EQ(moved, s);

        PauliString assigned(3);
        assigned = s;
        EXPECT_EQ(assigned, s);
        EXPECT_EQ(assigned.weight(), s.weight());

        // Self-product must be the identity with a consistent phase.
        auto [sq, phase] = PauliString::multiply(s, s);
        EXPECT_TRUE(sq.isIdentity());
        EXPECT_EQ(phase % 2, 0);
    }
}

} // namespace
} // namespace hatt
