#ifndef HATT_IO_STREAM_HPP
#define HATT_IO_STREAM_HPP

/**
 * @file
 * Streaming Majorana preprocessing: consume fermionic terms one at a
 * time (from a file reader or a model generator callback) and fold their
 * Majorana expansion directly into a deduplicated monomial accumulator.
 *
 * Memory is O(distinct Majorana monomials) — the input fermion term list
 * is never materialized, so Hubbard-scale Hamiltonians (>= 10^5 hopping /
 * interaction terms) stream straight into the preprocessed form that
 * buildHattMapping consumes.
 *
 * The kernel is allocation-free per contribution for terms of up to four
 * ladder operators (every molecular and Hubbard term):
 *
 *  - Packed keys. A canonical monomial of at most four indices, each
 *    below 32767, is one uint64_t: index j's `index + 1` sits in the
 *    15-bit field at bit 15*j (unused fields are 0), and bit 60 is a tag,
 *    so even the identity monomial has a non-zero key. Expansion and the
 *    insertion-sort sign run on a fixed uint32_t[4].
 *  - Wide keys. Any other monomial (more than four canonical indices, or
 *    an index >= 32767) is interned through a side map into the same key
 *    space: bit 63 set, the intern id below. Wide and packed monomials
 *    therefore share one table, one first-seen order and one fold path.
 *  - Flat table. An open-addressing table maps each key to its slot in
 *    the flat first-seen keys_/coeffs_ arrays; shard logs are the same
 *    two arrays holding raw (key, coeff) contributions.
 *
 * Bit-identity with MajoranaPolynomial::fromFermion (the vector-keyed
 * reference): every contribution's coefficient is built by the same
 * multiply sequence (term coeff, then x0.5 and the +-i phase per ladder
 * operator, then the canonicalization sign), and each monomial's
 * coefficient is folded one contribution at a time in stream order —
 * shard logs are replayed, never pre-summed. Monomials are emitted in
 * first-seen order, so the finished polynomial, its content hash and
 * everything downstream are bit-identical for every HATT_THREADS value.
 */

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "fermion/fermion_op.hpp"
#include "fermion/majorana.hpp"

namespace hatt::io {

/**
 * Incremental replacement for MajoranaPolynomial::fromFermion: feed
 * fermionic terms with add(), read the finished polynomial with
 * finish(). The number of modes grows automatically with the largest
 * mode seen unless fixed up front via ensureModes().
 *
 * Sharded preprocessing: shard() builds an accumulator that LOGS each
 * canonical monomial contribution instead of combining it (no hashing —
 * a shard is pure expansion work, safe to run on a worker thread), and
 * merge() replays another accumulator's contributions one at a time
 * through the identical combine step add() uses. Feeding a term stream
 * through per-chunk shards and merging the shards in stream order is
 * therefore bit-identical to feeding every term into one accumulator —
 * each monomial's coefficient is folded contribution by contribution in
 * the same order, never as pre-summed shard partials whose different
 * association could drift in the last ulp.
 */
class StreamingMajoranaAccumulator
{
  public:
    explicit StreamingMajoranaAccumulator(uint32_t num_modes = 0)
        : num_modes_(num_modes)
    {
    }

    /**
     * A log-only shard: add() appends raw canonical contributions
     * (duplicates kept, in feed order) for a later merge(). finish() on
     * a shard first replays the log through a combining accumulator, so
     * a single shard finishes to the same polynomial as the serial path.
     */
    static StreamingMajoranaAccumulator shard(uint32_t num_modes = 0);

    /**
     * Expand one fermionic term and merge its monomials in place.
     * Throws std::invalid_argument for more than kMaxLadderOps operators.
     */
    void add(const FermionTerm &term);

    /**
     * Replay @p other's monomials into this accumulator, in other's
     * feed order, through the same combine step add() performs; @p other
     * is left empty. Merging per-chunk shards of a term stream in chunk
     * order is bit-identical to accumulating the whole stream serially.
     */
    void merge(StreamingMajoranaAccumulator &&other);

    /** Raise the mode count (no-op if already >= @p modes). */
    void ensureModes(uint32_t modes);

    uint32_t numModes() const { return num_modes_; }

    /** Fermionic terms consumed so far. */
    size_t termsConsumed() const { return terms_consumed_; }

    /**
     * Number of distinct (pre-tolerance) monomials held — the only
     * state that grows, and the streaming memory witness: bounded by
     * the distinct-monomial count of the Hamiltonian, not by the
     * number of input terms consumed. (A shard reports its log length.)
     */
    size_t currentMonomials() const { return keys_.size(); }

    /**
     * Finish: drop |coeff| < tol monomials and return the polynomial.
     * The accumulator is left empty and reusable.
     */
    MajoranaPolynomial finish(double tol = kCoeffTol);

  private:
    struct TableEntry
    {
        uint64_t key = 0; //!< 0 = empty (no monomial key is 0)
        uint32_t slot = 0; //!< index into keys_/coeffs_
    };

    /** Key of a canonical monomial: packed, or interned if wide. */
    uint64_t keyOf(const uint32_t *canon, size_t n);

    /** Key of a wide canonical monomial, interning it if new. */
    uint64_t internWide(const uint32_t *canon, size_t n);

    /** The one combine step: log-append (shards) or table-fold. */
    void fold(uint64_t key, cplx coeff);

    /** Double the table (or create it) and reinsert every slot. */
    void growTable();

    /** The ascending index list of @p key (consumes a wide entry). */
    std::vector<uint32_t> unpack(uint64_t key);

    /** Drop all state; keeps the shard/combining mode. */
    void reset();

    uint32_t num_modes_ = 0;
    size_t terms_consumed_ = 0;
    bool dedup_ = true; //!< false in shard mode: keys_/coeffs_ are a log

    std::vector<uint64_t> keys_; //!< first-seen order, as compress()
    std::vector<cplx> coeffs_;   //!< coefficient of keys_[i]
    std::vector<TableEntry> table_; //!< open addressing, power-of-2 size

    /** Interned wide monomials, indexed by the id in their key. */
    std::vector<std::vector<uint32_t>> wide_;
    std::unordered_map<std::vector<uint32_t>, uint64_t, IndexVecHash>
        wide_ids_;
    std::vector<uint32_t> wide_probe_; //!< reused wide_ids_ lookup key
};

/**
 * Sharded (multi-worker) Majorana preprocessing on top of the streaming
 * accumulator: add() buffers fermionic terms; every kFlushTerms of them
 * the buffer is expanded on the work pool — fixed-size blocks of
 * kBlockTerms terms, one log-only shard per block — and the shards are
 * merged into the combining accumulator in block order.
 *
 * The block decomposition is a pure function of arrival order and the
 * two constants (never of the thread count), blocks are folded in block
 * index order, and merge() replays contributions one at a time, so the
 * finished polynomial is bit-identical to the serial accumulator — and
 * to MajoranaPolynomial::fromFermion — for every HATT_THREADS value
 * (pinned in tests/test_perf_parity.cpp for {1, 2, 8}).
 *
 * Memory adds O(kFlushTerms) buffered fermion terms plus the in-flight
 * shard logs on top of the accumulator's O(distinct monomials).
 */
class ShardedMajoranaPreprocessor
{
  public:
    static constexpr size_t kBlockTerms = 256;  //!< terms per shard
    static constexpr size_t kFlushTerms = 8192; //!< buffered before flush

    explicit ShardedMajoranaPreprocessor(uint32_t num_modes = 0,
                                         size_t block_terms = kBlockTerms,
                                         size_t flush_terms = kFlushTerms);

    /** Buffer one fermionic term; may trigger a parallel flush. */
    void add(FermionTerm &&term);

    /** Raise the mode count (no-op if already >= @p modes). */
    void ensureModes(uint32_t modes);

    /** Fermionic terms fed in so far (buffered or already expanded). */
    size_t termsConsumed() const;

    /**
     * Expand the remaining buffer and return the finished polynomial,
     * bit-identical to the serial StreamingMajoranaAccumulator. The
     * preprocessor is left empty and reusable.
     */
    MajoranaPolynomial finish(double tol = kCoeffTol);

  private:
    void flush();

    size_t block_terms_;
    size_t flush_terms_;
    std::vector<FermionTerm> buffer_;
    StreamingMajoranaAccumulator acc_;
};

/** Emits generated fermionic terms one at a time. */
using FermionTermSink = std::function<void(FermionTerm &&)>;

} // namespace hatt::io

#endif // HATT_IO_STREAM_HPP
