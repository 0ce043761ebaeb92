#include "io/stream.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace hatt::io {

namespace {

// Packed key layout (see the file comment in stream.hpp).
constexpr size_t kPackedWidth = 4;   //!< indices per packed key
constexpr unsigned kFieldBits = 15;  //!< bits per `index + 1` field
constexpr uint64_t kFieldMask = (uint64_t{1} << kFieldBits) - 1;
constexpr uint32_t kMaxPackedIndex = kFieldMask - 1; //!< 32766
constexpr uint64_t kPackedTag = uint64_t{1} << (kFieldBits * kPackedWidth);
constexpr uint64_t kWideTag = uint64_t{1} << 63;
constexpr size_t kInitialTable = 64; //!< first table size (power of 2)

/**
 * MajoranaPolynomial::canonicalize on a caller-owned buffer: insertion
 * sort with a sign flip per adjacent swap, then cancellation of equal
 * adjacent pairs (M_i M_i = I). @p n becomes the canonical length.
 * @return the anticommutation sign
 */
double
canonicalizeInPlace(uint32_t *idx, size_t &n)
{
    double sign = 1.0;
    for (size_t i = 1; i < n; ++i)
        for (size_t j = i; j > 0 && idx[j - 1] > idx[j]; --j) {
            std::swap(idx[j - 1], idx[j]);
            sign = -sign;
        }
    size_t out = 0;
    for (size_t i = 0; i < n;) {
        if (i + 1 < n && idx[i] == idx[i + 1]) {
            i += 2;
        } else {
            idx[out++] = idx[i++];
        }
    }
    n = out;
    return sign;
}

} // namespace

StreamingMajoranaAccumulator
StreamingMajoranaAccumulator::shard(uint32_t num_modes)
{
    StreamingMajoranaAccumulator s(num_modes);
    s.dedup_ = false;
    return s;
}

void
StreamingMajoranaAccumulator::ensureModes(uint32_t modes)
{
    if (modes > num_modes_)
        num_modes_ = modes;
}

uint64_t
StreamingMajoranaAccumulator::keyOf(const uint32_t *canon, size_t n)
{
    // canon is ascending, so its last entry bounds every index.
    if (n <= kPackedWidth && (n == 0 || canon[n - 1] <= kMaxPackedIndex)) {
        uint64_t key = kPackedTag;
        for (size_t j = 0; j < n; ++j)
            key |= uint64_t{canon[j] + 1} << (kFieldBits * j);
        return key;
    }
    return internWide(canon, n);
}

uint64_t
StreamingMajoranaAccumulator::internWide(const uint32_t *canon, size_t n)
{
    wide_probe_.assign(canon, canon + n); // reuses capacity: no allocation
    auto it = wide_ids_.find(wide_probe_);
    if (it != wide_ids_.end())
        return it->second;
    const uint64_t key = kWideTag | wide_.size();
    wide_ids_.emplace(wide_probe_, key);
    wide_.push_back(wide_probe_);
    return key;
}

void
StreamingMajoranaAccumulator::growTable()
{
    const size_t size = table_.empty() ? kInitialTable : 2 * table_.size();
    table_.assign(size, TableEntry{});
    const size_t mask = size - 1;
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
        size_t h = splitmix64(keys_[slot]) & mask;
        while (table_[h].key != 0)
            h = (h + 1) & mask;
        table_[h] = {keys_[slot], static_cast<uint32_t>(slot)};
    }
}

void
StreamingMajoranaAccumulator::fold(uint64_t key, cplx coeff)
{
    if (dedup_) {
        // Load factor <= 1/2 keeps linear-probe runs short.
        if (2 * (keys_.size() + 1) > table_.size())
            growTable();
        const size_t mask = table_.size() - 1;
        for (size_t h = splitmix64(key) & mask;; h = (h + 1) & mask) {
            TableEntry &e = table_[h];
            if (e.key == key) {
                coeffs_[e.slot] += coeff;
                return;
            }
            if (e.key == 0) {
                e = {key, static_cast<uint32_t>(keys_.size())};
                break;
            }
        }
    }
    keys_.push_back(key);
    coeffs_.push_back(coeff);
}

void
StreamingMajoranaAccumulator::add(const FermionTerm &term)
{
    const size_t k = term.ops.size();
    if (k > kMaxLadderOps)
        throw std::invalid_argument(
            "StreamingMajoranaAccumulator: term with > 30 ladder operators");
    for (const FermionOp &op : term.ops)
        ensureModes(op.mode + 1);

    // Identical expansion to MajoranaPolynomial::fromFermion:
    //   a†_j = (M_2j - i M_2j+1)/2,  a_j = (M_2j + i M_2j+1)/2.
    // Terms of <= kPackedWidth operators expand on the stack.
    uint32_t small[kPackedWidth] = {};
    std::vector<uint32_t> large;
    uint32_t *indices = small;
    if (k > kPackedWidth) {
        large.resize(k);
        indices = large.data();
    }
    const size_t combos = size_t{1} << k;
    for (size_t mask = 0; mask < combos; ++mask) {
        cplx coeff = term.coeff;
        for (size_t p = 0; p < k; ++p) {
            const FermionOp &op = term.ops[p];
            const bool odd_half = (mask >> p) & 1;
            coeff *= 0.5;
            if (odd_half)
                coeff *= op.creation ? cplx{0.0, -1.0} : cplx{0.0, 1.0};
            indices[p] = 2 * op.mode + (odd_half ? 1 : 0);
        }
        size_t n = k;
        coeff *= canonicalizeInPlace(indices, n);
        fold(keyOf(indices, n), coeff);
    }
    ++terms_consumed_;
}

void
StreamingMajoranaAccumulator::merge(StreamingMajoranaAccumulator &&other)
{
    ensureModes(other.num_modes_);
    terms_consumed_ += other.terms_consumed_;
    if (!dedup_) {
        keys_.reserve(keys_.size() + other.keys_.size());
        coeffs_.reserve(coeffs_.size() + other.coeffs_.size());
    }
    // Replay contribution by contribution — never add pre-summed shard
    // partials — so the per-monomial coefficient fold has exactly the
    // association of one accumulator fed the concatenated streams.
    // Wide keys are re-interned: intern ids are per accumulator.
    for (size_t i = 0; i < other.keys_.size(); ++i) {
        uint64_t key = other.keys_[i];
        if (key & kWideTag) {
            const std::vector<uint32_t> &wide = other.wide_[key & ~kWideTag];
            key = internWide(wide.data(), wide.size());
        }
        fold(key, other.coeffs_[i]);
    }
    other.reset();
}

std::vector<uint32_t>
StreamingMajoranaAccumulator::unpack(uint64_t key)
{
    if (key & kWideTag)
        return std::move(wide_[key & ~kWideTag]);
    std::vector<uint32_t> out;
    for (size_t j = 0; j < kPackedWidth; ++j) {
        const uint64_t field = (key >> (kFieldBits * j)) & kFieldMask;
        if (field == 0)
            break;
        out.push_back(static_cast<uint32_t>(field - 1));
    }
    return out;
}

void
StreamingMajoranaAccumulator::reset()
{
    const bool dedup = dedup_;
    *this = StreamingMajoranaAccumulator();
    dedup_ = dedup;
}

MajoranaPolynomial
StreamingMajoranaAccumulator::finish(double tol)
{
    if (!dedup_) {
        // A shard's log may hold duplicate monomials; combine it through
        // a fresh accumulator so a single shard finishes to the same
        // polynomial the serial path produces.
        StreamingMajoranaAccumulator combined(num_modes_);
        combined.merge(std::move(*this)); // leaves *this an empty shard
        return combined.finish(tol);
    }
    MajoranaPolynomial poly(num_modes_);
    for (size_t i = 0; i < keys_.size(); ++i)
        if (std::abs(coeffs_[i]) >= tol)
            poly.add(coeffs_[i], unpack(keys_[i]));
    reset();
    return poly;
}

ShardedMajoranaPreprocessor::ShardedMajoranaPreprocessor(uint32_t num_modes,
                                                         size_t block_terms,
                                                         size_t flush_terms)
    : block_terms_(block_terms == 0 ? 1 : block_terms),
      flush_terms_(flush_terms == 0 ? 1 : flush_terms), acc_(num_modes)
{
}

void
ShardedMajoranaPreprocessor::add(FermionTerm &&term)
{
    // Validate HERE, on the caller's thread: flush() expands blocks on
    // pool workers, where a thrown std::invalid_argument would escape
    // WorkPool::runChunks and terminate the process instead of reaching
    // the driver's catch block as a clean diagnostic.
    if (term.ops.size() > kMaxLadderOps)
        throw std::invalid_argument(
            "StreamingMajoranaAccumulator: term with > 30 ladder operators");
    buffer_.push_back(std::move(term));
    if (buffer_.size() >= flush_terms_)
        flush();
}

void
ShardedMajoranaPreprocessor::ensureModes(uint32_t modes)
{
    acc_.ensureModes(modes);
}

size_t
ShardedMajoranaPreprocessor::termsConsumed() const
{
    return acc_.termsConsumed() + buffer_.size();
}

void
ShardedMajoranaPreprocessor::flush()
{
    if (buffer_.empty())
        return;
    // Flush counts are a pure function of the feed order and the flush
    // threshold — deterministic even when parsing aborts mid-input.
    trace::Span span("io", "shard_flush");
    metrics::add("preprocess.shard_flushes");
    metrics::add("preprocess.shard_terms", buffer_.size());
    // Expansion (2^k combos + canonicalization per term) fans out over
    // fixed-size blocks, one shard log each; the reduce only collects
    // the logs in block index order, and acc_ replays them in that
    // order, so the contribution sequence reaching acc_ equals the
    // serial feed order for every thread count.
    using Shards = std::vector<StreamingMajoranaAccumulator>;
    const std::vector<FermionTerm> &terms = buffer_;
    Shards shards = parallelReduceChunks(
        terms.size(), block_terms_, Shards{},
        [&](size_t lo, size_t hi) {
            Shards block(1, StreamingMajoranaAccumulator::shard());
            for (size_t t = lo; t < hi; ++t)
                block.front().add(terms[t]);
            return block;
        },
        [](Shards out, Shards part) {
            for (StreamingMajoranaAccumulator &s : part)
                out.push_back(std::move(s));
            return out;
        });
    for (StreamingMajoranaAccumulator &s : shards)
        acc_.merge(std::move(s));
    buffer_.clear();
}

MajoranaPolynomial
ShardedMajoranaPreprocessor::finish(double tol)
{
    flush();
    MajoranaPolynomial poly = acc_.finish(tol);
    metrics::add("preprocess.majorana_monomials", poly.size());
    return poly;
}

} // namespace hatt::io
