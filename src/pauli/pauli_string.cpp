#include "pauli/pauli_string.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/linalg.hpp"

namespace hatt {

namespace {

constexpr uint32_t kWordBits = 64;

uint32_t
wordCount(uint32_t num_qubits)
{
    return (num_qubits + kWordBits - 1) / kWordBits;
}

} // namespace

char
pauliOpChar(PauliOp op)
{
    switch (op) {
      case PauliOp::I: return 'I';
      case PauliOp::X: return 'X';
      case PauliOp::Y: return 'Y';
      case PauliOp::Z: return 'Z';
    }
    return '?';
}

std::pair<PauliOp, int>
pauliOpProduct(PauliOp a, PauliOp b)
{
    auto bits = [](PauliOp op) -> std::pair<int, int> {
        switch (op) {
          case PauliOp::I: return {0, 0};
          case PauliOp::X: return {1, 0};
          case PauliOp::Y: return {1, 1};
          case PauliOp::Z: return {0, 1};
        }
        return {0, 0};
    };
    auto [xa, za] = bits(a);
    auto [xb, zb] = bits(b);
    int xc = xa ^ xb;
    int zc = za ^ zb;
    // literal(a)*literal(b) = i^{ya+yb-yc+2*za*xb} literal(c)
    int phase = (xa & za) + (xb & zb) - (xc & zc) + 2 * (za & xb);
    PauliOp c;
    if (!xc && !zc)
        c = PauliOp::I;
    else if (xc && !zc)
        c = PauliOp::X;
    else if (xc && zc)
        c = PauliOp::Y;
    else
        c = PauliOp::Z;
    return {c, ((phase % 4) + 4) % 4};
}

PauliString::PauliString(uint32_t num_qubits)
    : num_qubits_(num_qubits), words_(wordCount(num_qubits))
{
    if (inlineStorage()) {
        inline_[0] = 0;
        inline_[1] = 0;
    } else {
        heap_ = new uint64_t[2 * size_t{words_}]();
    }
}

PauliString::PauliString(const PauliString &other)
    : num_qubits_(other.num_qubits_), words_(other.words_)
{
    if (inlineStorage()) {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    } else {
        heap_ = new uint64_t[2 * size_t{words_}];
        std::memcpy(heap_, other.heap_, 2 * size_t{words_} * sizeof(uint64_t));
    }
}

PauliString::PauliString(PauliString &&other) noexcept
    : num_qubits_(other.num_qubits_), words_(other.words_)
{
    if (inlineStorage()) {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    } else {
        heap_ = other.heap_;
        other.num_qubits_ = 0;
        other.words_ = 0;
        other.inline_[0] = 0;
        other.inline_[1] = 0;
    }
}

PauliString &
PauliString::operator=(const PauliString &other)
{
    if (this == &other)
        return *this;
    if (!inlineStorage() && words_ == other.words_) {
        // Same heap footprint: reuse the allocation.
        num_qubits_ = other.num_qubits_;
        std::memcpy(heap_, other.heap_, 2 * size_t{words_} * sizeof(uint64_t));
        return *this;
    }
    PauliString tmp(other);
    *this = std::move(tmp);
    return *this;
}

PauliString &
PauliString::operator=(PauliString &&other) noexcept
{
    if (this == &other)
        return *this;
    if (!inlineStorage())
        delete[] heap_;
    num_qubits_ = other.num_qubits_;
    words_ = other.words_;
    if (inlineStorage()) {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    } else {
        heap_ = other.heap_;
        other.num_qubits_ = 0;
        other.words_ = 0;
        other.inline_[0] = 0;
        other.inline_[1] = 0;
    }
    return *this;
}

PauliString::~PauliString()
{
    if (!inlineStorage())
        delete[] heap_;
}

PauliString
PauliString::fromLabel(const std::string &label)
{
    PauliString s(static_cast<uint32_t>(label.size()));
    for (size_t i = 0; i < label.size(); ++i) {
        uint32_t qubit = static_cast<uint32_t>(label.size() - 1 - i);
        switch (label[i]) {
          case 'I': break;
          case 'X': s.setOp(qubit, PauliOp::X); break;
          case 'Y': s.setOp(qubit, PauliOp::Y); break;
          case 'Z': s.setOp(qubit, PauliOp::Z); break;
          default:
            throw std::invalid_argument(
                "PauliString::fromLabel: bad char in " + label);
        }
    }
    return s;
}

PauliString
PauliString::fromOps(const std::vector<PauliOp> &ops)
{
    PauliString s(static_cast<uint32_t>(ops.size()));
    for (uint32_t q = 0; q < ops.size(); ++q)
        s.setOp(q, ops[q]);
    return s;
}

PauliOp
PauliString::op(uint32_t qubit) const
{
    assert(qubit < num_qubits_);
    uint32_t w = qubit / kWordBits;
    uint64_t mask = 1ULL << (qubit % kWordBits);
    bool x = xData()[w] & mask;
    bool z = zData()[w] & mask;
    if (x && z)
        return PauliOp::Y;
    if (x)
        return PauliOp::X;
    if (z)
        return PauliOp::Z;
    return PauliOp::I;
}

void
PauliString::setOp(uint32_t qubit, PauliOp op)
{
    assert(qubit < num_qubits_);
    uint32_t w = qubit / kWordBits;
    uint64_t mask = 1ULL << (qubit % kWordBits);
    uint64_t *x = xData();
    uint64_t *z = zData();
    x[w] &= ~mask;
    z[w] &= ~mask;
    if (op == PauliOp::X || op == PauliOp::Y)
        x[w] |= mask;
    if (op == PauliOp::Z || op == PauliOp::Y)
        z[w] |= mask;
}

uint32_t
PauliString::weight() const
{
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    uint32_t c = 0;
    for (uint32_t w = 0; w < words_; ++w)
        c += std::popcount(x[w] | z[w]);
    return c;
}

bool
PauliString::isIdentity() const
{
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    for (uint32_t w = 0; w < words_; ++w)
        if (x[w] | z[w])
            return false;
    return true;
}

bool
PauliString::commutesWith(const PauliString &other) const
{
    assert(num_qubits_ == other.num_qubits_);
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    const uint64_t *ox = other.xData();
    const uint64_t *oz = other.zData();
    int acc = 0;
    for (uint32_t w = 0; w < words_; ++w) {
        acc += std::popcount(x[w] & oz[w]);
        acc += std::popcount(z[w] & ox[w]);
    }
    return (acc & 1) == 0;
}

int
PauliString::multiplyRight(const PauliString &rhs)
{
    assert(num_qubits_ == rhs.num_qubits_);
    // phase = y(a) + y(b) - y(c) + 2*|za & xb|  (mod 4), accumulated
    // across qubits via popcounts of the Y masks.
    uint64_t *x = xData();
    uint64_t *z = zData();
    const uint64_t *rx = rhs.xData();
    const uint64_t *rz = rhs.zData();
    int phase = 0;
    for (uint32_t w = 0; w < words_; ++w) {
        uint64_t ya = x[w] & z[w];
        uint64_t yb = rx[w] & rz[w];
        uint64_t xc = x[w] ^ rx[w];
        uint64_t zc = z[w] ^ rz[w];
        uint64_t yc = xc & zc;
        phase += std::popcount(ya) + std::popcount(yb) - std::popcount(yc);
        phase += 2 * std::popcount(z[w] & rx[w]);
        x[w] = xc;
        z[w] = zc;
    }
    return ((phase % 4) + 4) % 4;
}

std::pair<PauliString, int>
PauliString::multiply(const PauliString &a, const PauliString &b)
{
    PauliString out = a;
    int phase = out.multiplyRight(b);
    return {out, phase};
}

std::pair<std::vector<uint64_t>, int>
PauliString::applyToZeros() const
{
    // Per qubit: X|0>=|1>, Y|0>=i|1>, Z|0>=|0>, I|0>=|0>. Net phase = i^{#Y}.
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    int phase = 0;
    for (uint32_t w = 0; w < words_; ++w)
        phase += std::popcount(x[w] & z[w]);
    return {std::vector<uint64_t>(x, x + words_), ((phase % 4) + 4) % 4};
}

bool
PauliString::isDiagonal() const
{
    const uint64_t *x = xData();
    for (uint32_t w = 0; w < words_; ++w)
        if (x[w])
            return false;
    return true;
}

std::string
PauliString::toString() const
{
    // Four qubits per lookup: entry (x | z << 4) holds the letters of a
    // nibble's qubits 3, 2, 1, 0 in string (high-to-low) order.
    static constexpr auto kNibbleLetters = [] {
        std::array<std::array<char, 4>, 256> table{};
        for (unsigned idx = 0; idx < 256; ++idx)
            for (unsigned bit = 0; bit < 4; ++bit) {
                const bool x = (idx >> bit) & 1, z = (idx >> (bit + 4)) & 1;
                table[idx][3 - bit] = x ? (z ? 'Y' : 'X') : (z ? 'Z' : 'I');
            }
        return table;
    }();
    std::string s(num_qubits_, 'I');
    for (uint32_t w = 0; w < words_; ++w) {
        uint64_t x = xData()[w], z = zData()[w];
        const uint32_t end = std::min(num_qubits_, (w + 1) * kWordBits);
        for (uint32_t q = w * kWordBits; q < end; q += 4, x >>= 4, z >>= 4) {
            const char *letters =
                kNibbleLetters[(x & 0xF) | ((z & 0xF) << 4)].data();
            if (const uint32_t left = num_qubits_ - q; left >= 4)
                std::memcpy(&s[left - 4], letters, 4);
            else // top nibble of a width that is not a multiple of 4
                std::memcpy(&s[0], letters + (4 - left), left);
        }
    }
    return s;
}

std::string
PauliString::toCompactString() const
{
    std::string s;
    for (uint32_t qi = num_qubits_; qi-- > 0;) {
        PauliOp o = op(qi);
        if (o == PauliOp::I)
            continue;
        s += pauliOpChar(o);
        s += std::to_string(qi);
    }
    return s.empty() ? std::string("I") : s;
}

ComplexMatrix
PauliString::toMatrix() const
{
    if (num_qubits_ > 14)
        throw std::invalid_argument("PauliString::toMatrix: too many qubits");
    const size_t dim = size_t{1} << num_qubits_;

    // P|col> = i^k |col ^ xmask> with k = #Y + 2*(number of Z/Y bits set in
    // col). Build column by column.
    ComplexMatrix m(dim, dim);
    uint64_t xmask = words_ == 0 ? 0 : xData()[0];
    uint64_t zmask = words_ == 0 ? 0 : zData()[0];
    int ny = std::popcount(xmask & zmask);
    for (size_t col = 0; col < dim; ++col) {
        // X^x Z^z |col> = (-1)^{z.col} |col ^ x>; literal adds i^{#Y}.
        int k = ny + 2 * std::popcount(zmask & col);
        size_t row = col ^ xmask;
        m(row, col) = phaseFromExponent(k);
    }
    return m;
}

bool
PauliString::operator==(const PauliString &other) const
{
    if (num_qubits_ != other.num_qubits_)
        return false;
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    const uint64_t *ox = other.xData();
    const uint64_t *oz = other.zData();
    for (uint32_t w = 0; w < words_; ++w)
        if (x[w] != ox[w] || z[w] != oz[w])
            return false;
    return true;
}

bool
PauliString::operator<(const PauliString &other) const
{
    if (num_qubits_ != other.num_qubits_)
        return num_qubits_ < other.num_qubits_;
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    const uint64_t *ox = other.xData();
    const uint64_t *oz = other.zData();
    // Compare from the highest word down so ordering matches the string
    // form's lexicographic order reasonably closely.
    for (uint32_t w = words_; w-- > 0;) {
        if (x[w] != ox[w])
            return x[w] < ox[w];
        if (z[w] != oz[w])
            return z[w] < oz[w];
    }
    return false;
}

size_t
PauliString::hashValue() const
{
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ num_qubits_;
    auto mix = [&h](uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdULL;
    };
    const uint64_t *x = xData();
    const uint64_t *z = zData();
    for (uint32_t w = 0; w < words_; ++w)
        mix(x[w]);
    for (uint32_t w = 0; w < words_; ++w)
        mix(z[w]);
    return static_cast<size_t>(h);
}

} // namespace hatt
