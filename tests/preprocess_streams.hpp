#ifndef HATT_TESTS_PREPROCESS_STREAMS_HPP
#define HATT_TESTS_PREPROCESS_STREAMS_HPP

/**
 * @file
 * Term streams shared by the Majorana preprocessing parity tests
 * (test_io Stream.*, test_perf_parity). mixedKeyHamiltonian() interleaves
 * both monomial key kinds of the streaming accumulator in one stream:
 * packed keys (at most four canonical indices, each below 32767) and wide
 * keys (more indices, or an index >= 32767).
 */

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "fermion/fermion_op.hpp"

namespace hatt::test {

/** A seeded, non-dyadic coefficient: sums of these round in the last ulp. */
inline cplx
seededCoeff(uint64_t k)
{
    const uint64_t re = splitmix64(2 * k), im = splitmix64(2 * k + 1);
    return {static_cast<double>(re >> 11) * 0x1p-53 - 0.5,
            (static_cast<double>(im >> 11) * 0x1p-53 - 0.5) / 3.0};
}

/**
 * A dense molecule-shaped stream — every a†_p a†_q a_r a_s with p < q,
 * r < s over 6 modes, seeded coefficients — with one special term after
 * every 16 molecule terms:
 *  - terms of 5 to 8 ladder operators (some masks cancel down to packed
 *    monomials, the rest stay wide);
 *  - modes >= 16383 (Majorana 32766 is the last packed index, 32767 the
 *    first wide one);
 *  - terms that cancel to zero, within one term (a†_0 a†_0) or against a
 *    later negated copy, packed and wide;
 *  - the identity monomial, from an empty product and number operators.
 */
inline FermionHamiltonian
mixedKeyHamiltonian()
{
    constexpr uint32_t high = 20000;
    const std::vector<FermionTerm> specials = {
        {seededCoeff(1000), {create(0), create(1), create(2), annihilate(3),
                             annihilate(4)}},
        {seededCoeff(1001), {create(16383), annihilate(16383)}},
        {seededCoeff(1002), {}},
        {seededCoeff(1003), {create(8), create(9), annihilate(10),
                             annihilate(11)}},
        {seededCoeff(1004), {create(0), create(1), create(2), annihilate(2),
                             annihilate(1), annihilate(0)}},
        {seededCoeff(1005), {create(16383), annihilate(2)}},
        {seededCoeff(1006), {create(12), create(13), create(14),
                             annihilate(15), annihilate(16)}},
        {seededCoeff(1007), {create(5), create(4), annihilate(3), create(2),
                             annihilate(1), create(0), annihilate(5)}},
        {seededCoeff(1008), {create(0), create(0)}},
        {seededCoeff(1009), {create(high), create(16382), annihilate(16382),
                             annihilate(high)}},
        {-seededCoeff(1003), {create(8), create(9), annihilate(10),
                              annihilate(11)}},
        {seededCoeff(1010), {create(0), create(1), create(2), create(3),
                             annihilate(4), annihilate(5), annihilate(6),
                             annihilate(7)}},
        {seededCoeff(1011), {create(2), annihilate(16383)}},
        {seededCoeff(1012), {create(1), annihilate(1)}},
        {-seededCoeff(1006), {create(12), create(13), create(14),
                              annihilate(15), annihilate(16)}},
        {seededCoeff(1013), {create(16384), create(1), annihilate(16384),
                             annihilate(0), create(3), annihilate(3)}},
    };

    FermionHamiltonian hf(high + 1);
    size_t next_special = 0;
    uint64_t k = 0;
    for (uint32_t p = 0; p < 6; ++p)
        for (uint32_t q = p + 1; q < 6; ++q)
            for (uint32_t r = 0; r < 6; ++r)
                for (uint32_t s = r + 1; s < 6; ++s) {
                    hf.add(seededCoeff(k++), {create(p), create(q),
                                              annihilate(r), annihilate(s)});
                    if (k % 16 == 0 && next_special < specials.size())
                        hf.add(specials[next_special++]);
                }
    while (next_special < specials.size())
        hf.add(specials[next_special++]);
    return hf;
}

} // namespace hatt::test

#endif // HATT_TESTS_PREPROCESS_STREAMS_HPP
