/**
 * @file
 * Tests for the fermionic operator algebra, Majorana preprocessing
 * (including the paper's worked Eq. (3) example), and the Fock-space
 * oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fermion/fermion_op.hpp"
#include "fermion/fock.hpp"
#include "fermion/majorana.hpp"
#include "io/stream.hpp"

namespace hatt {
namespace {

/** The paper's Eq. (3): H = a†0 a0 + 2 a†1 a†2 a1 a2 on 3 modes. */
FermionHamiltonian
paperExample()
{
    FermionHamiltonian hf(3);
    hf.add(1.0, {create(0), annihilate(0)});
    hf.add(2.0, {create(1), create(2), annihilate(1), annihilate(2)});
    return hf;
}

const MajoranaTerm *
findTerm(const MajoranaPolynomial &poly, const std::vector<uint32_t> &idx)
{
    for (const auto &t : poly.terms())
        if (t.indices == idx)
            return &t;
    return nullptr;
}

TEST(Majorana, CanonicalizeSortsWithSign)
{
    auto [sign, idx] = MajoranaPolynomial::canonicalize({3, 1});
    EXPECT_EQ(sign, -1.0);
    EXPECT_EQ(idx, (std::vector<uint32_t>{1, 3}));

    auto [sign2, idx2] = MajoranaPolynomial::canonicalize({3, 1, 3});
    EXPECT_EQ(sign2, -1.0);
    EXPECT_EQ(idx2, (std::vector<uint32_t>{1}));

    auto [sign3, idx3] = MajoranaPolynomial::canonicalize({2, 2});
    EXPECT_EQ(sign3, 1.0);
    EXPECT_TRUE(idx3.empty());

    // M2 M1 M0 -> reverse order needs 3 swaps.
    auto [sign4, idx4] = MajoranaPolynomial::canonicalize({2, 1, 0});
    EXPECT_EQ(sign4, -1.0);
    EXPECT_EQ(idx4, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Majorana, PaperEquation3Preprocessing)
{
    // Paper: HF = 0.5i M0M1 - 0.5i M2M3 - 0.5i M4M5 + 0.5 M2M3M4M5
    // (plus a constant the paper drops: +0.5 from n0, and -0.5+... from
    // the two-body term; our expansion keeps the exact constant 0).
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(paperExample());
    EXPECT_EQ(poly.numModes(), 3u);

    const MajoranaTerm *m01 = findTerm(poly, {0, 1});
    ASSERT_NE(m01, nullptr);
    EXPECT_NEAR(std::abs(m01->coeff - cplx(0.0, 0.5)), 0.0, 1e-12);

    const MajoranaTerm *m23 = findTerm(poly, {2, 3});
    ASSERT_NE(m23, nullptr);
    EXPECT_NEAR(std::abs(m23->coeff - cplx(0.0, -0.5)), 0.0, 1e-12);

    const MajoranaTerm *m45 = findTerm(poly, {4, 5});
    ASSERT_NE(m45, nullptr);
    EXPECT_NEAR(std::abs(m45->coeff - cplx(0.0, -0.5)), 0.0, 1e-12);

    const MajoranaTerm *m2345 = findTerm(poly, {2, 3, 4, 5});
    ASSERT_NE(m2345, nullptr);
    EXPECT_NEAR(std::abs(m2345->coeff - cplx(0.5, 0.0)), 0.0, 1e-12);

    // Constant: +0.5 (from n0) + (-0.5) ... the two-body expansion gives
    // -2*(0.25) = -0.5 constant; total 0.
    EXPECT_NEAR(std::abs(poly.constantTerm()), 0.0, 1e-12);

    // Exactly the four listed monomials survive.
    size_t nonconst = 0;
    for (const auto &t : poly.terms())
        if (!t.indices.empty())
            ++nonconst;
    EXPECT_EQ(nonconst, 4u);
}

TEST(Majorana, RoundTripThroughFockMatrices)
{
    // The Majorana polynomial must represent the same operator as the
    // original ladder Hamiltonian.
    FermionHamiltonian hf = paperExample();
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    FockSpace fock(3);
    ComplexMatrix lhs = fock.toMatrix(hf);
    ComplexMatrix rhs = fock.toMatrix(poly);
    EXPECT_LT(lhs.maxAbsDiff(rhs), 1e-12);
}

TEST(Majorana, HermitianConjugatePairsGiveRealPolynomial)
{
    FermionHamiltonian hf(2);
    hf.addWithConjugate(cplx{0.25, 0.5}, {create(0), annihilate(1)});
    FockSpace fock(2);
    EXPECT_TRUE(fock.toMatrix(hf).isHermitian());
}

TEST(Majorana, OverlongLadderProductThrowsLikeTheStreamingPath)
{
    // A 31-operator term would expand into 2^31 monomials. The batch
    // reference must refuse it exactly as the streaming preprocessor
    // does, not silently drop the term and return a wrong polynomial.
    FermionHamiltonian hf(31);
    hf.add(1.0, {create(0)});
    std::vector<FermionOp> ops;
    for (uint32_t m = 0; m < 31; ++m)
        ops.push_back(create(m));
    hf.add(0.5, ops);

    std::string batch_error, stream_error;
    try {
        MajoranaPolynomial::fromFermion(hf);
    } catch (const std::invalid_argument &e) {
        batch_error = e.what();
    }
    try {
        io::StreamingMajoranaAccumulator acc;
        for (const FermionTerm &t : hf.terms())
            acc.add(t);
    } catch (const std::invalid_argument &e) {
        stream_error = e.what();
    }
    EXPECT_NE(batch_error.find("term with > 30 ladder operators"),
              std::string::npos)
        << batch_error;
    EXPECT_NE(stream_error.find("term with > 30 ladder operators"),
              std::string::npos)
        << stream_error;
}

TEST(Fock, LadderOperatorSigns)
{
    FockSpace fock(3);
    // a†_1 on |001> = (-1)^{n_0} |011> = -|011>.
    FermionTerm t{1.0, {create(1)}};
    auto res = fock.applyTerm(t, 0b001);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->state, 0b011u);
    EXPECT_NEAR(res->amplitude.real(), -1.0, 1e-12);

    // a_1 on |001> = 0.
    FermionTerm t2{1.0, {annihilate(1)}};
    EXPECT_FALSE(fock.applyTerm(t2, 0b001).has_value());

    // Number operator: a†_2 a_2 |100> = |100>.
    FermionTerm t3{1.0, {create(2), annihilate(2)}};
    auto res3 = fock.applyTerm(t3, 0b100);
    ASSERT_TRUE(res3.has_value());
    EXPECT_EQ(res3->state, 0b100u);
    EXPECT_NEAR(res3->amplitude.real(), 1.0, 1e-12);
}

TEST(Fock, CanonicalAnticommutationRelations)
{
    // {a_i, a†_j} = delta_ij as dense matrices, N = 3.
    const uint32_t n = 3;
    FockSpace fock(n);
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            FermionHamiltonian ai(n), adj(n);
            ai.add(1.0, {annihilate(i)});
            adj.add(1.0, {create(j)});
            ComplexMatrix ma = fock.toMatrix(ai);
            ComplexMatrix mc = fock.toMatrix(adj);
            ComplexMatrix anti =
                ma.multiply(mc).add(mc.multiply(ma));
            ComplexMatrix expect =
                ComplexMatrix::identity(ma.rows());
            if (i != j)
                expect = ComplexMatrix(ma.rows(), ma.rows());
            EXPECT_LT(anti.maxAbsDiff(expect), 1e-12)
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(Fock, VacuumExpectation)
{
    FermionHamiltonian hf = paperExample();
    FockSpace fock(3);
    // Both terms annihilate the vacuum.
    EXPECT_NEAR(std::abs(fock.vacuumExpectation(hf)), 0.0, 1e-12);

    FermionHamiltonian shifted(3);
    shifted.add(4.2, {}); // constant
    EXPECT_NEAR(fock.vacuumExpectation(shifted).real(), 4.2, 1e-12);
}

TEST(Fock, MajoranaAnticommutation)
{
    // {M_i, M_j} = 2 delta_ij on 2 modes via dense matrices.
    const uint32_t n = 2;
    FockSpace fock(n);
    std::vector<ComplexMatrix> m;
    for (uint32_t i = 0; i < 2 * n; ++i) {
        MajoranaPolynomial poly(n);
        poly.add(1.0, {i});
        m.push_back(fock.toMatrix(poly));
    }
    for (uint32_t i = 0; i < 2 * n; ++i) {
        for (uint32_t j = 0; j < 2 * n; ++j) {
            ComplexMatrix anti =
                m[i].multiply(m[j]).add(m[j].multiply(m[i]));
            ComplexMatrix expect(anti.rows(), anti.cols());
            if (i == j) {
                expect = ComplexMatrix::identity(anti.rows());
                expect = expect.add(expect); // 2I
            }
            EXPECT_LT(anti.maxAbsDiff(expect), 1e-12);
        }
    }
}

} // namespace
} // namespace hatt
