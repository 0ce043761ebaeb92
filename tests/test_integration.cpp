/**
 * @file
 * Cross-module integration tests: the full pipeline from physics model
 * to simulated circuit, checking physical observables end to end.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "chem/molecule.hpp"
#include "circuit/optimize.hpp"
#include "circuit/pauli_evolution.hpp"
#include "circuit/schedule.hpp"
#include "common/linalg.hpp"
#include "fermion/fock.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/mapper.hpp"
#include "mapping/verify.hpp"
#include "models/hubbard.hpp"
#include "route/router.hpp"
#include "sim/measure.hpp"
#include "sim/state_prep.hpp"

namespace hatt {
namespace {

/** All mappings used by the end-to-end checks. */
std::vector<std::pair<std::string, FermionQubitMapping>>
allMappings(const MajoranaPolynomial &poly)
{
    std::vector<std::pair<std::string, FermionQubitMapping>> out;
    out.emplace_back("JW", jordanWignerMapping(poly.numModes()));
    out.emplace_back("BK", bravyiKitaevMapping(poly.numModes()));
    out.emplace_back("BTT", balancedTernaryTreeMapping(poly.numModes()));
    out.emplace_back("HATT", buildHattMapping(poly).mapping);
    return out;
}

TEST(Integration, GroundStateEnergyIdenticalAcrossMappings)
{
    // Full spectrum of the H2 Hamiltonian via dense diagonalization must
    // be identical (to numerical precision) under every mapping.
    MolecularProblem prob =
        buildMolecule({"H2", BasisSet::Sto3g, false, 0});
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(prob.hamiltonian);

    std::vector<double> reference;
    for (const auto &[name, map] : allMappings(poly)) {
        PauliSum hq = mapToQubits(poly, map);
        std::vector<double> evals = hermitianEigenvalues(hq.toMatrix());
        if (reference.empty()) {
            reference = evals;
            continue;
        }
        ASSERT_EQ(evals.size(), reference.size());
        for (size_t i = 0; i < evals.size(); ++i)
            EXPECT_NEAR(evals[i], reference[i], 1e-7)
                << name << " eigenvalue " << i;
    }
    // FCI ground state of H2/STO-3G at 0.735 A is about -1.137 below
    // nuclear repulsion folding; just check it is below the HF energy.
    EXPECT_LT(reference.front(), prob.scfEnergy + 1e-8);
}

TEST(Integration, FockOracleAgreesWithEveryMapping)
{
    FermionHamiltonian hf = hubbardModel({1, 3, 1.0, 4.0}); // 6 modes
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    FockSpace fock(6);
    std::vector<double> exact =
        hermitianEigenvalues(fock.toMatrix(hf));
    for (const auto &[name, map] : allMappings(poly)) {
        PauliSum hq = mapToQubits(poly, map);
        std::vector<double> evals = hermitianEigenvalues(hq.toMatrix());
        for (size_t i = 0; i < evals.size(); ++i)
            EXPECT_NEAR(evals[i], exact[i], 1e-7) << name;
    }
}

TEST(Integration, TrotterEnergyConservedForEveryMapping)
{
    // Evolving the HF state under the compiled circuit conserves <H> up
    // to Trotter error, for every mapping and with optimization on.
    MolecularProblem prob =
        buildMolecule({"LiH", BasisSet::Sto3g, true, 3});
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(prob.hamiltonian);
    std::vector<uint32_t> occ =
        hartreeFockOccupation(prob.numModes / 2, prob.numElectrons);

    for (const auto &[name, map] : allMappings(poly)) {
        PauliSum hq = mapToQubits(poly, map);
        PauliSum ordered = scheduleTerms(hq, ScheduleKind::Lexicographic);
        EvolutionOptions evo;
        evo.time = 0.02;
        Circuit c = evolutionCircuit(ordered, evo);
        optimizeCircuit(c);

        PreparedState prep = prepareOccupationState(map, occ);
        double before = prep.state.expectation(hq).real();
        StateVector psi = prep.state;
        psi.applyCircuit(c);
        double after = psi.expectation(hq).real();
        EXPECT_NEAR(after, before, 5e-3) << name;
        // And the initial energy is the (frozen-core) HF energy which
        // must agree across mappings.
        EXPECT_NEAR(before,
                    prepareOccupationState(allMappings(poly)[0].second,
                                           occ)
                        .state
                        .expectation(mapToQubits(
                            poly, allMappings(poly)[0].second))
                        .real(),
                    1e-8)
            << name;
    }
}

TEST(Integration, HartreeFockStateIsBasisStateForVacuumMappings)
{
    MolecularProblem prob =
        buildMolecule({"H2", BasisSet::Sto3g, false, 0});
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(prob.hamiltonian);
    std::vector<uint32_t> occ = hartreeFockOccupation(2, 2);
    for (const auto &[name, map] : allMappings(poly)) {
        PreparedState prep = prepareOccupationState(map, occ);
        EXPECT_TRUE(prep.isBasisState) << name;
    }

    // A mapping whose |0...0> is not the vacuum is refused, not turned
    // into a wrong state: the FH* search stand-in is one.
    MappingRequest req;
    req.kind = "fh-stoch";
    req.poly = &poly;
    StatusOr<MappingResult> fh = MapperRegistry::instance().build(req);
    ASSERT_TRUE(fh.ok()) << fh.status().message();
    ASSERT_FALSE(preservesVacuum(fh->mapping));
    EXPECT_THROW(prepareOccupationState(fh->mapping, occ),
                 std::invalid_argument);
}

TEST(Integration, RoutedHattCircuitStillConservesEnergy)
{
    // Map -> compile -> route onto a line -> simulate: the physical
    // circuit on the device must produce the same energy (layout
    // permuted observables).
    FermionHamiltonian hf = hubbardModel({1, 2, 1.0, 4.0}); // 4 modes
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    HattResult hatt = buildHattMapping(poly);
    PauliSum hq = mapToQubits(poly, hatt.mapping);

    EvolutionOptions evo;
    evo.time = 0.1;
    Circuit logical = evolutionCircuit(
        scheduleTerms(hq, ScheduleKind::Lexicographic), evo);
    optimizeCircuit(logical);

    PreparedState prep = prepareOccupationState(hatt.mapping, {0, 1});
    StateVector ideal = prep.state;
    ideal.applyCircuit(logical);
    double e_logical = ideal.expectation(hq).real();

    CouplingMap device = CouplingMap::line(4);
    RoutedCircuit routed = routeCircuit(logical, device);

    // Build the permuted initial state and permuted Hamiltonian.
    StateVector phys(4);
    {
        // Permute basis of prep.state by initial layout.
        auto &amps = phys.mutableAmplitudes();
        for (uint64_t b = 0; b < 16; ++b) {
            uint64_t pb = 0;
            for (int l = 0; l < 4; ++l)
                if (b & (1u << l))
                    pb |= uint64_t{1} << routed.initial[l];
            amps[pb] = prep.state.amplitude(b);
        }
    }
    phys.applyCircuit(routed.circuit);

    PauliSum hq_final(4);
    for (const auto &t : hq.terms()) {
        PauliString s(4);
        for (uint32_t q = 0; q < 4; ++q)
            s.setOp(static_cast<uint32_t>(routed.final[q]), t.string.op(q));
        hq_final.add(t.coeff, s);
    }
    double e_routed = phys.expectation(hq_final).real();
    EXPECT_NEAR(e_routed, e_logical, 1e-9);
}

TEST(Integration, NoiseHurtsHigherWeightMappingsMore)
{
    // Statistical smoke check behind Fig. 10's trend: with the same
    // noise, the heavier JW circuit for a structured model should show
    // at least as much energy bias as HATT's lighter circuit.
    FermionHamiltonian hf = hubbardModel({2, 2, 1.0, 4.0});
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);

    NoiseModel noise;
    noise.p1 = 1e-4;
    noise.p2 = 2e-3;

    auto bias_for = [&](const FermionQubitMapping &map, uint64_t seed) {
        PauliSum hq = mapToQubits(poly, map);
        EvolutionOptions evo;
        evo.time = 0.05;
        Circuit c = evolutionCircuit(
            scheduleTerms(hq, ScheduleKind::Lexicographic), evo);
        optimizeCircuit(c);
        PreparedState prep =
            prepareOccupationState(map, {0, 3, 4, 7});
        double theory = prep.state.expectation(hq).real();
        Rng rng(seed);
        auto energies =
            trajectoryEnergies(c, prep.state, hq, noise, 250, rng);
        return std::abs(meanVariance(energies).mean - theory);
    };

    double bias_jw = bias_for(jordanWignerMapping(8), 51);
    double bias_hatt = bias_for(buildHattMapping(poly).mapping, 52);
    // Allow slack: this is stochastic, we only require HATT not to be
    // dramatically worse.
    EXPECT_LT(bias_hatt, bias_jw * 1.5 + 0.05);
}

TEST(Integration, FullElectronicPipelineMetricsAreConsistent)
{
    // Pauli weight ordering implies CNOT ordering after compilation for
    // the O2 benchmark (the paper's central claim chain).
    MolecularProblem prob =
        buildMolecule({"H2O", BasisSet::Sto3g, false, 0});
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(prob.hamiltonian);

    auto metrics = [&](const FermionQubitMapping &map) {
        PauliSum hq = mapToQubits(poly, map);
        Circuit c = evolutionCircuit(
            scheduleTerms(hq, ScheduleKind::Lexicographic));
        optimizeCircuit(c);
        return std::make_pair(hq.pauliWeight(), c.cnotCount());
    };
    auto [w_jw, c_jw] = metrics(jordanWignerMapping(poly.numModes()));
    auto [w_hatt, c_hatt] = metrics(buildHattMapping(poly).mapping);
    EXPECT_LT(w_hatt, w_jw);
    EXPECT_LT(c_hatt, c_jw);
}

} // namespace
} // namespace hatt
