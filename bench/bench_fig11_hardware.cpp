/**
 * @file
 * Reproduces Fig. 11: H2 ground-state-energy measurement on an IonQ
 * Forte-1 stand-in (all-to-all topology; published 1q/2q/readout
 * fidelities), 1000 shots per measurement basis, reporting mean energy
 * and variance for each mapping alongside the theoretical value.
 */

#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "chem/molecule.hpp"
#include "sim/measure.hpp"
#include "sim/state_prep.hpp"

using namespace hatt;
using namespace hatt::bench;

int
main()
{
    std::cout << "=== Fig. 11: H2 on IonQ Forte 1 (simulated) ===\n";
    MolecularProblem prob =
        buildMolecule({"H2", BasisSet::Sto3g, false, 0});
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(prob.hamiltonian);
    std::vector<uint32_t> occupation =
        hartreeFockOccupation(prob.numModes / 2, prob.numElectrons);

    std::vector<std::pair<std::string, FermionQubitMapping>> mappings;
    for (const char *k : {"JW", "BK", "BTT"})
        mappings.emplace_back(k, buildMapping(k, poly));
    if (auto fh = buildFhStar(poly))
        mappings.emplace_back("FH*", *fh);
    mappings.emplace_back("HATT", buildMapping("HATT", poly));

    TablePrinter table({"Mapping", "MeanEnergy", "Variance", "Theory"});
    const NoiseModel noise = NoiseModel::ionqForte1();
    const uint32_t repetitions = 20;
    const uint32_t shots = 1000;

    double theory = 0.0;
    for (const auto &[name, map] : mappings) {
        std::optional<PreparedState> prep;
        try {
            prep = prepareOccupationState(map, occupation);
        } catch (const std::invalid_argument &) {
            // Not vacuum-preserving: there is no HF state to measure.
            table.addRow({name, "n/a", "n/a", "n/a"});
            continue;
        }
        PauliSum hq = mapToQubits(poly, map);
        PauliSum ordered = scheduleTerms(hq, ScheduleKind::Lexicographic);
        EvolutionOptions evo;
        evo.time = 0.05;
        Circuit circ = evolutionCircuit(ordered, evo);
        optimizeCircuit(circ);

        theory = prep->state.expectation(hq).real();

        EstimationOptions opt;
        opt.shotsPerGroup = shots;
        opt.noise = noise;

        Rng rng(0xF11 + std::hash<std::string>{}(name));
        std::vector<double> estimates;
        for (uint32_t r = 0; r < repetitions; ++r)
            estimates.push_back(
                estimateEnergy(circ, prep->state, hq, opt, rng));
        MeanVar mv = meanVariance(estimates);
        table.addRow({name, TablePrinter::num(mv.mean, 4),
                      TablePrinter::num(mv.variance, 5),
                      TablePrinter::num(theory, 4)});
    }
    table.print(std::cout);
    std::cout << "THEORETICAL = " << theory
              << " Hartree (RHF determinant energy; paper: -1.857)\n";
    return 0;
}
