/**
 * @file
 * Reproduces Fig. 10: bias and variance of the simulated system energy
 * under depolarizing noise for H2 and LiH(frz), across a grid of 1q/2q
 * error rates, for JW / BK / BTT / FH* / HATT.
 *
 * The estimate uses Monte-Carlo noise trajectories with exact
 * expectations per trajectory (see DESIGN.md substitutions); bias is
 * measured against the noiseless energy of the prepared Hartree-Fock
 * state, exactly the conserved quantity of the Trotter circuit.
 */

#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "chem/molecule.hpp"
#include "common/rng.hpp"
#include "sim/measure.hpp"
#include "sim/state_prep.hpp"

using namespace hatt;
using namespace hatt::bench;

namespace {

void
runCase(const char *label, const MoleculeSpec &spec, uint32_t trajectories)
{
    MolecularProblem prob = buildMolecule(spec);
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(prob.hamiltonian);
    std::vector<uint32_t> occupation =
        hartreeFockOccupation(prob.numModes / 2, prob.numElectrons);

    std::cout << "--- " << label << " (" << prob.numModes
              << " modes) ---\n";
    TablePrinter table({"Mapping", "p1", "p2", "Bias", "Variance"});

    std::vector<std::pair<std::string, FermionQubitMapping>> mappings;
    for (const char *k : {"JW", "BK", "BTT"})
        mappings.emplace_back(k, buildMapping(k, poly));
    if (auto fh = buildFhStar(poly))
        mappings.emplace_back("FH*", *fh);
    mappings.emplace_back("HATT", buildMapping("HATT", poly));

    const double p1_grid[] = {1e-5, 3.16e-5, 1e-4};
    const double p2_grid[] = {1e-4, 3.16e-4, 1e-3};

    for (const auto &[name, map] : mappings) {
        std::optional<PreparedState> prep;
        try {
            prep = prepareOccupationState(map, occupation);
        } catch (const std::invalid_argument &) {
            // Not vacuum-preserving: there is no HF state to evolve.
            table.addRow({name, "n/a", "n/a", "n/a", "n/a"});
            continue;
        }
        PauliSum hq = mapToQubits(poly, map);
        PauliSum ordered = scheduleTerms(hq, ScheduleKind::Lexicographic);
        EvolutionOptions evo;
        evo.time = 0.05;
        Circuit circ = evolutionCircuit(ordered, evo);
        optimizeCircuit(circ);

        const double theory = prep->state.expectation(hq).real();

        Rng rng(0xF16 + std::hash<std::string>{}(name));
        for (double p1 : p1_grid) {
            for (double p2 : p2_grid) {
                NoiseModel noise;
                noise.p1 = p1;
                noise.p2 = p2;
                auto energies = trajectoryEnergies(
                    circ, prep->state, hq, noise, trajectories, rng);
                MeanVar mv = meanVariance(energies);
                table.addRow({name, TablePrinter::num(p1, 6),
                              TablePrinter::num(p2, 6),
                              TablePrinter::num(
                                  std::abs(mv.mean - theory), 5),
                              TablePrinter::num(mv.variance, 6)});
            }
        }
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 10: noisy simulation bias/variance ===\n";
    runCase("H2 sto3g", {"H2", BasisSet::Sto3g, false, 0}, 400);
    runCase("LiH sto3g frz", {"LiH", BasisSet::Sto3g, true, 3}, 200);
    return 0;
}
