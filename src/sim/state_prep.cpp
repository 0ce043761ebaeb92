#include "sim/state_prep.hpp"

#include <cmath>
#include <stdexcept>

#include "mapping/verify.hpp"

namespace hatt {

PreparedState
prepareOccupationState(const FermionQubitMapping &map,
                       const std::vector<uint32_t> &occupied)
{
    // |0...0> stands in for the fermionic vacuum, which only holds when
    // every a_j annihilates it; otherwise the "occupation state" below
    // would be some other state with a plausible-looking energy.
    if (!preservesVacuum(map))
        throw std::invalid_argument(
            "prepareOccupationState: mapping '" + map.name +
            "' does not preserve the vacuum |0...0>");
    StateVector psi(map.numQubits);
    for (uint32_t mode : occupied) {
        std::vector<PauliTerm> adag = map.creationOperator(mode);
        StateVector next(map.numQubits);
        std::fill(next.mutableAmplitudes().begin(),
                  next.mutableAmplitudes().end(), cplx{});
        for (const auto &term : adag) {
            StateVector part = psi;
            part.applyPauli(term.string);
            for (size_t i = 0; i < part.amplitudes().size(); ++i)
                next.mutableAmplitudes()[i] +=
                    term.coeff * part.amplitudes()[i];
        }
        if (next.norm() < 1e-12)
            throw std::invalid_argument(
                "prepareOccupationState: state annihilated (mode " +
                std::to_string(mode) + ")");
        next.normalize();
        psi = std::move(next);
    }

    PreparedState out{std::move(psi), false, 0};
    const auto &amps = out.state.amplitudes();
    size_t support = 0;
    for (size_t i = 0; i < amps.size(); ++i) {
        if (std::abs(amps[i]) > 1e-9) {
            ++support;
            out.basisIndex = i;
        }
    }
    out.isBasisState = (support == 1);
    return out;
}

std::vector<uint32_t>
hartreeFockOccupation(uint32_t num_spatial, uint32_t num_electrons)
{
    if (num_electrons % 2 != 0 || num_electrons / 2 > num_spatial)
        throw std::invalid_argument("hartreeFockOccupation: bad counts");
    std::vector<uint32_t> occ;
    for (uint32_t i = 0; i < num_electrons / 2; ++i) {
        occ.push_back(i);               // alpha block
        occ.push_back(num_spatial + i); // beta block
    }
    return occ;
}

} // namespace hatt
