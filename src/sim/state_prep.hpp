#ifndef HATT_SIM_STATE_PREP_HPP
#define HATT_SIM_STATE_PREP_HPP

/**
 * @file
 * Initial-state preparation for quantum-simulation experiments: builds
 * the qubit image of a Fock occupation state |n> = prod a†_j |vac> under
 * a fermion-to-qubit mapping by applying the mapped creation operators
 * to |0...0>, which is the vacuum only for vacuum-preserving mappings;
 * other mappings are refused. The result is a single computational
 * basis state (up to phase).
 */

#include "mapping/mapping.hpp"
#include "sim/statevector.hpp"

namespace hatt {

/** Result of occupation-state preparation. */
struct PreparedState
{
    StateVector state;       //!< normalized qubit state
    bool isBasisState = false;
    uint64_t basisIndex = 0; //!< valid when isBasisState
};

/**
 * Prepare the qubit state of the occupation given by @p occupied modes.
 * @throws std::invalid_argument if @p map does not preserve the vacuum
 * (see preservesVacuum), or if the state vanishes (e.g. repeated modes)
 * or the mapping is malformed.
 */
PreparedState prepareOccupationState(const FermionQubitMapping &map,
                                     const std::vector<uint32_t> &occupied);

/**
 * Occupied mode list of the restricted Hartree-Fock determinant with
 * @p num_electrons electrons over @p num_spatial orbitals in block spin
 * ordering (alpha modes [0, n), beta [n, 2n)).
 */
std::vector<uint32_t> hartreeFockOccupation(uint32_t num_spatial,
                                            uint32_t num_electrons);

} // namespace hatt

#endif // HATT_SIM_STATE_PREP_HPP
