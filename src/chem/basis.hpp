#ifndef HATT_CHEM_BASIS_HPP
#define HATT_CHEM_BASIS_HPP

/**
 * @file
 * Gaussian basis sets: STO-3G (generated from the universal Hehre-
 * Stewart-Pople expansions with standard Slater exponents) and 6-31G
 * (tabulated) for the elements appearing in the paper's benchmarks
 * (H, Li, Be, C, N, O, F, Na).
 *
 * A contracted Cartesian Gaussian basis function is
 *   phi(r) = sum_k c_k N_k (x-Ax)^lx (y-Ay)^ly (z-Az)^lz e^{-a_k |r-A|^2}
 * with primitive norms N_k folded into the stored coefficients and an
 * overall contraction normalization applied.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace hatt {

/** Cartesian coordinate triple (Bohr). */
struct Vec3
{
    double x = 0, y = 0, z = 0;
};

/** One contracted Cartesian Gaussian function. */
struct BasisFunction
{
    Vec3 center;
    int lx = 0, ly = 0, lz = 0;
    std::vector<double> exps;
    std::vector<double> coefs; //!< primitive-normalized coefficients
};

/** Supported basis families. */
enum class BasisSet { Sto3g, B631g };

std::string basisSetName(BasisSet basis);

/** An atom: element symbol, nuclear charge, position (Bohr). */
struct Atom
{
    std::string element;
    int charge = 0;
    Vec3 position;
};

/**
 * Expand the basis functions for @p atom. p shells produce the three
 * Cartesian components in (x, y, z) order.
 * @throws std::invalid_argument for unsupported element/basis pairs.
 */
std::vector<BasisFunction> basisForAtom(const Atom &atom, BasisSet basis);

/** Number of basis functions an element contributes. */
uint32_t basisFunctionCount(const std::string &element, BasisSet basis);

/** Number of doubly-occupied core orbitals frozen for an element. */
uint32_t coreOrbitalCount(const std::string &element);

} // namespace hatt

#endif // HATT_CHEM_BASIS_HPP
