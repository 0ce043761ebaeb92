#ifndef HATT_IO_SERIALIZE_HPP
#define HATT_IO_SERIALIZE_HPP

/**
 * @file
 * Versioned JSON round-trip formats for the library's core artifacts:
 *
 *  - TernaryTree        ("hatt-tree", v1): internal nodes in creation
 *    order with qubit index and child node ids — reconstruction replays
 *    addInternal() so node ids round-trip exactly;
 *  - FermionQubitMapping ("hatt-mapping", v1): 2N Majorana Pauli terms
 *    with bit-exact coefficients;
 *  - PauliSum            ("hatt-pauli-sum", v1);
 *  - MajoranaPolynomial  ("hatt-majorana", v1).
 *
 * Every document carries {"format": ..., "version": n}; loaders reject
 * unknown formats and newer-than-supported versions up front, so older
 * binaries fail loudly instead of misreading future files.
 *
 * majoranaContentHash() fingerprints a Hamiltonian (splitmix64 chained
 * over the canonical, sorted Majorana terms with bit-pattern-exact
 * coefficients); the mapping cache keys on it.
 */

#include <cstdint>
#include <string>

#include "fermion/majorana.hpp"
#include "io/json.hpp"
#include "mapping/mapping.hpp"
#include "pauli/pauli_sum.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt::io {

JsonValue treeToJson(const TernaryTree &tree);
TernaryTree treeFromJson(const JsonValue &doc);

JsonValue mappingToJson(const FermionQubitMapping &map);
FermionQubitMapping mappingFromJson(const JsonValue &doc);

JsonValue pauliSumToJson(const PauliSum &sum);
PauliSum pauliSumFromJson(const JsonValue &doc);

JsonValue majoranaToJson(const MajoranaPolynomial &poly);
MajoranaPolynomial majoranaFromJson(const JsonValue &doc);

/**
 * Order-independent content hash of the canonical Majorana form:
 * terms are sorted by index list, each term contributes its indices and
 * the raw IEEE bit patterns of its coefficient through a chained
 * splitmix64 mix. Equal Hamiltonians (up to term order) hash equally.
 */
uint64_t majoranaContentHash(const MajoranaPolynomial &poly);

/** Render a hash as fixed-width lowercase hex (cache file names). */
std::string hashToHex(uint64_t hash);

/**
 * Write @p doc pretty-printed (exactly the bytes of doc.dump(2)) to
 * @p path, streamed through JsonWriter's fixed buffer.
 * @throws ParseError naming @p path when open, write or close fails.
 */
void saveJsonFile(const std::string &path, const JsonValue &doc);

/**
 * saveJsonFile plus an fsync before close, so a rename that follows can
 * never publish a name pointing at data the disk hasn't seen (the
 * power-loss hole of a plain write + rename).
 */
void saveJsonFileDurable(const std::string &path, const JsonValue &doc);

/**
 * Parse the JSON document at @p path. @throws ParseError — including
 * when the file exceeds @p max_bytes (0 = unlimited), checked before
 * the file is slurped so a hostile path cannot force an unbounded
 * allocation. The default ceiling is far above any legitimate artifact.
 */
JsonValue loadJsonFile(const std::string &path,
                       uint64_t max_bytes = 1ull << 28);

/**
 * Check a document's {"format", "version"} envelope.
 * @throws ParseError when the format differs or the version is newer
 * than @p max_version. @return the document's version.
 */
int checkEnvelope(const JsonValue &doc, const std::string &format,
                  int max_version);

} // namespace hatt::io

#endif // HATT_IO_SERIALIZE_HPP
