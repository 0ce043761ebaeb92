// Seeded corpus generator: every input a workload compiles is written
// here, from the seed alone, before anything is timed.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "chem/basis.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"
#include "chem/scf.hpp"
#include "chem/transform.hpp"
#include "hattbench.hpp"
#include "io/driver.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/serialize.hpp"
#include "models/hubbard.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using hatt::io::JsonValue;

namespace {

/** splitmix64 step: the corpus's one seeded mixing function. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a 64-bit hash. */
double
unitDouble(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Hash of a string, for per-input salts. */
uint64_t
hashName(const std::string &s)
{
    uint64_t h = 0;
    for (unsigned char c : s)
        h = mix64(h ^ c);
    return h;
}

/**
 * L x L open Hubbard lattice with seeded couplings: every bond's hopping
 * and every site's U is scaled by a factor in [0.75, 1.25) drawn from
 * @p salt. Both directions of a bond share one factor, so the
 * Hamiltonian stays Hermitian; no coupling is ever zero, so the term
 * structure (and with it every Pauli weight) matches uniform couplings
 * while the content hash is new for every salt.
 */
hatt::FermionHamiltonian
seededHubbard(uint32_t side, uint64_t salt)
{
    hatt::HubbardParams params;
    params.rows = side;
    params.cols = side;
    hatt::FermionHamiltonian hf(hatt::hubbardNumModes(params));
    hatt::streamHubbardTerms(params, [&](hatt::FermionTerm &&term) {
        uint64_t key;
        if (term.ops.size() == 2) {
            const uint64_t a = term.ops[0].mode / 2;
            const uint64_t b = term.ops[1].mode / 2;
            key = (std::min(a, b) << 32) | std::max(a, b);
        } else {
            key = (uint64_t{1} << 63) | (term.ops[0].mode / 2);
        }
        const double factor = 0.75 + 0.5 * unitDouble(mix64(salt ^ key));
        hf.add(term.coeff * factor, std::move(term.ops));
    });
    return hf;
}

/** The stages chem::buildMolecule composes (STO-3G, no frozen core),
    stopped at the MO integrals so they can be written as FCIDUMP. */
hatt::MoIntegrals
moleculeIntegrals(const std::string &name)
{
    const std::vector<hatt::Atom> atoms = hatt::moleculeGeometry(name);
    std::vector<hatt::BasisFunction> funcs;
    for (const hatt::Atom &a : atoms) {
        auto fs = hatt::basisForAtom(a, hatt::BasisSet::Sto3g);
        funcs.insert(funcs.end(), fs.begin(), fs.end());
    }
    const hatt::AoIntegrals ints = hatt::computeAoIntegrals(atoms, funcs);
    const uint32_t electrons = hatt::moleculeElectronCount(name);
    const hatt::ScfResult scf = hatt::runRhf(ints, electrons);
    return hatt::transformToMo(ints, scf, electrons);
}

class CorpusWriter
{
  public:
    CorpusWriter(const std::string &dir, uint64_t seed)
        : dir_(dir), seed_(seed), inputs_(JsonValue::array())
    {
        fs::create_directories(dir_);
    }

    /** @p ref keys the expected-values table; @p role is "hot" (served
        repeatedly, hashed here) or "fresh" (served once). */
    void hubbard(const std::string &name, uint32_t side,
                 const std::string &role = "hot")
    {
        const std::string file = name + ".ops";
        std::ofstream out(dir_ / file);
        hatt::io::writeFermionText(
            out, seededHubbard(side, mix64(seed_ ^ hashName(name))),
            "seeded Fermi-Hubbard " + std::to_string(side) + "x" +
                std::to_string(side));
        add(name, file, "ops", "hubbard" + std::to_string(side) + "x" +
                                   std::to_string(side), role);
    }

    void molecule(const std::string &molecule, const std::string &format)
    {
        const hatt::MoIntegrals mo = moleculeIntegrals(molecule);
        const std::string file = molecule + "." + format;
        std::ofstream out(dir_ / file);
        if (format == "ops")
            hatt::io::writeFermionText(out, hatt::secondQuantize(mo),
                                       molecule + " sto3g");
        else
            hatt::io::writeFcidump(out, mo);
        add(molecule, file, format, molecule, "hot");
    }

    JsonValue finish(const std::string &workload)
    {
        JsonValue doc = JsonValue::object();
        doc.add("format", "hattbench-corpus");
        doc.add("workload", workload);
        doc.add("seed", seed_);
        doc.add("inputs", std::move(inputs_));
        std::ofstream out(dir_ / "corpus.json");
        out << doc.dump(1) << "\n";
        return doc;
    }

  private:
    void add(const std::string &name, const std::string &file,
             const std::string &format, const std::string &ref,
             const std::string &role)
    {
        JsonValue rec = JsonValue::object();
        rec.add("name", name);
        rec.add("file", file);
        rec.add("format", format);
        rec.add("ref", ref);
        rec.add("role", role);
        rec.add("bytes", static_cast<uint64_t>(fs::file_size(dir_ / file)));
        // Fresh inputs are hashed by the server that compiles them (the
        // response carries content_hash); hashing hundreds here would
        // dominate set-up.
        if (role == "hot") {
            const hatt::io::LoadedProblem problem =
                hatt::io::loadProblem((dir_ / file).string());
            rec.add("modes", problem.numModes);
            rec.add("content_hash", hatt::io::hashToHex(problem.contentHash));
        }
        inputs_.push(std::move(rec));
    }

    fs::path dir_;
    uint64_t seed_;
    JsonValue inputs_;
};

} // namespace

/** Fresh-input pool size for daemon_mixed. Every fifth request takes
    the next fresh input, so the pool covers 2560 requests, about twice
    what a 20 s run serves at this commit. Writing the pool is most of
    the set-up time, so a larger pool only makes set-up slower and
    noisier. */
constexpr uint32_t kFreshPool = 512;

JsonValue
makeCorpus(const std::string &workload, uint64_t seed, const std::string &dir)
{
    CorpusWriter corpus(dir, seed);
    if (workload == "hubbard_large") {
        for (uint32_t side : {16u, 24u, 32u})
            corpus.hubbard("hubbard" + std::to_string(side), side);
    } else if (workload == "molecule_batch") {
        // Each molecule in exactly one format: the same integrals in both
        // would share a content hash and turn write-path misses into hits.
        corpus.molecule("LiH", "ops");
        corpus.molecule("H2O", "fcidump");
        corpus.molecule("CH4", "ops");
        corpus.molecule("O2", "fcidump");
        corpus.molecule("CO2", "fcidump");
        corpus.molecule("NaF", "ops");
    } else if (workload == "daemon_mixed") {
        for (uint32_t side : {8u, 12u, 16u})
            corpus.hubbard("hubbard" + std::to_string(side), side);
        corpus.molecule("H2", "ops");
        corpus.molecule("LiH", "fcidump");
        corpus.molecule("H2O", "ops");
        // Sizes cycle 8, 10, ..., 16 so every seed serves the same mix;
        // the seed still sets every coupling.
        for (uint32_t i = 0; i < kFreshPool; ++i) {
            const uint32_t side = 8 + 2 * (i % 5);
            char name[32];
            std::snprintf(name, sizeof name, "fresh%04u", i);
            corpus.hubbard(name, side, "fresh");
        }
    } else if (workload == "device_routed") {
        for (const char *m : {"CH4", "CO2", "NaF"})
            corpus.molecule(m, "ops");
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return corpus.finish(workload);
}

} // namespace perfbench
