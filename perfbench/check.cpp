// Independent output check for emitted mapping.json files: the 2N
// Majorana strings of a valid fermion-to-qubit mapping are Hermitian
// (real unit coefficient) and pairwise anticommute. The parity algebra
// here is the benchmark's own, deliberately not src/pauli's.

#include <bit>
#include <fstream>

#include "hattbench.hpp"

namespace perfbench {

using hatt::io::JsonValue;

namespace {

/** One Pauli string as X and Z bit planes. */
struct Symplectic
{
    std::vector<uint64_t> x, z;
};

/** Two strings anticommute iff the symplectic form sum_q x1 z2 + z1 x2
    is odd. */
bool
anticommute(const Symplectic &a, const Symplectic &b)
{
    uint64_t acc = 0;
    for (size_t w = 0; w < a.x.size(); ++w)
        acc ^= (a.x[w] & b.z[w]) ^ (a.z[w] & b.x[w]);
    return std::popcount(acc) & 1;
}

JsonValue
checkOne(const std::string &path)
{
    JsonValue res = JsonValue::object();
    res.add("path", path);
    try {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot open");
        const JsonValue doc = JsonValue::parse(in);
        const int64_t modes = doc.at("num_modes").asInt(1, 1 << 20);
        const int64_t qubits = doc.at("num_qubits").asInt(1, 1 << 20);
        const JsonValue::Array &strings = doc.at("majorana").asArray();
        if (static_cast<int64_t>(strings.size()) != 2 * modes)
            throw std::runtime_error("expected 2N Majorana strings");
        const size_t words = (static_cast<size_t>(qubits) + 63) / 64;
        std::vector<Symplectic> ops(strings.size());
        for (size_t i = 0; i < strings.size(); ++i) {
            const JsonValue &coeff = strings[i].at("coeff");
            const double re = coeff.at(0).asNumber();
            const double im = coeff.at(1).asNumber();
            if (im != 0.0 || (re != 1.0 && re != -1.0))
                throw std::runtime_error("non-Hermitian Majorana string " +
                                         std::to_string(i));
            const std::string &pauli = strings[i].at("pauli").asString();
            if (static_cast<int64_t>(pauli.size()) != qubits)
                throw std::runtime_error("string length != num_qubits");
            ops[i].x.assign(words, 0);
            ops[i].z.assign(words, 0);
            for (size_t q = 0; q < pauli.size(); ++q) {
                const uint64_t bit = uint64_t{1} << (q % 64);
                const char c = pauli[q];
                if (c == 'X' || c == 'Y')
                    ops[i].x[q / 64] |= bit;
                if (c == 'Z' || c == 'Y')
                    ops[i].z[q / 64] |= bit;
                if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
                    throw std::runtime_error("bad Pauli letter");
            }
        }
        uint64_t bad = 0;
        for (size_t i = 0; i < ops.size(); ++i)
            for (size_t j = i + 1; j < ops.size(); ++j)
                bad += !anticommute(ops[i], ops[j]);
        res.add("strings", static_cast<uint64_t>(ops.size()));
        res.add("bad_pairs", bad);
        res.add("ok", bad == 0);
    } catch (const std::exception &e) {
        res.add("ok", false);
        res.add("error", e.what());
    }
    return res;
}

} // namespace

JsonValue
checkMappings(const std::vector<std::string> &paths)
{
    JsonValue out = JsonValue::array();
    for (const std::string &p : paths)
        out.push(checkOne(p));
    return out;
}

} // namespace perfbench
