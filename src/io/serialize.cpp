#include "io/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/hash.hpp"

namespace hatt::io {

namespace {

constexpr int kTreeVersion = 1;
constexpr int kMappingVersion = 1;
constexpr int kPauliSumVersion = 1;
constexpr int kMajoranaVersion = 1;

JsonValue
envelope(const std::string &format, int version)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", format);
    doc.add("version", version);
    return doc;
}

JsonValue
complexToJson(cplx c)
{
    JsonValue v = JsonValue::array();
    v.push(c.real());
    v.push(c.imag());
    return v;
}

cplx
complexFromJson(const JsonValue &v)
{
    if (!v.isArray() || v.size() != 2)
        throw ParseError("coefficient must be a [re, im] pair");
    return {v.at(size_t{0}).asNumber(), v.at(size_t{1}).asNumber()};
}

/** Shared shape of mapping / pauli-sum term lists. */
JsonValue
termToJson(const PauliTerm &term)
{
    JsonValue t = JsonValue::object();
    t.add("coeff", complexToJson(term.coeff));
    t.add("pauli", term.string.toString());
    return t;
}

PauliTerm
termFromJson(const JsonValue &t, uint32_t num_qubits)
{
    PauliTerm out;
    out.coeff = complexFromJson(t.at("coeff"));
    out.string = PauliString::fromLabel(t.at("pauli").asString());
    if (out.string.numQubits() != num_qubits)
        throw ParseError("pauli label length " +
                         std::to_string(out.string.numQubits()) +
                         " does not match num_qubits " +
                         std::to_string(num_qubits));
    return out;
}

} // namespace

int
checkEnvelope(const JsonValue &doc, const std::string &format,
              int max_version)
{
    if (!doc.isObject())
        throw ParseError("document is not a JSON object");
    const std::string &fmt = doc.at("format").asString();
    if (fmt != format)
        throw ParseError("unexpected format \"" + fmt + "\" (wanted \"" +
                         format + "\")");
    int version = static_cast<int>(doc.at("version").asInt(1, 1 << 20));
    if (version > max_version)
        throw ParseError("unsupported " + format + " version " +
                         std::to_string(version) + " (max supported " +
                         std::to_string(max_version) + ")");
    return version;
}

JsonValue
treeToJson(const TernaryTree &tree)
{
    JsonValue doc = envelope("hatt-tree", kTreeVersion);
    doc.add("num_modes", tree.numModes());
    // Internal nodes in creation (node id) order: replaying addInternal
    // in this order reproduces identical node ids.
    JsonValue internal = JsonValue::array();
    for (size_t id = tree.numLeaves(); id < tree.numNodes(); ++id) {
        const TreeNode &n = tree.node(static_cast<int>(id));
        JsonValue e = JsonValue::array();
        e.push(n.qubit);
        e.push(n.child[BranchX]);
        e.push(n.child[BranchY]);
        e.push(n.child[BranchZ]);
        internal.push(std::move(e));
    }
    doc.add("internal", std::move(internal));
    return doc;
}

TernaryTree
treeFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-tree", kTreeVersion);
    const uint32_t n =
        static_cast<uint32_t>(doc.at("num_modes").asInt(1, 1 << 24));
    const JsonValue &internal = doc.at("internal");
    if (!internal.isArray() || internal.size() != n)
        throw ParseError("hatt-tree: expected " + std::to_string(n) +
                         " internal nodes");
    TernaryTree tree(n);
    const int max_id = static_cast<int>(3 * n);
    std::vector<bool> qubit_used(n, false);
    for (size_t i = 0; i < n; ++i) {
        const JsonValue &e = internal.at(i);
        if (!e.isArray() || e.size() != 4)
            throw ParseError("hatt-tree: internal node entry must be "
                             "[qubit, x, y, z]");
        int qubit = static_cast<int>(e.at(size_t{0}).asInt(0, n - 1));
        if (qubit_used[static_cast<size_t>(qubit)])
            throw ParseError("hatt-tree: duplicate qubit index " +
                             std::to_string(qubit));
        qubit_used[static_cast<size_t>(qubit)] = true;
        int x = static_cast<int>(e.at(size_t{1}).asInt(0, max_id));
        int y = static_cast<int>(e.at(size_t{2}).asInt(0, max_id));
        int z = static_cast<int>(e.at(size_t{3}).asInt(0, max_id));
        int limit = static_cast<int>(tree.numNodes());
        if (x >= limit || y >= limit || z >= limit)
            throw ParseError("hatt-tree: child id references a node that "
                             "does not exist yet");
        if (x == y || x == z || y == z)
            throw ParseError("hatt-tree: duplicate child ids");
        if (tree.node(x).parent >= 0 || tree.node(y).parent >= 0 ||
            tree.node(z).parent >= 0)
            throw ParseError("hatt-tree: child already has a parent");
        tree.addInternal(qubit, x, y, z);
    }
    if (!tree.isCompleteTree())
        throw ParseError("hatt-tree: nodes do not form a complete tree");
    return tree;
}

JsonValue
mappingToJson(const FermionQubitMapping &map)
{
    JsonValue doc = envelope("hatt-mapping", kMappingVersion);
    doc.add("name", map.name);
    doc.add("num_modes", map.numModes);
    doc.add("num_qubits", map.numQubits);
    JsonValue majorana = JsonValue::array();
    for (const PauliTerm &t : map.majorana)
        majorana.push(termToJson(t));
    doc.add("majorana", std::move(majorana));
    return doc;
}

FermionQubitMapping
mappingFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-mapping", kMappingVersion);
    FermionQubitMapping map;
    map.name = doc.at("name").asString();
    map.numModes =
        static_cast<uint32_t>(doc.at("num_modes").asInt(0, 1 << 24));
    map.numQubits =
        static_cast<uint32_t>(doc.at("num_qubits").asInt(0, 1 << 24));
    const JsonValue &majorana = doc.at("majorana");
    if (!majorana.isArray() ||
        majorana.size() != size_t{2} * map.numModes)
        throw ParseError("hatt-mapping: expected " +
                         std::to_string(2 * map.numModes) +
                         " majorana terms");
    map.majorana.reserve(majorana.size());
    for (size_t i = 0; i < majorana.size(); ++i)
        map.majorana.push_back(termFromJson(majorana.at(i),
                                            map.numQubits));
    return map;
}

JsonValue
pauliSumToJson(const PauliSum &sum)
{
    JsonValue doc = envelope("hatt-pauli-sum", kPauliSumVersion);
    doc.add("num_qubits", sum.numQubits());
    JsonValue terms = JsonValue::array();
    for (const PauliTerm &t : sum.terms())
        terms.push(termToJson(t));
    doc.add("terms", std::move(terms));
    return doc;
}

PauliSum
pauliSumFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-pauli-sum", kPauliSumVersion);
    const uint32_t nq =
        static_cast<uint32_t>(doc.at("num_qubits").asInt(0, 1 << 24));
    PauliSum sum(nq);
    const JsonValue &terms = doc.at("terms");
    if (!terms.isArray())
        throw ParseError("hatt-pauli-sum: terms must be an array");
    for (size_t i = 0; i < terms.size(); ++i)
        sum.add(termFromJson(terms.at(i), nq));
    return sum;
}

JsonValue
majoranaToJson(const MajoranaPolynomial &poly)
{
    JsonValue doc = envelope("hatt-majorana", kMajoranaVersion);
    doc.add("num_modes", poly.numModes());
    JsonValue terms = JsonValue::array();
    for (const MajoranaTerm &t : poly.terms()) {
        JsonValue e = JsonValue::object();
        e.add("coeff", complexToJson(t.coeff));
        JsonValue idx = JsonValue::array();
        for (uint32_t i : t.indices)
            idx.push(i);
        e.add("indices", std::move(idx));
        terms.push(std::move(e));
    }
    doc.add("terms", std::move(terms));
    return doc;
}

MajoranaPolynomial
majoranaFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-majorana", kMajoranaVersion);
    const uint32_t n =
        static_cast<uint32_t>(doc.at("num_modes").asInt(0, 1 << 24));
    MajoranaPolynomial poly(n);
    const JsonValue &terms = doc.at("terms");
    if (!terms.isArray())
        throw ParseError("hatt-majorana: terms must be an array");
    for (size_t i = 0; i < terms.size(); ++i) {
        const JsonValue &e = terms.at(i);
        cplx coeff = complexFromJson(e.at("coeff"));
        const JsonValue &idx = e.at("indices");
        std::vector<uint32_t> indices;
        indices.reserve(idx.size());
        for (size_t j = 0; j < idx.size(); ++j) {
            uint32_t v = static_cast<uint32_t>(
                idx.at(j).asInt(0, 2 * int64_t{n} - 1));
            if (!indices.empty() && v <= indices.back())
                throw ParseError("hatt-majorana: indices must be "
                                 "strictly ascending");
            indices.push_back(v);
        }
        poly.add(coeff, std::move(indices));
    }
    return poly;
}

uint64_t
majoranaContentHash(const MajoranaPolynomial &poly)
{
    // Canonical order: sort term references by index list (terms are
    // already deduplicated/ascending in a compressed polynomial).
    std::vector<const MajoranaTerm *> order;
    order.reserve(poly.terms().size());
    for (const MajoranaTerm &t : poly.terms())
        order.push_back(&t);
    std::sort(order.begin(), order.end(),
              [](const MajoranaTerm *a, const MajoranaTerm *b) {
                  return a->indices < b->indices;
              });

    uint64_t h = splitmix64(0x48415454ull ^ poly.numModes());
    auto mix = [&](uint64_t v) { h = splitmix64(h ^ v); };
    for (const MajoranaTerm *t : order) {
        mix(t->indices.size());
        for (uint32_t i : t->indices)
            mix(i);
        uint64_t re_bits, im_bits;
        double re = t->coeff.real(), im = t->coeff.imag();
        std::memcpy(&re_bits, &re, sizeof(re_bits));
        std::memcpy(&im_bits, &im, sizeof(im_bits));
        mix(re_bits);
        mix(im_bits);
    }
    return h;
}

std::string
hashToHex(uint64_t hash)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[hash & 0xF];
        hash >>= 4;
    }
    return out;
}

namespace {

/** Stream @p doc pretty-printed into a fresh file at @p path. */
void
writeJsonFile(const std::string &path, const JsonValue &doc, bool durable)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        throw ParseError("cannot open file for writing: " + path);
    try {
        JsonWriter out(fd, path, 2);
        doc.writeTo(out);
        out.finish();
        if (durable && ::fsync(fd) != 0)
            throw ParseError("fsync failed: " + path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    if (::close(fd) != 0)
        throw ParseError("close failed: " + path);
}

} // namespace

void
saveJsonFile(const std::string &path, const JsonValue &doc)
{
    writeJsonFile(path, doc, false);
}

void
saveJsonFileDurable(const std::string &path, const JsonValue &doc)
{
    writeJsonFile(path, doc, true);
}

JsonValue
loadJsonFile(const std::string &path, uint64_t max_bytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw ParseError("cannot open file: " + path);
    const auto size = in.tellg();
    if (max_bytes != 0 && size >= 0 &&
        static_cast<uint64_t>(size) > max_bytes)
        throw ParseError(path + ": file size " + std::to_string(size) +
                         " exceeds the JSON input cap (" +
                         std::to_string(max_bytes) + " bytes)");
    in.seekg(0, std::ios::beg);
    try {
        return JsonValue::parse(in);
    } catch (const ParseError &e) {
        throw ParseError(path + ": " + e.what());
    }
}

} // namespace hatt::io
