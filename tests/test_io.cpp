/**
 * @file
 * io subsystem tests: JSON round trips, .ops / FCIDUMP parsing and
 * malformed-input rejection, streaming Majorana preprocessing (bit-exact
 * parity with the batch path + interface-level memory evidence on a
 * >= 10^5-term Hubbard lattice), versioned serialization round trips
 * pinned against the seed hashes of tests/test_perf_parity.cpp, and the
 * content-addressed mapping cache.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <locale>
#include <sstream>

#include "common/rng.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/cache.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "io/stream.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "preprocess_streams.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::JsonValue;
using io::ParseError;

/** FNV-1a over the mapping strings, as pinned in test_perf_parity. */
uint64_t
stringsHash(const FermionQubitMapping &map)
{
    uint64_t h = 1469598103934665603ull;
    for (const auto &m : map.majorana)
        for (char c : m.string.toString()) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    return h;
}

/** FNV-1a over a PauliSum's term strings + coefficient bit patterns. */
uint64_t
sumHash(const PauliSum &sum)
{
    uint64_t h = 1469598103934665603ull;
    auto mix_bytes = [&](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const PauliTerm &t : sum.terms()) {
        double re = t.coeff.real(), im = t.coeff.imag();
        mix_bytes(&re, sizeof(re));
        mix_bytes(&im, sizeof(im));
        std::string s = t.string.toString();
        mix_bytes(s.data(), s.size());
    }
    return h;
}

/** Locate a file under examples/data from the build/test working dir. */
std::string
dataFile(const std::string &name)
{
    for (const char *prefix :
         {"../examples/data/", "examples/data/", "../../examples/data/"}) {
        std::string p = prefix + name;
        if (std::ifstream(p).good())
            return p;
    }
    ADD_FAILURE() << "cannot locate examples/data/" << name;
    return name;
}

/** Fresh scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_io_test_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------------ JSON

TEST(Json, RoundTripsValuesBitExactly)
{
    JsonValue doc = JsonValue::object();
    doc.add("int", 42);
    doc.add("neg", -7);
    doc.add("pi", 3.141592653589793);
    doc.add("tiny", 4.9406564584124654e-324); // denormal min
    doc.add("text", std::string("a\"b\\c\n\t\x01"));
    doc.add("flag", true);
    doc.add("nothing", nullptr);
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push("two");
    arr.push(JsonValue::array());
    doc.add("arr", std::move(arr));

    for (int indent : {-1, 2}) {
        JsonValue back = JsonValue::parse(doc.dump(indent));
        EXPECT_EQ(back.at("int").asInt(), 42);
        EXPECT_EQ(back.at("neg").asInt(), -7);
        EXPECT_EQ(back.at("pi").asNumber(), 3.141592653589793);
        EXPECT_EQ(back.at("tiny").asNumber(), 4.9406564584124654e-324);
        EXPECT_EQ(back.at("text").asString(), "a\"b\\c\n\t\x01");
        EXPECT_TRUE(back.at("flag").asBool());
        EXPECT_TRUE(back.at("nothing").isNull());
        EXPECT_EQ(back.at("arr").size(), 3u);
        EXPECT_EQ(back.at("arr").at(size_t{1}).asString(), "two");
    }
}

TEST(Json, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,", "[1 2]", "{\"a\" 1}", "{\"a\":}", "tru",
          "\"unterminated", "\"bad \\q escape\"", "1.2.3", "[1] trailing",
          "{\"a\":1,}", "\"\\ud800\"", "nan"}) {
        EXPECT_THROW(JsonValue::parse(bad), ParseError) << bad;
    }
}

TEST(Json, RangeSemanticsMatchStrtod)
{
    // Out-of-range magnitudes keep the historical strtod behavior:
    // underflow is signed zero, overflow saturates to infinity (which
    // jsonNumberToString refuses to re-serialize). Values near the
    // denormal boundary still parse exactly.
    EXPECT_EQ(JsonValue::parse("1e-999").asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(JsonValue::parse("-1e-999").asNumber()));
    EXPECT_TRUE(std::isinf(JsonValue::parse("1e999").asNumber()));
    EXPECT_LT(JsonValue::parse("-1e999").asNumber(), 0.0);
    EXPECT_EQ(JsonValue::parse("4.9406564584124654e-324").asNumber(),
              4.9406564584124654e-324);
    EXPECT_THROW(io::jsonNumberToString(
                     JsonValue::parse("1e999").asNumber()),
                 ParseError);
}

TEST(Json, RejectsAbsurdNesting)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_THROW(JsonValue::parse(deep), ParseError);
}

// ------------------------------------------------------- emitted bytes
//
// Every artifact is written through one JsonWriter; these pin its bytes
// (recorded from the DOM pretty-printer it replaced) for both sinks.

/** Bytes saveJsonFile streams to disk for @p doc. */
std::string
savedBytes(const JsonValue &doc, const std::string &tag)
{
    const fs::path path = scratchDir(tag) / "doc.json";
    io::saveJsonFile(path.string(), doc);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    fs::remove_all(path.parent_path());
    return buf.str();
}

TEST(EmitPins, WriterEscapesEveryAsciiByteExactly)
{
    std::string all;
    for (int c = 0; c < 0x80; ++c)
        all.push_back(static_cast<char>(c));
    const std::string expected =
        R"pin("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n)pin"
        R"pin(\u000b\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015)pin"
        R"pin(\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)pin"
        R"pin( !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ)pin"
        R"pin([\\]^_`abcdefghijklmnopqrstuvwxyz{|}~)pin"
        "\x7f\"";
    EXPECT_EQ(JsonValue(all).dump(), expected);
    EXPECT_EQ(JsonValue("\"").dump(), R"("\"")");
    EXPECT_EQ(JsonValue("\\").dump(), R"("\\")");
    // Bytes >= 0x80 (UTF-8) pass through untouched.
    EXPECT_EQ(JsonValue("caf\xc3\xa9").dump(), "\"caf\xc3\xa9\"");
    // Keys take the same escaper, and both sinks agree byte for byte.
    JsonValue doc = JsonValue::object();
    doc.add(all, all);
    EXPECT_EQ(doc.dump(-1), "{" + expected + ":" + expected + "}");
    EXPECT_EQ(doc.dump(2), "{\n  " + expected + ": " + expected + "\n}\n");
    EXPECT_EQ(savedBytes(doc, "escape"), doc.dump(2));
}

TEST(EmitPins, WriterLayoutIsPinned)
{
    JsonValue inner = JsonValue::object();
    inner.add("e", JsonValue::array());
    inner.add("o", JsonValue::object());
    JsonValue arr = JsonValue::array();
    arr.push(42);
    arr.push(-7);
    arr.push(0.1);
    arr.push(-0.0);
    arr.push(1e15);
    arr.push(1e20);
    arr.push(std::move(inner));
    arr.push(nullptr);
    arr.push(false);
    JsonValue doc = JsonValue::object();
    doc.add("format", "pin");
    doc.add("values", std::move(arr));
    doc.add("empty", JsonValue::object());

    EXPECT_EQ(doc.dump(),
              R"({"format":"pin","values":[42,-7,0.10000000000000001,-0,)"
              R"(1000000000000000,1e+20,{"e":[],"o":{}},null,false],)"
              R"("empty":{}})");
    EXPECT_EQ(doc.dump(2), R"({
  "format": "pin",
  "values": [
    42,
    -7,
    0.10000000000000001,
    -0,
    1000000000000000,
    1e+20,
    {
      "e": [],
      "o": {}
    },
    null,
    false
  ],
  "empty": {}
}
)");
    EXPECT_EQ(JsonValue::array().dump(2), "[]\n");
    EXPECT_EQ(JsonValue(3).dump(), "3");
    EXPECT_EQ(savedBytes(doc, "layout"), doc.dump(2));
}

TEST(EmitPins, FileSinkMatchesDumpAcrossBufferBoundaries)
{
    // Members straddling the fd sink's 64 KiB buffer, plus one string
    // larger than the whole buffer.
    JsonValue doc = JsonValue::object();
    JsonValue labels = JsonValue::array();
    for (int i = 0; i < 5000; ++i)
        labels.push(std::string(static_cast<size_t>(i % 97), 'X') +
                    "\"\n" + std::to_string(i));
    doc.add("labels", std::move(labels));
    doc.add("big", std::string(200000, 'Z'));
    EXPECT_EQ(savedBytes(doc, "buffer"), doc.dump(2));
}

TEST(EmitPins, PauliLabelsMatchPerQubitReference)
{
    // Widths around the nibble (4), word (64) and inline/heap storage
    // boundaries, up to a 2048-mode Hubbard register.
    Rng rng(2024);
    for (uint32_t n : {1u, 3u, 4u, 63u, 64u, 65u, 127u, 128u, 130u, 2048u}) {
        for (int rep = 0; rep < 6; ++rep) {
            PauliString s(n);
            for (uint32_t q = 0; q < n; ++q)
                s.setOp(q, rep == 1 ? PauliOp::Y
                                    : static_cast<PauliOp>(rng.nextInt(4)));
            if (rep == 0)
                s = PauliString(n);
            std::string ref(n, '?');
            for (uint32_t q = 0; q < n; ++q)
                ref[n - 1 - q] = pauliOpChar(s.op(q));
            const std::string label = s.toString();
            EXPECT_EQ(label, ref) << "n=" << n << " rep=" << rep;
            EXPECT_EQ(PauliString::fromLabel(label), s)
                << "n=" << n << " rep=" << rep;
        }
    }
}

TEST(EmitPins, SaveJsonFileReportsWriteFailure)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not writable here";
    JsonValue doc = JsonValue::array();
    for (int i = 0; i < 20000; ++i)
        doc.push(std::string(48, 'X')); // ~1.1 MB pretty-printed
    try {
        io::saveJsonFile("/dev/full", doc);
        ADD_FAILURE() << "saveJsonFile returned normally on a full device";
    } catch (const ParseError &e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------------- .ops text

TEST(FermionText, ParsesTermsAndHeader)
{
    std::istringstream in("# comment\n"
                          "modes 5\n"
                          "\n"
                          "1.5 [0^ 1]\n"
                          "-2e-3 [] +\n"
                          "(0.5-0.25j) [4^ 3^ 4 3]   # inline comment\n");
    FermionHamiltonian hf = io::parseFermionText(in);
    ASSERT_EQ(hf.numModes(), 5u);
    ASSERT_EQ(hf.size(), 3u);
    EXPECT_EQ(hf.terms()[0].coeff, cplx(1.5, 0.0));
    ASSERT_EQ(hf.terms()[0].ops.size(), 2u);
    EXPECT_EQ(hf.terms()[0].ops[0], create(0));
    EXPECT_EQ(hf.terms()[0].ops[1], annihilate(1));
    EXPECT_EQ(hf.terms()[1].coeff, cplx(-2e-3, 0.0));
    EXPECT_TRUE(hf.terms()[1].ops.empty());
    EXPECT_EQ(hf.terms()[2].coeff, cplx(0.5, -0.25));
    ASSERT_EQ(hf.terms()[2].ops.size(), 4u);
    EXPECT_EQ(hf.terms()[2].ops[0], create(4));
}

TEST(FermionText, RangeSemanticsMatchStrtod)
{
    // Underflowing coefficients quietly become (signed) zero, exactly as
    // the historical strtod-based parser accepted them; overflow stays a
    // hard error (covered in RejectsMalformedInput). '+' prefixes parse.
    std::istringstream in("1e-999 [0]\n"
                          "-1e-999 [1]\n"
                          "+2.5 [0^ 1]\n"
                          "(+0.5+1e-999j) [1]\n");
    FermionHamiltonian hf = io::parseFermionText(in);
    ASSERT_EQ(hf.size(), 4u);
    EXPECT_EQ(hf.terms()[0].coeff, cplx(0.0, 0.0));
    EXPECT_EQ(hf.terms()[1].coeff, cplx(-0.0, 0.0));
    EXPECT_EQ(hf.terms()[2].coeff, cplx(2.5, 0.0));
    EXPECT_EQ(hf.terms()[3].coeff, cplx(0.5, 0.0));
}

TEST(FermionText, InfersModesWhenUndeclared)
{
    std::istringstream in("1.0 [6^ 2]\n");
    FermionHamiltonian hf = io::parseFermionText(in);
    EXPECT_EQ(hf.numModes(), 7u);
}

TEST(FermionText, StreamingCallbackSeesEveryTermWithoutAList)
{
    std::ostringstream doc;
    doc << "modes 12\n";
    for (int i = 0; i < 500; ++i)
        doc << (i % 2 ? 1.0 : -0.5) << " [" << i % 12 << "^ "
            << (i + 5) % 12 << "]\n";
    std::istringstream in(doc.str());
    size_t seen = 0;
    io::FermionTextInfo info =
        io::streamFermionText(in, [&](FermionTerm &&t) {
            EXPECT_EQ(t.ops.size(), 2u);
            ++seen;
            return true;
        });
    EXPECT_EQ(seen, 500u);
    EXPECT_EQ(info.numTerms, 500u);
    EXPECT_EQ(info.numModes, 12u);
    EXPECT_TRUE(info.declaredModes);
}

TEST(FermionText, CallbackCanStopEarly)
{
    std::istringstream in("1 [0]\n2 [1]\n3 [2]\n");
    size_t seen = 0;
    io::streamFermionText(in, [&](FermionTerm &&) { return ++seen < 2; });
    EXPECT_EQ(seen, 2u);
}

TEST(FermionText, RejectsMalformedInput)
{
    const char *bad_docs[] = {
        "1.0 [0^ 1",             // truncated: missing ]
        "abc [0]",               // non-numeric coefficient
        "1.0 0^ 1]",             // missing [
        "1.0 [0^ x]",            // non-numeric mode
        "1.0 [0^1]",             // missing separator
        "(1.0) [0]",             // complex without imag part
        "(1.0+2j [0]",           // unterminated complex
        "1.0j [0]",              // bare imaginary coefficient
        "1.0 [0] trailing",      // garbage after term
        "modes 4\n1.0 [5^ 0]",   // mode out of declared range
        "modes 0\n1.0 [0]",      // invalid modes header
        "modes 4\nmodes 4\n",    // duplicate header
        "1.0 [0]\nmodes 4\n",    // header after terms
        "modes four\n",          // non-numeric header
        "inf [0]",               // non-finite coefficient
        "1e999 [0]",             // overflowing coefficient
        "+-2 [0]",               // double sign
        "(1.5+-0.25j) [0]",      // double sign in imaginary part
    };
    for (const char *doc : bad_docs) {
        std::istringstream in(doc);
        EXPECT_THROW(io::parseFermionText(in), ParseError) << doc;
    }
}

TEST(FermionText, WriteParseRoundTripIsExact)
{
    FermionHamiltonian hf = hubbardModel({2, 3, 1.0, 4.0});
    std::ostringstream os;
    io::writeFermionText(os, hf, "round trip");
    std::istringstream in(os.str());
    FermionHamiltonian back = io::parseFermionText(in);
    ASSERT_EQ(back.numModes(), hf.numModes());
    ASSERT_EQ(back.size(), hf.size());
    for (size_t i = 0; i < hf.size(); ++i) {
        EXPECT_EQ(back.terms()[i].coeff, hf.terms()[i].coeff);
        EXPECT_EQ(back.terms()[i].ops, hf.terms()[i].ops);
    }
}

// --------------------------------------------------------------- FCIDUMP

TEST(Fcidump, ParsesHeaderAndIntegrals)
{
    std::istringstream in("&FCI NORB=2,NELEC=2,MS2=0,\n"
                          " ORBSYM=1,1,\n"
                          " ISYM=1,\n"
                          "&END\n"
                          " 0.5 1 1 1 1\n"
                          " 0.25 2 1 2 1\n"
                          " -1.25 1 1 0 0\n"
                          " 0.75 0 0 0 0\n");
    MoIntegrals mo = io::parseFcidump(in);
    EXPECT_EQ(mo.numOrbitals, 2u);
    EXPECT_EQ(mo.numElectrons, 2u);
    EXPECT_EQ(mo.coreEnergy, 0.75);
    EXPECT_EQ(mo.oneBody(0, 0), -1.25);
    EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
    // 8-fold symmetry fan-out of (21|21).
    EXPECT_EQ(mo.twoBody.at(1, 0, 1, 0), 0.25);
    EXPECT_EQ(mo.twoBody.at(0, 1, 1, 0), 0.25);
    EXPECT_EQ(mo.twoBody.at(1, 0, 0, 1), 0.25);
    EXPECT_EQ(mo.twoBody.at(0, 1, 0, 1), 0.25);
}

TEST(Fcidump, AcceptsFortranDExponents)
{
    std::istringstream in("&FCI NORB=1,NELEC=2, &END\n"
                          " 0.5D+00 1 1 1 1\n"
                          " -1.25d-01 1 1 0 0\n"
                          " 7.5D-1 0 0 0 0\n");
    MoIntegrals mo = io::parseFcidump(in);
    EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
    EXPECT_EQ(mo.oneBody(0, 0), -0.125);
    EXPECT_EQ(mo.coreEnergy, 0.75);
}

TEST(Fcidump, AcceptsPlusPrefixesAndUnderflow)
{
    // Fortran writers may emit '+' on values and indices; both parsed
    // under the old stream extraction and must keep parsing. A sub-
    // denormal integral underflows to zero, as strtod-family readers do.
    std::istringstream in("&FCI NORB=2,NELEC=2, &END\n"
                          " +0.5 +1 +1 +1 +1\n"
                          " 1e-999 2 1 2 1\n"
                          " +7.5D-1 0 0 0 0\n");
    MoIntegrals mo = io::parseFcidump(in);
    EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
    EXPECT_EQ(mo.twoBody.at(1, 0, 1, 0), 0.0);
    EXPECT_EQ(mo.coreEnergy, 0.75);
}

TEST(Fcidump, RejectsMalformedInput)
{
    const char *bad_docs[] = {
        "",                                          // empty
        "NORB=2\n",                                  // no &FCI
        "&FCI NORB=2,NELEC=2,\n",                    // no &END
        "&FCI NELEC=2, &END\n",                      // missing NORB
        "&FCI NORB=0,NELEC=0, &END\n",               // NORB out of range
        "&FCI NORB=2,NELEC=9, &END\n",               // NELEC out of range
        "&FCI NORB=2,NELEC=2, &END\n 0.5 1 1 1\n",   // truncated line
        "&FCI NORB=2,NELEC=2, &END\n 0.5 3 1 1 1\n", // index > NORB
        "&FCI NORB=2,NELEC=2, &END\n 0.5 1 0 1 1\n", // mixed zero indices
        "&FCI NORB=2,NELEC=2, &END\n x 1 1 1 1\n",   // non-numeric value
        "&FCI NORB=2,NELEC=2, &END\n 0.5 1 1 1 1 9\n", // trailing junk
        "&FCI NORB=2,NELEC=2, &END\n +-0.5 1 1 1 1\n", // double sign
        "&FCI NORB=2,NELEC=2, &END\n 0.5 +-1 1 1 1\n", // double-sign index
    };
    for (const char *doc : bad_docs) {
        std::istringstream in(doc);
        EXPECT_THROW(io::parseFcidump(in), ParseError) << doc;
    }
}

TEST(Fcidump, WriteParseRoundTripIsExact)
{
    MoIntegrals mo = io::loadFcidumpFile(dataFile("h2.fcidump"));
    std::ostringstream os;
    io::writeFcidump(os, mo);
    std::istringstream in(os.str());
    MoIntegrals back = io::parseFcidump(in);
    ASSERT_EQ(back.numOrbitals, mo.numOrbitals);
    EXPECT_EQ(back.numElectrons, mo.numElectrons);
    EXPECT_EQ(back.coreEnergy, mo.coreEnergy);
    const size_t n = mo.numOrbitals;
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j) {
            EXPECT_EQ(back.oneBody(i, j), mo.oneBody(i, j));
            for (size_t k = 0; k < n; ++k)
                for (size_t l = 0; l < n; ++l)
                    EXPECT_EQ(back.twoBody.at(i, j, k, l),
                              mo.twoBody.at(i, j, k, l));
        }
}

// ---------------------------------------------------- locale independence

/**
 * Force a comma-decimal, dot-grouping numeric environment: a custom
 * numpunct installed as the global C++ locale (streams imbue it at
 * construction) plus, when the host has one generated, a real
 * comma-decimal C locale for LC_NUMERIC (strtod/snprintf). Restores
 * both on destruction.
 */
class CommaLocaleGuard
{
    struct CommaNumpunct : std::numpunct<char>
    {
        char do_decimal_point() const override { return ','; }
        char do_thousands_sep() const override { return '.'; }
        std::string do_grouping() const override { return "\3"; }
    };

  public:
    CommaLocaleGuard()
        : prev_global_(std::locale::global(
              std::locale(std::locale::classic(), new CommaNumpunct)))
    {
        for (const char *name :
             {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE", "fr_FR",
              "nl_NL.UTF-8"})
            if (std::setlocale(LC_NUMERIC, name)) {
                c_side_active_ = true;
                break;
            }
    }

    ~CommaLocaleGuard()
    {
        std::setlocale(LC_NUMERIC, "C");
        std::locale::global(prev_global_);
    }

    bool cSideActive() const { return c_side_active_; }

  private:
    std::locale prev_global_;
    bool c_side_active_ = false;
};

TEST(Locale, NumberIoSurvivesCommaDecimalLocale)
{
    CommaLocaleGuard guard;

    // Prove the hostile locale is really in force for freshly
    // constructed streams — this is what the parsers/writers must defeat.
    {
        std::ostringstream probe;
        probe << 0.5 << " " << 32768;
        EXPECT_EQ(probe.str(), "0,5 32.768");
    }
    if (guard.cSideActive()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", 0.5);
        EXPECT_STREQ(buf, "0,5");
    }

    // JSON: serialization emits '.'-decimals and parsing accepts them,
    // bit-exactly, regardless of locale.
    {
        JsonValue doc = JsonValue::object();
        doc.add("pi", 3.141592653589793);
        doc.add("tiny", 4.9406564584124654e-324);
        doc.add("big", 1.5e16);
        std::string text = doc.dump();
        // '.'-decimal renderings, never "3,1415..." (JSON's own object
        // separators are commas, so check the numbers specifically).
        EXPECT_NE(text.find("3.1415926535897931"), std::string::npos)
            << text;
        EXPECT_NE(text.find("4.9406564584124654e-324"), std::string::npos)
            << text;
        JsonValue back = JsonValue::parse(text);
        EXPECT_EQ(back.at("pi").asNumber(), 3.141592653589793);
        EXPECT_EQ(back.at("tiny").asNumber(), 4.9406564584124654e-324);
        EXPECT_EQ(back.at("big").asNumber(), 1.5e16);
    }

    // .ops: fractional and complex coefficients round-trip exactly.
    {
        std::istringstream in("modes 3\n"
                              "1.5 [0^ 1]\n"
                              "-2.5e-3 [2]\n"
                              "(0.5-0.25j) [1^ 2^ 1 2]\n");
        FermionHamiltonian hf = io::parseFermionText(in);
        ASSERT_EQ(hf.size(), 3u);
        EXPECT_EQ(hf.terms()[0].coeff, cplx(1.5, 0.0));
        EXPECT_EQ(hf.terms()[1].coeff, cplx(-2.5e-3, 0.0));
        EXPECT_EQ(hf.terms()[2].coeff, cplx(0.5, -0.25));

        std::ostringstream os;
        io::writeFermionText(os, hf, "comma locale");
        EXPECT_EQ(os.str().find(','), std::string::npos) << os.str();
        std::istringstream back_in(os.str());
        FermionHamiltonian back = io::parseFermionText(back_in);
        ASSERT_EQ(back.size(), hf.size());
        for (size_t i = 0; i < hf.size(); ++i)
            EXPECT_EQ(back.terms()[i].coeff, hf.terms()[i].coeff);
    }

    // FCIDUMP: '.'-decimal and Fortran D-exponent values parse exactly;
    // the writer never emits grouped integers or comma decimals.
    {
        std::istringstream in("&FCI NORB=2,NELEC=2, &END\n"
                              " 0.5 1 1 1 1\n"
                              " 6.25D-02 2 1 2 1\n"
                              " -1.25 1 1 0 0\n"
                              " 0.75 0 0 0 0\n");
        MoIntegrals mo = io::parseFcidump(in);
        EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
        EXPECT_EQ(mo.twoBody.at(1, 0, 1, 0), 0.0625);
        EXPECT_EQ(mo.oneBody(0, 0), -1.25);
        EXPECT_EQ(mo.coreEnergy, 0.75);

        std::ostringstream os;
        io::writeFcidump(os, mo);
        EXPECT_EQ(os.str().find(','), os.str().find(",NELEC"))
            << os.str(); // only the namelist's literal commas
        std::istringstream back_in(os.str());
        MoIntegrals back = io::parseFcidump(back_in);
        EXPECT_EQ(back.coreEnergy, mo.coreEnergy);
        EXPECT_EQ(back.oneBody(0, 0), mo.oneBody(0, 0));
        EXPECT_EQ(back.twoBody.at(1, 0, 1, 0), mo.twoBody.at(1, 0, 1, 0));
    }
}

// ----------------------------------------------- streaming preprocessing

TEST(Stream, MatchesBatchPreprocessingBitExactly)
{
    // The 2x3 Hubbard model, and the mixed-key stream whose packed and
    // wide monomial keys interleave (tests/preprocess_streams.hpp).
    for (const FermionHamiltonian &hf :
         {hubbardModel({2, 3, 1.0, 4.0}), test::mixedKeyHamiltonian()}) {
        MajoranaPolynomial batch = MajoranaPolynomial::fromFermion(hf);

        io::StreamingMajoranaAccumulator acc(hf.numModes());
        for (const FermionTerm &t : hf.terms())
            acc.add(t);
        MajoranaPolynomial streamed = acc.finish();

        ASSERT_EQ(streamed.numModes(), batch.numModes());
        ASSERT_EQ(streamed.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(streamed.terms()[i].indices, batch.terms()[i].indices);
            EXPECT_EQ(streamed.terms()[i].coeff, batch.terms()[i].coeff);
        }
        EXPECT_EQ(io::majoranaContentHash(streamed),
                  io::majoranaContentHash(batch));
    }
}

TEST(Stream, HundredThousandTermHubbardStreamsWithoutTermList)
{
    // 128 x 128 periodic lattice: 147456 fermionic terms, 32768 modes.
    // Terms flow generator -> accumulator one at a time; the only state
    // that grows is the deduplicated monomial set (the accumulator holds
    // no term list), bounded by the distinct-monomial count below — far
    // under the 16x expansion volume a term list + batch expansion
    // would hold.
    HubbardParams params{128, 128, 1.0, 4.0, true};
    io::StreamingMajoranaAccumulator acc(hubbardNumModes(params));
    streamHubbardTerms(params,
                       [&](FermionTerm &&t) { acc.add(t); });

    EXPECT_GE(acc.termsConsumed(), 100'000u);

    // Monomial count is linear in the lattice size: hopping terms touch
    // 8 distinct index sets per edge (4 per spin; the forward/backward
    // directions fold, and half cancel to zero at finish()), U terms 3
    // new sets per site plus the shared constant.
    const uint64_t sites = 128 * 128, edges = 2 * sites;
    EXPECT_LE(acc.currentMonomials(), 8 * edges + 3 * sites + 1);

    MajoranaPolynomial poly = acc.finish(); // must not exhaust memory
    EXPECT_EQ(poly.numModes(), hubbardNumModes(params));
    EXPECT_GT(poly.size(), 0u);
}

TEST(Stream, AgreesWithBatchOnStreamedHubbardLattice)
{
    HubbardParams params{4, 4, 1.0, 4.0, true};
    io::StreamingMajoranaAccumulator acc(hubbardNumModes(params));
    streamHubbardTerms(params, [&](FermionTerm &&t) { acc.add(t); });
    MajoranaPolynomial streamed = acc.finish();
    MajoranaPolynomial batch =
        MajoranaPolynomial::fromFermion(hubbardModel(params));
    ASSERT_EQ(streamed.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(streamed.terms()[i].indices, batch.terms()[i].indices);
        EXPECT_EQ(streamed.terms()[i].coeff, batch.terms()[i].coeff);
    }
}

/**
 * A Hamiltonian whose coefficients are NOT exactly representable sums
 * (irrational values, many terms expanding to the same monomial), so a
 * shard merge that re-associated the per-monomial coefficient fold —
 * adding pre-summed shard partials instead of replaying contributions —
 * would drift in the last ulp and fail the bit-exact comparisons below.
 */
FermionHamiltonian
nonDyadicHamiltonian()
{
    FermionHamiltonian hf(6);
    int k = 0;
    for (uint32_t p = 0; p < 6; ++p)
        for (uint32_t q = 0; q < 6; ++q) {
            ++k;
            hf.add(FermionTerm{
                cplx{std::sin(1.0 + k), std::cos(2.0 + k) / 3.0},
                {FermionOp{p, true}, FermionOp{q, false}}});
        }
    for (uint32_t p = 0; p < 4; ++p)
        hf.add(FermionTerm{cplx{1.0 / 3.0 + 0.1 * p, 0.0},
                           {FermionOp{p, true}, FermionOp{p + 1, true},
                            FermionOp{p + 1, false},
                            FermionOp{p, false}}});
    return hf;
}

void
expectBitIdentical(const MajoranaPolynomial &got,
                   const MajoranaPolynomial &want)
{
    ASSERT_EQ(got.numModes(), want.numModes());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.terms()[i].indices, want.terms()[i].indices)
            << "term " << i;
        // operator== on doubles is exact; together with the memcmp this
        // also rejects a -0.0 vs +0.0 drift.
        EXPECT_EQ(got.terms()[i].coeff, want.terms()[i].coeff)
            << "term " << i;
        EXPECT_EQ(std::memcmp(&got.terms()[i].coeff,
                              &want.terms()[i].coeff, sizeof(cplx)),
                  0)
            << "term " << i;
    }
    EXPECT_EQ(io::majoranaContentHash(got), io::majoranaContentHash(want));
}

TEST(Stream, ShardMergeBitIdenticalUnderAdversarialSplits)
{
    for (const FermionHamiltonian &hf :
         {nonDyadicHamiltonian(), test::mixedKeyHamiltonian()}) {
        MajoranaPolynomial batch = MajoranaPolynomial::fromFermion(hf);
        const size_t n = hf.size();

        // Split points partition the term stream into contiguous shards:
        // all-in-one-shard, empty shards at the front/middle/back, every
        // term its own shard, and unbalanced splits.
        std::vector<std::vector<size_t>> splits = {
            {},                 // single shard holds everything
            {0},                // empty first shard
            {n},                // empty last shard
            {n / 2, n / 2},     // empty middle shard
            {1},                // single-term first shard
            {n - 1},            // single-term last shard
            {1, 2, n / 2},      // unbalanced
        };
        std::vector<size_t> each; // every term its own shard
        for (size_t i = 1; i < n; ++i)
            each.push_back(i);
        splits.push_back(each);

        for (const std::vector<size_t> &split : splits) {
            std::vector<size_t> bounds = {0};
            bounds.insert(bounds.end(), split.begin(), split.end());
            bounds.push_back(n);

            io::StreamingMajoranaAccumulator combined(hf.numModes());
            for (size_t s = 0; s + 1 < bounds.size(); ++s) {
                io::StreamingMajoranaAccumulator shard =
                    io::StreamingMajoranaAccumulator::shard();
                for (size_t t = bounds[s]; t < bounds[s + 1]; ++t)
                    shard.add(hf.terms()[t]);
                combined.merge(std::move(shard));
            }
            expectBitIdentical(combined.finish(), batch);
        }
    }
}

TEST(Stream, ShardsConcatenateBeforeCombiningExactly)
{
    // Chained shard-into-shard merges (the reduce tree of the parallel
    // preprocessor) followed by one combine must equal the serial path.
    for (const FermionHamiltonian &hf :
         {nonDyadicHamiltonian(), test::mixedKeyHamiltonian()}) {
        MajoranaPolynomial batch = MajoranaPolynomial::fromFermion(hf);

        io::StreamingMajoranaAccumulator log =
            io::StreamingMajoranaAccumulator::shard();
        const size_t third = hf.size() / 3;
        for (size_t s = 0; s < 3; ++s) {
            io::StreamingMajoranaAccumulator shard =
                io::StreamingMajoranaAccumulator::shard();
            const size_t hi = s == 2 ? hf.size() : (s + 1) * third;
            for (size_t t = s * third; t < hi; ++t)
                shard.add(hf.terms()[t]);
            log.merge(std::move(shard)); // shard-mode merge = concatenation
        }
        EXPECT_EQ(log.termsConsumed(), hf.size());

        // finish() on a shard combines through a fresh accumulator, so
        // even the log-only path finishes to the canonical polynomial.
        expectBitIdentical(log.finish(), batch);
    }
}

TEST(Stream, ShardedPreprocessorMatchesSerialOnHubbardStream)
{
    // The paper-scale smoke: the 2x2 Hubbard stream through the parallel
    // preprocessor with tiny blocks (many shards + multiple flushes)
    // equals the batch path exactly. The thread-count sweep lives in
    // tests/test_perf_parity.cpp.
    HubbardParams params{2, 2, 1.0, 4.0};
    MajoranaPolynomial batch =
        MajoranaPolynomial::fromFermion(hubbardModel(params));

    io::ShardedMajoranaPreprocessor pre(0, /*block_terms=*/3,
                                        /*flush_terms=*/7);
    streamHubbardTerms(params,
                       [&](FermionTerm &&t) { pre.add(std::move(t)); });
    pre.ensureModes(hubbardNumModes(params));
    EXPECT_EQ(pre.termsConsumed(), hubbardModel(params).size());
    expectBitIdentical(pre.finish(), batch);

    // The mixed-key stream through the same tiny blocks: wide keys are
    // interned per shard and re-interned on merge.
    FermionHamiltonian mixed = test::mixedKeyHamiltonian();
    for (const FermionTerm &t : mixed.terms())
        pre.add(FermionTerm(t));
    pre.ensureModes(mixed.numModes());
    EXPECT_EQ(pre.termsConsumed(), mixed.size());
    expectBitIdentical(pre.finish(), MajoranaPolynomial::fromFermion(mixed));
}

// ----------------------------------------------------------- serializers

TEST(Serialize, TreeRoundTripsNodeForNode)
{
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    HattResult res = buildHattMapping(poly);

    std::string text = io::treeToJson(res.tree).dump(2);
    TernaryTree back = io::treeFromJson(JsonValue::parse(text));

    ASSERT_EQ(back.numModes(), res.tree.numModes());
    ASSERT_EQ(back.numNodes(), res.tree.numNodes());
    for (size_t id = 0; id < res.tree.numNodes(); ++id) {
        const TreeNode &a = res.tree.node(static_cast<int>(id));
        const TreeNode &b = back.node(static_cast<int>(id));
        EXPECT_EQ(a.child, b.child) << "node " << id;
        EXPECT_EQ(a.parent, b.parent) << "node " << id;
        EXPECT_EQ(a.qubit, b.qubit) << "node " << id;
        EXPECT_EQ(a.leafIndex, b.leafIndex) << "node " << id;
    }

    // Re-deriving the mapping from the reloaded tree reproduces the
    // seed-pinned string hash (test_perf_parity "hub22", pairing).
    FermionQubitMapping remapped = mappingFromTree(back, "HATT");
    EXPECT_EQ(stringsHash(remapped), 2707256268756362103ull);
    EXPECT_EQ(stringsHash(remapped), stringsHash(res.mapping));
}

TEST(Serialize, MappingRoundTripsBitExactly)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(6, 14, 1);
    HattResult res = buildHattMapping(poly);
    res.mapping.majorana[3].coeff = cplx(0.25, -0.125); // exercise coeffs

    FermionQubitMapping back = io::mappingFromJson(
        JsonValue::parse(io::mappingToJson(res.mapping).dump()));
    EXPECT_EQ(back.name, res.mapping.name);
    EXPECT_EQ(back.numModes, res.mapping.numModes);
    EXPECT_EQ(back.numQubits, res.mapping.numQubits);
    ASSERT_EQ(back.majorana.size(), res.mapping.majorana.size());
    for (size_t i = 0; i < back.majorana.size(); ++i) {
        EXPECT_EQ(back.majorana[i].coeff, res.mapping.majorana[i].coeff);
        EXPECT_EQ(back.majorana[i].string, res.mapping.majorana[i].string);
    }
    // Seed-pinned hash ("rand6", pairing) survives the round trip.
    EXPECT_EQ(stringsHash(back), 17077076422476393563ull);
}

TEST(Serialize, PauliSumRoundTripsBitExactly)
{
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    HattResult res = buildHattMapping(poly);
    PauliSum hq = mapToQubits(poly, res.mapping);

    PauliSum back = io::pauliSumFromJson(
        JsonValue::parse(io::pauliSumToJson(hq).dump(2)));
    ASSERT_EQ(back.numQubits(), hq.numQubits());
    ASSERT_EQ(back.size(), hq.size());
    for (size_t i = 0; i < hq.size(); ++i) {
        EXPECT_EQ(back.terms()[i].coeff, hq.terms()[i].coeff);
        EXPECT_EQ(back.terms()[i].string, hq.terms()[i].string);
    }
    EXPECT_EQ(back.pauliWeight(), hq.pauliWeight());
    EXPECT_EQ(sumHash(back), sumHash(hq));
}

TEST(Serialize, MajoranaRoundTripAndOrderIndependentHash)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(5, 12, 7);
    MajoranaPolynomial back = io::majoranaFromJson(
        JsonValue::parse(io::majoranaToJson(poly).dump()));
    ASSERT_EQ(back.size(), poly.size());
    for (size_t i = 0; i < poly.size(); ++i) {
        EXPECT_EQ(back.terms()[i].indices, poly.terms()[i].indices);
        EXPECT_EQ(back.terms()[i].coeff, poly.terms()[i].coeff);
    }
    EXPECT_EQ(io::majoranaContentHash(back),
              io::majoranaContentHash(poly));

    // Hash is invariant under term reordering but not under changes.
    MajoranaPolynomial shuffled(poly.numModes());
    for (size_t i = poly.size(); i-- > 0;) {
        auto t = poly.terms()[i];
        shuffled.add(t.coeff, t.indices);
    }
    EXPECT_EQ(io::majoranaContentHash(shuffled),
              io::majoranaContentHash(poly));
    MajoranaPolynomial changed(poly.numModes());
    for (const auto &t : poly.terms())
        changed.add(t.coeff, t.indices);
    changed.add(1e-3, {0, 1});
    changed.compress();
    EXPECT_NE(io::majoranaContentHash(changed),
              io::majoranaContentHash(poly));
}

TEST(Serialize, RejectsMalformedDocuments)
{
    // Envelope violations.
    EXPECT_THROW(io::treeFromJson(JsonValue::parse("{}")), ParseError);
    EXPECT_THROW(io::treeFromJson(JsonValue::parse(
                     R"({"format":"hatt-mapping","version":1})")),
                 ParseError);
    EXPECT_THROW(io::treeFromJson(JsonValue::parse(
                     R"({"format":"hatt-tree","version":99,)"
                     R"("num_modes":1,"internal":[[0,0,1,2]]})")),
                 ParseError);

    // Structural tree violations.
    const char *bad_trees[] = {
        // wrong internal count
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,2]]})",
        // duplicate children
        R"({"format":"hatt-tree","version":1,"num_modes":1,)"
        R"("internal":[[0,0,0,2]]})",
        // child id out of range
        R"({"format":"hatt-tree","version":1,"num_modes":1,)"
        R"("internal":[[0,0,1,7]]})",
        // child that does not exist yet
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,6],[1,2,3,4]]})",
        // reused child (already has a parent)
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,2],[1,0,3,4]]})",
        // duplicate qubit index across internal nodes
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,2],[0,5,3,4]]})",
        // malformed entry
        R"({"format":"hatt-tree","version":1,"num_modes":1,)"
        R"("internal":[[0,0,1]]})",
    };
    for (const char *doc : bad_trees)
        EXPECT_THROW(io::treeFromJson(JsonValue::parse(doc)), ParseError)
            << doc;

    // Mapping violations: wrong term count, label garbage, label length.
    MajoranaPolynomial poly = randomMajoranaPolynomial(3, 6, 3);
    JsonValue good = io::mappingToJson(buildHattMapping(poly).mapping);
    std::string text = good.dump(2);
    EXPECT_NO_THROW(io::mappingFromJson(JsonValue::parse(text)));
    {
        std::string t = text;
        t.replace(t.find("\"num_modes\": 3"), 14, "\"num_modes\": 4");
        EXPECT_THROW(io::mappingFromJson(JsonValue::parse(t)),
                     ParseError);
    }
    {
        std::string t = text;
        size_t p = t.find("\"pauli\": \"");
        t[p + 10] = 'Q';
        EXPECT_THROW(io::mappingFromJson(JsonValue::parse(t)),
                     std::exception);
    }

    // Majorana: non-ascending indices must be rejected.
    EXPECT_THROW(
        io::majoranaFromJson(JsonValue::parse(
            R"({"format":"hatt-majorana","version":1,"num_modes":2,)"
            R"("terms":[{"coeff":[1,0],"indices":[2,1]}]})")),
        ParseError);
    EXPECT_THROW(
        io::majoranaFromJson(JsonValue::parse(
            R"({"format":"hatt-majorana","version":1,"num_modes":2,)"
            R"("terms":[{"coeff":[1,0],"indices":[0,0]}]})")),
        ParseError);
    // ...and out-of-range indices.
    EXPECT_THROW(
        io::majoranaFromJson(JsonValue::parse(
            R"({"format":"hatt-majorana","version":1,"num_modes":2,)"
            R"("terms":[{"coeff":[1,0],"indices":[4]}]})")),
        ParseError);
}

// ----------------------------------------------------------------- cache

TEST(Cache, StoresAndRecoversMappingsByContentHash)
{
    fs::path dir = scratchDir("cache");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    io::MappingCache cache(dir.string());

    EXPECT_FALSE(cache.lookup(hash, "hatt").has_value());

    HattResult res = buildHattMapping(poly);
    cache.store(hash, "hatt", res.mapping, &res.tree);

    auto hit = cache.lookup(hash, "hatt");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(stringsHash(hit->mapping), stringsHash(res.mapping));
    ASSERT_TRUE(hit->tree.has_value());
    EXPECT_EQ(hit->tree->numNodes(), res.tree.numNodes());

    EXPECT_FALSE(cache.lookup(hash ^ 1, "hatt").has_value());
    EXPECT_FALSE(cache.lookup(hash, "jw").has_value());
    fs::remove_all(dir);
}

TEST(Cache, CorruptEntriesAreMissesAndGetOverwritten)
{
    fs::path dir = scratchDir("cache_corrupt");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    io::MappingCache cache(dir.string());

    HattResult res = buildHattMapping(poly);
    cache.store(hash, "hatt", res.mapping, &res.tree);
    const std::string entry = cache.entryPath(hash, "hatt");

    // Truncate the entry mid-document, as an interrupted writer (or a
    // torn copy) would leave it: must be a miss, not a ParseError that
    // kills a whole `hattc --cache` batch.
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "{\"format\": \"hatt-cache\"";
    }
    EXPECT_FALSE(cache.lookup(hash, "hatt").has_value());

    // Recompute-and-store overwrites the damaged file; lookups hit again.
    cache.store(hash, "hatt", res.mapping, &res.tree);
    auto hit = cache.lookup(hash, "hatt");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(stringsHash(hit->mapping), stringsHash(res.mapping));

    // A syntactically valid entry whose key fields disagree with its
    // file name (e.g. a hand-copied file) is likewise a miss.
    {
        io::JsonValue doc = io::loadJsonFile(entry);
        std::string text = doc.dump(2);
        const std::string hex = io::hashToHex(hash);
        size_t p = text.find(hex);
        ASSERT_NE(p, std::string::npos);
        text[p] = text[p] == '0' ? '1' : '0';
        std::ofstream os(entry, std::ios::trunc);
        os << text;
    }
    EXPECT_FALSE(cache.lookup(hash, "hatt").has_value());

    // Garbage that parses as JSON but not as a mapping: miss, not crash.
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "{\"format\": \"hatt-cache\", \"version\": 1}";
    }
    EXPECT_FALSE(cache.lookup(hash, "hatt").has_value());
    fs::remove_all(dir);
}

TEST(Cache, IndexTracksEntriesAndSurvivesDriftAndCorruption)
{
    fs::path dir = scratchDir("cache_index");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    io::MappingCache cache(dir.string());
    HattResult res = buildHattMapping(poly);

    cache.store(hash, "hatt", res.mapping, &res.tree);
    cache.store(hash, "jw", jordanWignerMapping(poly.numModes()));
    cache.flushIndex();

    std::vector<io::CacheIndexEntry> index = cache.loadIndex();
    ASSERT_EQ(index.size(), 2u);
    EXPECT_LT(index[0].file, index[1].file); // sorted by file name
    for (const io::CacheIndexEntry &e : index) {
        EXPECT_EQ(e.size, fs::file_size(dir / e.file));
        EXPECT_GT(e.lastUsed, 0);
    }
    EXPECT_TRUE(cache.indexConsistent());

    // Drift: an entry removed behind the cache's back is detected, and
    // the next flush reconciles the index against the directory.
    fs::remove(cache.entryPath(hash, "jw"));
    EXPECT_FALSE(cache.indexConsistent());
    cache.flushIndex();
    EXPECT_TRUE(cache.indexConsistent());
    EXPECT_EQ(cache.loadIndex().size(), 1u);

    // A corrupt index file is advisory data: reads as empty, lookups
    // still hit, and the next flush rewrites it wholesale.
    {
        std::ofstream os(cache.indexPath(), std::ios::trunc);
        os << "{\"format\": \"hatt-cache-index\"";
    }
    EXPECT_TRUE(cache.loadIndex().empty());
    EXPECT_TRUE(cache.lookup(hash, "hatt").has_value());
    cache.flushIndex();
    EXPECT_EQ(cache.loadIndex().size(), 1u);
    EXPECT_TRUE(cache.indexConsistent());
    fs::remove_all(dir);
}

TEST(Cache, GcEvictsByAgeThenLruSizeAndRewritesTheIndex)
{
    fs::path dir = scratchDir("cache_gc");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    HattResult res = buildHattMapping(poly);
    {
        // Populate in a scope so no in-memory usage log survives: the
        // fresh cache below sees only index/mtime state, as a separate
        // `hattc cache gc` process would.
        io::MappingCache writer(dir.string());
        writer.store(hash, "hatt", res.mapping, &res.tree);
        writer.store(hash, "jw", jordanWignerMapping(poly.numModes()));
        writer.store(hash, "bk", bravyiKitaevMapping(poly.numModes()));
    }
    fs::remove(dir / "index.json"); // last-used falls back to file mtime

    // Bystander files that merely end in .json — a report dropped into
    // the cache dir, or a mistargeted `cache gc out/` — are never
    // treated as entries, never indexed, and above all never deleted.
    const fs::path bystander = dir / "precious_results.json";
    {
        std::ofstream os(bystander);
        os << "{\"mine\": true}";
    }

    // Backdate two entries; a max-age pass must evict exactly those and
    // leave an index listing exactly the survivor.
    const auto old_time =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    io::MappingCache cache(dir.string());
    fs::last_write_time(cache.entryPath(hash, "jw"), old_time);
    fs::last_write_time(cache.entryPath(hash, "bk"), old_time);

    io::CacheGcOptions age_only;
    age_only.maxAgeSeconds = 3600;
    io::CacheGcStats stats = cache.gc(age_only);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_FALSE(fs::exists(cache.entryPath(hash, "jw")));
    EXPECT_FALSE(fs::exists(cache.entryPath(hash, "bk")));
    EXPECT_TRUE(cache.lookup(hash, "hatt").has_value());
    ASSERT_EQ(cache.loadIndex().size(), 1u);
    EXPECT_TRUE(cache.indexConsistent());

    // Byte budget: oldest last-used evicts first (LRU); with one entry
    // a zero budget empties the cache but keeps a consistent index.
    io::CacheGcOptions size_only;
    size_only.maxBytes = 0;
    stats = cache.gc(size_only);
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_EQ(stats.bytesAfter, 0u);
    EXPECT_TRUE(cache.loadIndex().empty());
    EXPECT_TRUE(cache.indexConsistent());
    EXPECT_FALSE(cache.lookup(hash, "hatt").has_value());

    // Even evict-everything passes leave the bystander untouched.
    EXPECT_TRUE(fs::exists(bystander));

    // Stale temp files from interrupted cache writers are crash debris;
    // a user's "*.tmp.*" file that doesn't match the writer pattern
    // (<16-hex>-<kind>.json.tmp.<pid>.<counter>) is not.
    const fs::path stale_tmp =
        dir / "deadbeefdeadbeef-hatt.json.tmp.1.2";
    const fs::path user_tmp = dir / "results.tmp.backup";
    for (const fs::path &p : {stale_tmp, user_tmp}) {
        std::ofstream os(p);
        os << "partial";
        os.close();
        fs::last_write_time(p, old_time);
    }
    cache.gc(io::CacheGcOptions{});
    EXPECT_FALSE(fs::exists(stale_tmp));
    EXPECT_TRUE(fs::exists(user_tmp));
    fs::remove_all(dir);
}

TEST(Cache, GcHonorsInjectedNowForAgePolicies)
{
    fs::path dir = scratchDir("cache_gc_now");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    HattResult res = buildHattMapping(poly);
    io::MappingCache cache(dir.string());
    cache.store(hash, "hatt", res.mapping, &res.tree);

    // From one day in the future everything is stale; from now, nothing.
    io::CacheGcOptions not_yet;
    not_yet.maxAgeSeconds = 86400 * 7;
    EXPECT_EQ(cache.gc(not_yet).evicted, 0u);
    ASSERT_TRUE(cache.lookup(hash, "hatt").has_value());

    io::CacheGcOptions future;
    future.maxAgeSeconds = 3600;
    future.now = static_cast<int64_t>(std::time(nullptr)) + 86400;
    EXPECT_EQ(cache.gc(future).evicted, 1u);
    EXPECT_FALSE(cache.lookup(hash, "hatt").has_value());
    EXPECT_TRUE(cache.indexConsistent());
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
