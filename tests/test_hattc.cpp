/**
 * @file
 * End-to-end tests of the `hattc` compiler driver (io/compiler): the
 * exact code path the CLI ships, run in-process. Pins the acceptance
 * round trip — `hattc compile examples/data/h2.ops --mapping hatt`
 * parses, maps and serializes, and reloading the serialized tree and
 * re-mapping reproduces the identical total Pauli weight and term
 * hashes as the in-memory pipeline — plus the FCIDUMP path, the
 * content-addressed cache, the `hattc batch` corpus compiler (report
 * determinism across HATT_THREADS ∈ {1, 4}, warm-cache hit rates,
 * manifest handling, failure isolation), `hattc cache gc|list`, and CLI
 * error handling.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/parallel.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/batch.hpp"
#include "io/cli.hpp"
#include "io/fermion_text.hpp"
#include "io/serialize.hpp"
#include "mapping/hatt.hpp"
#include "mapping/verify.hpp"
#include "models/hubbard.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::JsonValue;

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

fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_hattc_test_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

int
run(const std::vector<std::string> &args, std::string *out_text = nullptr)
{
    std::ostringstream out, err;
    int code = io::runHattc(args, out, err);
    if (out_text)
        *out_text = out.str() + err.str();
    return code;
}

TEST(Hattc, CompileRoundTripMatchesInMemoryPipeline)
{
    const std::string input = dataFile("h2.ops");
    fs::path dir = scratchDir("compile");

    // In-memory reference pipeline.
    FermionHamiltonian hf = io::loadFermionTextFile(input);
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    HattResult ref = buildHattMapping(poly);
    PauliSum ref_hq = mapToQubits(poly, ref.mapping);

    // Driver pipeline (streaming parse path).
    ASSERT_EQ(run({"compile", input, "--mapping", "hatt", "-o",
                   dir.string()}),
              0);

    // The serialized qubit Hamiltonian is bit-identical.
    PauliSum hq = io::pauliSumFromJson(
        io::loadJsonFile((dir / "h2.qubit.json").string()));
    EXPECT_EQ(hq.numQubits(), ref_hq.numQubits());
    EXPECT_EQ(hq.pauliWeight(), ref_hq.pauliWeight());
    EXPECT_EQ(sumHash(hq), sumHash(ref_hq));

    // Reloading the serialized tree and RE-MAPPING reproduces the same
    // weight and term hashes as the in-memory pipeline.
    TernaryTree tree = io::treeFromJson(
        io::loadJsonFile((dir / "h2.tree.json").string()));
    FermionQubitMapping remapped = mappingFromTree(tree, "HATT");
    PauliSum re_hq = mapToQubits(poly, remapped);
    EXPECT_EQ(re_hq.pauliWeight(), ref_hq.pauliWeight());
    EXPECT_EQ(sumHash(re_hq), sumHash(ref_hq));

    // The serialized mapping agrees string-for-string with the tree.
    FermionQubitMapping mapping = io::mappingFromJson(
        io::loadJsonFile((dir / "h2.mapping.json").string()));
    ASSERT_EQ(mapping.majorana.size(), remapped.majorana.size());
    for (size_t i = 0; i < mapping.majorana.size(); ++i)
        EXPECT_EQ(mapping.majorana[i].string,
                  remapped.majorana[i].string);

    // Metrics record is in the BENCH shape with the paper's H2 weight.
    JsonValue metrics =
        io::loadJsonFile((dir / "h2.metrics.json").string());
    EXPECT_EQ(metrics.at("benchmark").asString(), "hattc");
    const JsonValue &rec = metrics.at("records").at(size_t{0});
    EXPECT_EQ(rec.at("name").asString(), "h2/hatt");
    EXPECT_EQ(rec.at("pauli_weight").asInt(), 32);
    EXPECT_FALSE(rec.at("cache_hit").asBool());
    fs::remove_all(dir);
}

TEST(Hattc, FcidumpInputCompilesToSameQubitCountAndWeight)
{
    fs::path dir = scratchDir("fcidump");
    std::string text;
    ASSERT_EQ(run({"compile", dataFile("h2.fcidump"), "-o",
                   dir.string()},
                  &text),
              0)
        << text;
    JsonValue metrics =
        io::loadJsonFile((dir / "h2.metrics.json").string());
    EXPECT_EQ(
        metrics.at("records").at(size_t{0}).at("pauli_weight").asInt(),
        32);
    FermionQubitMapping mapping = io::mappingFromJson(
        io::loadJsonFile((dir / "h2.mapping.json").string()));
    EXPECT_EQ(mapping.numQubits, 4u);
    fs::remove_all(dir);
}

TEST(Hattc, BaselineMappingsAndStatsRun)
{
    fs::path dir = scratchDir("baselines");
    for (const std::string kind : {"jw", "bk", "btt", "hatt-unopt"}) {
        std::string text;
        EXPECT_EQ(run({"map", dataFile("eq3.ops"), "--mapping", kind,
                       "-o", (dir / kind).string()},
                      &text),
                  0)
            << kind << ": " << text;
    }
    std::string text;
    EXPECT_EQ(run({"stats", dataFile("hubbard2x2.ops")}, &text), 0);
    EXPECT_NE(text.find("modes:             8"), std::string::npos)
        << text;
    fs::remove_all(dir);
}

TEST(Hattc, CacheSkipsReoptimizationAndReproducesOutputsExactly)
{
    fs::path dir = scratchDir("cachecli");
    const std::string input = dataFile("hubbard2x2.ops");
    const std::string cache = (dir / "cache").string();

    ASSERT_EQ(run({"compile", input, "--cache", cache, "-o",
                   (dir / "a").string()}),
              0);
    ASSERT_EQ(run({"compile", input, "--cache", cache, "-o",
                   (dir / "b").string()}),
              0);

    JsonValue ma =
        io::loadJsonFile((dir / "a/hubbard2x2.metrics.json").string());
    JsonValue mb =
        io::loadJsonFile((dir / "b/hubbard2x2.metrics.json").string());
    EXPECT_FALSE(
        ma.at("records").at(size_t{0}).at("cache_hit").asBool());
    EXPECT_TRUE(
        mb.at("records").at(size_t{0}).at("cache_hit").asBool());
    EXPECT_EQ(
        ma.at("records").at(size_t{0}).at("pauli_weight").asInt(),
        mb.at("records").at(size_t{0}).at("pauli_weight").asInt());
    // The determinism witness survives the cache round trip.
    EXPECT_EQ(
        ma.at("records").at(size_t{0}).at("candidates").asInt(),
        mb.at("records").at(size_t{0}).at("candidates").asInt());

    // The qubit Hamiltonians from the fresh and cached runs are
    // byte-identical.
    auto slurp = [](const fs::path &p) {
        std::ifstream in(p);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    EXPECT_EQ(slurp(dir / "a/hubbard2x2.qubit.json"),
              slurp(dir / "b/hubbard2x2.qubit.json"));
    fs::remove_all(dir);
}

TEST(Hattc, VerifyAcceptsValidAndRejectsTamperedMappings)
{
    fs::path dir = scratchDir("verify");
    ASSERT_EQ(run({"map", dataFile("eq3.ops"), "-o", dir.string()}), 0);
    const std::string path = (dir / "eq3.mapping.json").string();

    std::string text;
    EXPECT_EQ(run({"verify", path}, &text), 0);
    EXPECT_NE(text.find("valid:    yes"), std::string::npos) << text;
    EXPECT_NE(text.find("vacuum:   preserved"), std::string::npos);

    // --require-vacuum gates the exit code on vacuum preservation:
    // a valid mapping that breaks it (negate one Majorana coefficient)
    // passes plain verify but fails the strict mode.
    JsonValue doc = io::loadJsonFile(path);
    FermionQubitMapping map = io::mappingFromJson(doc);
    map.majorana[1].coeff = -map.majorana[1].coeff;
    io::saveJsonFile(path, io::mappingToJson(map));
    EXPECT_EQ(run({"verify", path}, &text), 0);
    EXPECT_NE(text.find("not preserved"), std::string::npos) << text;
    EXPECT_EQ(run({"verify", "--require-vacuum", path}, &text), 1);

    // Tamper: duplicate one Majorana string -> anticommutation breaks.
    map.majorana[1] = map.majorana[0];
    io::saveJsonFile(path, io::mappingToJson(map));
    EXPECT_EQ(run({"verify", path}, &text), 1);
    EXPECT_NE(text.find("valid:    no"), std::string::npos) << text;
    fs::remove_all(dir);
}

/** FNV-1a over a file's exact bytes. */
uint64_t
fileHash(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    uint64_t h = 1469598103934665603ull;
    for (char c; in.get(c);) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Hattc, CompileArtifactBytesArePinned)
{
    // Hashes of the exact mapping/tree/qubit JSON bytes, recorded from
    // the DOM pretty-printer the streaming JsonWriter replaced; 0 marks
    // an artifact the mapping kind does not produce.
    fs::path dir = scratchDir("pins");
    const fs::path hubbard = dir / "hubbard4x4.ops";
    {
        std::ofstream out(hubbard);
        io::writeFermionText(out, hubbardModel({4, 4, 1.0, 4.0, false}),
                             "Fermi-Hubbard 4x4");
    }
    struct Pin
    {
        std::string input, kind;
        uint64_t mapping, tree, qubit;
    };
    const Pin pins[] = {
        {hubbard.string(), "hatt", 0xd9855018051c7ce0ull,
         0xd8742cdd6a2f7bf2ull, 0x0affa19d403af110ull},
        {hubbard.string(), "jw", 0xaa8abb9eebb6463cull,
         0, 0xae7bbcecf9ef0a20ull},
        {dataFile("h2.ops"), "hatt", 0x6e29f7c66d504922ull,
         0x8238699f48966007ull, 0x9bf1fad5bdd96055ull},
        {dataFile("h2.ops"), "bk", 0xe7af27f06eb38d51ull,
         0, 0xfa0d5afe16b58f79ull},
    };
    for (const Pin &pin : pins) {
        const fs::path out = dir / pin.kind;
        ASSERT_EQ(run({"compile", pin.input, "--mapping", pin.kind, "-o",
                       out.string()}),
                  0);
        const std::string stem = fs::path(pin.input).stem().string();
        auto hashOf = [&](const std::string &suffix) {
            const fs::path p = out / (stem + suffix);
            return fs::exists(p) ? fileHash(p) : 0;
        };
        const std::string tag = stem + "/" + pin.kind;
        EXPECT_EQ(hashOf(".mapping.json"), pin.mapping) << tag;
        EXPECT_EQ(hashOf(".tree.json"), pin.tree) << tag;
        EXPECT_EQ(hashOf(".qubit.json"), pin.qubit) << tag;
    }
    fs::remove_all(dir);
}

// ------------------------------------------------------------------ batch

/** Directory holding the sample corpus (resolved via dataFile). */
std::string
dataDir()
{
    return fs::path(dataFile("h2.ops")).parent_path().string();
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Hattc, BatchReportDeterministicAcrossThreadsAndAllHitsWhenWarm)
{
    // The acceptance pin: `hattc batch` over examples/data is
    // deterministic across HATT_THREADS ∈ {1, 4} — byte-identical
    // batch_report.json — and a warm second run is 100% cache hits
    // with, again, the byte-identical report.
    fs::path dir = scratchDir("batch");
    const std::string cache = (dir / "cache").string();

    setParallelThreads(1);
    ASSERT_EQ(run({"batch", dataDir(), "--cache", cache, "-o",
                   (dir / "t1").string()}),
              0);
    setParallelThreads(4);
    ASSERT_EQ(run({"batch", dataDir(), "--cache", (dir / "c4").string(),
                   "-o", (dir / "t4").string()}),
              0);
    // Warm: same cache as the t1 run.
    ASSERT_EQ(run({"batch", dataDir(), "--cache", cache, "-o",
                   (dir / "warm").string()}),
              0);
    setParallelThreads(0);

    const std::string report = slurp(dir / "t1/batch_report.json");
    EXPECT_FALSE(report.empty());
    EXPECT_EQ(report, slurp(dir / "t4/batch_report.json"));
    EXPECT_EQ(report, slurp(dir / "warm/batch_report.json"));

    // Cold run: zero hits; warm run: every input hits.
    JsonValue cold =
        io::loadJsonFile((dir / "t1/batch_stats.json").string());
    JsonValue warm =
        io::loadJsonFile((dir / "warm/batch_stats.json").string());
    EXPECT_EQ(cold.at("version").asInt(), 3);
    EXPECT_EQ(cold.at("summary").at("cache_hits").asInt(), 0);
    EXPECT_EQ(warm.at("summary").at("cache_hits").asInt(),
              warm.at("summary").at("inputs").asInt());
    EXPECT_GT(warm.at("summary").at("inputs").asInt(), 0);

    // The v4 report keys rows "<name>:<mapping>" and carries the
    // paper's recorded outcomes for the corpus.
    JsonValue doc = JsonValue::parse(report);
    EXPECT_EQ(doc.at("format").asString(), "hatt-batch-report");
    EXPECT_EQ(doc.at("version").asInt(), 4);
    // v4 additions: build provenance + the deterministic workload
    // mirror (parse./preprocess. counters only, so the byte-compares
    // above stay valid across threads and cache temperature).
    EXPECT_FALSE(doc.at("build").at("git_sha").asString().empty());
    EXPECT_GT(doc.at("metrics")
                  .at("deterministic")
                  .at("parse.files")
                  .asInt(),
              0);
    EXPECT_EQ(doc.at("summary").at("failed").asInt(), 0);
    bool saw_h2 = false;
    for (const JsonValue &rec : doc.at("inputs").asArray()) {
        EXPECT_EQ(rec.at("status").asString(), "ok");
        EXPECT_EQ(rec.at("key").asString(),
                  rec.at("name").asString() + ":" +
                      rec.at("mapping").asString());
        if (rec.at("name").asString() == "h2.ops") {
            saw_h2 = true;
            EXPECT_EQ(rec.at("key").asString(), "h2.ops:hatt");
            EXPECT_EQ(rec.at("num_qubits").asInt(), 4);
            EXPECT_EQ(rec.at("pauli_weight").asInt(), 32);
        }
    }
    EXPECT_TRUE(saw_h2);

    // Per-item artifacts are the `hattc compile` set under the
    // <name>:<mapping> key, byte-identical between the thread counts.
    const std::string t1_qubit = slurp(dir / "t1/h2.ops:hatt/h2.qubit.json");
    ASSERT_FALSE(t1_qubit.empty());
    EXPECT_EQ(t1_qubit, slurp(dir / "t4/h2.ops:hatt/h2.qubit.json"));

    // The shared cache kept a consistent index; a gc pass preserves
    // consistency (nothing is stale yet, so nothing is evicted).
    std::string text;
    EXPECT_EQ(run({"cache", "list", cache, "--check"}, &text), 0) << text;
    EXPECT_EQ(run({"cache", "gc", cache, "--max-age", "86400"}, &text),
              0);
    EXPECT_EQ(run({"cache", "list", cache, "--check"}, &text), 0) << text;
    fs::remove_all(dir);
}

TEST(Hattc, BatchManifestSelectsInputsAndPerLineMappings)
{
    fs::path dir = scratchDir("manifest");
    const std::string manifest = (dir / "corpus.txt").string();
    {
        std::ofstream os(manifest);
        os << "# corpus: one path per line, optional mapping kind\n"
           << fs::absolute(dataFile("h2.ops")).string() << " jw\n"
           << "\n"
           << fs::absolute(dataFile("eq3.ops")).string() << "\n";
    }
    std::string text;
    ASSERT_EQ(run({"batch", manifest, "--mapping", "btt", "-o",
                   (dir / "out").string()},
                  &text),
              0)
        << text;

    JsonValue doc =
        io::loadJsonFile((dir / "out/batch_report.json").string());
    const JsonValue &inputs = doc.at("inputs");
    ASSERT_EQ(inputs.size(), 2u);
    // Sorted by (name, mapping): eq3.ops (default kind from --mapping)
    // then h2.ops (per-line override).
    EXPECT_EQ(inputs.at(size_t{0}).at("key").asString(), "eq3.ops:btt");
    EXPECT_EQ(inputs.at(size_t{0}).at("mapping").asString(), "btt");
    EXPECT_EQ(inputs.at(size_t{1}).at("key").asString(), "h2.ops:jw");
    EXPECT_EQ(inputs.at(size_t{1}).at("mapping").asString(), "jw");
    EXPECT_EQ(inputs.at(size_t{1}).at("num_qubits").asInt(), 4);

    // Relative manifest paths resolve against the manifest's directory.
    fs::copy_file(dataFile("eq3.ops"), dir / "local.ops");
    {
        std::ofstream os(manifest, std::ios::trunc);
        os << "local.ops\n";
    }
    ASSERT_EQ(run({"batch", manifest, "-o", (dir / "out2").string()},
                  &text),
              0)
        << text;
    fs::remove_all(dir);
}

TEST(Hattc, BatchComparesMappingKindsOnOneInput)
{
    // The acceptance pin: ONE batch run compiles the same input under
    // several mapping kinds, with distinct name:mapping report rows.
    fs::path dir = scratchDir("fanout");
    const std::string manifest = (dir / "corpus.txt").string();
    {
        std::ofstream os(manifest);
        os << fs::absolute(dataFile("h2.ops")).string()
           << " hatt,jw,btt\n";
    }
    std::string text;
    ASSERT_EQ(run({"batch", manifest, "-o", (dir / "out").string()},
                  &text),
              0)
        << text;

    JsonValue doc =
        io::loadJsonFile((dir / "out/batch_report.json").string());
    const JsonValue &inputs = doc.at("inputs");
    ASSERT_EQ(inputs.size(), 3u);
    // Rows sorted by (name, mapping); every kind maps the same content.
    EXPECT_EQ(inputs.at(size_t{0}).at("key").asString(), "h2.ops:btt");
    EXPECT_EQ(inputs.at(size_t{1}).at("key").asString(), "h2.ops:hatt");
    EXPECT_EQ(inputs.at(size_t{2}).at("key").asString(), "h2.ops:jw");
    const std::string hash =
        inputs.at(size_t{1}).at("content_hash").asString();
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(inputs.at(i).at("status").asString(), "ok");
        EXPECT_EQ(inputs.at(i).at("content_hash").asString(), hash);
        EXPECT_EQ(inputs.at(i).at("num_qubits").asInt(), 4);
    }
    // The kinds genuinely differ: HATT achieves the paper's weight 32,
    // and each kind wrote its own artifact set.
    EXPECT_EQ(inputs.at(size_t{1}).at("pauli_weight").asInt(), 32);
    EXPECT_TRUE(fs::exists(dir / "out/h2.ops:hatt/h2.qubit.json"));
    EXPECT_TRUE(fs::exists(dir / "out/h2.ops:jw/h2.qubit.json"));
    EXPECT_TRUE(fs::exists(dir / "out/h2.ops:btt/h2.qubit.json"));

    // --mapping with a comma list fans a whole directory the same way.
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    ASSERT_EQ(run({"batch", corpus.string(), "--mapping", "jw,bk", "-o",
                   (dir / "out2").string()},
                  &text),
              0)
        << text;
    JsonValue doc2 =
        io::loadJsonFile((dir / "out2/batch_report.json").string());
    ASSERT_EQ(doc2.at("inputs").size(), 2u);
    EXPECT_EQ(doc2.at("inputs").at(size_t{0}).at("key").asString(),
              "eq3.ops:bk");
    EXPECT_EQ(doc2.at("inputs").at(size_t{1}).at("key").asString(),
              "eq3.ops:jw");
    fs::remove_all(dir);
}

TEST(Hattc, BatchJobsCapIsDeterministicAndScoped)
{
    // --jobs layers a per-invocation worker cap over HATT_THREADS via
    // setParallelThreads() scoping: reports are byte-identical for
    // jobs ∈ {1, 4} and the pool config is restored afterwards.
    fs::path dir = scratchDir("jobs");
    setParallelThreads(2);
    ASSERT_EQ(run({"batch", dataDir(), "--jobs", "1", "-o",
                   (dir / "j1").string()}),
              0);
    EXPECT_EQ(parallelThreads(), 2u);
    ASSERT_EQ(run({"batch", dataDir(), "--jobs", "4", "-o",
                   (dir / "j4").string()}),
              0);
    EXPECT_EQ(parallelThreads(), 2u);
    setParallelThreads(0);

    const std::string report = slurp(dir / "j1/batch_report.json");
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report, slurp(dir / "j4/batch_report.json"));
    fs::remove_all(dir);
}

TEST(Hattc, BatchDiscoversRecursivelyAndFiltersWithGlob)
{
    fs::path dir = scratchDir("glob");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus / "sub");
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    fs::copy_file(dataFile("h2.fcidump"), corpus / "h2.fcidump");
    fs::copy_file(dataFile("h2.ops"), corpus / "sub/nested.ops");

    // Recursive discovery picks up the nested input, named by its
    // root-relative path.
    std::string text;
    ASSERT_EQ(run({"batch", corpus.string(), "--mapping", "jw", "-o",
                   (dir / "all").string()},
                  &text),
              0)
        << text;
    JsonValue all =
        io::loadJsonFile((dir / "all/batch_report.json").string());
    ASSERT_EQ(all.at("inputs").size(), 3u);
    EXPECT_EQ(all.at("inputs").at(size_t{2}).at("key").asString(),
              "sub/nested.ops:jw");
    EXPECT_TRUE(
        fs::exists(dir / "all/sub/nested.ops:jw/nested.qubit.json"));

    // Same-named inputs in different subdirectories are distinct work
    // items, not false duplicates (names are root-relative).
    fs::create_directories(corpus / "sub2");
    fs::copy_file(dataFile("h2.ops"), corpus / "sub2/nested.ops");
    ASSERT_EQ(run({"batch", corpus.string(), "--mapping", "jw", "-o",
                   (dir / "twins").string()},
                  &text),
              0)
        << text;
    JsonValue twins =
        io::loadJsonFile((dir / "twins/batch_report.json").string());
    ASSERT_EQ(twins.at("inputs").size(), 4u);
    EXPECT_EQ(twins.at("summary").at("failed").asInt(), 0);
    fs::remove_all(corpus / "sub2");

    // A filename glob narrows to the .ops inputs.
    ASSERT_EQ(run({"batch", corpus.string(), "--mapping", "jw", "--glob",
                   "*.ops", "-o", (dir / "ops").string()},
                  &text),
              0)
        << text;
    JsonValue ops =
        io::loadJsonFile((dir / "ops/batch_report.json").string());
    ASSERT_EQ(ops.at("inputs").size(), 2u);
    EXPECT_EQ(ops.at("inputs").at(size_t{0}).at("key").asString(),
              "eq3.ops:jw");
    EXPECT_EQ(ops.at("inputs").at(size_t{1}).at("key").asString(),
              "sub/nested.ops:jw");

    // A '/'-pattern matches the path relative to the scanned root.
    ASSERT_EQ(run({"batch", corpus.string(), "--mapping", "jw", "--glob",
                   "sub/*", "-o", (dir / "sub").string()},
                  &text),
              0)
        << text;
    JsonValue sub =
        io::loadJsonFile((dir / "sub/batch_report.json").string());
    ASSERT_EQ(sub.at("inputs").size(), 1u);
    EXPECT_EQ(sub.at("inputs").at(size_t{0}).at("key").asString(),
              "sub/nested.ops:jw");

    // No matches at all is an input error, and globs cannot apply to
    // manifests.
    EXPECT_EQ(run({"batch", corpus.string(), "--glob", "*.nope", "-o",
                   (dir / "none").string()},
                  &text),
              65);
    const std::string manifest = (dir / "m.txt").string();
    {
        std::ofstream os(manifest);
        os << fs::absolute(corpus / "eq3.ops").string() << "\n";
    }
    EXPECT_EQ(run({"batch", manifest, "--glob", "*.ops", "-o",
                   (dir / "mf").string()},
                  &text),
              65);
    EXPECT_NE(text.find("manifest"), std::string::npos) << text;
    fs::remove_all(dir);
}

TEST(Hattc, BatchForcedFormatOnlyAppliesToExtensionlessInputs)
{
    // Regression: one forced --format used to be applied to EVERY
    // input, silently misparsing mixed .ops/.fcidump corpora. The
    // extension now wins; the forced format covers only inputs without
    // a recognized extension.
    fs::path dir = scratchDir("format");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    fs::copy_file(dataFile("h2.fcidump"), corpus / "h2.fcidump");

    std::string text;
    ASSERT_EQ(run({"batch", corpus.string(), "--format", "ops", "-o",
                   (dir / "out").string()},
                  &text),
              0)
        << text;
    JsonValue doc =
        io::loadJsonFile((dir / "out/batch_report.json").string());
    ASSERT_EQ(doc.at("inputs").size(), 2u);
    EXPECT_EQ(doc.at("summary").at("failed").asInt(), 0);
    EXPECT_EQ(doc.at("inputs").at(size_t{0}).at("input_format").asString(),
              "ops");
    EXPECT_EQ(doc.at("inputs").at(size_t{1}).at("input_format").asString(),
              "fcidump");

    // An extension-less input is exactly what the forced format is for:
    // a manifest can name it and --format fcidump parses it as FCIDUMP.
    fs::copy_file(dataFile("h2.fcidump"), dir / "bare");
    const std::string manifest = (dir / "m.txt").string();
    {
        std::ofstream os(manifest);
        os << "bare jw\n";
    }
    ASSERT_EQ(run({"batch", manifest, "--format", "fcidump", "-o",
                   (dir / "out2").string()},
                  &text),
              0)
        << text;
    JsonValue doc2 =
        io::loadJsonFile((dir / "out2/batch_report.json").string());
    EXPECT_EQ(
        doc2.at("inputs").at(size_t{0}).at("input_format").asString(),
        "fcidump");
    fs::remove_all(dir);
}

TEST(Hattc, MappingsSubcommandListsTheRegistry)
{
    // `hattc mappings` and hattcMappingKinds() read the same
    // MapperRegistry — the CLI's single source of truth.
    std::string text;
    ASSERT_EQ(run({"mappings"}, &text), 0);
    for (const std::string &kind : io::hattcMappingKinds())
        EXPECT_NE(text.find(kind + "\n"), std::string::npos) << kind;

    ASSERT_EQ(run({"mappings", "--json"}, &text), 0);
    JsonValue doc = JsonValue::parse(text);
    const JsonValue &arr = doc.at("mappings");
    ASSERT_EQ(arr.size(), io::hattcMappingKinds().size());
    for (size_t i = 0; i < arr.size(); ++i) {
        const JsonValue &rec = arr.at(i);
        EXPECT_EQ(rec.at("name").asString(), io::hattcMappingKinds()[i]);
        EXPECT_TRUE(rec.at("deterministic").asBool());
        EXPECT_TRUE(rec.at("cacheable").asBool());
    }
    // Capability spot checks: hatt is Hamiltonian-adaptive and emits a
    // tree; jw is modes-only.
    for (const JsonValue &rec : arr.asArray()) {
        if (rec.at("name").asString() == "hatt") {
            EXPECT_TRUE(rec.at("needs_hamiltonian").asBool());
            EXPECT_TRUE(rec.at("produces_tree").asBool());
            EXPECT_TRUE(rec.at("vacuum_preserving").asBool());
        }
        if (rec.at("name").asString() == "jw")
            EXPECT_FALSE(rec.at("needs_hamiltonian").asBool());
        if (rec.at("name").asString() == "hatt-unopt")
            EXPECT_FALSE(rec.at("vacuum_preserving").asBool());
    }
}

TEST(Hattc, BatchIsolatesFailingInputsAndFlagsDuplicates)
{
    fs::path dir = scratchDir("batchbad");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    {
        std::ofstream os(corpus / "bad.ops");
        os << "modes 2\n1.0 [0^ 1\n"; // unterminated bracket
    }

    // One malformed input fails, the good one still compiles: exit 1.
    std::string text;
    EXPECT_EQ(run({"batch", corpus.string(), "-o",
                   (dir / "out").string()},
                  &text),
              1)
        << text;
    JsonValue doc =
        io::loadJsonFile((dir / "out/batch_report.json").string());
    EXPECT_EQ(doc.at("summary").at("failed").asInt(), 1);
    EXPECT_EQ(doc.at("summary").at("succeeded").asInt(), 1);
    const JsonValue &bad = doc.at("inputs").at(size_t{0});
    EXPECT_EQ(bad.at("key").asString(), "bad.ops:hatt");
    EXPECT_EQ(bad.at("status").asString(), "error");
    EXPECT_NE(bad.at("error").asString().find("line 2"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(dir / "out/eq3.ops:hatt/eq3.qubit.json"));

    // Two manifest entries with the same (file name, mapping) pair
    // collide on the per-item output directory: the later one is
    // reported, not raced — including case-variant spellings of one
    // kind ("HATT" vs default "hatt"), which canonicalize to one key.
    const std::string manifest = (dir / "dup.txt").string();
    {
        std::ofstream os(manifest);
        os << fs::absolute(corpus / "eq3.ops").string() << " HATT\n"
           << fs::absolute(dataFile("eq3.ops")).string() << "\n";
    }
    EXPECT_EQ(run({"batch", manifest, "-o", (dir / "out2").string()},
                  &text),
              1);
    JsonValue dup =
        io::loadJsonFile((dir / "out2/batch_report.json").string());
    EXPECT_EQ(dup.at("summary").at("succeeded").asInt(), 1);
    EXPECT_NE(dup.at("inputs")
                  .at(size_t{1})
                  .at("error")
                  .asString()
                  .find("duplicate"),
              std::string::npos);

    // Library-level run() guards too: NON-adjacent duplicates in an
    // unsorted caller-supplied list must not race on one output dir.
    io::BatchOptions bopt;
    bopt.outDir = (dir / "out3").string();
    io::BatchCompiler compiler(bopt);
    auto item = [&](const std::string &p) {
        io::BatchItem it;
        it.path = p;
        it.name = fs::path(p).filename().string();
        it.mapping = "jw";
        return it;
    };
    auto results = compiler.run({item(dataFile("eq3.ops")),
                                 item(dataFile("h2.ops")),
                                 item(dataFile("eq3.ops"))});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[1].ok);
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("duplicate"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Hattc, CacheListIsReadOnlyAndGcRepairsDrift)
{
    fs::path dir = scratchDir("cachelist");
    const std::string cache = (dir / "cache").string();
    ASSERT_EQ(run({"compile", dataFile("eq3.ops"), "--cache", cache,
                   "-o", (dir / "out").string()}),
              0);
    std::string text;
    ASSERT_EQ(run({"cache", "list", cache, "--check"}, &text), 0) << text;

    // Delete the entry behind the index's back: --check reports drift —
    // and keeps reporting it, because `cache list` is read-only and must
    // not repair the inconsistency it just flagged.
    for (const auto &de : fs::directory_iterator(dir / "cache"))
        if (de.path().filename() != "index.json")
            fs::remove(de.path());
    EXPECT_EQ(run({"cache", "list", cache, "--check"}, &text), 1);
    EXPECT_EQ(run({"cache", "list", cache, "--check"}, &text), 1);

    // A gc pass reconciles; the check goes green.
    EXPECT_EQ(run({"cache", "gc", cache}, &text), 0);
    EXPECT_EQ(run({"cache", "list", cache, "--check"}, &text), 0) << text;
    fs::remove_all(dir);
}

/** A 5-mode input: big enough that fh-exact's exhaustive scan (11!
    label permutations x hundreds of shapes) cannot finish inside any
    sub-second budget, small enough that every other mapper is
    instant. */
std::string
writeSlowInput(const fs::path &dir)
{
    const std::string path = (dir / "slow5.ops").string();
    std::ofstream os(path);
    os << "modes 5\n";
    for (int i = 0; i < 5; ++i)
        os << "1.0 [" << i << "^ " << i << "]\n";
    for (int i = 0; i < 4; ++i)
        os << "0.5 [" << i << "^ " << (i + 1) << "]\n";
    return path;
}

TEST(Hattc, TimeoutExpiresAndFallbackDegrades)
{
    fs::path dir = scratchDir("timeout");
    const std::string slow = writeSlowInput(dir);
    std::string text;

    // Budget expiry without --fallback: EX_TEMPFAIL, and the
    // diagnostic names the deadline.
    EXPECT_EQ(run({"compile", slow, "--mapping", "fh-exact", "--timeout",
                   "0.05", "-o", (dir / "none").string()},
                  &text),
              75);
    EXPECT_NE(text.find("deadline"), std::string::npos) << text;

    // --fallback degrades to the deterministic btt construction
    // instead: exit 0, artifacts on disk, degraded flagged in both the
    // human output and the metrics record.
    ASSERT_EQ(run({"compile", slow, "--mapping", "fh-exact", "--timeout",
                   "0.05", "--fallback", "-o", (dir / "fb").string()},
                  &text),
              0)
        << text;
    EXPECT_NE(text.find("[degraded to btt"), std::string::npos) << text;
    EXPECT_TRUE(fs::exists(dir / "fb/slow5.qubit.json"));
    JsonValue metrics =
        io::loadJsonFile((dir / "fb/slow5.metrics.json").string());
    EXPECT_TRUE(
        metrics.at("records").at(size_t{0}).at("degraded").asBool());

    // An ample budget completes normally and records degraded: false.
    ASSERT_EQ(run({"compile", dataFile("eq3.ops"), "--mapping", "hatt",
                   "--timeout", "600", "-o", (dir / "ok").string()},
                  &text),
              0)
        << text;
    JsonValue ok_metrics =
        io::loadJsonFile((dir / "ok/eq3.metrics.json").string());
    EXPECT_FALSE(
        ok_metrics.at("records").at(size_t{0}).at("degraded").asBool());

    // Budget option validation.
    EXPECT_EQ(run({"compile", slow, "--timeout", "0"}, &text), 64);
    EXPECT_EQ(run({"compile", slow, "--timeout", "-1"}, &text), 64);
    EXPECT_EQ(run({"compile", slow, "--timeout", "nope"}, &text), 64);
    EXPECT_EQ(run({"stats", slow, "--timeout", "1"}, &text), 64);
    EXPECT_EQ(run({"mappings", "--fallback"}, &text), 64);
    fs::remove_all(dir);
}

TEST(Hattc, InputCapsRejectOversizedInputs)
{
    std::string text;
    const std::string eq3 = dataFile("eq3.ops");
    const std::string h2 = dataFile("h2.ops");

    // Term cap: eq3 has more than one term.
    EXPECT_EQ(run({"stats", eq3, "--max-terms", "1"}, &text), 65);
    EXPECT_NE(text.find("term cap"), std::string::npos) << text;
    // Mode cap: h2 uses 4 modes.
    EXPECT_EQ(run({"stats", h2, "--max-modes", "2"}, &text), 65);
    EXPECT_NE(text.find("mode cap"), std::string::npos) << text;
    // The FCIDUMP parser enforces the same caps (2*NORB vs the mode
    // cap, integral lines vs the term cap).
    const std::string fci = dataFile("h2.fcidump");
    EXPECT_EQ(run({"stats", fci, "--max-modes", "2"}, &text), 65);
    EXPECT_NE(text.find("mode cap"), std::string::npos) << text;
    EXPECT_EQ(run({"stats", fci, "--max-terms", "2"}, &text), 65);
    // Generous caps pass untouched.
    EXPECT_EQ(run({"stats", eq3, "--max-terms", "100000", "--max-modes",
                   "64"},
                  &text),
              0)
        << text;
    // Cap option validation.
    EXPECT_EQ(run({"stats", eq3, "--max-terms", "0"}, &text), 64);
    EXPECT_EQ(run({"stats", eq3, "--max-modes", "0"}, &text), 64);
    EXPECT_EQ(run({"verify", "x.json", "--max-terms", "5"}, &text), 64);
}

TEST(Hattc, BatchTimeoutAndDegradedStatuses)
{
    fs::path dir = scratchDir("batchtimeout");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    writeSlowInput(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    const std::string manifest = (dir / "m.txt").string();
    {
        std::ofstream os(manifest);
        os << "corpus/eq3.ops hatt\n";
        os << "corpus/slow5.ops fh-exact\n";
    }
    std::string text;

    // Without --fallback the slow item times out: its own status is
    // "timeout", the batch exits 1, and the healthy item is untouched.
    EXPECT_EQ(run({"batch", manifest, "--timeout", "0.1", "-o",
                   (dir / "t").string()},
                  &text),
              1);
    EXPECT_NE(text.find("TIME"), std::string::npos) << text;
    JsonValue report =
        io::loadJsonFile((dir / "t/batch_report.json").string());
    ASSERT_EQ(report.at("inputs").size(), 2u);
    EXPECT_EQ(report.at("inputs").at(size_t{0}).at("key").asString(),
              "eq3.ops:hatt");
    EXPECT_EQ(report.at("inputs").at(size_t{0}).at("status").asString(),
              "ok");
    EXPECT_EQ(report.at("inputs").at(size_t{1}).at("key").asString(),
              "slow5.ops:fh-exact");
    EXPECT_EQ(report.at("inputs").at(size_t{1}).at("status").asString(),
              "timeout");
    EXPECT_EQ(report.at("summary").at("failed").asInt(), 1);
    EXPECT_EQ(report.at("summary").at("degraded").asInt(), 0);

    // With --fallback the same corpus completes: the slow item degrades
    // to btt, counts as succeeded, and the batch exits 0.
    EXPECT_EQ(run({"batch", manifest, "--timeout", "0.1", "--fallback",
                   "-o", (dir / "fb").string()},
                  &text),
              0)
        << text;
    EXPECT_NE(text.find("[degraded]"), std::string::npos) << text;
    JsonValue fb =
        io::loadJsonFile((dir / "fb/batch_report.json").string());
    EXPECT_EQ(fb.at("inputs").at(size_t{1}).at("status").asString(),
              "degraded");
    EXPECT_EQ(fb.at("summary").at("failed").asInt(), 0);
    EXPECT_EQ(fb.at("summary").at("degraded").asInt(), 1);
    // Degraded items still publish their artifacts.
    EXPECT_TRUE(
        fs::exists(dir / "fb/slow5.ops:fh-exact/slow5.qubit.json"));
    fs::remove_all(dir);
}

TEST(Hattc, ReportsUsageAndInputErrors)
{
    std::string text;
    EXPECT_EQ(run({}, &text), 64);
    EXPECT_NE(text.find("usage:"), std::string::npos);
    EXPECT_EQ(run({"frobnicate", "x"}, &text), 64);
    EXPECT_EQ(run({"map"}, &text), 64);
    EXPECT_EQ(run({"map", "in.ops", "--mapping", "nope"}, &text), 64);
    EXPECT_EQ(run({"map", "in.ops", "--format", "nope"}, &text), 64);
    EXPECT_EQ(run({"map", "/nonexistent/input.ops"}, &text), 65);
    EXPECT_NE(text.find("cannot open"), std::string::npos) << text;

    // Unknown mapping kinds name the registry's full kind list, so the
    // CLI diagnostic and `hattc mappings` cannot drift apart.
    EXPECT_EQ(run({"map", "in.ops", "--mapping", "nope"}, &text), 64);
    for (const std::string &kind : io::hattcMappingKinds())
        EXPECT_NE(text.find(kind), std::string::npos) << kind;
    // Registry lookup is case-insensitive, so display labels work too.
    EXPECT_EQ(run({"map", "/nonexistent/input.ops", "--mapping", "JW"},
                  &text),
              65);
    EXPECT_NE(text.find("cannot open"), std::string::npos) << text;

    // Batch-only options and the comma-list validation.
    EXPECT_EQ(run({"map", "in.ops", "--jobs", "2"}, &text), 64);
    EXPECT_EQ(run({"map", "in.ops", "--glob", "*.ops"}, &text), 64);
    EXPECT_EQ(run({"map", "in.ops", "--json"}, &text), 64);
    EXPECT_EQ(run({"batch", "d", "--jobs", "0"}, &text), 64);
    EXPECT_EQ(run({"batch", "d", "--jobs", "nope"}, &text), 64);
    EXPECT_EQ(run({"batch", "d", "--glob", ""}, &text), 64);
    EXPECT_EQ(run({"batch", "d", "--mapping", "hatt,,jw"}, &text), 64);
    EXPECT_NE(text.find("empty mapping kind"), std::string::npos) << text;
    EXPECT_EQ(run({"batch", "d", "--mapping", "hatt,frobnicate"}, &text),
              64);
    EXPECT_EQ(run({"mappings", "extra"}, &text), 64);
    EXPECT_EQ(run({"compile", "in.ops", "--mapping", "jw,bk"}, &text),
              64);

    // Batch and cache command-line validation.
    EXPECT_EQ(run({"batch"}, &text), 64);
    EXPECT_EQ(run({"batch", "/nonexistent/corpus"}, &text), 65);
    EXPECT_NE(text.find("cannot open batch manifest"),
              std::string::npos)
        << text;
    EXPECT_EQ(run({"cache"}, &text), 64);
    EXPECT_EQ(run({"cache", "frobnicate", "d"}, &text), 64);
    EXPECT_EQ(run({"cache", "gc"}, &text), 64);
    EXPECT_EQ(run({"cache", "gc", "d", "--max-bytes", "nope"}, &text),
              64);
    // A negative value must be a usage error, not a 2^64 wraparound
    // that silently evicts everything (or nothing).
    EXPECT_EQ(run({"cache", "gc", "d", "--max-age", "-5"}, &text), 64);
    EXPECT_NE(text.find("non-negative"), std::string::npos) << text;
    // 2^63 would wrap negative through the int64 cast: same hazard.
    EXPECT_EQ(run({"cache", "gc", "d", "--max-age",
                   "9223372036854775808"},
                  &text),
              64);
    EXPECT_EQ(run({"cache", "gc", "d", "--check"}, &text), 64);
    EXPECT_EQ(run({"compile", "in.ops", "--max-age", "5"}, &text), 64);
    // A typo'd cache directory is an error, not an empty healthy cache.
    EXPECT_EQ(run({"cache", "gc", "/nonexistent/cache"}, &text), 65);
    EXPECT_NE(text.find("does not exist"), std::string::npos) << text;
    EXPECT_EQ(run({"cache", "list", "/nonexistent/cache"}, &text), 65);

    // A manifest line with an unknown mapping kind is a ParseError with
    // its line number.
    fs::path mdir = scratchDir("badmanifest");
    const std::string manifest = (mdir / "m.txt").string();
    {
        std::ofstream os(manifest);
        os << "whatever.ops frobnicate\n";
    }
    EXPECT_EQ(run({"batch", manifest}, &text), 65);
    EXPECT_NE(text.find("line 1"), std::string::npos) << text;
    fs::remove_all(mdir);

    // Malformed input file -> parse diagnostics, exit 65 (EX_DATAERR).
    fs::path dir = scratchDir("badinput");
    const std::string bad = (dir / "bad.ops").string();
    {
        std::ofstream os(bad);
        os << "modes 2\n1.0 [0^ 1\n";
    }
    EXPECT_EQ(run({"compile", bad}, &text), 65);
    EXPECT_NE(text.find("line 2"), std::string::npos) << text;

    // A term with > 30 ladder operators must surface as a clean exit-65
    // diagnostic on the caller thread — never as an exception thrown on
    // a pool worker mid-flush (which would terminate the process).
    const std::string wide = (dir / "wide.ops").string();
    {
        std::ofstream os(wide);
        os << "1.0 [";
        for (int i = 0; i < 31; ++i)
            os << (i ? " " : "") << i << "^";
        os << "]\n";
    }
    setParallelThreads(4);
    EXPECT_EQ(run({"compile", wide}, &text), 65);
    setParallelThreads(0);
    EXPECT_NE(text.find("30 ladder operators"), std::string::npos)
        << text;
    fs::remove_all(dir);
}

TEST(Hattc, DevicesSubcommandListsTheRegistry)
{
    std::string text;
    ASSERT_EQ(run({"devices"}, &text), 0);
    for (const char *name : {"manhattan", "montreal", "sycamore"})
        EXPECT_NE(text.find(std::string(name) + "\n"), std::string::npos)
            << name;
    EXPECT_NE(text.find("parametric families:"), std::string::npos);
    EXPECT_NE(text.find("line:<n>"), std::string::npos);

    ASSERT_EQ(run({"devices", "--json"}, &text), 0);
    JsonValue doc = JsonValue::parse(text);
    const JsonValue &arr = doc.at("devices");
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr.at(0).at("name").asString(), "manhattan");
    EXPECT_EQ(arr.at(1).at("name").asString(), "montreal");
    EXPECT_EQ(arr.at(1).at("qubits").asInt(), 27);
    EXPECT_GT(arr.at(1).at("edges").asInt(), 0);
    EXPECT_FALSE(arr.at(1).at("family").asString().empty());
    EXPECT_EQ(arr.at(2).at("name").asString(), "sycamore");
    EXPECT_EQ(doc.at("parametric_families").size(), 3u);

    EXPECT_EQ(run({"devices", "extra"}, &text), 64);
}

TEST(Hattc, DeviceAwareCompileReportsRoutedCost)
{
    const std::string input = dataFile("h2.ops");
    fs::path dir = scratchDir("device");

    // A device-aware kind compiles and the driver reports the routed
    // cost; the device name echoes back in its canonical spelling.
    std::string text;
    ASSERT_EQ(run({"compile", input, "--mapping", "treespilation",
                   "--device", "Montreal", "-o",
                   (dir / "ts").string()},
                  &text),
              0)
        << text;
    EXPECT_NE(text.find("device:       montreal -> "), std::string::npos)
        << text;
    EXPECT_NE(text.find("SWAPs inserted"), std::string::npos) << text;

    // Device-independent kinds accept --device too: they map
    // agnostically and pay whatever routing costs.
    ASSERT_EQ(run({"compile", input, "--mapping", "jw", "--device",
                   "line:8", "-o", (dir / "jw").string()},
                  &text),
              0)
        << text;
    EXPECT_NE(text.find("device:       line:8 -> "), std::string::npos)
        << text;
    // Without --device the line is absent entirely.
    ASSERT_EQ(run({"compile", input, "--mapping", "jw", "-o",
                   (dir / "plain").string()},
                  &text),
              0);
    EXPECT_EQ(text.find("device:"), std::string::npos) << text;
    fs::remove_all(dir);
}

TEST(Hattc, DeviceUsageErrorsAreDiagnosedAtParseTime)
{
    std::string text;
    // Unknown device: a command-line error (64) naming the valid
    // devices — before any input file is touched.
    EXPECT_EQ(run({"compile", "in.ops", "--device", "bogus"}, &text), 64);
    EXPECT_NE(text.find("montreal"), std::string::npos) << text;
    EXPECT_NE(text.find("line:<n>"), std::string::npos) << text;

    // A device-aware kind without a target cannot build.
    EXPECT_EQ(run({"compile", "in.ops", "--mapping", "bonsai"}, &text),
              64);
    EXPECT_NE(text.find("needs --device"), std::string::npos) << text;
    EXPECT_EQ(
        run({"map", "in.ops", "--mapping", "treespilation"}, &text), 64);

    // --device is a compile-path option.
    EXPECT_EQ(run({"mappings", "--device", "montreal"}, &text), 64);
    EXPECT_EQ(run({"devices", "--device", "montreal"}, &text), 64);
}

TEST(Hattc, MappingsAdvertiseDeviceAwareness)
{
    std::string text;
    ASSERT_EQ(run({"mappings", "--json"}, &text), 0);
    JsonValue doc = JsonValue::parse(text);
    bool saw_bonsai = false, saw_jw = false;
    for (const JsonValue &rec : doc.at("mappings").asArray()) {
        const std::string name = rec.at("name").asString();
        if (name == "bonsai" || name == "treespilation") {
            EXPECT_TRUE(rec.at("device_aware").asBool()) << name;
            saw_bonsai = saw_bonsai || name == "bonsai";
        } else {
            EXPECT_FALSE(rec.at("device_aware").asBool()) << name;
            saw_jw = saw_jw || name == "jw";
        }
    }
    EXPECT_TRUE(saw_bonsai);
    EXPECT_TRUE(saw_jw);

    ASSERT_EQ(run({"mappings"}, &text), 0);
    EXPECT_NE(text.find("device-aware"), std::string::npos);
}

TEST(Hattc, DeviceAwareBatchEmitsRoutedCostBlock)
{
    fs::path dir = scratchDir("devicebatch");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    fs::copy_file(dataFile("h2.ops"), corpus / "h2.ops");

    std::string text;
    ASSERT_EQ(run({"batch", corpus.string(), "-o", (dir / "out").string(),
                   "--mapping", "jw,bonsai", "--device", "line:8"},
                  &text),
              0)
        << text;

    JsonValue doc =
        JsonValue::parse(slurp(dir / "out/batch_report.json"));
    size_t rows = 0;
    for (const JsonValue &rec : doc.at("inputs").asArray()) {
        ++rows;
        ASSERT_EQ(rec.at("status").asString(), "ok")
            << rec.at("key").asString();
        EXPECT_EQ(rec.at("device").asString(), "line:8");
        EXPECT_GT(rec.at("routed_cnots").asInt(), 0);
        EXPECT_GT(rec.at("routed_depth").asInt(), 0);
    }
    EXPECT_EQ(rows, 4u); // 2 inputs x {jw, bonsai}
    fs::remove_all(dir);
}

// The Status -> sysexits mapping, normatively tabled in
// docs/PROTOCOL.md ("Status codes") and implemented by
// io/cli.hpp's exitCodeForStatus. Pinned: scripts and CI match on
// these exact codes, so a remap is a breaking change to the doc too.
TEST(Hattc, ExitCodeTableIsPinned)
{
    using Code = Status::Code;
    EXPECT_EQ(io::exitCodeForStatus(Code::Ok), 0);
    EXPECT_EQ(io::exitCodeForStatus(Code::InvalidArgument), 65);
    EXPECT_EQ(io::exitCodeForStatus(Code::NotFound), 65);
    EXPECT_EQ(io::exitCodeForStatus(Code::DeadlineExceeded), 75);
    EXPECT_EQ(io::exitCodeForStatus(Code::Cancelled), 75);
    EXPECT_EQ(io::exitCodeForStatus(Code::AlreadyExists), 70);
    EXPECT_EQ(io::exitCodeForStatus(Code::Internal), 70);
    EXPECT_EQ(io::exitCodeForStatus(Code::ResourceExhausted), 70);
    EXPECT_EQ(io::kExitFailedCheck, 1);
    EXPECT_EQ(io::kExitUsage, 64);
}

} // namespace
} // namespace hatt
