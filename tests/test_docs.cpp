/**
 * @file
 * Every fenced ```json block in the markdown files under docs/, checked
 * through the wire readers and writers themselves, so the implementation
 * stays the only definition of the formats:
 *
 *  - hatt-compile-request / -response and hatt-status blocks are read by
 *    their *FromJson reader and written back by their *ToJson writer;
 *    the result must carry the same keys and values, so a missing,
 *    unknown, renamed or mistyped field, a newer version or a
 *    non-canonical value all fail;
 *  - hatt-stats blocks go through the metrics-snapshot checker and are
 *    rewritten by statsToJson (build provenance compared by shape);
 *  - {"op": ...} blocks are answered by an in-process Server, and an
 *    error reply fails;
 *  - a documented compile response for a file of examples/data/ must be
 *    what compiling the request documented just before it returns, up
 *    to the volatile fields (docs/PROTOCOL.md's dagger rule).
 *
 * Blocks without an envelope or an op only need to parse.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/server.hpp"
#include "io/service.hpp"
#include "support.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::JsonValue;
using io::ParseError;

/** One fenced json block: the 1-based line of its first body line. */
struct JsonBlock
{
    int line = 0;
    std::string text;
};

std::vector<JsonBlock>
extractJsonBlocks(const std::string &markdown)
{
    std::vector<JsonBlock> blocks;
    std::istringstream in(markdown);
    std::string line;
    bool inside = false;
    for (int number = 1; std::getline(in, line); ++number) {
        std::string fence = line;
        fence.erase(fence.find_last_not_of(" \t\r") + 1);
        if (!inside && fence == "```json") {
            blocks.push_back({number + 1, ""});
            inside = true;
        } else if (inside && fence == "```") {
            inside = false;
        } else if (inside) {
            blocks.back().text += line + "\n";
        }
    }
    return blocks;
}

/**
 * The first difference between @p want and @p got as a message, or ""
 * when they agree. Object members match by key in any order (field
 * order is not part of the protocol); other values compare by their
 * JSON text. Members named in @p exempt must be present on both sides
 * but may differ.
 */
std::string
jsonDiff(const JsonValue &want, const JsonValue &got,
         const std::set<std::string> &exempt = {},
         const std::string &path = "")
{
    if (!want.isObject() || !got.isObject())
        return want.dump() == got.dump()
                   ? ""
                   : "'" + path + "': expected " + want.dump() +
                         ", found " + got.dump();
    const std::string prefix = path.empty() ? "" : path + ".";
    for (const auto &[key, value] : want.asObject()) {
        const JsonValue *other = got.find(key);
        if (!other)
            return "missing field '" + prefix + key + "'";
        if (exempt.count(key))
            continue;
        if (std::string d = jsonDiff(value, *other, exempt, prefix + key);
            !d.empty())
            return d;
    }
    for (const auto &member : got.asObject())
        if (!want.find(member.first))
            return "unknown field '" + prefix + member.first + "'";
    return "";
}

/** The daemon's answer to control frame @p line: "" unless an error. */
std::string
controlReplyError(const std::string &line)
{
    io::Server server(io::ServerConfig{});
    const JsonValue reply = JsonValue::parse(server.handleFrame(line));
    if (const JsonValue *ok = reply.find("ok"); ok && !ok->asBool())
        return "the daemon rejects it: " + reply.at("message").asString();
    return "";
}

/** Why @p text is not a valid documented block, or "" when it is. */
std::string
validateBlock(const std::string &text)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const ParseError &e) {
        return std::string("does not parse: ") + e.what();
    }
    if (!doc.isObject())
        return "";
    try {
        const JsonValue *format = doc.find("format");
        if (!format)
            return doc.find("op") ? controlReplyError(text) : "";
        const std::string &name = format->asString();
        if (name == "hatt-compile-request")
            return jsonDiff(
                io::compileRequestToJson(io::compileRequestFromJson(doc)),
                doc);
        if (name == "hatt-compile-response")
            return jsonDiff(io::compileResponseToJson(
                                io::compileResponseFromJson(doc)),
                            doc);
        if (name == "hatt-status") {
            const JsonValue *op = doc.find("op");
            return jsonDiff(
                io::statusToJson(io::statusFromJson(doc),
                                 op ? op->asString().c_str() : nullptr),
                doc);
        }
        if (name == "hatt-stats") {
            metrics::Snapshot snap;
            if (std::string bad =
                    test::metricsSnapshotError(doc.at("metrics"), &snap);
                !bad.empty())
                return bad;
            // Provenance values belong to whichever build ran.
            const JsonValue build = io::buildInfoDocument();
            std::set<std::string> provenance;
            for (const auto &member : build.asObject())
                provenance.insert(member.first);
            return jsonDiff(io::statsToJson(snap), doc, provenance);
        }
        return "unknown format '" + name + "'";
    } catch (const ParseError &e) {
        return e.what();
    }
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<fs::path>
docFiles()
{
    std::vector<fs::path> files;
    for (const auto &entry :
         fs::directory_iterator(test::sourcePath("docs")))
        if (entry.path().extension() == ".md")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(Docs, EveryFencedJsonBlockRoundTripsThroughTheWireCode)
{
    size_t blocks = 0;
    for (const fs::path &file : docFiles()) {
        for (const JsonBlock &block : extractJsonBlocks(slurp(file))) {
            ++blocks;
            EXPECT_EQ(validateBlock(block.text), "")
                << file.filename().string() << ":" << block.line;
        }
    }
    EXPECT_GT(blocks, 0u) << "no fenced json blocks found";
}

TEST(Docs, DocumentedResponsesAreWhatTheirRequestCompilesTo)
{
    const fs::path out = fs::temp_directory_path() /
                         ("hatt_docs_test_" + std::to_string(::getpid()));
    fs::remove_all(out);
    std::set<std::string> samples;
    for (const auto &entry :
         fs::directory_iterator(test::sourcePath("examples/data")))
        samples.insert(entry.path().stem().string());

    io::CompilationService service({.memoryStore = false});
    const std::set<std::string> volatile_fields = {
        "seconds", "cache_seconds", "cache_hit", "cache_tier"};
    size_t checked = 0;
    for (const fs::path &file : docFiles()) {
        std::optional<JsonValue> request;
        for (const JsonBlock &block : extractJsonBlocks(slurp(file))) {
            const std::string where =
                file.filename().string() + ":" + std::to_string(block.line);
            const JsonValue doc = JsonValue::parse(block.text);
            const JsonValue *format =
                doc.isObject() ? doc.find("format") : nullptr;
            if (!format)
                continue;
            if (format->asString() == "hatt-compile-request")
                request = doc;
            if (format->asString() != "hatt-compile-response" ||
                !samples.count(doc.at("stem").asString()))
                continue;
            ASSERT_TRUE(request) << where << ": no request before it";
            io::CompileRequest req = io::compileRequestFromJson(*request);
            req.path = test::sourcePath(req.path);
            req.outDir = (out / req.outDir).string();
            StatusOr<io::CompileResponse> resp = service.compile(req);
            ASSERT_TRUE(resp.ok()) << where << ": "
                                   << resp.status().message();
            EXPECT_EQ(jsonDiff(io::compileResponseToJson(resp.value()), doc,
                               volatile_fields),
                      "")
                << where;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u) << "no documented compile response checked";
    fs::remove_all(out);
}

TEST(Docs, ExtractorFindsFencedBlocksWithLineNumbers)
{
    const std::vector<JsonBlock> blocks = extractJsonBlocks(
        "# t\n\n```json\n{\"op\": \"ping\"}\n```\n\ntext\n");
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].line, 4);
    EXPECT_EQ(blocks[0].text, "{\"op\": \"ping\"}\n");
}

// ------------------------------------------------ the validator's teeth

const std::string kRequest = R"({
  "format": "hatt-compile-request", "version": 1,
  "input": "examples/data/h2.ops", "input_format": "ops",
  "mapping": "hatt", "out_dir": "runs/h2", "emit_qubit": true,
  "max_terms": 0, "max_modes": 0, "timeout_seconds": 0.0,
  "fallback": false, "jobs": 0})";

const std::string kResponse = R"({
  "format": "hatt-compile-response", "version": 1, "stem": "h2",
  "input_format": "ops", "modes": 4, "fermion_terms": 29,
  "majorana_monomials": 15, "content_hash": "388eb307312bf8c0",
  "num_qubits": 4, "pauli_weight": 32, "qubit_terms": 14,
  "max_imag_coeff": 0.0, "candidates": 3, "device": "montreal",
  "routed_cnots": 88, "routed_u3": 30, "routed_depth": 104,
  "routed_swaps": 18, "cache_hit": false, "cache_tier": null,
  "degraded": false, "quarantined_cache": false, "seconds": 1e-4,
  "cache_seconds": 1e-5})";

const std::string kStatus = R"({
  "format": "hatt-status", "version": 1, "ok": false,
  "code": "invalid_argument", "message": "bad frame"})";

const std::string kStats = R"({
  "format": "hatt-stats", "version": 1,
  "build": {"git_sha": "abc1234", "compiler": "GNU 12",
            "build_type": "Release", "flags": "-O2"},
  "metrics": {
    "deterministic": {"server.frames": 3},
    "volatile": {"compile.seconds": {"count": 1, "total_seconds": 0.1,
                                     "min_seconds": 0.1,
                                     "max_seconds": 0.1}}}})";

/** @p text with the first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

TEST(Docs, EveryMutationIsCaught)
{
    struct Mutation
    {
        const char *what;
        std::string text;
        const char *reason; //!< expected in the validator's message
    };
    const Mutation mutations[] = {
        {"renamed field", replaced(kRequest, "\"input\":", "\"source\":"),
         "\"input\""},
        {"unknown field",
         replaced(kResponse, "\"stem\":", "\"swiftness\": 11, \"stem\":"),
         "unknown field 'swiftness'"},
        {"newer version",
         replaced(kRequest, "\"version\": 1", "\"version\": 2"),
         "version 2"},
        {"dropped code",
         replaced(kStatus, "\"code\": \"invalid_argument\", ", ""),
         "\"code\""},
        {"mistyped field",
         replaced(kRequest, "\"emit_qubit\": true", "\"emit_qubit\": \"yes\""),
         "not a bool"},
        {"unknown status code",
         replaced(kStatus, "invalid_argument", "tried_hard"),
         "unknown status code"},
        {"ok contradicts code",
         replaced(kStatus, "\"ok\": false", "\"ok\": true"),
         "contradicts"},
        {"malformed JSON", "{ not json", "does not parse"},
        {"unknown control verb", R"({"op": "selfdestruct"})",
         "unknown op 'selfdestruct'"},
        {"routed_* without device",
         replaced(kResponse, "\"device\": \"montreal\",", ""),
         "unknown field 'routed_"},
        {"non-canonical content_hash",
         replaced(kResponse, "388eb307312bf8c0", "388EB307312BF8C0"),
         "'content_hash'"},
        {"negative counter",
         replaced(kStats, "\"server.frames\": 3", "\"server.frames\": -3"),
         "counter 'server.frames'"},
        {"timing with min > max",
         replaced(kStats, "\"min_seconds\": 0.1", "\"min_seconds\": 0.2"),
         "min <= max"},
    };
    for (const Mutation &m : mutations)
        EXPECT_NE(validateBlock(m.text).find(m.reason), std::string::npos)
            << m.what << ": " << validateBlock(m.text);
}

} // namespace
} // namespace hatt
