#include "io/service.hpp"

#include <new>
#include <utility>

#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "device/device.hpp"
#include "io/batch.hpp"
#include "io/cache.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace {

constexpr const char *kRequestFormat = "hatt-compile-request";
constexpr const char *kResponseFormat = "hatt-compile-response";
constexpr const char *kStatusFormat = "hatt-status";
constexpr int kWireVersion = 1;

/** Status::Code <-> wire code (docs/PROTOCOL.md, normative). */
constexpr std::pair<Status::Code, const char *> kStatusCodes[] = {
    {Status::Code::Ok, "ok"},
    {Status::Code::InvalidArgument, "invalid_argument"},
    {Status::Code::NotFound, "not_found"},
    {Status::Code::AlreadyExists, "already_exists"},
    {Status::Code::Internal, "internal"},
    {Status::Code::DeadlineExceeded, "deadline_exceeded"},
    {Status::Code::Cancelled, "cancelled"},
    {Status::Code::ResourceExhausted, "resource_exhausted"},
};

JsonValue
optionalU64(const std::optional<uint64_t> &v)
{
    return v ? JsonValue(*v) : JsonValue(nullptr);
}

std::optional<uint64_t>
readOptionalU64(const JsonValue &doc, const std::string &key)
{
    const JsonValue *v = doc.find(key);
    if (!v || v->isNull())
        return std::nullopt;
    return static_cast<uint64_t>(v->asInt(0));
}

uint64_t
parseContentHash(const std::string &hex)
{
    try {
        size_t used = 0;
        uint64_t value = std::stoull(hex, &used, 16);
        if (used != hex.size() || hex.empty())
            throw std::invalid_argument(hex);
        return value;
    } catch (const std::exception &) {
        throw ParseError("bad content_hash '" + hex + "'");
    }
}

} // namespace

JsonValue
compileRequestToJson(const CompileRequest &req)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", kRequestFormat);
    doc.add("version", kWireVersion);
    doc.add("input", req.path);
    doc.add("input_format", req.format);
    doc.add("mapping", req.mapping);
    doc.add("out_dir", req.outDir);
    doc.add("emit_qubit", req.emitQubit);
    doc.add("max_terms", req.maxTerms);
    doc.add("max_modes", req.maxModes);
    doc.add("timeout_seconds", req.timeoutSeconds);
    doc.add("fallback", req.fallback);
    doc.add("jobs", req.jobs);
    // Added within v1: emitted only when set, so frames from clients
    // that never ask for a device stay byte-identical to older builds.
    if (!req.device.empty())
        doc.add("device", req.device);
    return doc;
}

CompileRequest
compileRequestFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, kRequestFormat, kWireVersion);
    CompileRequest req;
    req.path = doc.at("input").asString();
    req.format = doc.at("input_format").asString();
    req.mapping = doc.at("mapping").asString();
    req.outDir = doc.at("out_dir").asString();
    req.emitQubit = doc.at("emit_qubit").asBool();
    req.maxTerms = static_cast<uint64_t>(doc.at("max_terms").asInt(0));
    req.maxModes = static_cast<uint32_t>(
        doc.at("max_modes").asInt(0, UINT32_MAX));
    req.timeoutSeconds = doc.at("timeout_seconds").asNumber();
    req.fallback = doc.at("fallback").asBool();
    // Added within v1 (optional, default 0): older clients omit it.
    if (const JsonValue *v = doc.find("jobs"); v && !v->isNull())
        req.jobs = static_cast<uint32_t>(v->asInt(0, UINT32_MAX));
    // Added within v1 (optional, default ""): older clients omit it.
    if (const JsonValue *v = doc.find("device"); v && !v->isNull())
        req.device = v->asString();
    return req;
}

JsonValue
compileResponseToJson(const CompileResponse &resp)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", kResponseFormat);
    doc.add("version", kWireVersion);
    doc.add("stem", resp.stem);
    doc.add("input_format", resp.inputFormat);
    doc.add("modes", resp.numModes);
    doc.add("fermion_terms", resp.fermionTerms);
    doc.add("majorana_monomials", resp.monomials);
    doc.add("content_hash", hashToHex(resp.contentHash));
    doc.add("num_qubits", resp.numQubits);
    doc.add("pauli_weight", optionalU64(resp.pauliWeight));
    doc.add("qubit_terms", optionalU64(resp.qubitTerms));
    doc.add("max_imag_coeff", resp.maxImagCoeff
                                  ? JsonValue(*resp.maxImagCoeff)
                                  : JsonValue(nullptr));
    doc.add("candidates", optionalU64(resp.candidates));
    // Added within v1: the device block is only emitted for device-aware
    // compiles, keeping every architecture-agnostic response (and the
    // daemon byte-identity bar over them) unchanged.
    if (!resp.device.empty()) {
        doc.add("device", resp.device);
        doc.add("routed_cnots", optionalU64(resp.routedCnots));
        doc.add("routed_u3", optionalU64(resp.routedU3));
        doc.add("routed_depth", optionalU64(resp.routedDepth));
        doc.add("routed_swaps", optionalU64(resp.routedSwaps));
    }
    doc.add("cache_hit", resp.cacheHit);
    doc.add("cache_tier", resp.cacheTier.empty()
                              ? JsonValue(nullptr)
                              : JsonValue(resp.cacheTier));
    doc.add("degraded", resp.degraded);
    doc.add("quarantined_cache", resp.quarantinedCache);
    doc.add("seconds", resp.seconds);
    doc.add("cache_seconds", resp.cacheSeconds);
    return doc;
}

CompileResponse
compileResponseFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, kResponseFormat, kWireVersion);
    CompileResponse resp;
    resp.stem = doc.at("stem").asString();
    resp.inputFormat = doc.at("input_format").asString();
    resp.numModes = static_cast<uint32_t>(
        doc.at("modes").asInt(0, UINT32_MAX));
    resp.fermionTerms =
        static_cast<uint64_t>(doc.at("fermion_terms").asInt(0));
    resp.monomials =
        static_cast<uint64_t>(doc.at("majorana_monomials").asInt(0));
    resp.contentHash = parseContentHash(doc.at("content_hash").asString());
    resp.numQubits = static_cast<uint32_t>(
        doc.at("num_qubits").asInt(0, UINT32_MAX));
    resp.pauliWeight = readOptionalU64(doc, "pauli_weight");
    resp.qubitTerms = readOptionalU64(doc, "qubit_terms");
    if (const JsonValue *v = doc.find("max_imag_coeff");
        v && !v->isNull())
        resp.maxImagCoeff = v->asNumber();
    resp.candidates = readOptionalU64(doc, "candidates");
    if (const JsonValue *v = doc.find("device"); v && !v->isNull()) {
        resp.device = v->asString();
        resp.routedCnots = readOptionalU64(doc, "routed_cnots");
        resp.routedU3 = readOptionalU64(doc, "routed_u3");
        resp.routedDepth = readOptionalU64(doc, "routed_depth");
        resp.routedSwaps = readOptionalU64(doc, "routed_swaps");
    }
    resp.cacheHit = doc.at("cache_hit").asBool();
    if (const JsonValue *v = doc.find("cache_tier"); v && !v->isNull())
        resp.cacheTier = v->asString();
    resp.degraded = doc.at("degraded").asBool();
    resp.quarantinedCache = doc.at("quarantined_cache").asBool();
    resp.seconds = doc.at("seconds").asNumber();
    resp.cacheSeconds = doc.at("cache_seconds").asNumber();
    return resp;
}

JsonValue
statusToJson(const Status &status, const char *op)
{
    const char *code = "internal";
    for (const auto &[value, name] : kStatusCodes)
        if (value == status.code())
            code = name;
    JsonValue doc = JsonValue::object();
    doc.add("format", kStatusFormat);
    doc.add("version", kWireVersion);
    doc.add("ok", status.ok());
    doc.add("code", code);
    doc.add("message", status.message());
    if (op)
        doc.add("op", op);
    return doc;
}

Status
statusFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, kStatusFormat, kWireVersion);
    const std::string &code = doc.at("code").asString();
    for (const auto &[value, name] : kStatusCodes) {
        if (code != name)
            continue;
        Status status(value, doc.at("message").asString());
        if (doc.at("ok").asBool() != status.ok())
            throw ParseError("ok flag contradicts code '" + code + "'");
        return status;
    }
    throw ParseError("unknown status code '" + code + "'");
}

JsonValue
statsToJson(const metrics::Snapshot &snap, const JsonValue &summary)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-stats");
    doc.add("version", kWireVersion);
    for (const auto &[key, value] : summary.asObject())
        doc.add(key, value);
    doc.add("build", buildInfoDocument());
    doc.add("metrics", metricsSectionsDocument(snap));
    return doc;
}

// -------------------------------------------------------------- service

CompilationService::CompilationService(ServiceConfig config)
    : config_(std::move(config))
{
    if (!config_.cacheDir.empty())
        disk_ = std::make_unique<MappingCache>(config_.cacheDir);
    if (config_.memoryStore)
        tiered_ = std::make_unique<TieredMappingStore>(disk_.get());
}

CompilationService::~CompilationService() = default;

MappingStore *
CompilationService::store()
{
    if (tiered_)
        return tiered_.get();
    return disk_.get();
}

StatusOr<CompileResponse>
CompilationService::compile(const CompileRequest &req)
{
    InputFormat format = InputFormat::Auto;
    if (req.format == "ops")
        format = InputFormat::Ops;
    else if (req.format == "fcidump")
        format = InputFormat::Fcidump;
    else if (req.format != "auto")
        return Status::invalidArgument("unknown format '" + req.format +
                                       "'");
    if (Status kind = MapperRegistry::instance().checkKind(req.mapping);
        !kind.ok())
        return kind;

    CompileConfig config;
    config.limits.maxTerms = req.maxTerms;
    config.limits.maxModes = req.maxModes;
    config.timeoutSeconds = req.timeoutSeconds;
    config.fallback = req.fallback;
    if (!req.device.empty()) {
        // Canonicalise up front: the spelling is a cache-key component
        // (mapper option bag) and a response field, so "Montreal" and
        // "montreal" must be the same request.
        StatusOr<std::string> canonical =
            device::canonicalDeviceName(req.device);
        if (!canonical.ok())
            return canonical.status();
        config.device = canonical.value();
    }

    // Admission gate: cap this request's fan-out over the work pool
    // (0 = inherit). Outputs are cap-invariant by the determinism
    // contract; only wall clock changes.
    ScopedParallelThreads jobs_gate(req.jobs);

    try {
        CompileOutcome res =
            compileInput(req.path, format, req.mapping, req.outDir,
                         store(), req.emitQubit, config);
        CompileResponse resp;
        resp.stem = res.problem.stem;
        resp.inputFormat = res.problem.format;
        resp.numModes = res.problem.numModes;
        resp.fermionTerms = res.problem.fermionTerms;
        resp.monomials = res.problem.poly.size();
        resp.contentHash = res.problem.contentHash;
        resp.numQubits = res.built.mapping.numQubits;
        if (res.qubitMetrics) {
            resp.pauliWeight = res.qubitMetrics->pauliWeight;
            resp.qubitTerms = res.qubitMetrics->numTerms;
            resp.maxImagCoeff = res.qubitMetrics->maxImagCoeff;
        }
        resp.candidates = res.built.metrics.candidates;
        if (res.hardwareCost) {
            resp.device = config.device;
            resp.routedCnots = res.hardwareCost->cnots;
            resp.routedU3 = res.hardwareCost->u3;
            resp.routedDepth = res.hardwareCost->depth;
            resp.routedSwaps = res.hardwareCost->swaps;
        }
        resp.cacheHit = res.built.metrics.cacheHit;
        resp.cacheTier = res.built.metrics.cacheTier;
        resp.degraded = res.degraded;
        if (disk_ && disk_->wasQuarantined(res.problem.contentHash,
                                           req.mapping))
            resp.quarantinedCache = true;
        resp.seconds = res.totalSeconds;
        resp.cacheSeconds = res.built.metrics.cacheSeconds;
        return resp;
    } catch (const DeadlineError &e) {
        return Status::deadlineExceeded(e.what());
    } catch (const DeadlineExceededError &e) {
        return Status::deadlineExceeded(e.what());
    } catch (const CancelledError &e) {
        return Status::cancelled(e.what());
    } catch (const InternalError &e) {
        return Status::internal(e.what());
    } catch (const ParseError &e) {
        return Status::invalidArgument(e.what());
    } catch (const std::bad_alloc &) {
        return Status::resourceExhausted("out of memory");
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

StatusOr<BatchOutcome>
CompilationService::compileBatch(const std::string &source,
                                 const BatchOptions &options)
{
    // One batch = one metrics scope (the documents snapshot the process
    // registry), exactly as runHattc resets per CLI invocation — so a
    // direct service call emits byte-identical reports to the CLI path.
    metrics::reset();
    BatchCompiler compiler(options, *this);
    std::vector<BatchItem> items;
    try {
        items = compiler.discoverInputs(source);
    } catch (const ParseError &e) {
        return Status::invalidArgument(e.what());
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
    if (items.empty())
        return Status::invalidArgument(
            "no .ops/.fcidump inputs found in " + source);

    BatchOutcome outcome;
    outcome.results = compiler.run(std::move(items));
    for (const BatchItemResult &r : outcome.results)
        if (!r.ok)
            ++outcome.failed;
    outcome.report = BatchCompiler::reportDocument(outcome.results);
    outcome.stats = BatchCompiler::statsDocument(outcome.results);
    return outcome;
}

} // namespace hatt::io
