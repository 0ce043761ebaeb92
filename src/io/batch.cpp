#include "io/batch.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "io/cache.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

std::vector<std::string>
splitKinds(const std::string &list)
{
    std::vector<std::string> out;
    size_t begin = 0;
    while (begin <= list.size()) {
        size_t comma = list.find(',', begin);
        size_t end = comma == std::string::npos ? list.size() : comma;
        if (end == begin)
            throw std::invalid_argument("empty mapping kind in '" + list +
                                        "'");
        out.push_back(list.substr(begin, end - begin));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

std::string
canonicalKind(const std::string &kind)
{
    const Mapper *mapper = MapperRegistry::instance().find(kind);
    return mapper ? mapper->name() : kind;
}

namespace {

/** Iterative glob match: `*` (any run, including '/') and `?`. */
bool
globMatch(const std::string &pattern, const std::string &text)
{
    size_t p = 0, t = 0;
    size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

} // namespace

BatchCompiler::BatchCompiler(BatchOptions options,
                             CompilationService &service)
    : options_(std::move(options)), service_(&service)
{
}

std::vector<BatchItem>
BatchCompiler::discoverInputs(const std::string &source) const
{
    std::vector<BatchItem> items;
    const std::vector<std::string> &default_kinds = options_.mappings;
    auto fan_out = [&](const std::string &path, const std::string &name,
                       const std::vector<std::string> &kinds) {
        for (const std::string &kind : kinds) {
            BatchItem item;
            item.path = path;
            item.name = name;
            item.mapping = canonicalKind(kind);
            items.push_back(std::move(item));
        }
    };

    std::error_code ec;
    if (fs::is_directory(source, ec)) {
        const fs::path root(source);
        try {
            for (const fs::directory_entry &de :
                 fs::recursive_directory_iterator(root)) {
                if (!de.is_regular_file())
                    continue;
                if (!formatFromExtension(de.path()))
                    continue;
                // The root-relative path is the item name: the scan is
                // recursive, so a bare filename would falsely collide
                // same-named inputs from different subdirectories.
                const std::string rel =
                    de.path().lexically_relative(root).generic_string();
                if (!options_.glob.empty()) {
                    // Patterns with '/' address the relative path;
                    // plain patterns just the file name.
                    const std::string target =
                        options_.glob.find('/') != std::string::npos
                            ? rel
                            : de.path().filename().string();
                    if (!globMatch(options_.glob, target))
                        continue;
                }
                fan_out(de.path().string(), rel, default_kinds);
            }
        } catch (const fs::filesystem_error &e) {
            throw ParseError("cannot scan input directory " + source +
                             ": " + e.what());
        }
    } else {
        if (!options_.glob.empty())
            throw ParseError("--glob only applies to directory sources, "
                             "and " + source + " is a manifest");
        std::ifstream in(source);
        if (!in)
            throw ParseError("cannot open batch manifest: " + source);
        const fs::path base = fs::path(source).parent_path();
        std::string line;
        size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            if (size_t hash = line.find('#'); hash != std::string::npos)
                line.erase(hash);
            std::istringstream ls(line);
            std::string path, kind_list, extra;
            if (!(ls >> path))
                continue; // blank/comment line
            std::vector<std::string> kinds = default_kinds;
            if (ls >> kind_list) {
                try {
                    kinds = splitKinds(kind_list);
                } catch (const std::invalid_argument &e) {
                    throw ParseError(source + " line " +
                                     std::to_string(lineno) + ": " +
                                     e.what());
                }
                for (std::string &kind : kinds) {
                    Status status =
                        MapperRegistry::instance().checkKind(kind);
                    if (!status.ok())
                        throw ParseError(source + " line " +
                                         std::to_string(lineno) + ": " +
                                         status.message());
                    kind = canonicalKind(kind);
                }
                if (ls >> extra)
                    throw ParseError(source + " line " +
                                     std::to_string(lineno) +
                                     ": unexpected token '" + extra +
                                     "'");
            }
            fs::path p(path);
            fan_out(p.is_absolute() ? p.string() : (base / p).string(),
                    p.filename().string(), kinds);
        }
    }
    // Deterministic report order regardless of directory iteration,
    // manifest shuffling or fan-out: sort by (name, mapping, path).
    std::sort(items.begin(), items.end(),
              [](const BatchItem &a, const BatchItem &b) {
                  if (a.name != b.name)
                      return a.name < b.name;
                  if (a.mapping != b.mapping)
                      return a.mapping < b.mapping;
                  return a.path < b.path;
              });
    return items;
}

std::vector<BatchItemResult>
BatchCompiler::run(std::vector<BatchItem> items) const
{
    // Per-batch worker cap: layered over HATT_THREADS for this run only
    // (results are bit-identical for every cap by the pool contract).
    ScopedParallelThreads thread_scope(options_.jobs);

    std::vector<BatchItemResult> results(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
        results[i].item = std::move(items[i]);
        // Canonicalize case-variant kinds from caller-built item lists
        // ("HATT" vs "hatt"), so they cannot slip past the duplicate
        // guard below as distinct keys racing on one output directory.
        results[i].item.mapping = canonicalKind(results[i].item.mapping);
    }

    // Report keys (name:mapping) key the per-item output directories,
    // so they must be unique even when a caller passes an unsorted item
    // list: two workers compiling the same key would race on the same
    // artifact files. The first occurrence compiles, later ones fail.
    std::set<std::string> seen;
    for (BatchItemResult &r : results)
        if (!seen.insert(r.item.key()).second)
            r.status = Status::alreadyExists("duplicate work item '" +
                                             r.item.key() + "' in batch");

    // One work item per chunk: items are the coarse parallel grain, and
    // each item's own stages (sharded preprocessing, candidate scans,
    // qubit mapping) dispatch nested and run inline on this worker.
    metrics::add("batch.work_items", results.size());
    parallelFor(results.size(), 1, [&](size_t i) {
        BatchItemResult &r = results[i];
        if (!r.ok())
            return;
        trace::Span item_span("batch", "item:" + r.item.key());
        Timer timer;
        CompileRequest req;
        req.path = r.item.path;
        // A recognized extension always wins over a forced format: one
        // --format must not misparse a mixed .ops/.fcidump corpus — it
        // only covers extension-less inputs.
        req.format = inputFormatName(
            formatFromExtension(r.item.path).value_or(options_.format));
        req.mapping = r.item.mapping;
        req.outDir = (fs::path(options_.outDir) / r.item.key()).string();
        req.emitQubit = true;
        req.maxTerms = options_.maxTerms;
        req.maxModes = options_.maxModes;
        req.timeoutSeconds = options_.timeoutSeconds;
        req.fallback = options_.fallback;
        req.device = options_.device;
        // req.jobs stays 0: the batch-wide thread scope above applies.
        // One bad input does not abort the batch: its Status is the row.
        StatusOr<CompileResponse> resp = service_->compile(req);
        if (resp.ok())
            r.response = std::move(resp).value();
        else
            r.status = resp.status();
        r.seconds = timer.seconds();
        metrics::observe("batch.item_seconds", r.seconds);
    });

    if (MappingCache *disk = service_->diskCache()) {
        try {
            disk->flushIndex();
        } catch (const std::exception &) {
            // The index is advisory: a full disk or revoked permission
            // on the cache dir must not discard a finished batch — the
            // report still gets written and the usage log is retained
            // for a later flush.
        }
    }
    return results;
}

JsonValue
BatchCompiler::reportDocument(const std::vector<BatchItemResult> &results)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-batch-report");
    doc.add("version", 4);
    size_t ok = 0, degraded = 0;
    uint64_t total_weight = 0;
    JsonValue inputs = JsonValue::array();
    for (const BatchItemResult &r : results) {
        JsonValue rec = JsonValue::object();
        rec.add("key", r.item.key());
        rec.add("name", r.item.name);
        rec.add("mapping", r.item.mapping);
        // v3 status vocabulary: ok | error | timeout | degraded |
        // quarantined_cache. The last two still carry the full outcome
        // fields — they are flavors of success; timeout is a flavor of
        // failure. degraded wins over quarantined_cache when both apply
        // (the fallback changed WHAT was built, the quarantine only how).
        const CompileResponse &resp = r.response;
        const char *status = r.ok() ? (resp.degraded ? "degraded"
                                       : resp.quarantinedCache
                                           ? "quarantined_cache"
                                           : "ok")
                                    : (r.timedOut() ? "timeout" : "error");
        rec.add("status", status);
        if (!r.ok()) {
            rec.add("error", r.error());
            inputs.push(std::move(rec));
            continue;
        }
        ++ok;
        if (resp.degraded)
            ++degraded;
        // Batch items always emit the qubit Hamiltonian, so an ok row
        // always has a pauli weight.
        const uint64_t weight = resp.pauliWeight.value_or(0);
        total_weight += weight;
        rec.add("input_format", resp.inputFormat);
        rec.add("modes", resp.numModes);
        rec.add("fermion_terms", resp.fermionTerms);
        rec.add("majorana_monomials", resp.monomials);
        rec.add("content_hash", hashToHex(resp.contentHash));
        rec.add("num_qubits", resp.numQubits);
        rec.add("pauli_weight", weight);
        rec.add("candidates", optionalToJson(resp.candidates));
        // Device-aware batches only: the routed-cost block is part of
        // the deterministic report (byte-compared across thread caps),
        // and its absence keeps architecture-agnostic reports
        // byte-identical to earlier versions.
        if (!resp.device.empty()) {
            rec.add("device", resp.device);
            rec.add("routed_cnots", optionalToJson(resp.routedCnots));
            rec.add("routed_u3", optionalToJson(resp.routedU3));
            rec.add("routed_depth", optionalToJson(resp.routedDepth));
            rec.add("routed_swaps", optionalToJson(resp.routedSwaps));
        }
        inputs.push(std::move(rec));
    }
    doc.add("inputs", std::move(inputs));
    JsonValue summary = JsonValue::object();
    summary.add("inputs", static_cast<uint64_t>(results.size()));
    summary.add("succeeded", static_cast<uint64_t>(ok));
    summary.add("failed", static_cast<uint64_t>(results.size() - ok));
    summary.add("degraded", static_cast<uint64_t>(degraded));
    summary.add("total_pauli_weight", total_weight);
    doc.add("summary", std::move(summary));
    // v4: build provenance + the workload-counter mirror (reads the
    // process-wide metrics scope the service reset at run entry; see
    // workloadCountersDocument for why only parse./preprocess. mirror
    // here).
    doc.add("build", buildInfoDocument());
    doc.add("metrics", workloadCountersDocument(metrics::snapshot()));
    return doc;
}

JsonValue
BatchCompiler::statsDocument(const std::vector<BatchItemResult> &results)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-batch-stats");
    // v3: per-item cache_tier + summary memory_hits (two-tier store).
    doc.add("version", 3);
    size_t hits = 0, memory_hits = 0;
    double seconds = 0.0;
    JsonValue inputs = JsonValue::array();
    for (const BatchItemResult &r : results) {
        JsonValue rec = JsonValue::object();
        rec.add("key", r.item.key());
        const CompileResponse &resp = r.response;
        rec.add("seconds", r.seconds);
        rec.add("cache_hit", resp.cacheHit);
        rec.add("cache_tier", resp.cacheTier.empty()
                                  ? JsonValue(nullptr)
                                  : JsonValue(resp.cacheTier));
        inputs.push(std::move(rec));
        if (resp.cacheHit)
            ++hits;
        if (resp.cacheTier == "memory")
            ++memory_hits;
        seconds += r.seconds;
    }
    doc.add("inputs", std::move(inputs));
    JsonValue summary = JsonValue::object();
    summary.add("inputs", static_cast<uint64_t>(results.size()));
    summary.add("cache_hits", static_cast<uint64_t>(hits));
    summary.add("memory_hits", static_cast<uint64_t>(memory_hits));
    summary.add("seconds", seconds);
    doc.add("summary", std::move(summary));
    // The FULL metrics snapshot (both sections) lives here, on the
    // volatile side of the report/stats split: cache, store and pool
    // counters legitimately differ cold-vs-warm, so they must not
    // contaminate the byte-compared report.
    doc.add("build", buildInfoDocument());
    doc.add("metrics", metricsSectionsDocument(metrics::snapshot()));
    return doc;
}

} // namespace hatt::io
