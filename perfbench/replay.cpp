// The traced per-layer run. Each call of the plan goes through the same
// public functions, in the same order, as io::compileInput:
//   io.parse -> io.preprocess -> mapping.construct (-> mapping.store)
//   -> device.route -> io.emit -> ham.qubit_map -> io.emit
// Spans are recorded here, around those calls, and kept in memory
// until the run ends. The plan runs three times: a warm-up pass, an
// untraced pass and a traced pass; the difference of the last two walls
// is the tracing overhead.

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "device/cost.hpp"
#include "device/device.hpp"
#include "fermion/fermion_op.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "hattbench.hpp"
#include "io/cache.hpp"
#include "io/driver.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/serialize.hpp"
#include "io/stream.hpp"
#include "mapping/mapper.hpp"
#include "mapping/store.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using hatt::io::JsonValue;
using Clock = std::chrono::steady_clock;

namespace {

/** The layers spans are named after (the root "compile" span's self
    time is the unattributed remainder). */
const char *const kLayers[] = {"io.parse",       "io.preprocess",
                               "mapping.construct", "mapping.store",
                               "device.route",   "ham.qubit_map",
                               "io.emit"};

/**
 * In-memory span recorder. Spans nest strictly (one thread), so a stack
 * of open spans gives each closing span its parent and the time its
 * children covered; self time = duration - children.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    /** Layer of the span an exception last unwound (null: none). */
    const char *failedAt = nullptr;

    void open(const char *name)
    {
        if (on_)
            stack_.push_back({name, Clock::now(), 0.0});
    }

    void close(JsonValue args = JsonValue::object())
    {
        if (!on_)
            return;
        Open span = stack_.back();
        stack_.pop_back();
        const double dur =
            std::chrono::duration<double>(Clock::now() - span.start).count();
        self_[span.name] += dur - span.childSeconds;
        if (!stack_.empty())
            stack_.back().childSeconds += dur;
        JsonValue ev = JsonValue::object();
        ev.add("name", span.name);
        ev.add("cat", std::string(span.name) == "compile" ? "request"
                                                          : "layer");
        ev.add("ph", "X");
        ev.add("ts", micros(span.start));
        ev.add("dur", dur * 1e6);
        ev.add("pid", 1);
        ev.add("tid", 1);
        ev.add("args", std::move(args));
        events_.push(std::move(ev));
    }

    /** Self seconds per span name. */
    const std::map<std::string, double> &selfSeconds() const
    {
        return self_;
    }

    void write(const std::string &path, JsonValue other) const
    {
        JsonValue doc = JsonValue::object();
        doc.add("traceEvents", events_);
        doc.add("displayTimeUnit", "ms");
        doc.add("otherData", std::move(other));
        std::ofstream out(path);
        out << doc.dump() << "\n";
    }

  private:
    struct Open
    {
        const char *name;
        Clock::time_point start;
        double childSeconds;
    };

    double micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - t0_).count();
    }

    bool on_;
    Clock::time_point t0_;
    std::vector<Open> stack_;
    std::map<std::string, double> self_;
    JsonValue events_ = JsonValue::array();
};

/** RAII span. A span closed by an exception charges the failure to
    its layer (the innermost one wins). */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : tracer_(tracer), name_(name),
          uncaught_(std::uncaught_exceptions())
    {
        tracer_.open(name);
    }
    ~Span()
    {
        if (std::uncaught_exceptions() > uncaught_ && !tracer_.failedAt)
            tracer_.failedAt = name_;
        tracer_.close(std::move(args));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    JsonValue args = JsonValue::object();

  private:
    Tracer &tracer_;
    const char *name_;
    int uncaught_;
};

/** Forwards to the real store, timing each load/save as a
    mapping.store span nested inside mapping.construct. */
class TimedStore : public hatt::MappingStore
{
  public:
    TimedStore(hatt::MappingStore &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::optional<Entry> load(uint64_t hash, const std::string &kind) override
    {
        Span span(tracer_, "mapping.store");
        const Clock::time_point t = Clock::now();
        std::optional<Entry> hit = inner_.load(hash, kind);
        lookupSeconds +=
            std::chrono::duration<double>(Clock::now() - t).count();
        ++lookups;
        hits += hit.has_value();
        return hit;
    }

    void save(uint64_t hash, const std::string &kind,
              const Entry &entry) override
    {
        Span span(tracer_, "mapping.store");
        const Clock::time_point t = Clock::now();
        inner_.save(hash, kind, entry);
        saveSeconds +=
            std::chrono::duration<double>(Clock::now() - t).count();
        ++saves;
    }

    uint64_t lookups = 0, hits = 0, saves = 0;
    double lookupSeconds = 0.0, saveSeconds = 0.0;

  private:
    hatt::MappingStore &inner_;
    Tracer &tracer_;
};

struct Plan
{
    std::string store; //!< "none" | "memory" | "disk"
    std::string cacheDir;
    std::string outDir;
    std::string device;
    struct Call
    {
        std::string input, format, kind;
    };
    std::vector<Call> calls;
};

Plan
loadPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open plan " + path);
    const JsonValue doc = JsonValue::parse(in);
    Plan plan;
    plan.store = doc.at("store").asString();
    plan.cacheDir = doc.at("cache_dir").asString();
    plan.outDir = doc.at("out_dir").asString();
    plan.device = doc.at("device").asString();
    for (const JsonValue &c : doc.at("calls").asArray())
        plan.calls.push_back({c.at("input").asString(),
                              c.at("format").asString(),
                              c.at("kind").asString()});
    return plan;
}

/** Everything one pass over the plan measured. */
struct PassResult
{
    double wall = 0.0;
    std::map<std::string, double> self;
    std::map<std::string, uint64_t> failed;
    std::map<std::string, double> constructByKind;
    uint64_t parseTerms = 0, parseBytes = 0, monomials = 0;
    uint64_t candidates = 0, mapped = 0, emitBytes = 0;
    uint64_t swaps = 0, cnots = 0, depth = 0;
    uint64_t lookups = 0, hits = 0, saves = 0, entries = 0;
    double lookupSeconds = 0.0, saveSeconds = 0.0;
    JsonValue calls = JsonValue::array();
};

uint64_t
saveArtifact(const fs::path &path, const JsonValue &doc)
{
    hatt::io::saveJsonFile(path.string(), doc);
    return fs::file_size(path);
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

PassResult
runPass(const Plan &plan, Tracer &tracer, const std::string &tag)
{
    // A fresh store per pass: both passes see the same hits and misses.
    std::unique_ptr<hatt::io::MappingCache> disk;
    std::unique_ptr<hatt::TieredMappingStore> tiered;
    if (plan.store == "disk") {
        const fs::path dir = fs::path(plan.cacheDir) / tag;
        fs::remove_all(dir);
        disk = std::make_unique<hatt::io::MappingCache>(dir.string());
        tiered = std::make_unique<hatt::TieredMappingStore>(disk.get());
    } else if (plan.store == "memory") {
        tiered = std::make_unique<hatt::TieredMappingStore>(nullptr);
    }
    std::unique_ptr<TimedStore> store;
    if (tiered)
        store = std::make_unique<TimedStore>(*tiered, tracer);
    std::optional<hatt::CouplingMap> device;
    if (!plan.device.empty())
        device = hatt::device::resolveDevice(plan.device).value();
    const fs::path out = fs::path(plan.outDir) / tag;
    fs::create_directories(out);

    PassResult res;
    const Clock::time_point start = Clock::now();
    for (const Plan::Call &call : plan.calls) {
        JsonValue rec = JsonValue::object();
        rec.add("input", call.input);
        rec.add("kind", call.kind);
        try {
            Span root(tracer, "compile");
            root.args.add("input", fs::path(call.input).filename().string());
            root.args.add("kind", call.kind);

            std::vector<hatt::FermionTerm> terms;
            uint32_t modes = 0;
            {
                Span span(tracer, "io.parse");
                if (call.format == "ops") {
                    std::ifstream in(call.input);
                    if (!in)
                        throw std::runtime_error("cannot open " + call.input);
                    modes = hatt::io::streamFermionText(
                                in,
                                [&](hatt::FermionTerm &&t) {
                                    terms.push_back(std::move(t));
                                    return true;
                                })
                                .numModes;
                } else {
                    hatt::FermionHamiltonian hf =
                        hatt::io::loadFcidumpHamiltonian(call.input);
                    modes = hf.numModes();
                    terms = hf.terms();
                }
                res.parseTerms += terms.size();
                res.parseBytes += fs::file_size(call.input);
            }

            hatt::MajoranaPolynomial poly;
            uint64_t hash = 0;
            {
                Span span(tracer, "io.preprocess");
                hatt::io::ShardedMajoranaPreprocessor acc;
                for (hatt::FermionTerm &t : terms)
                    acc.add(std::move(t));
                acc.ensureModes(modes);
                poly = acc.finish();
                hash = hatt::io::majoranaContentHash(poly);
                res.monomials += poly.terms().size();
            }

            hatt::MappingResult built;
            {
                Span span(tracer, "mapping.construct");
                span.args.add("kind", call.kind);
                const Clock::time_point t = Clock::now();
                const double storeBefore =
                    store ? store->lookupSeconds + store->saveSeconds : 0.0;
                hatt::MappingRequest req;
                req.kind = call.kind;
                req.poly = &poly;
                req.contentHash = hash;
                const hatt::Mapper *mapper =
                    hatt::MapperRegistry::instance().find(call.kind);
                if (device && mapper && mapper->capabilities().deviceAware)
                    req.options["device"] = plan.device;
                hatt::StatusOr<hatt::MappingResult> r =
                    hatt::MapperRegistry::instance().build(req, store.get());
                if (!r.ok())
                    throw std::runtime_error(r.status().message());
                built = std::move(r).value();
                // Per kind, net of the store time nested inside.
                res.constructByKind[call.kind] +=
                    secondsSince(t) -
                    (store ? store->lookupSeconds + store->saveSeconds -
                                 storeBefore
                           : 0.0);
                res.candidates += built.metrics.candidates.value_or(0);
            }

            if (device) {
                Span span(tracer, "device.route");
                hatt::StatusOr<hatt::device::HardwareCost> cost =
                    hatt::device::evaluateHardwareCost(poly, built.mapping,
                                                       *device);
                if (!cost.ok())
                    throw std::runtime_error(cost.status().message());
                res.swaps += cost.value().swaps;
                res.cnots += cost.value().cnots;
                res.depth += cost.value().depth;
                rec.add("routed_cnots", cost.value().cnots);
                rec.add("routed_depth", cost.value().depth);
                rec.add("routed_swaps", cost.value().swaps);
            }

            const std::string stem = fs::path(call.input).stem().string() +
                                     "." + call.kind;
            {
                Span span(tracer, "io.emit");
                res.emitBytes += saveArtifact(
                    out / (stem + ".mapping.json"),
                    hatt::io::mappingToJson(built.mapping));
                if (built.tree)
                    res.emitBytes +=
                        saveArtifact(out / (stem + ".tree.json"),
                                     hatt::io::treeToJson(*built.tree));
            }
            rec.add("mapping_path", (out / (stem + ".mapping.json")).string());

            std::optional<hatt::PauliSum> hq;
            {
                Span span(tracer, "ham.qubit_map");
                hatt::QubitMappingEngine engine(built.mapping);
                engine.addBatch(poly.terms());
                hq = engine.finish();
                res.mapped += poly.terms().size();
            }
            const hatt::HamiltonianMetrics hm = hatt::hamiltonianMetrics(*hq);
            rec.add("pauli_weight", hm.pauliWeight);
            rec.add("qubit_terms", static_cast<uint64_t>(hm.numTerms));

            {
                Span span(tracer, "io.emit");
                res.emitBytes += saveArtifact(out / (stem + ".qubit.json"),
                                              hatt::io::pauliSumToJson(*hq));
                res.emitBytes += saveArtifact(
                    out / (stem + ".metrics.json"),
                    hatt::io::metricsDocument(
                        stem, built.metrics.seconds, hm.pauliWeight,
                        built.metrics.candidates, built.metrics.cacheHit,
                        false, built.metrics.cacheSeconds));
            }
            rec.add("ok", true);
        } catch (const std::exception &e) {
            const char *layer = tracer.failedAt ? tracer.failedAt : "compile";
            ++res.failed[layer];
            rec.add("ok", false);
            rec.add("error", std::string(layer) + ": " + e.what());
        }
        tracer.failedAt = nullptr;
        res.calls.push(std::move(rec));
    }
    res.wall = secondsSince(start);
    res.self = tracer.selfSeconds();
    if (store) {
        res.lookups = store->lookups;
        res.hits = store->hits;
        res.saves = store->saves;
        res.lookupSeconds = store->lookupSeconds;
        res.saveSeconds = store->saveSeconds;
        res.entries = tiered->entryCount();
    }
    return res;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

JsonValue
replay(const std::string &plan_path, const std::string &trace_path)
{
    const Plan plan = loadPlan(plan_path);

    // The first pass only warms the page cache and allocator, so the
    // untraced and traced passes start from the same state.
    Tracer warmup(false);
    runPass(plan, warmup, "warmup");
    Tracer untraced(false);
    const PassResult base = runPass(plan, untraced, "untraced");
    Tracer traced(true);
    const PassResult res = runPass(plan, traced, "traced");

    JsonValue other = JsonValue::object();
    other.add("plan", plan_path);
    other.add("calls", static_cast<uint64_t>(plan.calls.size()));
    traced.write(trace_path, std::move(other));

    auto self = [&](const std::string &layer) {
        auto it = res.self.find(layer);
        return it == res.self.end() ? 0.0 : it->second;
    };
    auto failed = [&](const std::string &layer) {
        auto it = res.failed.find(layer);
        return it == res.failed.end() ? uint64_t{0} : it->second;
    };

    JsonValue m = JsonValue::object();
    m.add("io.parse.seconds", self("io.parse"));
    m.add("io.parse.terms", res.parseTerms);
    m.add("io.parse.mb_per_s",
          ratio(static_cast<double>(res.parseBytes) / 1e6, self("io.parse")));
    m.add("io.preprocess.seconds", self("io.preprocess"));
    m.add("io.preprocess.monomials", res.monomials);
    m.add("mapping.construct.seconds", self("mapping.construct"));
    for (const char *kind : {"hatt", "jw", "btt", "bk", "treespilation"}) {
        auto it = res.constructByKind.find(kind);
        m.add(std::string("mapping.construct.") + kind + ".seconds",
              it == res.constructByKind.end() ? 0.0 : it->second);
    }
    m.add("mapping.construct.candidates", res.candidates);
    m.add("mapping.store.hit_ratio",
          ratio(static_cast<double>(res.hits),
                static_cast<double>(res.lookups)));
    m.add("mapping.store.lookup_ms",
          ratio(1e3 * res.lookupSeconds, static_cast<double>(res.lookups)));
    m.add("mapping.store.save_ms",
          ratio(1e3 * res.saveSeconds, static_cast<double>(res.saves)));
    m.add("mapping.store.entries", res.entries);
    m.add("ham.qubit_map.seconds", self("ham.qubit_map"));
    m.add("ham.qubit_map.monomials", res.mapped);
    m.add("io.emit.seconds", self("io.emit"));
    m.add("io.emit.bytes", res.emitBytes);
    m.add("device.route.seconds", self("device.route"));
    m.add("device.route.swaps", res.swaps);
    m.add("device.route.cnots", res.cnots);
    m.add("device.route.depth", res.depth);
    for (const char *layer : kLayers)
        m.add(std::string(layer) + ".failed", failed(layer));

    double attributed = 0.0;
    for (const char *layer : kLayers)
        attributed += self(layer);
    m.add("unattributed.seconds", res.wall - attributed);
    m.add("trace.coverage", ratio(attributed, res.wall));
    m.add("trace.wall_s", res.wall);
    m.add("trace.untraced_wall_s", base.wall);
    m.add("trace.overhead_s", res.wall - base.wall);

    JsonValue layers = JsonValue::object();
    for (const char *layer : kLayers)
        layers.add(layer, self(layer));
    layers.add("unattributed", res.wall - attributed);

    JsonValue doc = JsonValue::object();
    doc.add("metrics", std::move(m));
    doc.add("self_seconds", std::move(layers));
    doc.add("calls", res.calls);
    return doc;
}

} // namespace perfbench
