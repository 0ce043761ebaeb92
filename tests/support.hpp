#ifndef HATT_TESTS_SUPPORT_HPP
#define HATT_TESTS_SUPPORT_HPP

/**
 * @file
 * Helpers shared by the test binaries: source-tree paths (CMake defines
 * HATT_SOURCE_DIR for every test target) and the metrics-snapshot
 * checker run over every emitted "metrics" section (hattc stats --json,
 * batch_stats.json, batch_report.json, documented hatt-stats examples).
 */

#include <string>

#include "common/metrics.hpp"
#include "io/json.hpp"

namespace hatt::test {

/** @p rel resolved against the source tree root. */
inline std::string
sourcePath(const std::string &rel)
{
    return std::string(HATT_SOURCE_DIR) + "/" + rel;
}

/** A file of the sample corpus under examples/data/. */
inline std::string
dataFile(const std::string &name)
{
    return sourcePath("examples/data/" + name);
}

/**
 * Read a {"deterministic", "volatile"} metrics section back into a
 * Snapshot (into @p out when given), checking what the writer
 * guarantees: every counter is a non-negative integer, every timing has
 * count >= 1 and min <= max <= total. The volatile section may be
 * absent (batch_report.json mirrors counters only).
 * @return the first violation, or "" when the section is well-formed.
 */
inline std::string
metricsSnapshotError(const io::JsonValue &section,
                     metrics::Snapshot *out = nullptr)
{
    metrics::Snapshot snap;
    std::string where = "metrics";
    try {
        for (const auto &[name, count] :
             section.at("deterministic").asObject()) {
            where = "counter '" + name + "'";
            snap.counters[name] = static_cast<uint64_t>(count.asInt(0));
        }
        const io::JsonValue *vol = section.find("volatile");
        for (const auto &[name, rec] :
             vol ? vol->asObject() : io::JsonValue::Object{}) {
            where = "timing '" + name + "'";
            metrics::TimingStat &stat = snap.timings[name];
            stat.count = static_cast<uint64_t>(rec.at("count").asInt(1));
            stat.total = rec.at("total_seconds").asNumber();
            stat.min = rec.at("min_seconds").asNumber();
            stat.max = rec.at("max_seconds").asNumber();
            if (!(0.0 <= stat.min && stat.min <= stat.max &&
                  stat.max <= stat.total))
                return where + ": violates 0 <= min <= max <= total";
        }
    } catch (const io::ParseError &e) {
        return where + ": " + e.what();
    }
    if (out)
        *out = std::move(snap);
    return "";
}

} // namespace hatt::test

#endif // HATT_TESTS_SUPPORT_HPP
