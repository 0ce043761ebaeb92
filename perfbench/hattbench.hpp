#ifndef HATT_PERFBENCH_HATTBENCH_HPP
#define HATT_PERFBENCH_HATTBENCH_HPP

/**
 * @file
 * hattbench: the benchmark's own helper program. Three subcommands,
 * each a thin layer over the public libhatt API:
 *   corpus  seeded input generator (Hubbard lattices from
 *           models/hubbard, molecules from chem/, written as .ops and
 *           FCIDUMP), one manifest per workload;
 *   check   independent anticommutation check of emitted
 *           mapping.json files with the benchmark's own bit parity;
 *   replay  the traced per-layer run: each layer's public function is
 *           called in the order io::compileInput composes them, with
 *           spans recorded here, never inside the library.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

/** Write every input of @p workload for @p seed into @p dir and return
    the manifest (also saved as <dir>/corpus.json). */
hatt::io::JsonValue makeCorpus(const std::string &workload, uint64_t seed,
                               const std::string &dir);

/** Check each mapping.json; one result object per file. */
hatt::io::JsonValue checkMappings(const std::vector<std::string> &paths);

/** Run the replay plan at @p plan_path (warm-up, untraced and traced
    passes); write the Chrome trace of the traced pass to @p trace_path
    and return the per-layer metrics. */
hatt::io::JsonValue replay(const std::string &plan_path,
                           const std::string &trace_path);

} // namespace perfbench

#endif // HATT_PERFBENCH_HATTBENCH_HPP
