// hattbench — helper program of the hattc/hattd benchmark (run.py).
//
//   hattbench corpus <workload> <seed> <dir>   write the seeded inputs
//   hattbench check <mapping.json>...          anticommutation check
//   hattbench replay <plan.json> <trace.json>  traced per-layer run
//
// Each prints one JSON document on stdout; exit 0 unless the command
// itself could not run.

#include <iostream>

#include "hattbench.hpp"

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "corpus" && argc == 5) {
            std::cout << perfbench::makeCorpus(argv[2], std::stoull(argv[3]),
                                               argv[4])
                             .dump()
                      << "\n";
            return 0;
        }
        if (cmd == "check" && argc >= 3) {
            std::cout << perfbench::checkMappings(
                             std::vector<std::string>(argv + 2, argv + argc))
                             .dump()
                      << "\n";
            return 0;
        }
        if (cmd == "replay" && argc == 4) {
            std::cout << perfbench::replay(argv[2], argv[3]).dump() << "\n";
            return 0;
        }
    } catch (const std::exception &e) {
        std::cerr << "hattbench " << cmd << ": " << e.what() << "\n";
        return 1;
    }
    std::cerr << "usage: hattbench corpus <workload> <seed> <dir>\n"
                 "       hattbench check <mapping.json>...\n"
                 "       hattbench replay <plan.json> <trace.json>\n";
    return 64;
}
