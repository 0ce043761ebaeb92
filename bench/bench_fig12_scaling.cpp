/**
 * @file
 * Reproduces Fig. 12: compilation-time scaling on H = sum_i M_i.
 *  - FH* exact (exhaustive trees x assignments): combinatorial blow-up,
 *    the stand-in for Fermihedral's exponential SAT growth;
 *  - HATT (unopt): Algorithm 1, O(N^4);
 *  - HATT: Algorithms 2+3, O(N^3).
 * Then HATT alone on L x L Fermi-Hubbard lattices (L = 16, 32, 64, i.e.
 * 512 to 8192 modes), the regime where construction dominates a
 * compile. Prints times and the fitted log-log slope of each curve, and
 * emits BENCH_fig12_scaling.json with per-configuration wall times.
 */

#include <cmath>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"

using namespace hatt;
using namespace hatt::bench;

namespace {

double
fitSlope(const std::vector<std::pair<double, double>> &pts)
{
    // Least squares on (log n, log t).
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (auto [x, y] : pts) {
        double lx = std::log(x), ly = std::log(y);
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    double n = static_cast<double>(pts.size());
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 12: compilation time scaling (H = sum Mi) ==="
              << "\n";
    TablePrinter table({"Modes", "FH* exact (s)", "HATT unopt (s)",
                        "HATT (s)"});
    JsonReporter json("fig12_scaling");

    std::vector<std::pair<double, double>> fh_pts, unopt_pts, opt_pts;

    const std::vector<uint32_t> sizes{2, 3, 4, 6, 8, 12, 16, 24, 32,
                                      48, 64, 96, 128};

    // Model construction is independent per size: farm it out to the
    // work pool (the timed sections below stay strictly sequential so
    // wall times are undisturbed).
    std::vector<MajoranaPolynomial> polys(sizes.size());
    parallelFor(sizes.size(), 1,
                [&](size_t i) { polys[i] = majoranaChain(sizes[i]); });

    for (size_t si = 0; si < sizes.size(); ++si) {
        const uint32_t n = sizes[si];
        const MajoranaPolynomial &poly = polys[si];

        std::string fh_cell = "-";
        if (n <= 4) {
            Timer t;
            auto res = exhaustiveTreeSearch(poly, 4);
            double secs = t.seconds();
            if (res) {
                fh_cell = TablePrinter::num(secs, 4);
                fh_pts.emplace_back(n, std::max(secs, 1e-7));
                json.add("fh_exact_n" + std::to_string(n), secs,
                         res->weight, res->evaluated);
            }
        }

        // Both HATT variants go through the registry — the same
        // construction path hattc ships; the BENCH witnesses
        // (predicted weight, candidates) ride along in the metrics.
        Timer t1;
        MappingResult r1 = buildMappingResult("hatt-unopt", poly);
        double unopt_secs = t1.seconds();
        unopt_pts.emplace_back(n, std::max(unopt_secs, 1e-7));
        json.add("hatt_unopt_n" + std::to_string(n), unopt_secs,
                 r1.metrics.counters.at("predicted_weight"),
                 r1.metrics.candidates);

        Timer t2;
        MappingResult r2 = buildMappingResult("hatt", poly);
        double opt_secs = t2.seconds();
        opt_pts.emplace_back(n, std::max(opt_secs, 1e-7));
        json.add("hatt_n" + std::to_string(n), opt_secs,
                 r2.metrics.counters.at("predicted_weight"),
                 r2.metrics.candidates);

        table.addRow({std::to_string(n), fh_cell,
                      TablePrinter::num(unopt_secs, 5),
                      TablePrinter::num(opt_secs, 5)});
    }
    table.print(std::cout);

    // Slopes over the asymptotic tail (>= 16 modes).
    auto tail = [](const std::vector<std::pair<double, double>> &pts) {
        std::vector<std::pair<double, double>> out;
        for (auto p : pts)
            if (p.first >= 16)
                out.push_back(p);
        return out;
    };
    std::cout << "log-log slope FH* exact (2..4 modes): "
              << TablePrinter::num(fitSlope(fh_pts), 2)
              << " (combinatorial)\n";
    std::cout << "log-log slope HATT unopt (>=16 modes): "
              << TablePrinter::num(fitSlope(tail(unopt_pts)), 2)
              << " (paper: ~4)\n";
    std::cout << "log-log slope HATT (>=16 modes): "
              << TablePrinter::num(fitSlope(tail(opt_pts)), 2)
              << " (paper: ~3)\n";

    std::cout << "\n=== HATT construction on L x L Hubbard ===\n";
    TablePrinter hub_table({"L", "Modes", "HATT (s)"});
    std::vector<std::pair<double, double>> hub_pts;
    for (uint32_t side : {16u, 32u, 64u}) {
        const MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
            hubbardModel({side, side, 1.0, 4.0}));
        Timer t;
        MappingResult r = buildMappingResult("hatt", poly);
        const double secs = t.seconds();
        hub_pts.emplace_back(poly.numModes(), std::max(secs, 1e-7));
        json.add("hatt_hubbard_L" + std::to_string(side), secs,
                 r.metrics.counters.at("predicted_weight"),
                 r.metrics.candidates);
        hub_table.addRow({std::to_string(side),
                          std::to_string(poly.numModes()),
                          TablePrinter::num(secs, 4)});
    }
    hub_table.print(std::cout);
    std::cout << "log-log slope HATT Hubbard (512..8192 modes): "
              << TablePrinter::num(fitSlope(hub_pts), 2) << "\n";
    std::cout << "log-log slope HATT Hubbard (2048 -> 8192 modes): "
              << TablePrinter::num(
                     fitSlope({hub_pts[1], hub_pts[2]}), 2)
              << "\n";
    std::cout << "wrote " << json.write() << "\n";
    return 0;
}
