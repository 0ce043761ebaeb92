/**
 * @file
 * Google-benchmark microbenchmarks of the hot substrate operations:
 * Pauli string products, Majorana preprocessing, Hamiltonian mapping,
 * HATT construction and artifact emission. Also emits
 * BENCH_micro_pauli.json (fixed-repetition wall times for the headline
 * kernels) so the perf trajectory is tracked across PRs.
 */

#include <algorithm>
#include <filesystem>

#include <unistd.h>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/serialize.hpp"
#include "io/stream.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/search.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"

namespace {

using namespace hatt;

PauliString
randomString(uint32_t n, Rng &rng)
{
    PauliString s(n);
    for (uint32_t q = 0; q < n; ++q)
        s.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
    return s;
}

void
BM_PauliMultiply(benchmark::State &state)
{
    Rng rng(1);
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    PauliString a = randomString(n, rng);
    PauliString b = randomString(n, rng);
    for (auto _ : state) {
        auto [c, phase] = PauliString::multiply(a, b);
        benchmark::DoNotOptimize(c);
        benchmark::DoNotOptimize(phase);
    }
}
BENCHMARK(BM_PauliMultiply)->Arg(16)->Arg(64)->Arg(256);

void
BM_PauliWeight(benchmark::State &state)
{
    Rng rng(2);
    PauliString a =
        randomString(static_cast<uint32_t>(state.range(0)), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.weight());
}
BENCHMARK(BM_PauliWeight)->Arg(64)->Arg(512);

void
BM_MajoranaPreprocess(benchmark::State &state)
{
    HubbardParams params;
    params.rows = 2;
    params.cols = static_cast<uint32_t>(state.range(0));
    FermionHamiltonian hf = hubbardModel(params);
    for (auto _ : state)
        benchmark::DoNotOptimize(MajoranaPolynomial::fromFermion(hf));
}
BENCHMARK(BM_MajoranaPreprocess)->Arg(2)->Arg(4)->Arg(8);

void
BM_MapToQubitsJw(benchmark::State &state)
{
    HubbardParams params;
    params.rows = 2;
    params.cols = static_cast<uint32_t>(state.range(0));
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(hubbardModel(params));
    FermionQubitMapping jw = jordanWignerMapping(poly.numModes());
    for (auto _ : state)
        benchmark::DoNotOptimize(mapToQubits(poly, jw));
}
BENCHMARK(BM_MapToQubitsJw)->Arg(2)->Arg(4)->Arg(8);

void
BM_HattBuild(benchmark::State &state)
{
    MajoranaPolynomial poly =
        majoranaChain(static_cast<uint32_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(buildHattMapping(poly));
}
BENCHMARK(BM_HattBuild)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

/**
 * A molecule-shaped two-body stream: every a†_p a†_q a_r a_s with p < q
 * and r < s over @p modes spin orbitals, seeded coefficients.
 */
std::vector<FermionTerm>
moleculeShapedTerms(uint32_t modes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<FermionTerm> terms;
    for (uint32_t p = 0; p < modes; ++p)
        for (uint32_t q = p + 1; q < modes; ++q)
            for (uint32_t r = 0; r < modes; ++r)
                for (uint32_t s = r + 1; s < modes; ++s)
                    terms.push_back(FermionTerm{
                        cplx{rng.nextDouble() - 0.5, 0.0},
                        {create(p), create(q), annihilate(r),
                         annihilate(s)}});
    return terms;
}

/** Fixed-workload wall times for the JSON perf log. */
void
writeJsonLog()
{
    bench::JsonReporter json("micro_pauli");

    {
        Rng rng(3);
        PauliString a = randomString(64, rng);
        PauliString b = randomString(64, rng);
        constexpr int reps = 2'000'000;
        Timer t;
        uint64_t sink = 0;
        for (int i = 0; i < reps; ++i) {
            auto [c, phase] = PauliString::multiply(a, b);
            sink += c.weight() + static_cast<uint64_t>(phase);
        }
        benchmark::DoNotOptimize(sink);
        json.add("pauli_multiply_64q_x" + std::to_string(reps),
                 t.seconds());

        // Same workload with a disarmed trace::Span per iteration: the
        // twin record pins the observability contract that an unarmed
        // span costs one relaxed atomic load — the two records must
        // stay within each other's run-to-run noise.
        Timer t2;
        uint64_t sink2 = 0;
        for (int i = 0; i < reps; ++i) {
            trace::Span span("bench", "pauli_multiply");
            auto [c, phase] = PauliString::multiply(a, b);
            sink2 += c.weight() + static_cast<uint64_t>(phase);
        }
        benchmark::DoNotOptimize(sink2);
        json.add("pauli_multiply_64q_span_x" + std::to_string(reps),
                 t2.seconds());
    }

    {
        // The production preprocessing path (io::compileInput): the
        // sharded streaming preprocessor, best of 3. The monomial count
        // is the determinism witness.
        constexpr uint32_t modes = 24;
        const std::vector<FermionTerm> terms = moleculeShapedTerms(modes, 7);
        double best = 0.0;
        size_t monomials = 0;
        for (int rep = 0; rep < 3; ++rep) {
            std::vector<FermionTerm> feed = terms;
            Timer t;
            io::ShardedMajoranaPreprocessor pre;
            for (FermionTerm &term : feed)
                pre.add(std::move(term));
            pre.ensureModes(modes);
            monomials = pre.finish().size();
            const double s = t.seconds();
            best = rep == 0 ? s : std::min(best, s);
        }
        json.add("majorana_preprocess_mol" + std::to_string(modes), best,
                 std::nullopt, monomials);
    }

    {
        // The emit layer of a 2048-mode (32x32 Hubbard) JW compile:
        // build the mapping + qubit-Hamiltonian documents and stream
        // them to disk through saveJsonFile, as io::compileInput does,
        // best of 3. The Pauli weight is the determinism witness.
        const HubbardParams params{32, 32, 1.0, 4.0, false};
        const MajoranaPolynomial poly =
            MajoranaPolynomial::fromFermion(hubbardModel(params));
        const FermionQubitMapping map =
            jordanWignerMapping(hubbardNumModes(params));
        const PauliSum hq = mapToQubits(poly, map);
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            ("hatt_bench_emit_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            Timer t;
            io::saveJsonFile((dir / "mapping.json").string(),
                             io::mappingToJson(map));
            io::saveJsonFile((dir / "qubit.json").string(),
                             io::pauliSumToJson(hq));
            const double s = t.seconds();
            best = rep == 0 ? s : std::min(best, s);
        }
        std::filesystem::remove_all(dir);
        json.add("emit_hubbard32_jw", best, hq.pauliWeight());
    }

    for (uint32_t n : {64u, 128u}) {
        MajoranaPolynomial poly = majoranaChain(n);
        Timer t;
        HattResult res = buildHattMapping(poly);
        json.add("hatt_build_chain" + std::to_string(n), t.seconds(),
                 res.stats.predictedWeight, res.stats.candidatesEvaluated);

        HattOptions unopt;
        unopt.vacuumPairing = false;
        unopt.descCache = false;
        Timer t2;
        HattResult res2 = buildHattMapping(poly, unopt);
        json.add("hatt_unopt_build_chain" + std::to_string(n), t2.seconds(),
                 res2.stats.predictedWeight,
                 res2.stats.candidatesEvaluated);
    }

    {
        MajoranaPolynomial poly =
            MajoranaPolynomial::fromFermion(hubbardModel({2, 8, 1.0, 4.0}));
        Timer t;
        SearchResult res = stochasticTreeSearch(poly, 4, 20, 2024);
        json.add("stochastic_search_hub2x8", t.seconds(), res.weight,
                 res.evaluated);
    }

    std::cout << "wrote " << json.write() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeJsonLog();
    return 0;
}
