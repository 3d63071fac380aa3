/**
 * @file
 * Measurement-cost microbenchmarks (Section V's "3X speedup" claim).
 *
 * The paper's motivation for feature selection is profiling cost: all
 * 47 characteristics take ~110 machine-days, the 8 GA-selected ones
 * ~37 (about 3X less), because fewer analyzer families need to run.
 * These google-benchmark timers measure each analyzer family and the
 * full vs key-subset collection over identical traces, for both the
 * batched engine (the default) and the per-record reference path.
 *
 * Besides the google-benchmark timers, `--json=<path>` runs a small
 * self-timed harness and writes a machine-readable mica-perf-profile/2
 * document: every family runs one untimed warmup pass plus --reps
 * timed repetitions, and each metric is a dispersion summary
 * ({p50, p90, min, max, n} via util::QuantileSketch) instead of a
 * single-shot number, so `mica perf compare` can gate regressions
 * against noise. `--enable-file=<F>` restricts the run to the
 * families named in an enable JSON (the benchmark-automation
 * contract; see `mica capabilities` for the family list).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "isa/interpreter.hh"
#include "legacy_analyzers.hh"
#include "legacy_fitness.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "mica/ilp.hh"
#include "mica/inst_mix.hh"
#include "mica/ppm.hh"
#include "mica/reg_traffic.hh"
#include "mica/runner.hh"
#include "mica/strides.hh"
#include "mica/working_set.hh"
#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "util/quantile.hh"
#include "service/query_engine.hh"
#include "service/server.hh"
#include "stats/kmeans.hh"
#include "stats/rng.hh"
#include "trace/engine.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "uarch/hpc_runner.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mica;

/** Pre-generated replay trace shared by all analyzer benchmarks. */
const std::vector<InstRecord> &
sharedTrace()
{
    static const std::vector<InstRecord> trace = [] {
        RandomTraceParams p;
        p.numInsts = 200000;
        p.seed = 42;
        RandomTraceSource src(p);
        std::vector<InstRecord> v;
        v.reserve(p.numInsts);
        InstRecord r;
        while (src.next(r))
            v.push_back(r);
        return v;
    }();
    return trace;
}

/** Paper Table IV key-characteristic subset. */
const std::vector<size_t> &
keySubset()
{
    static const std::vector<size_t> key = {PctLoads, AvgInputOperands,
                                            RegDepLe8, LocalLoadStrideLe64,
                                            GlobalLoadStrideLe512,
                                            LocalStoreStrideLe4096,
                                            DWorkSet4K, Ilp256};
    return key;
}

template <typename Analyzer, typename... Args>
void
runAnalyzer(benchmark::State &state, Args &&...args)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        Analyzer a(std::forward<Args>(args)...);
        for (const auto &r : trace)
            a.accept(r);
        a.finish();
        benchmark::DoNotOptimize(&a);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(trace.size()));
}

/** Same analyzer, driven through one acceptBatch span per iteration. */
template <typename Analyzer, typename... Args>
void
runAnalyzerBatched(benchmark::State &state, Args &&...args)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        Analyzer a(std::forward<Args>(args)...);
        a.acceptBatch(trace.data(), trace.size());
        a.finish();
        benchmark::DoNotOptimize(&a);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(trace.size()));
}

void BM_InstMix(benchmark::State &s) { runAnalyzer<InstMixAnalyzer>(s); }
void BM_Ilp(benchmark::State &s) { runAnalyzer<IlpAnalyzer>(s); }
void BM_RegTraffic(benchmark::State &s)
{
    runAnalyzer<RegTrafficAnalyzer>(s);
}
void BM_WorkingSet(benchmark::State &s)
{
    runAnalyzer<WorkingSetAnalyzer>(s);
}
void BM_Strides(benchmark::State &s) { runAnalyzer<StrideAnalyzer>(s); }
void BM_Ppm(benchmark::State &s)
{
    runAnalyzer<PpmBranchAnalyzer>(s, 8u);
}

BENCHMARK(BM_InstMix);
BENCHMARK(BM_Ilp);
BENCHMARK(BM_RegTraffic);
BENCHMARK(BM_WorkingSet);
BENCHMARK(BM_Strides);
BENCHMARK(BM_Ppm);

void BM_InstMixBatched(benchmark::State &s)
{
    runAnalyzerBatched<InstMixAnalyzer>(s);
}
void BM_IlpBatched(benchmark::State &s)
{
    runAnalyzerBatched<IlpAnalyzer>(s);
}
void BM_RegTrafficBatched(benchmark::State &s)
{
    runAnalyzerBatched<RegTrafficAnalyzer>(s);
}
void BM_WorkingSetBatched(benchmark::State &s)
{
    runAnalyzerBatched<WorkingSetAnalyzer>(s);
}
void BM_StridesBatched(benchmark::State &s)
{
    runAnalyzerBatched<StrideAnalyzer>(s);
}
void BM_PpmBatched(benchmark::State &s)
{
    runAnalyzerBatched<PpmBranchAnalyzer>(s, 8u);
}

BENCHMARK(BM_InstMixBatched);
BENCHMARK(BM_IlpBatched);
BENCHMARK(BM_RegTrafficBatched);
BENCHMARK(BM_WorkingSetBatched);
BENCHMARK(BM_StridesBatched);
BENCHMARK(BM_PpmBatched);

/**
 * Full 47-characteristic collection over the shared replay trace —
 * the apples-to-apples engine comparison: identical records, identical
 * analyzers, only the dispatch granularity differs.
 */
void
runFullProfile(benchmark::State &state, size_t engineBatch)
{
    VectorTraceSource src(sharedTrace());
    for (auto _ : state) {
        src.reset();
        MicaRunnerConfig cfg;
        cfg.engineBatch = engineBatch;
        const MicaProfile p = collectMicaProfile(src, "x", cfg);
        benchmark::DoNotOptimize(p.values[0]);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sharedTrace().size()));
}

void BM_FullProfilePerRecord(benchmark::State &s) { runFullProfile(s, 0); }
void BM_FullProfileBatched(benchmark::State &s)
{
    runFullProfile(s, AnalysisEngine::kDefaultBatchSize);
}

BENCHMARK(BM_FullProfilePerRecord);
BENCHMARK(BM_FullProfileBatched);

/**
 * The seed baseline: all six PR-1 analyzer implementations (node
 * containers, two-pass PPM, modulo ILP) driven record-at-a-time —
 * what one full profile cost before this change. The key-subset
 * variant drops PPM, mirroring which families the Table IV subset
 * needs.
 */
struct LegacyAnalyzerSet
{
    legacy::InstMixAnalyzer mix;
    legacy::IlpAnalyzer ilp;
    legacy::RegTrafficAnalyzer rt;
    legacy::WorkingSetAnalyzer ws;
    legacy::StrideAnalyzer st;
    legacy::PpmBranchAnalyzer ppm{8};

    void
    addTo(AnalysisEngine &eng, bool keyOnly)
    {
        eng.add(&mix);
        eng.add(&ilp);
        eng.add(&rt);
        eng.add(&ws);
        eng.add(&st);
        if (!keyOnly)
            eng.add(&ppm);
    }
};

/** One record-at-a-time run of the frozen seed analyzer set. */
void
runSeedOnce(VectorTraceSource &src, bool keyOnly)
{
    LegacyAnalyzerSet set;
    AnalysisEngine eng;
    set.addTo(eng, keyOnly);
    src.reset();
    eng.runPerRecord(src);
    benchmark::DoNotOptimize(&eng);
}

template <bool KeyOnly>
void
runSeedBaseline(benchmark::State &state)
{
    VectorTraceSource src(sharedTrace());
    for (auto _ : state)
        runSeedOnce(src, KeyOnly);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sharedTrace().size()));
}

void BM_FullProfileSeedBaseline(benchmark::State &s)
{
    runSeedBaseline<false>(s);
}
void BM_KeySubsetSeedBaseline(benchmark::State &s)
{
    runSeedBaseline<true>(s);
}

BENCHMARK(BM_FullProfileSeedBaseline);
BENCHMARK(BM_KeySubsetSeedBaseline);

/** Full 47-characteristic collection over a registry benchmark. */
void
BM_CollectAll47(benchmark::State &state)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "SPEC2000/bzip2.source");
    const isa::Program prog = e->build();
    uint64_t insts = 0;
    for (auto _ : state) {
        isa::Interpreter interp(prog);
        MicaRunnerConfig cfg;
        cfg.maxInsts = 100000;
        const MicaProfile p = collectMicaProfile(interp, "x", cfg);
        insts = p.instCount;
        benchmark::DoNotOptimize(p.values[0]);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(insts));
}
BENCHMARK(BM_CollectAll47);

/** Key-subset collection (the paper's Table IV set). */
void
BM_CollectKey8(benchmark::State &state)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "SPEC2000/bzip2.source");
    const isa::Program prog = e->build();
    uint64_t insts = 0;
    for (auto _ : state) {
        isa::Interpreter interp(prog);
        MicaRunnerConfig cfg;
        cfg.maxInsts = 100000;
        const MicaProfile p =
            collectMicaProfileSubset(interp, "x", keySubset(), cfg);
        insts = p.instCount;
        benchmark::DoNotOptimize(p.values[0]);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(insts));
}
BENCHMARK(BM_CollectKey8);

/** The HPC characterization for scale (fast on real HW, simulated here). */
void
BM_CollectHpc(benchmark::State &state)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "SPEC2000/bzip2.source");
    const isa::Program prog = e->build();
    for (auto _ : state) {
        isa::Interpreter interp(prog);
        const auto p = uarch::collectHwProfile(interp, "x", 100000);
        benchmark::DoNotOptimize(p.ipcEv56);
    }
}
BENCHMARK(BM_CollectHpc);

/** Bare interpretation, to separate tracing cost from analysis cost. */
void
BM_InterpreterOnly(benchmark::State &state)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "SPEC2000/bzip2.source");
    const isa::Program prog = e->build();
    for (auto _ : state) {
        isa::Interpreter interp(prog);
        InstRecord r;
        uint64_t n = 0;
        while (n < 100000 && interp.next(r))
            ++n;
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_InterpreterOnly);

// ----------------------------------------------------------------------
// Trace recording / replay benchmarks: what does moving records
// through a file cost relative to interpreting the program directly?
// ----------------------------------------------------------------------

/** The shared trace recorded once to a scratch trace file. */
const std::string &
recordedTracePath()
{
    static const std::string path = [] {
        std::string p =
            (std::filesystem::temp_directory_path() /
             "mica_perf_replay.trace")
                .string();
        VectorTraceSource src(sharedTrace());
        TraceFileWriter w(p);
        RecordingSource tee(src, w);
        std::vector<InstRecord> buf(4096);
        const InstRecord *span = nullptr;
        while (tee.nextSpan(span, buf.data(), buf.size()) != 0) {
        }
        w.close();
        return p;
    }();
    return path;
}

void
BM_TraceRecord(benchmark::State &state)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "mica_perf_record_bm.trace")
            .string();
    VectorTraceSource src(sharedTrace());
    for (auto _ : state) {
        src.reset();
        TraceFileWriter w(path);
        RecordingSource tee(src, w);
        std::vector<InstRecord> buf(4096);
        const InstRecord *span = nullptr;
        while (tee.nextSpan(span, buf.data(), buf.size()) != 0) {
        }
        w.close();
        benchmark::DoNotOptimize(w.recordCount());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sharedTrace().size()));
    std::filesystem::remove(path);
}
BENCHMARK(BM_TraceRecord);

/** Full 47-characteristic collection replayed from the trace file. */
void
BM_TraceReplay(benchmark::State &state)
{
    const std::string &path = recordedTracePath();
    for (auto _ : state) {
        FileTraceSource src(path);
        const MicaProfile p = collectMicaProfile(src, "x", {});
        benchmark::DoNotOptimize(p.values[0]);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sharedTrace().size()));
}
BENCHMARK(BM_TraceReplay);

// ----------------------------------------------------------------------
// Methodology engine (GA fitness, clustering sweep) benchmarks.
// ----------------------------------------------------------------------

/**
 * Paper-scale synthetic workload space: 122 benchmarks x 47
 * characteristics of fixed gaussian data, so the methodology numbers
 * track the engine, not the profiling pipeline.
 */
const WorkloadSpace &
methodologySpace()
{
    static const WorkloadSpace space = [] {
        Matrix m;
        Rng rng(20061027);
        for (int r = 0; r < 122; ++r) {
            std::vector<double> v(47);
            for (auto &x : v)
                x = rng.gauss();
            m.appendRow(v);
            m.rowNames.push_back("b" + std::to_string(r));
        }
        return WorkloadSpace(std::move(m));
    }();
    return space;
}

/** Fixed bitmask workload with the GA's subset-size distribution. */
const std::vector<uint64_t> &
methodologyMasks()
{
    static const std::vector<uint64_t> masks = [] {
        std::vector<uint64_t> v;
        Rng rng(7);
        const size_t n = methodologySpace().numChars();
        for (int i = 0; i < 256; ++i) {
            const double density = 0.1 + 0.8 * rng.unit();
            uint64_t m = 0;
            for (size_t c = 0; c < n; ++c)
                if (rng.chance(density))
                    m |= 1ull << c;
            v.push_back(m ? m : 1);
        }
        return v;
    }();
    return masks;
}

void
BM_GaFitnessSeed(benchmark::State &state)
{
    legacy::FitnessEval eval(methodologySpace());
    for (auto _ : state) {
        double acc = 0.0;
        // Clone the engine so every iteration starts with a cold memo,
        // like the masks of one fresh GA generation.
        legacy::FitnessEval fresh = eval;
        for (uint64_t m : methodologyMasks())
            acc += fresh(m).first;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(methodologyMasks().size()));
}
BENCHMARK(BM_GaFitnessSeed);

void
BM_GaFitnessEngine(benchmark::State &state)
{
    FitnessEval eval(methodologySpace());
    for (auto _ : state) {
        double acc = 0.0;
        for (uint64_t m : methodologyMasks())
            acc += eval.compute(m).first;    // pure path, no memo
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(methodologyMasks().size()));
}
BENCHMARK(BM_GaFitnessEngine);

void
BM_BicSweep(benchmark::State &state)
{
    const Matrix reduced = methodologySpace().normalized().selectCols(
        {0, 1, 2, 3, 4, 5, 6, 7});
    for (auto _ : state) {
        const BicSweepResult r = bicSweep(reduced, 24, 5);
        benchmark::DoNotOptimize(r.chosenK);
    }
}
BENCHMARK(BM_BicSweep);

// ----------------------------------------------------------------------
// Index family: fingerprint-index build and query throughput. The
// population is synthetic but index-shaped: a few thousand workloads
// in a GA-reduced-size space, far past the paper's 122, so the exact
// scan is measured at a corpus size it has to stay fast at.
// ----------------------------------------------------------------------

constexpr size_t kIndexPoints = 4096;
constexpr size_t kIndexDim = 16;
constexpr size_t kIndexK = 10;

/** Raw dataset the index benchmarks fingerprint. */
const Matrix &
indexDataset()
{
    static const Matrix m = [] {
        Matrix raw;
        Rng rng(20061027);
        for (size_t r = 0; r < kIndexPoints; ++r) {
            std::vector<double> v(kIndexDim);
            for (auto &x : v)
                x = rng.gauss();
            raw.appendRow(v);
            raw.rowNames.push_back("w" + std::to_string(r));
        }
        return raw;
    }();
    return m;
}

const index::FingerprintIndex &
indexCorpus()
{
    static const index::FingerprintIndex idx =
        index::FingerprintIndex::build(indexDataset());
    return idx;
}

void
BM_IndexBuild(benchmark::State &state)
{
    const Matrix &raw = indexDataset();
    for (auto _ : state) {
        const auto idx = index::FingerprintIndex::build(raw);
        benchmark::DoNotOptimize(idx.size());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kIndexPoints));
}
BENCHMARK(BM_IndexBuild);

void
BM_IndexKnn(benchmark::State &state)
{
    const auto &idx = indexCorpus();
    size_t q = 0;
    for (auto _ : state) {
        const auto r = idx.knn(q, kIndexK);
        benchmark::DoNotOptimize(r.data());
        q = (q + 1) % idx.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexKnn);

// ----------------------------------------------------------------------
// serve family: the similarity-query daemon under load. The snapshot
// is the synthetic index corpus (queries run the same scan the
// index family measures; only knn is asked, so the snapshot needs no
// answer tables), so the delta between local_requests_per_sec and
// the daemon numbers is exactly what the wire adds: socket round trip
// and one poll pass of the connection's event loop.
// ----------------------------------------------------------------------

/** The immutable snapshot every serve benchmark queries. */
std::shared_ptr<const service::ServerSnapshot>
serveSnapshot()
{
    static const std::shared_ptr<const service::ServerSnapshot> snap =
        [] {
            auto s = std::make_shared<service::ServerSnapshot>();
            s->idx = indexCorpus();
            s->space = "mica";
            s->key = "bench-serve";
            s->maxPairDist = 1.0;
            return s;
        }();
    return snap;
}

/** A daemon on a temp unix socket, alive for the harness's lifetime. */
struct ServeHarness
{
    std::filesystem::path dir;
    std::unique_ptr<service::Server> server;
    std::thread loop;

    ServeHarness()
    {
        dir = std::filesystem::temp_directory_path() /
              "mica_perf_serve";
        std::filesystem::create_directories(dir);
        service::ServerOptions opt;
        opt.address = "unix:" + (dir / "bench.sock").string();
        opt.jobs = 4;   // event loops
        server = std::make_unique<service::Server>(
            opt, serveSnapshot(), experiments::DatasetConfig{},
            service::SpaceChoice{});
        std::string err;
        if (!server->start(&err)) {
            std::cerr << "serve bench: " << err << "\n";
            return;
        }
        loop = std::thread([this] { server->run(); });
    }

    ~ServeHarness()
    {
        if (loop.joinable()) {
            server->requestStop();
            loop.join();
        }
        std::filesystem::remove_all(dir);
    }
};

/** One knn request line against the synthetic corpus. */
std::string
serveRequestLine(size_t i)
{
    const auto &idx = indexCorpus();
    return "{\"op\":\"knn\",\"bench\":\"" +
           idx.nameOf(i % idx.size()) + "\",\"k\":10}";
}

void
BM_ServeRoundTrip(benchmark::State &state)
{
    static ServeHarness harness;
    service::ServiceClient client;
    std::string err;
    if (!client.connect(harness.server->boundAddress(), &err)) {
        state.SkipWithError(err.c_str());
        return;
    }
    size_t i = 0;
    for (auto _ : state) {
        std::string reply;
        if (!client.request(serveRequestLine(i++), &reply, &err)) {
            state.SkipWithError(err.c_str());
            return;
        }
        benchmark::DoNotOptimize(reply.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeRoundTrip);

// ----------------------------------------------------------------------
// --json mode: self-timed dispersion profile for trend tracking and
// regression gating. Every family runs one untimed warmup pass (so a
// cold first iteration never sets the number) and then g_reps timed
// repetitions whose per-rep rates feed a deterministic quantile
// sketch; the emitted summary is {p50, p90, min, max, n}.
// ----------------------------------------------------------------------

/** Timed repetitions per family (--reps=N; warmup is extra). */
int g_reps = 5;

/** One metric's dispersion over the timed repetitions. */
struct Summary
{
    double p50 = 0.0;
    double p90 = 0.0;
    double min = 0.0;
    double max = 0.0;
    uint64_t n = 0;
};

Summary
fromSketch(const util::QuantileSketch &sk)
{
    Summary s;
    s.p50 = sk.quantile(0.5);
    s.p90 = sk.quantile(0.9);
    s.min = sk.min();
    s.max = sk.max();
    s.n = sk.count();
    return s;
}

/** Warmup + g_reps timed runs; per-rep value is items/sec. */
template <typename Fn>
Summary
rateSummary(uint64_t items, Fn &&run)
{
    run();   // warmup: first-touch page faults and cold caches
    util::QuantileSketch sk;
    for (int rep = 0; rep < g_reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        run();
        const double dt = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        sk.add(static_cast<double>(items) / std::max(dt, 1e-12));
    }
    return fromSketch(sk);
}

/** Warmup + g_reps timed runs; per-rep value is ns/item. */
template <typename Fn>
Summary
nsSummary(uint64_t items, Fn &&run)
{
    run();
    util::QuantileSketch sk;
    for (int rep = 0; rep < g_reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        run();
        const double ns = std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0).count();
        sk.add(ns / static_cast<double>(items));
    }
    return fromSketch(sk);
}

/** Render one summary as a single-line JSON object. */
void
emitSummary(std::ostream &out, const Summary &s)
{
    out << "{\"p50\": " << s.p50 << ", \"p90\": " << s.p90
        << ", \"min\": " << s.min << ", \"max\": " << s.max
        << ", \"n\": " << s.n << "}";
}

/** Time one analyzer family over the shared trace, batched engine. */
template <typename MakeAnalyzer>
Summary
familyRate(VectorTraceSource &src, MakeAnalyzer &&make)
{
    return rateSummary(src.size(), [&] {
        auto a = make();
        AnalysisEngine eng;
        eng.add(&a);
        src.reset();
        eng.run(src);
        benchmark::DoNotOptimize(&a);
    });
}

/** Time a full or key-subset collection on one engine path. */
Summary
collectRate(VectorTraceSource &src, size_t engineBatch, bool keyOnly)
{
    return rateSummary(src.size(), [&] {
        MicaRunnerConfig cfg;
        cfg.engineBatch = engineBatch;
        src.reset();
        const MicaProfile p = keyOnly
            ? collectMicaProfileSubset(src, "x", keySubset(), cfg)
            : collectMicaProfile(src, "x", cfg);
        benchmark::DoNotOptimize(p.values[0]);
    });
}

/** Time the frozen seed implementations (see legacy_analyzers.hh). */
Summary
seedBaselineRate(VectorTraceSource &src, bool keyOnly)
{
    return rateSummary(src.size(), [&] { runSeedOnce(src, keyOnly); });
}

/** Masks/sec of the frozen seed fitness engine (cold memo per rep). */
Summary
seedFitnessRate()
{
    const auto &masks = methodologyMasks();
    legacy::FitnessEval proto(methodologySpace());
    return rateSummary(masks.size(), [&] {
        legacy::FitnessEval eval = proto;
        double acc = 0.0;
        for (uint64_t m : masks)
            acc += eval(m).first;
        benchmark::DoNotOptimize(acc);
    });
}

/**
 * Masks/sec of the current fitness engine through the pure compute()
 * path, serial or fanned across a pool in the same fixed-size chunks
 * geneticSelect uses.
 */
Summary
engineFitnessRate(const FitnessEval &eval, mica::pipeline::ThreadPool *pool)
{
    const auto &masks = methodologyMasks();
    std::vector<double> out(masks.size());
    const size_t chunks = pool
        ? std::min(masks.size(), pool->workerCount() * 4) : 1;
    return rateSummary(masks.size(), [&] {
        mica::pipeline::parallelBlocks(pool, chunks, [&](size_t b) {
            const size_t lo = masks.size() * b / chunks;
            const size_t hi = masks.size() * (b + 1) / chunks;
            for (size_t i = lo; i < hi; ++i)
                out[i] = eval.compute(masks[i]).first;
        });
        benchmark::DoNotOptimize(out.data());
    });
}

/** GA generations/sec for a fixed-length run (stall exit disabled). */
Summary
gaGenerationsRate(mica::pipeline::ThreadPool *pool)
{
    GaConfig cfg;
    cfg.maxGenerations = 25;
    cfg.stallGenerations = 10000;
    return rateSummary(cfg.maxGenerations, [&] {
        const GaResult r = geneticSelect(methodologySpace(), cfg, pool);
        benchmark::DoNotOptimize(r.fitness);
    });
}

/** Full BIC K-sweeps/sec over the reduced 8-D methodology space. */
Summary
clusterSweepRate(mica::pipeline::ThreadPool *pool)
{
    const Matrix reduced = methodologySpace().normalized().selectCols(
        {0, 1, 2, 3, 4, 5, 6, 7});
    return rateSummary(1, [&] {
        const BicSweepResult r =
            bicSweep(reduced, 24, 5, 0.9, 0.0, pool);
        benchmark::DoNotOptimize(r.chosenK);
    });
}

/**
 * trace_replay family: one registry program, one record stream —
 * profile it from the interpreter vs from a recorded trace file, so
 * the ratio isolates what the trace source itself costs (record =
 * interpret + write; replay = read instead of interpret; open cost,
 * including the full checksum validation pass, is in the loop).
 */
struct TraceReplayRates
{
    uint64_t records = 0;
    Summary interp, record, stream;
};

TraceReplayRates
traceReplayRates()
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "SPEC2000/bzip2.source");
    const isa::Program prog = e->build();
    MicaRunnerConfig cfg;
    cfg.maxInsts = 200000;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "mica_perf_replay_vs_interp.trace")
            .string();

    TraceReplayRates r;
    {
        // Record once (also learns the record count) ...
        isa::Interpreter interp(prog);
        TraceFileWriter w(path);
        RecordingSource tee(interp, w);
        std::vector<InstRecord> buf(4096);
        const InstRecord *span = nullptr;
        size_t got;
        while (r.records < cfg.maxInsts &&
               (got = tee.nextSpan(
                    span, buf.data(),
                    std::min<uint64_t>(buf.size(),
                                       cfg.maxInsts - r.records))) != 0)
            r.records += got;
        w.close();
    }

    r.interp = rateSummary(r.records, [&] {
        isa::Interpreter interp(prog);
        const MicaProfile p = collectMicaProfile(interp, "x", cfg);
        benchmark::DoNotOptimize(p.values[0]);
    });
    r.record = rateSummary(r.records, [&] {
        isa::Interpreter interp(prog);
        TraceFileWriter w(path + ".rec");
        RecordingSource tee(interp, w);
        std::vector<InstRecord> buf(4096);
        const InstRecord *span = nullptr;
        uint64_t n = 0;
        size_t got;
        while (n < cfg.maxInsts &&
               (got = tee.nextSpan(
                    span, buf.data(),
                    std::min<uint64_t>(buf.size(),
                                       cfg.maxInsts - n))) != 0)
            n += got;
        w.close();
        benchmark::DoNotOptimize(n);
    });
    r.stream = rateSummary(r.records, [&] {
        FileTraceSource src(path);
        const MicaProfile p = collectMicaProfile(src, "x", cfg);
        benchmark::DoNotOptimize(p.values[0]);
    });
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".rec");
    return r;
}

/**
 * trace_v2 family: the columnar format over one record stream — encode
 * and decode rates in isolation (no analyzers), the end-to-end replay
 * rate, and the on-disk compression ratio the column streams buy
 * against the flat in-memory records (the base `mica trace ls` uses).
 */
struct TraceV2Rates
{
    uint64_t records = 0;
    uint64_t v2Bytes = 0;
    Summary encode, decode, replayV2;
};

TraceV2Rates
traceV2Rates()
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "SPEC2000/bzip2.source");
    const isa::Program prog = e->build();
    MicaRunnerConfig cfg;
    cfg.maxInsts = 200000;
    const std::string p2 = (std::filesystem::temp_directory_path() /
                            "mica_perf_trace_v2.trace")
                               .string();

    TraceV2Rates r;
    // Keep the records resident so encode timings see no interpreter
    // cost.
    std::vector<InstRecord> recs;
    {
        isa::Interpreter interp(prog);
        std::vector<InstRecord> buf(4096);
        const InstRecord *span = nullptr;
        size_t got;
        while (r.records < cfg.maxInsts &&
               (got = interp.nextSpan(
                    span, buf.data(),
                    std::min<uint64_t>(buf.size(),
                                       cfg.maxInsts - r.records))) != 0) {
            recs.insert(recs.end(), span, span + got);
            r.records += got;
        }
    }
    {
        TraceFileWriter w(p2);
        w.append(recs.data(), recs.size());
        w.close();
    }
    r.v2Bytes = std::filesystem::file_size(p2);

    r.encode = rateSummary(r.records, [&] {
        TraceFileWriter w(p2 + ".enc");
        w.append(recs.data(), recs.size());
        w.close();
        benchmark::DoNotOptimize(w.recordCount());
    });
    r.decode = rateSummary(r.records, [&] {
        FileTraceSource src(p2);
        std::vector<InstRecord> buf(4096);
        const InstRecord *span = nullptr;
        uint64_t n = 0;
        size_t got;
        while ((got = src.nextSpan(span, buf.data(), buf.size())) != 0)
            n += got;
        benchmark::DoNotOptimize(n);
    });
    r.replayV2 = rateSummary(r.records, [&] {
        FileTraceSource src(p2);
        const MicaProfile p = collectMicaProfile(src, "x", cfg);
        benchmark::DoNotOptimize(p.values[0]);
    });
    std::filesystem::remove(p2);
    std::filesystem::remove(p2 + ".enc");
    return r;
}

/** Index builds/sec over the synthetic population. */
Summary
indexBuildRate()
{
    const Matrix &raw = indexDataset();
    return rateSummary(1, [&] {
        const auto idx = index::FingerprintIndex::build(raw);
        benchmark::DoNotOptimize(idx.size());
    });
}

/** Single-query kNN throughput. */
Summary
indexKnnRate()
{
    const auto &idx = indexCorpus();
    const size_t queries = 512;
    return rateSummary(queries, [&] {
        for (size_t q = 0; q < queries; ++q) {
            const auto r = idx.knn(q, kIndexK);
            benchmark::DoNotOptimize(r.data());
        }
    });
}

/**
 * Warm daemon starts/sec: reopen the persisted index snapshot instead
 * of rebuilding (the cold counterpart is indexBuildRate).
 */
Summary
serveSnapshotLoadRate()
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "mica_perf_serve.idx")
                          .string();
    std::string why;
    if (!index::saveIndexSnapshot(indexCorpus(), path, "bench-serve",
                                  &why)) {
        std::cerr << "serve bench: save snapshot: " << why << "\n";
        return {};
    }
    const Summary rate = rateSummary(1, [&] {
        index::FingerprintIndex loaded;
        if (index::loadIndexSnapshot(path, "bench-serve", &loaded,
                                     &why))
            benchmark::DoNotOptimize(loaded.size());
    });
    std::filesystem::remove(path);
    return rate;
}

/** In-process requests/sec: the one-shot CLI path, no socket. */
Summary
serveLocalRate()
{
    auto snap = serveSnapshot();
    constexpr size_t kReqs = 512;
    return rateSummary(kReqs, [&] {
        for (size_t i = 0; i < kReqs; ++i) {
            const std::string reply =
                service::executeLine(*snap, serveRequestLine(i));
            benchmark::DoNotOptimize(reply.data());
        }
    });
}

/** Aggregate daemon requests/sec with @p conns concurrent clients. */
Summary
serveDaemonRate(service::Server &server, size_t conns)
{
    constexpr size_t kPerConn = 256;
    return rateSummary(conns * kPerConn, [&] {
        std::atomic<size_t> failures{0};
        std::vector<std::thread> clients;
        for (size_t c = 0; c < conns; ++c) {
            clients.emplace_back([&, c] {
                service::ServiceClient client;
                std::string err;
                if (!client.connect(server.boundAddress(), &err)) {
                    failures.fetch_add(kPerConn);
                    return;
                }
                std::string reply;
                for (size_t i = 0; i < kPerConn; ++i) {
                    if (!client.request(
                            serveRequestLine(c * kPerConn + i),
                            &reply, &err))
                        failures.fetch_add(1);
                }
            });
        }
        for (auto &t : clients)
            t.join();
        if (failures.load() != 0)
            std::cerr << "serve bench: " << failures.load()
                      << " failed requests\n";
    });
}

/**
 * Per-request knn round-trip latency (microseconds) on one
 * connection: the latency-side complement of the aggregate
 * requests/sec numbers, with every individual request feeding the
 * sketch so the tail (p99) is visible.
 */
struct LatencySummary
{
    double p50 = 0.0, p90 = 0.0, p99 = 0.0, min = 0.0, max = 0.0;
    uint64_t n = 0;
};

void
emitLatencySummary(std::ostream &out, const LatencySummary &s)
{
    out << "{\"p50\": " << s.p50 << ", \"p90\": " << s.p90
        << ", \"p99\": " << s.p99 << ", \"min\": " << s.min
        << ", \"max\": " << s.max << ", \"n\": " << s.n << "}";
}

LatencySummary
latencyFromSketch(const util::QuantileSketch &sk)
{
    LatencySummary s;
    s.p50 = sk.quantile(0.5);
    s.p90 = sk.quantile(0.9);
    s.p99 = sk.quantile(0.99);
    s.min = sk.min();
    s.max = sk.max();
    s.n = sk.count();
    return s;
}

LatencySummary
serveKnnLatencyUs(service::Server &server)
{
    service::ServiceClient client;
    std::string err;
    if (!client.connect(server.boundAddress(), &err)) {
        std::cerr << "serve bench: " << err << "\n";
        return {};
    }
    constexpr size_t kWarmup = 64;
    constexpr size_t kTimed = 1024;
    util::QuantileSketch sk;
    std::string reply;
    for (size_t i = 0; i < kWarmup + kTimed; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!client.request(serveRequestLine(i), &reply, &err)) {
            std::cerr << "serve bench: " << err << "\n";
            return {};
        }
        const double us = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0).count();
        if (i >= kWarmup)
            sk.add(us);
    }
    return latencyFromSketch(sk);
}

/** Whole-population batch kNN throughput (queries/sec). */
Summary
indexBatchRate(mica::pipeline::ThreadPool *pool)
{
    const auto &idx = indexCorpus();
    return rateSummary(idx.size(), [&] {
        const auto r = idx.batchKnn(kIndexK, pool);
        benchmark::DoNotOptimize(r.data());
    });
}

// ----------------------------------------------------------------------
// obs family: what the telemetry layer itself costs. The acceptance
// bar for the subsystem is that an instrumented build with no sinks
// attached keeps >= 97% of the MICA_OBS=0 build's full-profile
// throughput; the reference rate comes from a separately-built binary
// via --obs-ref so the ratio lands in one JSON document.
// ----------------------------------------------------------------------

/** ns per Counter::add on the sharded fast path. */
Summary
counterAddNs()
{
    static obs::Counter c("bench.obs.counter");
    constexpr uint64_t kAdds = 1u << 22;
    return nsSummary(kAdds, [] {
        for (uint64_t i = 0; i < kAdds; ++i)
            c.add(1);
        benchmark::DoNotOptimize(&c);
    });
}

/** ns per armed span (construct, one arg, record into the ring). */
Summary
spanRecordNs()
{
    obs::setTraceEnabled(true);
    constexpr uint64_t kSpans = 1u << 16;
    const Summary ns = nsSummary(kSpans, [] {
        for (uint64_t i = 0; i < kSpans; ++i) {
            obs::ObsSpan sp("bench.obs.span");
            sp.arg("i", i);
        }
    });
    obs::setTraceEnabled(false);
    return ns;
}

/** The canonical family names (enable-file / capabilities contract). */
const std::vector<std::string> &
allFamilies()
{
    static const std::vector<std::string> fams = {
        "analyzers", "engine", "methodology", "trace_replay",
        "trace_v2",  "index",  "serve",       "obs"};
    return fams;
}

/** Parse an enable JSON: {"families": ["index", "serve", ...]}. */
bool
loadEnableFile(const std::string &path, std::set<std::string> *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "perf_analyzers: cannot read " << path << "\n";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    service::JsonValue doc;
    std::string err;
    if (!service::parseJson(buf.str(), &doc, &err) || !doc.isObject()) {
        std::cerr << "perf_analyzers: " << path << ": "
                  << (err.empty() ? "not a JSON object" : err) << "\n";
        return false;
    }
    const service::JsonValue *fams = doc.find("families");
    if (fams == nullptr || !fams->isArray()) {
        std::cerr << "perf_analyzers: " << path
                  << ": missing \"families\" array\n";
        return false;
    }
    const auto &known = allFamilies();
    for (const auto &f : fams->items()) {
        if (!f.isString() ||
            std::find(known.begin(), known.end(), f.asString()) ==
                known.end()) {
            std::cerr << "perf_analyzers: " << path
                      << ": unknown family "
                      << (f.isString() ? f.asString() : f.dump())
                      << "\n";
            return false;
        }
        out->insert(f.asString());
    }
    if (out->empty()) {
        std::cerr << "perf_analyzers: " << path
                  << ": no families enabled\n";
        return false;
    }
    return true;
}

/** p50 ratio with a zero guard (a failed family reports 0 rates). */
double
ratio(const Summary &num, const Summary &den)
{
    return den.p50 > 0.0 ? num.p50 / den.p50 : 0.0;
}

int
writeJsonProfile(const std::string &path, double obsRef,
                 const std::set<std::string> &enabled)
{
    VectorTraceSource src(sharedTrace());
    const uint64_t records = src.size();
    const auto on = [&](const char *fam) {
        return enabled.count(fam) != 0;
    };

    std::optional<mica::pipeline::ThreadPool> pool8;
    const auto pool = [&]() -> mica::pipeline::ThreadPool * {
        if (!pool8)
            pool8.emplace(8);
        return &*pool8;
    };

    // The engine's batched full-profile rate doubles as the obs
    // family's "idle" number; computed once, whichever family asks
    // first.
    std::optional<Summary> fullBatchedCache;
    const auto fullBatched = [&]() -> const Summary & {
        if (!fullBatchedCache)
            fullBatchedCache = collectRate(
                src, AnalysisEngine::kDefaultBatchSize, false);
        return *fullBatchedCache;
    };

    // Each enabled family renders its own object; disabled families
    // are simply absent from the document (the enable-file contract).
    std::vector<std::pair<std::string, std::string>> fams;

    if (on("analyzers")) {
        const Summary mix =
            familyRate(src, [] { return InstMixAnalyzer(); });
        const Summary ilp = familyRate(src, [] { return IlpAnalyzer(); });
        const Summary rt =
            familyRate(src, [] { return RegTrafficAnalyzer(); });
        const Summary ws =
            familyRate(src, [] { return WorkingSetAnalyzer(); });
        const Summary st =
            familyRate(src, [] { return StrideAnalyzer(); });
        const Summary ppm =
            familyRate(src, [] { return PpmBranchAnalyzer(8); });
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"units\": \"records_per_sec\",\n"
           << "      \"inst_mix\": ";
        emitSummary(os, mix);
        os << ",\n      \"ilp\": ";
        emitSummary(os, ilp);
        os << ",\n      \"reg_traffic\": ";
        emitSummary(os, rt);
        os << ",\n      \"working_set\": ";
        emitSummary(os, ws);
        os << ",\n      \"strides\": ";
        emitSummary(os, st);
        os << ",\n      \"ppm\": ";
        emitSummary(os, ppm);
        os << "\n    }";
        fams.emplace_back("analyzers", os.str());
    }

    if (on("engine")) {
        const Summary fullSeed = seedBaselineRate(src, false);
        const Summary fullPerRecord = collectRate(src, 0, false);
        const Summary fullB = fullBatched();
        const Summary keySeed = seedBaselineRate(src, true);
        const Summary keyPerRecord = collectRate(src, 0, true);
        const Summary keyBatched = collectRate(
            src, AnalysisEngine::kDefaultBatchSize, true);
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"units\": \"records_per_sec\",\n"
           << "      \"full_profile\": {\n"
           << "        \"seed_baseline\": ";
        emitSummary(os, fullSeed);
        os << ",\n        \"per_record\": ";
        emitSummary(os, fullPerRecord);
        os << ",\n        \"batched\": ";
        emitSummary(os, fullB);
        os << ",\n        \"speedup_vs_seed\": " << ratio(fullB, fullSeed)
           << "\n      },\n      \"key_subset\": {\n"
           << "        \"seed_baseline\": ";
        emitSummary(os, keySeed);
        os << ",\n        \"per_record\": ";
        emitSummary(os, keyPerRecord);
        os << ",\n        \"batched\": ";
        emitSummary(os, keyBatched);
        os << ",\n        \"speedup_vs_seed\": "
           << ratio(keyBatched, keySeed) << "\n      }\n    }";
        fams.emplace_back("engine", os.str());
    }

    if (on("methodology")) {
        // GA fitness stage (masks/sec, frozen seed vs current engine
        // vs 8-job fan-out), whole-GA generations/sec, and clustering
        // K-sweeps/sec. The 8-job numbers only beat serial on
        // multi-core machines; the host block records the CPU count.
        const FitnessEval methodologyEval(methodologySpace());
        const Summary fitSeed = seedFitnessRate();
        const Summary fitSerial =
            engineFitnessRate(methodologyEval, nullptr);
        const Summary fitJobs8 =
            engineFitnessRate(methodologyEval, pool());
        const Summary gaSerial = gaGenerationsRate(nullptr);
        const Summary gaJobs8 = gaGenerationsRate(pool());
        const Summary sweepSerial = clusterSweepRate(nullptr);
        const Summary sweepJobs8 = clusterSweepRate(pool());
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"workers\": 8,\n"
           << "      \"ga_fitness_masks_per_sec\": {\n"
           << "        \"seed_baseline\": ";
        emitSummary(os, fitSeed);
        os << ",\n        \"serial\": ";
        emitSummary(os, fitSerial);
        os << ",\n        \"jobs8\": ";
        emitSummary(os, fitJobs8);
        os << ",\n        \"speedup_vs_seed\": " << ratio(fitJobs8, fitSeed)
           << ",\n        \"serial_speedup_vs_seed\": "
           << ratio(fitSerial, fitSeed) << "\n      },\n"
           << "      \"ga_generations_per_sec\": {\n"
           << "        \"serial\": ";
        emitSummary(os, gaSerial);
        os << ",\n        \"jobs8\": ";
        emitSummary(os, gaJobs8);
        os << ",\n        \"speedup\": " << ratio(gaJobs8, gaSerial)
           << "\n      },\n"
           << "      \"clustering_sweeps_per_sec\": {\n"
           << "        \"serial\": ";
        emitSummary(os, sweepSerial);
        os << ",\n        \"jobs8\": ";
        emitSummary(os, sweepJobs8);
        os << ",\n        \"speedup\": " << ratio(sweepJobs8, sweepSerial)
           << "\n      }\n    }";
        fams.emplace_back("methodology", os.str());
    }

    if (on("trace_replay")) {
        const TraceReplayRates trr = traceReplayRates();
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"records\": " << trr.records << ",\n"
           << "      \"full_profile_records_per_sec\": {\n"
           << "        \"interpreter\": ";
        emitSummary(os, trr.interp);
        os << ",\n        \"recording\": ";
        emitSummary(os, trr.record);
        os << ",\n        \"stream_replay\": ";
        emitSummary(os, trr.stream);
        os << "\n      }\n    }";
        fams.emplace_back("trace_replay", os.str());
    }

    if (on("trace_v2")) {
        const TraceV2Rates tv = traceV2Rates();
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"records\": " << tv.records << ",\n"
           << "      \"v2_bytes\": " << tv.v2Bytes << ",\n"
           << "      \"compression_ratio\": "
           << (tv.v2Bytes > 0
                   ? static_cast<double>(tv.records * sizeof(InstRecord)) /
                         static_cast<double>(tv.v2Bytes)
                   : 0.0)
           << ",\n      \"encode_records_per_sec\": ";
        emitSummary(os, tv.encode);
        os << ",\n      \"decode_records_per_sec\": ";
        emitSummary(os, tv.decode);
        os << ",\n      \"full_profile_records_per_sec\": {\n"
           << "        \"v2_stream_replay\": ";
        emitSummary(os, tv.replayV2);
        os << "\n      }\n    }";
        fams.emplace_back("trace_v2", os.str());
    }

    if (on("index")) {
        const Summary idxBuild = indexBuildRate();
        const Summary idxKnn = indexKnnRate();
        const Summary idxBatchSerial = indexBatchRate(nullptr);
        const Summary idxBatchJobs8 = indexBatchRate(pool());
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"points\": " << kIndexPoints << ",\n"
           << "      \"dim\": " << kIndexDim << ",\n"
           << "      \"k\": " << kIndexK << ",\n"
           << "      \"builds_per_sec\": ";
        emitSummary(os, idxBuild);
        os << ",\n      \"knn_queries_per_sec\": ";
        emitSummary(os, idxKnn);
        os << ",\n      \"batch_knn_queries_per_sec\": {\n"
           << "        \"serial\": ";
        emitSummary(os, idxBatchSerial);
        os << ",\n        \"jobs8\": ";
        emitSummary(os, idxBatchJobs8);
        os << ",\n        \"speedup\": "
           << ratio(idxBatchJobs8, idxBatchSerial) << "\n      }\n    }";
        fams.emplace_back("index", os.str());
    }

    if (on("serve")) {
        // Daemon saturation (aggregate requests/sec at 1, 2, 4, 8
        // concurrent connections against a daemon with 4 event loops;
        // the "workers" key below keeps its name), the
        // in-process one-shot rate for contrast, warm daemon start
        // (snapshot reopen), and the per-request round-trip latency
        // tail on one connection.
        const Summary serveWarmLoad = serveSnapshotLoadRate();
        const Summary serveLocal = serveLocalRate();
        Summary serveConns[4];
        LatencySummary lat;
        {
            ServeHarness harness;
            const size_t counts[4] = {1, 2, 4, 8};
            for (size_t i = 0; i < 4; ++i)
                serveConns[i] =
                    serveDaemonRate(*harness.server, counts[i]);
            lat = serveKnnLatencyUs(*harness.server);
        }
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"workers\": 4,\n"
           << "      \"snapshot_warm_loads_per_sec\": ";
        emitSummary(os, serveWarmLoad);
        os << ",\n      \"local_requests_per_sec\": ";
        emitSummary(os, serveLocal);
        os << ",\n      \"daemon_requests_per_sec\": {\n"
           << "        \"conns1\": ";
        emitSummary(os, serveConns[0]);
        os << ",\n        \"conns2\": ";
        emitSummary(os, serveConns[1]);
        os << ",\n        \"conns4\": ";
        emitSummary(os, serveConns[2]);
        os << ",\n        \"conns8\": ";
        emitSummary(os, serveConns[3]);
        os << ",\n        \"saturation_speedup\": "
           << ratio(serveConns[3], serveConns[0]) << "\n      },\n"
           << "      \"knn_round_trip_us\": ";
        emitLatencySummary(os, lat);
        os << "\n    }";
        fams.emplace_back("serve", os.str());
    }

    if (on("obs")) {
        // Telemetry primitives plus the full-profile rate with the
        // tracer armed (idle = compiled in but no sinks attached).
        const Summary obsCounter = counterAddNs();
        const Summary obsSpan = spanRecordNs();
        const Summary idle = fullBatched();
        obs::setTraceEnabled(true);
        const Summary fullTraced = collectRate(
            src, AnalysisEngine::kDefaultBatchSize, false);
        obs::setTraceEnabled(false);
        std::ostringstream os;
        os.precision(17);
        os << "{\n      \"compiled\": " << (MICA_OBS ? "true" : "false")
           << ",\n      \"counter_add_ns\": ";
        emitSummary(os, obsCounter);
        os << ",\n      \"span_record_ns\": ";
        emitSummary(os, obsSpan);
        os << ",\n      \"full_profile_records_per_sec\": {\n"
           << "        \"idle\": ";
        emitSummary(os, idle);
        os << ",\n        \"traced\": ";
        emitSummary(os, fullTraced);
        os << ",\n        \"traced_over_idle\": "
           << ratio(fullTraced, idle);
        if (obsRef > 0.0) {
            os << ",\n        \"obs_off_reference\": " << obsRef
               << ",\n        \"idle_over_obs_off\": "
               << (idle.p50 / obsRef);
        }
        os << "\n      }\n    }";
        fams.emplace_back("obs", os.str());
    }

    // Wall-clock stamp (UTC) so trend dashboards can order documents
    // without trusting file mtimes.
    char generatedAt[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (const std::tm *tm = std::gmtime(&now))
        std::strftime(generatedAt, sizeof(generatedAt), "%FT%TZ", tm);

    std::ofstream out(path);
    if (!out) {
        std::cerr << "perf_analyzers: cannot write " << path << "\n";
        return 1;
    }
    out.precision(17);
    out << "{\n"
        << "  \"schema\": \"mica-perf-profile/2\",\n"
        << "  \"host\": {\n"
        << "    \"generated_at\": \"" << generatedAt << "\",\n"
        << "    \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << "\n"
        << "  },\n"
        << "  \"records\": " << records << ",\n"
        << "  \"reps\": " << g_reps << ",\n"
        << "  \"families\": {";
    for (size_t i = 0; i < fams.size(); ++i)
        out << (i == 0 ? "\n    \"" : ",\n    \"") << fams[i].first
            << "\": " << fams[i].second;
    out << "\n  }\n}\n";
    std::cout << "perf profile written to " << path << " ("
              << fams.size() << "/" << allFamilies().size()
              << " families, reps=" << g_reps << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our own flags before google-benchmark sees (and rejects)
    // them; any other arguments pass through untouched. --obs-ref
    // feeds the MICA_OBS=0 build's full-profile p50 into the obs
    // family so one document holds the compiled-in/out ratio.
    std::string jsonPath;
    std::string enablePath;
    double obsRef = 0.0;
    std::vector<char *> args;
    args.reserve(static_cast<size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonPath = argv[i] + 7;
        else if (std::strncmp(argv[i], "--obs-ref=", 10) == 0)
            obsRef = std::strtod(argv[i] + 10, nullptr);
        else if (std::strncmp(argv[i], "--enable-file=", 14) == 0)
            enablePath = argv[i] + 14;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            g_reps = static_cast<int>(std::strtol(argv[i] + 7,
                                                  nullptr, 10));
        else
            args.push_back(argv[i]);
    }
    if (g_reps < 2 || g_reps > 100) {
        std::cerr << "perf_analyzers: --reps must be in [2, 100]\n";
        return 2;
    }
    if (!jsonPath.empty()) {
        std::set<std::string> enabled(allFamilies().begin(),
                                      allFamilies().end());
        if (!enablePath.empty()) {
            enabled.clear();
            if (!loadEnableFile(enablePath, &enabled))
                return 2;
        }
        return writeJsonProfile(jsonPath, obsRef, enabled);
    }

    int rest = static_cast<int>(args.size());
    benchmark::Initialize(&rest, args.data());
    if (benchmark::ReportUnrecognizedArguments(rest, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
