/**
 * @file
 * mica — command-line front end to the characterization library.
 *
 *   mica list [suite]              list registered benchmarks
 *   mica profile <name>|all        print (or CSV-dump) MICA profiles
 *   mica hpc <name>|all            print hardware-counter profiles
 *   mica distance <nameA> <nameB>  distances in both workload spaces
 *   mica select                    run GA feature selection
 *   mica cluster                   cluster benchmarks in the key space
 *   mica subset                    pick suite representatives
 *   mica index build|query|redundant   similarity index over the dataset
 *   mica trace record <bench>|<suite>|all   record traces to disk
 *   mica trace convert <src> <dst> rewrite a trace (v1 or v2) as v2
 *   mica trace ls [DIR]            list the trace files in a tree
 *   mica faults ls                 list fault-injection points
 *   mica faults crash-matrix       crash-consistency verification
 *   mica obs demo                  telemetry self-test
 *
 * Every verb also takes the telemetry sinks: --metrics=FILE writes a
 * metrics-registry snapshot as JSON on exit, --trace-out=FILE writes
 * the span trace as Chrome-tracing JSON (load in chrome://tracing or
 * ui.perfetto.dev), and --obs-summary prints a top-counters/slowest-
 * spans footer to stderr. Tracing is armed only when a trace sink or
 * the summary is requested, so undecorated runs pay no ring-buffer
 * cost.
 *
 * Common flags: --budget=N, --cache=DIR, --jobs=N (0 = auto),
 * --csv=FILE (profile/hpc all), --maxk=N (cluster/subset). Profiling
 * AND the methodology verbs (select/cluster/subset) fan out across
 * --jobs worker threads with bit-identical output for any job count;
 * --cache names a config-keyed profile store that is reused across
 * runs, so methodology verbs re-profile nothing when a store exists.
 * The index verbs build the fingerprint index from that store and
 * answer kNN/radius/most-redundant queries without re-profiling
 * anything; <cache>/index.bin records the space and its key columns.
 *
 * Every dataset verb also takes --suites=A,B (suite filter) and
 * --traces=DIR (profile the recorded trace files anywhere under DIR
 * instead of interpreting the registry kernels — byte-identical
 * profiles, stored per benchmark under each file's content id, so a
 * tree of any size is profiled in one sweep that a rerun resumes).
 *
 * Failure semantics: dataset verbs quarantine failing benchmarks
 * (bad trace files at scan time, throwing profiling jobs) instead of
 * aborting, report them on stderr, and exit with the partial-failure
 * code 3; --max-failures=N caps the tolerance. --failpoints=SPEC arms
 * deterministic fault injection at the named I/O sites — see
 * util/failpoint.hh for the grammar and `mica faults ls` for the site
 * registry.
 *
 * Flags are the only input: nothing is read from the environment.
 * Unknown --flags are rejected with an error naming the flag (each
 * verb validates against its accepted set via util::parseCliArgs),
 * and so is a number flag whose value is not a plain decimal or, for
 * a count that must be positive (--maxk, --max-conns, ...), is 0.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiments/crash_matrix.hh"
#include "experiments/experiments.hh"
#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "isa/interpreter.hh"
#include "mica/dataset.hh"
#include "mica/runner.hh"
#include "methodology/cluster_report.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/subsetting.hh"
#include "methodology/workload_space.hh"
#include "obs/obs.hh"
#include "pipeline/profile_store.hh"
#include "pipeline/thread_pool.hh"
#include "report/table.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/query_engine.hh"
#include "service/server.hh"
#include "stats/descriptive.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "uarch/hpc_runner.hh"
#include "util/arg_parse.hh"
#include "util/checked_io.hh"
#include "util/failpoint.hh"
#include "util/quantile.hh"
#include "workloads/registry.hh"

using namespace mica;

namespace
{

/**
 * Exit codes. 0 = success, 1 = failure, 2 = usage error; the rest
 * distinguish failure classes scripts and CI branch on:
 * kExitPartial — the sweep completed but quarantined at least one
 * benchmark (results are valid for everything reported); kExitNoEnt /
 * kExitPerm — the named file or directory is missing / unreadable
 * (corruption stays exit 1: the file is there, its *contents* are the
 * problem). util::kCrashExitCode (97) is reserved for simulated
 * crashes under --failpoints=...abort.
 */
constexpr int kExitPartial = 3;
constexpr int kExitNoEnt = 4;
constexpr int kExitPerm = 5;

/** Map an errno (0 = corruption/unknown) onto the exit-code classes. */
int
exitCodeFor(int err)
{
    if (err == ENOENT)
        return kExitNoEnt;
    if (err == EACCES)
        return kExitPerm;
    return 1;
}

/**
 * Benchmarks quarantined across every dataset collection this run; a
 * clean verb exit escalates to kExitPartial when nonzero, so partial
 * results are never mistaken for complete ones.
 */
size_t gQuarantined = 0;

/**
 * collectSuiteDataset plus the CLI's failure reporting: quarantined
 * benchmarks are listed on stderr (deterministic order — scan
 * failures sorted by path, then sweep failures in registry order)
 * and counted into gQuarantined.
 */
experiments::SuiteDataset
collectReported(const experiments::DatasetConfig &cfg)
{
    auto ds = experiments::collectSuiteDataset(cfg);
    for (const auto &f : ds.failures) {
        std::fprintf(stderr, "mica: quarantined [%s] %s: %s\n",
                     f.phase.c_str(), f.bench.c_str(), f.error.c_str());
    }
    if (!ds.failures.empty()) {
        std::fprintf(stderr,
                     "mica: %zu benchmark(s) quarantined; continuing "
                     "with the remaining %zu\n",
                     ds.failures.size(), ds.benchmarks.size());
        gQuarantined += ds.failures.size();
    }
    return ds;
}

// usage() prints the top-level verb list; verbHelp() the one verb's
// page. Both render from the kVerbs dispatch table (defined after the
// handlers), so the verb list, per-verb `--help`, and the dispatch
// itself can never drift apart.
int usage();
int verbHelp(const std::string &verb);

/**
 * Worker pool for the methodology verbs, sized from --jobs exactly
 * like the profiling pipeline: 1 = run on the calling thread (no
 * pool), 0 = one worker per hardware thread.
 */
std::unique_ptr<pipeline::ThreadPool>
methodologyPool(const experiments::DatasetConfig &cfg)
{
    if (cfg.jobs == 1)
        return nullptr;
    return std::make_unique<pipeline::ThreadPool>(cfg.jobs);
}

int
cmdList(const util::CliArgs &args)
{
    const auto &reg = workloads::BenchmarkRegistry::instance();
    const std::string suite =
        args.positionals.size() >= 2 ? args.positionals[1] : "";

    report::TextTable t({"name", "paper I-cnt (M)"},
                        {report::Align::Left, report::Align::Right});
    size_t n = 0;
    for (const auto &e : reg.all()) {
        if (!suite.empty() && e.info.suite != suite)
            continue;
        t.addRow({e.info.fullName(),
                  std::to_string(e.info.paperICountM)});
        ++n;
    }
    std::printf("%s\n%zu benchmarks\n", t.render().c_str(), n);
    return 0;
}

int
cmdProfile(const util::CliArgs &args,
           const experiments::DatasetConfig &cfg, bool hpc)
{
    if (args.positionals.size() < 2)
        return usage();
    const std::string target = args.positionals[1];
    const std::string csv = args.value("csv");
    if (args.has("csv") && csv.empty()) {
        std::fprintf(stderr, "mica %s: --csv needs a file name\n",
                     hpc ? "hpc" : "profile");
        return 2;
    }
    if (args.has("csv") && target != "all") {
        std::fprintf(stderr, "mica %s: --csv dumps 'all', not one "
                             "benchmark\n",
                     hpc ? "hpc" : "profile");
        return 2;
    }

    if (target == "all") {
        experiments::DatasetConfig runCfg = cfg;
        if (!runCfg.progress)
            runCfg.progress = pipeline::stderrProgress();
        const auto ds = collectReported(runCfg);
        if (!csv.empty()) {
            if (hpc)
                saveMatrixCsv(csv, ds.hpcMatrix());
            else
                saveProfilesCsv(csv, ds.micaProfiles);
            std::printf("wrote %zu profiles to %s\n",
                        ds.benchmarks.size(), csv.c_str());
            return 0;
        }
        const Matrix m = hpc ? ds.hpcMatrix() : ds.micaMatrix();
        std::vector<std::string> headers = {"benchmark"};
        for (const auto &c : m.colNames)
            headers.push_back(c);
        report::TextTable t(std::move(headers));
        for (size_t r = 0; r < m.rows(); ++r) {
            std::vector<std::string> row = {m.rowNames[r]};
            for (size_t c = 0; c < m.cols(); ++c)
                row.push_back(report::TextTable::num(m(r, c), 3));
            t.addRow(std::move(row));
        }
        std::printf("%s\n", t.render().c_str());
        return 0;
    }

    // Single benchmark: the record stream comes from the interpreter
    // or, under --traces, from the recorded file. Only the target's
    // own file is opened and validated — one unrelated bad trace in
    // the directory must not block (or cost reading) this query.
    isa::Program prog;
    std::unique_ptr<TraceSource> src;
    if (!cfg.traceDir.empty()) {
        const std::string found =
            workloads::findTraceFile(cfg.traceDir, target);
        if (found.empty()) {
            std::fprintf(stderr,
                         "'%s' has no trace in %s (try 'mica trace "
                         "ls %s')\n",
                         target.c_str(), cfg.traceDir.c_str(),
                         cfg.traceDir.c_str());
            return kExitNoEnt;
        }
        // The sweep's header checks and budget guard, for one file;
        // the payload is checked as it replays.
        src = workloads::traceBenchmarksFromFiles({found}, cfg.maxInsts)
                  .front()
                  .source();
    } else {
        const auto *e =
            workloads::BenchmarkRegistry::instance().find(target);
        if (!e) {
            std::fprintf(stderr,
                         "unknown benchmark '%s' (try 'mica list')\n",
                         target.c_str());
            return 1;
        }
        prog = e->build();
        src = std::make_unique<isa::Interpreter>(prog);
    }

    if (hpc) {
        const auto p =
            uarch::collectHwProfile(*src, target, cfg.maxInsts);
        report::TextTable t({"metric", "value"},
                            {report::Align::Left, report::Align::Right});
        const auto v = p.toVector();
        for (size_t i = 0; i < v.size(); ++i) {
            t.addRow({uarch::HwCounterProfile::metricNames()[i],
                      report::TextTable::num(v[i], 4)});
        }
        std::printf("%s\n%llu dynamic instructions\n", t.render().c_str(),
                    static_cast<unsigned long long>(p.instCount));
        return 0;
    }

    MicaRunnerConfig rc;
    rc.maxInsts = cfg.maxInsts;
    const MicaProfile p = collectMicaProfile(*src, target, rc);
    report::TextTable t({"no.", "characteristic", "value"},
                        {report::Align::Right, report::Align::Left,
                         report::Align::Right});
    for (size_t c = 0; c < kNumMicaChars; ++c) {
        t.addRow({std::to_string(c + 1), micaCharInfo(c).describe,
                  report::TextTable::num(p[c], 4)});
    }
    std::printf("%s\n%llu dynamic instructions\n", t.render().c_str(),
                static_cast<unsigned long long>(p.instCount));
    return 0;
}

int
cmdDistance(const util::CliArgs &args,
            const experiments::DatasetConfig &cfg)
{
    if (args.positionals.size() < 3)
        return usage();
    const std::string &nameA = args.positionals[1];
    const std::string &nameB = args.positionals[2];
    const auto ds = collectReported(cfg);
    const size_t a = ds.indexOf(nameA);
    const size_t b = ds.indexOf(nameB);
    if (a == static_cast<size_t>(-1) || b == static_cast<size_t>(-1)) {
        std::fprintf(stderr, "unknown benchmark name\n");
        return 1;
    }
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());
    std::printf("%s vs %s\n", nameA.c_str(), nameB.c_str());
    std::printf("  MICA-space distance: %7.3f  (population max %.3f)\n",
                mica.distances().at(a, b),
                mica.distances().maxDistance());
    std::printf("  HPC-space distance:  %7.3f  (population max %.3f)\n",
                hpc.distances().at(a, b), hpc.distances().maxDistance());
    const bool micaSim =
        mica.distances().at(a, b) <= 0.2 * mica.distances().maxDistance();
    const bool hpcSim =
        hpc.distances().at(a, b) <= 0.2 * hpc.distances().maxDistance();
    std::printf("  verdict at the paper's 20%% thresholds: "
                "inherently %s, counters say %s%s\n",
                micaSim ? "similar" : "dissimilar",
                hpcSim ? "similar" : "dissimilar",
                (!micaSim && hpcSim) ? "  [HPC-misleading pair]" : "");
    return 0;
}

int
cmdSelect(const experiments::DatasetConfig &cfg)
{
    const auto ds = collectReported(cfg);
    auto pool = methodologyPool(cfg);
    pipeline::ThreadPool *p = pool.get();
    const WorkloadSpace mica(ds.micaMatrix(), p);
    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg, p);
    report::TextTable t({"Table II no.", "characteristic"},
                        {report::Align::Right, report::Align::Left});
    for (size_t s : ga.selected)
        t.addRow({std::to_string(s + 1), micaCharInfo(s).describe});
    std::printf("%s\nrho = %.3f, fitness = %.3f\n", t.render().c_str(),
                ga.distanceCorrelation, ga.fitness);
    return 0;
}

/**
 * Print an error and return true when --flag carries a value that is
 * not a plain decimal — a typo must not silently mean "the default" —
 * or, when @p positive, is 0 (a count of nothing must not silently
 * mean the default either).
 */
bool
rejectBadInt(const util::CliArgs &args, const char *verb,
             const char *flag, bool positive = false)
{
    const bool zero =
        positive && args.has(flag) && args.intValue(flag, 1) == 0;
    if (args.intOk(flag) && !zero)
        return false;
    std::fprintf(stderr, "mica %s: --%s needs a %s integer (got '%s')\n",
                 verb, flag, positive ? "positive" : "non-negative",
                 args.value(flag).c_str());
    return true;
}

/** GA-select the key characteristics and project the space onto them. */
Matrix
reducedKeySpace(const experiments::SuiteDataset &ds,
                pipeline::ThreadPool *p)
{
    Matrix mm = ds.micaMatrix();
    const WorkloadSpace mica(mm, p);
    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg, p);
    Matrix reduced = mica.normalized().selectCols(ga.selected);
    reduced.rowNames = mm.rowNames;
    return reduced;
}

int
cmdCluster(const util::CliArgs &args,
           const experiments::DatasetConfig &cfg)
{
    if (rejectBadInt(args, "cluster", "maxk", true))
        return 2;
    const auto ds = collectReported(cfg);
    auto pool = methodologyPool(cfg);
    pipeline::ThreadPool *p = pool.get();
    const Matrix reduced = reducedKeySpace(ds, p);
    const ClusterReport rep =
        clusterBenchmarks(reduced,
                          static_cast<size_t>(args.intValue("maxk", 70)),
                          20061027, 0.9, 0.25, p);

    const auto &suites = experiments::suiteNames();
    std::vector<std::string> headers = {"cluster", "size"};
    for (const auto &s : suites)
        headers.push_back(s.substr(0, 3));
    headers.push_back("members");
    report::TextTable t(std::move(headers));
    for (const auto &c : rep.clusters) {
        std::vector<std::string> row = {std::to_string(c.id),
                                        std::to_string(c.members.size())};
        for (size_t h : rep.suiteHistogram(c, suites))
            row.push_back(std::to_string(h));
        // First few member names; the full list is in the assignment.
        std::string names;
        for (size_t i = 0; i < c.memberNames.size() && i < 3; ++i)
            names += (i ? ", " : "") + c.memberNames[i];
        if (c.memberNames.size() > 3) {
            names += " +" +
                std::to_string(c.memberNames.size() - 3) + " more";
        }
        row.push_back(std::move(names));
        t.addRow(std::move(row));
    }
    std::printf("%s\nchose K = %zu of %zu benchmarks "
                "(BIC within 90%% of max)\n",
                t.render().c_str(), rep.chosenK, reduced.rows());
    return 0;
}

int
cmdSubset(const util::CliArgs &args,
          const experiments::DatasetConfig &cfg)
{
    if (rejectBadInt(args, "subset", "maxk", true))
        return 2;
    const auto ds = collectReported(cfg);
    auto pool = methodologyPool(cfg);
    pipeline::ThreadPool *p = pool.get();
    const Matrix reduced = reducedKeySpace(ds, p);
    const SubsetResult r = selectRepresentatives(
        reduced, static_cast<size_t>(args.intValue("maxk", 70)), 20061027,
        0.9, 0.25, p);
    report::TextTable t({"representative", "covers"},
                        {report::Align::Left, report::Align::Right});
    for (const auto &rep : r.representatives)
        t.addRow({rep.name, std::to_string(rep.covers.size())});
    std::printf("%s\n%zu representatives for %zu benchmarks "
                "(%.1fX reduction)\n",
                t.render().c_str(), r.representatives.size(),
                r.populationSize, r.reductionFactor);
    return 0;
}

// ----------------------------------------------------------------------
// index verbs: the workload-fingerprint similarity index, built from
// the collected dataset on every open.
// ----------------------------------------------------------------------

/** --space/--pca as a SpaceChoice (shared by index, serve and query). */
service::SpaceChoice
spaceChoiceFromArgs(const util::CliArgs &args)
{
    service::SpaceChoice sc;
    sc.space = args.value("space", "mica");
    sc.pca = static_cast<size_t>(args.intValue("pca", 0));
    sc.given = args.has("space") || args.has("pca");
    return sc;
}

/** Build the immutable query snapshot the way every front end must. */
std::shared_ptr<const service::ServerSnapshot>
buildSnapshotReported(const experiments::DatasetConfig &cfg,
                      const service::SpaceChoice &sc,
                      pipeline::ThreadPool *pool, std::string *err)
{
    return service::buildServerSnapshot(
        cfg, sc, pool, /*generation=*/0,
        [](const experiments::DatasetConfig &c) {
            return collectReported(c);
        },
        err);
}

/** One "rank / benchmark / distance" table from a neighbor list. */
void
printNeighbors(const index::FingerprintIndex &idx,
               const std::vector<index::Neighbor> &neighbors,
               const std::string &title)
{
    report::TextTable t({"rank", "benchmark", "distance"},
                        {report::Align::Right, report::Align::Left,
                         report::Align::Right});
    for (size_t i = 0; i < neighbors.size(); ++i) {
        t.addRow({std::to_string(i + 1), idx.nameOf(neighbors[i].id),
                  report::TextTable::num(neighbors[i].dist, 4)});
    }
    std::printf("%s\n", t.render(title).c_str());
}

int
cmdIndex(const util::CliArgs &args, const experiments::DatasetConfig &cfg)
{
    if (args.positionals.size() < 2)
        return usage();
    const std::string sub = args.positionals[1];
    if (sub != "build" && sub != "query" && sub != "redundant")
        return usage();

    // A typo'd numeric value must not silently become the default.
    for (const char *flag : {"pca", "k", "top"}) {
        if (rejectBadInt(args, "index", flag))
            return 2;
    }
    service::SpaceChoice sc = spaceChoiceFromArgs(args);
    if (sc.space != "mica" && sc.space != "hpc" && sc.space != "key") {
        std::fprintf(stderr,
                     "mica index: --space must be mica, hpc, or key "
                     "(got '%s')\n", sc.space.c_str());
        return 2;
    }
    // `build` opens in the space asked for (mica by default); the
    // queries adopt the space the index record names unless given.
    sc.given = sc.given || sub == "build";

    // The index record lives next to the profile store; without
    // --cache it still needs a durable home, so a default directory
    // steps in.
    experiments::DatasetConfig icfg = cfg;
    if (icfg.cacheDir.empty())
        icfg.cacheDir = ".mica-index";
    auto pool = methodologyPool(icfg);
    pipeline::ThreadPool *p = pool.get();

    // Query verbs validate everything before opening the snapshot.
    std::string target;
    const size_t k = static_cast<size_t>(args.intValue("k", 10));
    const int64_t top = args.intValue("top", 10);
    if (sub == "redundant" &&
        static_cast<uint64_t>(top) > service::kMaxCount) {
        // The snapshot keeps the kMaxCount closest pairs, so a larger
        // --top would be cut silently once there are that many.
        std::fprintf(stderr,
                     "mica index redundant: --top must be at most %zu "
                     "(got %lld)\n",
                     service::kMaxCount, static_cast<long long>(top));
        return 2;
    }
    const bool hasRadius = args.has("radius");
    double r = 0.0;
    if (sub == "query") {
        if (args.positionals.size() < 3)
            return usage();
        target = args.positionals[2];
        if (hasRadius && args.has("k")) {
            std::fprintf(stderr, "mica index query: give either --k or "
                                 "--radius, not both\n");
            return 2;
        }
        if (hasRadius && target == "all") {
            std::fprintf(stderr, "mica index query: --radius needs "
                                 "a single benchmark, not 'all'\n");
            return 2;
        }
        if (hasRadius) {
            // Strict parse: a typo'd radius must not silently become
            // 0.0 and report "no neighbors".
            const std::string rv = args.value("radius");
            char *end = nullptr;
            r = rv.empty() ? -1.0 : std::strtod(rv.c_str(), &end);
            if (rv.empty() || *end != '\0' || !(r >= 0.0)) {
                std::fprintf(stderr, "mica index query: --radius needs "
                                     "a non-negative number (got "
                                     "'%s')\n", rv.c_str());
                return 2;
            }
        }
    }

    // The same open the daemon and `mica query` make: a missing or
    // mismatched index record is rewritten.
    std::string err;
    const auto snap = buildSnapshotReported(icfg, sc, p, &err);
    if (!snap) {
        std::fprintf(stderr, "mica index: %s\n", err.c_str());
        return 1;
    }
    const index::FingerprintIndex &idx = snap->idx;

    if (sub == "build") {
        const std::string path = index::snapshotPath(icfg.cacheDir);
        index::IndexRecord rec;
        if (!index::loadIndexRecord(path, &rec, &err) ||
            rec.key != snap->key) {
            std::fprintf(stderr, "mica index build: no index record for "
                                 "this dataset at %s\n", path.c_str());
            return 1;
        }
        std::printf("indexed %zu fingerprints (dim %zu, space %s, "
                    "pca %zu)\nrecord: %s\n",
                    idx.size(), idx.dim(), snap->space.c_str(), snap->pca,
                    path.c_str());
        return 0;
    }

    if (sub == "redundant") {
        const auto &pairs = snap->closestPairs;
        const size_t shown =
            std::min(static_cast<size_t>(top), pairs.size());
        report::TextTable t({"rank", "benchmark A", "benchmark B",
                             "distance"},
                            {report::Align::Right, report::Align::Left,
                             report::Align::Left, report::Align::Right});
        for (size_t i = 0; i < shown; ++i) {
            t.addRow({std::to_string(i + 1), idx.nameOf(pairs[i].a),
                      idx.nameOf(pairs[i].b),
                      report::TextTable::num(pairs[i].dist, 4)});
        }
        std::printf("%s\n%zu most redundant of %zu benchmarks "
                    "(space %s)\n",
                    t.render("Most redundant pairs").c_str(), shown,
                    idx.size(), snap->space.c_str());
        return 0;
    }

    if (target == "all") {
        const auto results = idx.batchKnn(k, p);
        for (size_t i = 0; i < results.size(); ++i) {
            std::printf("%s ->", idx.nameOf(i).c_str());
            for (const auto &nb : results[i]) {
                std::printf("  %s:%s", idx.nameOf(nb.id).c_str(),
                            report::TextTable::num(nb.dist, 4).c_str());
            }
            std::printf("\n");
        }
        std::printf("%zu benchmarks, k=%zu, space %s, dim %zu\n",
                    results.size(), k, snap->space.c_str(), idx.dim());
        return 0;
    }

    const int64_t id = idx.idOf(target);
    if (id < 0) {
        std::fprintf(stderr, "'%s' is not in the collected dataset "
                             "(see 'mica list'; a --suites filter, a "
                             "--traces tree or a quarantine leaves "
                             "it out)\n",
                     target.c_str());
        return 1;
    }
    if (hasRadius) {
        printNeighbors(idx, idx.radius(static_cast<size_t>(id), r),
                       target + ": neighbors within " +
                           report::TextTable::num(r, 4));
    } else {
        printNeighbors(idx, idx.knn(static_cast<size_t>(id), k),
                       target + ": " + std::to_string(k) + " nearest");
    }
    return 0;
}

// ----------------------------------------------------------------------
// service verbs: the query daemon (`serve`), the one-shot protocol
// front end (`query` — byte-identical to the daemon's replies, CI
// cmp's them), and the load generator (`serve-bench`).
// ----------------------------------------------------------------------

/**
 * The running daemon, for the signal handlers. requestStop() is
 * async-signal-safe (an atomic store plus one write() to the loop's
 * self-pipe), so SIGINT/SIGTERM translate directly into a graceful
 * drain instead of killing in-flight queries.
 */
service::Server *gServer = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (gServer)
        gServer->requestStop();
}

int
cmdServe(const util::CliArgs &args, const experiments::DatasetConfig &cfg)
{
    for (const char *flag : {"pca", "drain-ms"}) {
        if (rejectBadInt(args, "serve", flag))
            return 2;
    }
    for (const char *flag : {"max-conns", "metrics-interval"}) {
        if (rejectBadInt(args, "serve", flag, true))
            return 2;
    }
    const int64_t metricsInterval = args.intValue("metrics-interval", 0);
    if (args.has("metrics-interval") && args.value("metrics").empty()) {
        std::fprintf(stderr, "mica serve: --metrics-interval needs "
                             "--metrics=FILE for the sink path\n");
        return 2;
    }
    service::SpaceChoice sc = spaceChoiceFromArgs(args);
    experiments::DatasetConfig icfg = cfg;
    if (icfg.cacheDir.empty())
        icfg.cacheDir = ".mica-index";
    if (!icfg.progress)
        icfg.progress = pipeline::stderrProgress();

    auto pool = methodologyPool(icfg);
    std::string err;
    auto snap = buildSnapshotReported(icfg, sc, pool.get(), &err);
    if (!snap) {
        std::fprintf(stderr, "mica serve: %s\n", err.c_str());
        return 1;
    }

    service::ServerOptions opt;
    opt.address = args.value("listen", "unix:mica.sock");
    opt.jobs = icfg.jobs;
    opt.maxConnections =
        static_cast<size_t>(args.intValue("max-conns", 256));
    opt.drainDeadlineMs =
        static_cast<uint64_t>(args.intValue("drain-ms", 5000));
    if (metricsInterval > 0) {
        opt.metricsPath = args.value("metrics");
        opt.metricsIntervalMs =
            static_cast<uint64_t>(metricsInterval) * 1000;
    }

    service::Server server(opt, snap, icfg, sc,
                           [](const experiments::DatasetConfig &c) {
                               return collectReported(c);
                           });
    if (!server.start(&err)) {
        std::fprintf(stderr, "mica serve: %s\n", err.c_str());
        return 1;
    }
    gServer = &server;
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    // The ready line goes to stdout (and is flushed) so wrappers can
    // wait for it before connecting.
    std::printf("mica serve: listening on %s (%zu benchmarks, "
                "space %s, generation %llu)\n",
                server.boundAddress().c_str(),
                snap->ds.benchmarks.size(), snap->space.c_str(),
                static_cast<unsigned long long>(snap->generation));
    std::fflush(stdout);

    const int rc = server.run();

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    gServer = nullptr;
    std::fprintf(stderr, "mica serve: drained, shutting down\n");
    return rc;
}

int
cmdQuery(const util::CliArgs &args, const experiments::DatasetConfig &cfg)
{
    if (args.positionals.size() < 2)
        return usage();
    if (rejectBadInt(args, "query", "pca"))
        return 2;
    const std::string reqArg = args.positionals[1];

    // "-" streams request lines from stdin; anything else is one
    // request given as a single (shell-quoted) argument.
    std::vector<std::string> lines;
    if (reqArg == "-") {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!line.empty())
                lines.push_back(line);
        }
    } else {
        lines.push_back(reqArg);
    }

    const std::string connect = args.value("connect");
    if (!connect.empty()) {
        service::ServiceClient cli;
        std::string err;
        if (!cli.connect(connect, &err)) {
            std::fprintf(stderr, "mica query: %s\n", err.c_str());
            return 1;
        }
        for (const auto &line : lines) {
            std::string reply;
            if (!cli.request(line, &reply, &err)) {
                std::fprintf(stderr, "mica query: %s\n", err.c_str());
                return 1;
            }
            std::printf("%s\n", reply.c_str());
        }
        return 0;
    }

    // Local one-shot: the same snapshot build and the same
    // executeLine path the daemon runs, so the printed line is
    // byte-identical to a server's reply for the same request.
    service::SpaceChoice sc = spaceChoiceFromArgs(args);
    experiments::DatasetConfig icfg = cfg;
    if (icfg.cacheDir.empty())
        icfg.cacheDir = ".mica-index";
    auto pool = methodologyPool(icfg);
    std::string err;
    auto snap = buildSnapshotReported(icfg, sc, pool.get(), &err);
    if (!snap) {
        std::fprintf(stderr, "mica query: %s\n", err.c_str());
        return 1;
    }
    for (const auto &line : lines)
        std::printf("%s\n", service::executeLine(*snap, line).c_str());
    return 0;
}

int
cmdServeBench(const util::CliArgs &args,
              const experiments::DatasetConfig &)
{
    for (const char *flag : {"conns", "requests"}) {
        if (rejectBadInt(args, "serve-bench", flag, true))
            return 2;
    }
    const std::string connect = args.value("connect");
    if (connect.empty()) {
        std::fprintf(stderr,
                     "mica serve-bench: --connect=ADDR is required\n");
        return 2;
    }
    const size_t conns =
        static_cast<size_t>(args.intValue("conns", 4));
    const size_t requests =
        static_cast<size_t>(args.intValue("requests", 100));
    const std::string bench = args.value("bench");

    // Per-connection request mix, rotated deterministically: cheap ops
    // (ping/stats), a mid-weight scan (suites), and the heavy
    // population query (redundant). --bench adds kNN of a real
    // benchmark to the rotation.
    std::vector<std::string> mix = {
        "{\"op\":\"ping\"}",
        "{\"op\":\"stats\"}",
        "{\"op\":\"suites\"}",
        "{\"op\":\"redundant\",\"top\":5}",
    };
    std::vector<std::string> opNames = {"ping", "stats", "suites",
                                        "redundant"};
    if (!bench.empty()) {
        mix.push_back("{\"op\":\"knn\",\"bench\":\"" + bench +
                      "\",\"k\":5}");
        opNames.push_back("knn");
    }

    // Per-op round-trip samples: each worker records into private
    // samples (no contention on the timed path) and merges them into
    // the shared set once, after its connection is done. Quantiles are
    // exact: --conns x --requests doubles are all there is to keep.
    std::vector<util::ExactQuantiles> rtt(mix.size());
    std::mutex rttMu;

    std::atomic<uint64_t> okCount{0}, failCount{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(conns);
    for (size_t c = 0; c < conns; ++c) {
        workers.emplace_back([&, c] {
            service::ServiceClient cli;
            std::string err;
            if (!cli.connect(connect, &err)) {
                failCount.fetch_add(requests);
                return;
            }
            std::vector<util::ExactQuantiles> local(mix.size());
            for (size_t i = 0; i < requests; ++i) {
                const size_t slot = (c + i) % mix.size();
                const std::string &line = mix[slot];
                std::string reply;
                const auto r0 = std::chrono::steady_clock::now();
                const bool ok = cli.request(line, &reply, &err) &&
                    reply.find("\"ok\":true") != std::string::npos;
                const auto rtUs =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - r0)
                        .count() /
                    1000.0;
                if (ok) {
                    okCount.fetch_add(1);
                    local[slot].add(rtUs);
                } else {
                    failCount.fetch_add(1);
                }
            }
            std::lock_guard<std::mutex> lk(rttMu);
            for (size_t s = 0; s < mix.size(); ++s)
                rtt[s].merge(local[s]);
        });
    }
    for (auto &w : workers)
        w.join();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    const uint64_t total = okCount.load() + failCount.load();
    const double secs = static_cast<double>(elapsed) / 1e6;
    std::printf("serve-bench: %zu conns x %zu requests = %llu total, "
                "%llu ok, %llu failed\n",
                conns, requests,
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(okCount.load()),
                static_cast<unsigned long long>(failCount.load()));
    // The rate counts answered requests only: a failed request costs
    // time but is not throughput.
    std::printf("serve-bench: %.3f s, %.0f req/s\n", secs,
                secs > 0 ? static_cast<double>(okCount.load()) / secs
                         : 0.0);
    for (size_t s = 0; s < mix.size(); ++s) {
        if (rtt[s].count() == 0)
            continue;
        std::printf("serve-bench: rtt %-9s p50=%.1fus p90=%.1fus "
                    "p99=%.1fus max=%.1fus (n=%llu)\n",
                    opNames[s].c_str(), rtt[s].quantile(0.50),
                    rtt[s].quantile(0.90), rtt[s].quantile(0.99),
                    rtt[s].quantile(1.0),
                    static_cast<unsigned long long>(rtt[s].count()));
    }
    return failCount.load() == 0 ? 0 : 1;
}

// ----------------------------------------------------------------------
// trace verbs: record interpreter runs to disk; list recorded files.
// ----------------------------------------------------------------------

/** Filename for one benchmark ("suite/prog.in" -> "suite__prog.in"). */
std::string
traceFileName(const workloads::BenchmarkInfo &info)
{
    return workloads::traceStem(info.fullName()) + ".trace";
}

/**
 * Interpret one benchmark and tee every record to a trace file.
 * @return records written.
 */
uint64_t
recordOne(const workloads::BenchmarkEntry &e, const std::string &path,
          uint64_t maxInsts)
{
    const isa::Program prog = e.build();
    isa::Interpreter interp(prog);
    TraceFileWriter writer(path);
    RecordingSource tee(interp, writer);
    std::vector<InstRecord> buf(4096);
    uint64_t n = 0;
    for (;;) {
        size_t want = buf.size();
        if (maxInsts != 0 && maxInsts - n < want)
            want = static_cast<size_t>(maxInsts - n);
        if (want == 0)
            break;
        const InstRecord *span = nullptr;
        const size_t got = tee.nextSpan(span, buf.data(), want);
        if (got == 0)
            break;
        n += got;
    }
    writer.close();
    return n;
}

int
cmdTraceRecord(const util::CliArgs &args,
               const experiments::DatasetConfig &cfg)
{
    if (args.positionals.size() < 3)
        return usage();
    const std::string target = args.positionals[2];
    const std::string outDir = args.value("out", "traces");

    const auto &reg = workloads::BenchmarkRegistry::instance();
    std::vector<const workloads::BenchmarkEntry *> entries;
    if (target == "all") {
        for (const auto &e : reg.all())
            entries.push_back(&e);
    } else {
        entries = reg.bySuite(target);
        if (entries.empty()) {
            const auto *e = reg.find(target);
            if (!e) {
                std::fprintf(stderr,
                             "unknown benchmark or suite '%s' (try "
                             "'mica list')\n",
                             target.c_str());
                return 1;
            }
            entries.push_back(e);
        }
    }

    // Each benchmark records into its own file, so the fan-out is as
    // embarrassingly parallel as the profiling sweep.
    std::vector<uint64_t> records(entries.size(), 0);
    auto pool = methodologyPool(cfg);
    pipeline::parallelBlocks(pool.get(), entries.size(), [&](size_t i) {
        records[i] =
            recordOne(*entries[i],
                      outDir + "/" + traceFileName(entries[i]->info),
                      cfg.maxInsts);
    });

    report::TextTable t({"benchmark", "records", "file"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Left});
    uint64_t total = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        t.addRow({entries[i]->info.fullName(),
                  std::to_string(records[i]),
                  traceFileName(entries[i]->info)});
        total += records[i];
    }
    std::printf("%s\nrecorded %zu traces (%llu records) into %s\n",
                t.render().c_str(), entries.size(),
                static_cast<unsigned long long>(total), outDir.c_str());
    return 0;
}

int
cmdTraceConvert(const util::CliArgs &args)
{
    if (args.positionals.size() < 4)
        return usage();
    const std::string src = args.positionals[2];
    const std::string dst = args.positionals[3];
    const TraceConvertStats st = convertTraceFile(src, dst);
    const double ratio =
        st.dstBytes > 0
            ? static_cast<double>(st.srcBytes) /
                  static_cast<double>(st.dstBytes)
            : 0.0;
    std::printf("converted %s (v%u, %llu bytes) -> %s (v%u, %llu "
                "bytes): %llu records verified identical, %.2fx\n",
                src.c_str(), st.srcVersion,
                static_cast<unsigned long long>(st.srcBytes),
                dst.c_str(), kTraceFormatV2,
                static_cast<unsigned long long>(st.dstBytes),
                static_cast<unsigned long long>(st.records), ratio);
    return 0;
}

int
cmdTraceLs(const util::CliArgs &args)
{
    const std::string dir =
        args.positionals.size() >= 3 ? args.positionals[2] : "traces";
    namespace fs = std::filesystem;
    std::error_code ec;
    // Error classes matter to callers: an absent directory (exit 4)
    // is a different situation from an unreadable one (exit 5) or a
    // path that is a file (exit 1).
    const fs::file_status st = fs::status(dir, ec);
    if (!fs::exists(st)) {
        std::fprintf(stderr,
                     "mica trace ls: %s: No such file or directory\n",
                     dir.c_str());
        return kExitNoEnt;
    }
    if (!fs::is_directory(st)) {
        std::fprintf(stderr, "mica trace ls: '%s' is not a directory\n",
                     dir.c_str());
        return 1;
    }
    // The same walk the sweep makes: every trace file in the tree,
    // listed relative to DIR.
    std::vector<std::string> files;
    try {
        files = workloads::traceTreeFiles(dir);
    } catch (const fs::filesystem_error &e) {
        std::fprintf(stderr, "mica trace ls: %s: %s\n", dir.c_str(),
                     e.code().message().c_str());
        return exitCodeFor(e.code().value());
    }

    report::TextTable t({"file", "format", "records", "bytes", "ratio",
                         "status"},
                        {report::Align::Left, report::Align::Left,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right, report::Align::Left});
    size_t rejected = 0;
    for (const auto &rel : files) {
        const fs::path p = fs::path(dir) / rel;
        const bool binary = p.extension() == ".trace";
        const uint64_t bytes = fs::file_size(p, ec);
        std::string recs = "-", status = "ok", format = "text";
        std::string ratio = "-";
        // The status column separates the error classes: "corrupt"
        // means the file was readable but its contents failed
        // validation; "io-error" means the bytes could not be read
        // at all (the message on stderr names the errno — for a v2
        // file with a damaged column stream, the failing column).
        try {
            if (binary) {
                const TraceFileInfo fi = probeTraceFile(p.string());
                recs = std::to_string(fi.recordCount);
                format = "v" + std::to_string(fi.version);
                // Compression vs the flat in-memory records the v1
                // format stores verbatim.
                if (fi.version >= kTraceFormatV2 && !ec && bytes > 0) {
                    char buf[32];
                    std::snprintf(
                        buf, sizeof(buf), "%.2fx",
                        static_cast<double>(fi.recordCount *
                                            sizeof(InstRecord)) /
                            static_cast<double>(bytes));
                    ratio = buf;
                }
            } else {
                recs = std::to_string(readTextTrace(p.string()).size());
            }
        } catch (const TraceFileError &e) {
            status = e.code() == 0 ? "corrupt" : "io-error";
            format = binary ? "?" : "text";
            ++rejected;
            std::fprintf(stderr, "%s\n", e.what());
        }
        t.addRow({rel, format, recs,
                  std::to_string(ec ? 0 : bytes), ratio, status});
    }
    std::printf("%s\n%zu trace files in %s", t.render().c_str(),
                files.size(), dir.c_str());
    if (rejected)
        std::printf(" (%zu rejected — see stderr)", rejected);
    std::printf("\n");
    return rejected ? 1 : 0;
}

// ----------------------------------------------------------------------
// faults verbs: the fault-injection registry and the crash matrix.
// ----------------------------------------------------------------------

int
cmdFaultsLs()
{
    report::TextTable t({"failpoint", "kind", "fired"},
                        {report::Align::Left, report::Align::Left,
                         report::Align::Right});
    const auto &known = util::knownFailpoints();
    for (const auto &fp : known) {
        t.addRow({fp.name, fp.writeSite ? "write" : "read",
                  std::to_string(util::failpointFireCount(fp.name))});
    }
    std::printf("%s\n%zu failpoints\n", t.render().c_str(), known.size());
    return 0;
}

int
cmdFaultsCrashMatrix(const util::CliArgs &args)
{
    namespace fs = std::filesystem;
    std::string dir = args.value("dir");
    const bool scratch = dir.empty();
    if (scratch) {
        std::error_code ec;
        dir = (fs::temp_directory_path(ec) /
               ("mica-crash-matrix-" + std::to_string(::getpid())))
                  .string();
    }

    const auto rows = experiments::runCrashMatrix(dir);
    report::TextTable t({"site", "scenario", "crash", "survivor",
                         "recovery", "detail"},
                        {report::Align::Left, report::Align::Left,
                         report::Align::Left, report::Align::Left,
                         report::Align::Left, report::Align::Left});
    size_t ok = 0;
    for (const auto &r : rows) {
        t.addRow({r.site, r.scenario, r.crashed ? "yes" : "NO",
                  r.oldValid       ? "old-valid"
                      : r.newValid ? "new-valid"
                                   : "INVALID",
                  r.recovered ? "ok" : "FAILED", r.detail});
        if (r.ok())
            ++ok;
    }
    if (scratch) {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    std::printf("%s\ncrash matrix: %zu/%zu cells OK\n",
                t.render().c_str(), ok, rows.size());
    return (!rows.empty() && ok == rows.size()) ? 0 : 1;
}

// ----------------------------------------------------------------------
// obs verb: exercise the telemetry subsystem end to end and verify the
// folded numbers, so a broken build is caught by one cheap command
// instead of a silently wrong metrics file.
// ----------------------------------------------------------------------

int
cmdObsDemo()
{
    constexpr size_t kBlocks = 64;
    constexpr size_t kAdds = 10000;
    {
        // Nested spans across a full pool fan-out: the exact shape the
        // instrumented pipeline produces.
        obs::ObsSpan sp("obs.demo");
        pipeline::ThreadPool pool(0);
        pipeline::parallelBlocks(&pool, kBlocks, [&](size_t b) {
            obs::ObsSpan inner("obs.demo.block");
            inner.arg("block", static_cast<uint64_t>(b));
            static obs::Counter count("obs.demo.count");
            static obs::Histogram value("obs.demo.value_us");
            for (size_t i = 0; i < kAdds; ++i)
                count.add(1);
            value.record(b);
        });
    }

    bool ok = true;
    const auto snap = obs::snapshotMetrics();
    const auto cit = snap.metrics.find("obs.demo.count");
    const int64_t want = static_cast<int64_t>(kBlocks * kAdds);
    if (cit == snap.metrics.end() || cit->second.value != want) {
        std::fprintf(stderr,
                     "obs demo: counter folded to %lld, expected %lld\n",
                     static_cast<long long>(
                         cit == snap.metrics.end() ? -1
                                                   : cit->second.value),
                     static_cast<long long>(want));
        ok = false;
    }
    const auto hit = snap.metrics.find("obs.demo.value_us");
    if (hit == snap.metrics.end() ||
        hit->second.hist.count != static_cast<int64_t>(kBlocks)) {
        std::fprintf(stderr, "obs demo: histogram count wrong\n");
        ok = false;
    }
    uint64_t blockSpans = 0;
    for (const auto &s : obs::spanStats()) {
        if (s.name == "obs.demo.block")
            blockSpans = s.count;
    }
    if (blockSpans != kBlocks) {
        std::fprintf(stderr,
                     "obs demo: %llu obs.demo.block spans, expected "
                     "%zu\n",
                     static_cast<unsigned long long>(blockSpans),
                     kBlocks);
        ok = false;
    }
    std::fprintf(stderr, "%s", obs::summaryText().c_str());
    std::printf("obs self-test: %s\n", ok ? "OK" : "FAIL");
    return ok ? 0 : 1;
}

// ----------------------------------------------------------------------
// Verb dispatch table. One entry per top-level verb: the handler, the
// usage lines shown in the top-level verb list, and the flag notes
// shown by `mica <verb> --help`. usage(), verbHelp(), and main()'s
// dispatch all render from this table — the single source of truth
// for what verbs exist and how they are invoked.
// ----------------------------------------------------------------------

int
cmdListVerb(const util::CliArgs &args, const experiments::DatasetConfig &)
{
    return cmdList(args);
}

int
cmdProfileMica(const util::CliArgs &args,
               const experiments::DatasetConfig &cfg)
{
    return cmdProfile(args, cfg, false);
}

int
cmdProfileHpc(const util::CliArgs &args,
              const experiments::DatasetConfig &cfg)
{
    return cmdProfile(args, cfg, true);
}

int
cmdSelectVerb(const util::CliArgs &,
              const experiments::DatasetConfig &cfg)
{
    return cmdSelect(cfg);
}

int
cmdTrace(const util::CliArgs &args, const experiments::DatasetConfig &cfg)
{
    const std::string sub =
        args.positionals.size() >= 2 ? args.positionals[1] : "";
    if (sub == "record")
        return cmdTraceRecord(args, cfg);
    if (sub == "convert")
        return cmdTraceConvert(args);
    if (sub == "ls")
        return cmdTraceLs(args);
    return usage();
}

int
cmdFaults(const util::CliArgs &args, const experiments::DatasetConfig &)
{
    const std::string sub =
        args.positionals.size() >= 2 ? args.positionals[1] : "";
    if (sub == "ls")
        return cmdFaultsLs();
    if (sub == "crash-matrix")
        return cmdFaultsCrashMatrix(args);
    return usage();
}

int
cmdObs(const util::CliArgs &args, const experiments::DatasetConfig &)
{
    const std::string sub =
        args.positionals.size() >= 2 ? args.positionals[1] : "";
    if (sub == "demo")
        return cmdObsDemo();
    return usage();
}

/** @return whether @p verb collects a dataset (and so takes its flags). */
bool
collectsDataset(const std::string &verb)
{
    return verb == "profile" || verb == "hpc" || verb == "distance" ||
        verb == "select" || verb == "cluster" || verb == "subset" ||
        verb == "index" || verb == "serve" || verb == "query";
}

int cmdCapabilities(const util::CliArgs &,
                    const experiments::DatasetConfig &);

int cmdHelp(const util::CliArgs &args, const experiments::DatasetConfig &);

struct VerbDef
{
    const char *name;

    /**
     * Lines for the top-level verb list, already formatted
     * ("  invocation            what it does\n"); multi-form verbs
     * (index, trace) carry one line per form.
     */
    const char *usageLines;

    /** Verb-specific flags, one per line, for `mica <verb> --help`. */
    const char *flagHelp;

    int (*run)(const util::CliArgs &, const experiments::DatasetConfig &);
};

constexpr VerbDef kVerbs[] = {
    {"list", "  list [suite]              list registered benchmarks\n",
     "", cmdListVerb},
    {"profile",
     "  profile <name>|all        print MICA profiles\n",
     "  --csv=FILE     dump `all` as CSV instead of a table\n"
     "  --traces=DIR   profile the trace files anywhere under DIR; with\n"
     "                 --cache, a rerun (also after a crash) profiles\n"
     "                 only the traces that are new or changed\n",
     cmdProfileMica},
    {"hpc",
     "  hpc <name>|all            print hardware-counter profiles\n",
     "  --csv=FILE     dump `all` as CSV instead of a table\n",
     cmdProfileHpc},
    {"distance",
     "  distance <nameA> <nameB>  distances in both spaces\n", "",
     cmdDistance},
    {"select",
     "  select                    GA key-characteristic selection\n",
     "", cmdSelectVerb},
    {"cluster",
     "  cluster                   cluster benchmarks (key space)\n",
     "  --maxk=N       K sweep ceiling (default 70)\n", cmdCluster},
    {"subset",
     "  subset                    cluster-medoid representatives\n",
     "  --maxk=N       K sweep ceiling (default 70)\n", cmdSubset},
    {"index",
     "  index build               build the similarity index, record\n"
     "                            its space and key columns\n"
     "  index query <bench>|all   kNN / radius queries from the index\n"
     "  index redundant           most redundant benchmark pairs\n",
     "  --space=mica|hpc|key  fingerprint space (build; queries adopt\n"
     "                 the recorded space unless told otherwise)\n"
     "  --pca=K        project onto K principal components\n"
     "  --k=N          neighbors per query (query)\n"
     "  --radius=R     radius query instead of kNN (query)\n"
     "  --top=N        pairs to report (redundant)\n",
     cmdIndex},
    {"serve",
     "  serve [--listen=ADDR]     similarity-query daemon (JSON lines)\n",
     "  --listen=ADDR  unix:PATH or tcp:HOST:PORT (default "
     "unix:mica.sock)\n"
     "  --space=mica|hpc|key / --pca=K   fingerprint space knobs\n"
     "  --jobs=N       event loops answering queries (default 1;\n"
     "                 0 = one per hardware thread)\n"
     "  --max-conns=N  concurrent client cap (default 256)\n"
     "  --drain-ms=N   graceful-shutdown drain budget (default 5000)\n"
     "  --metrics-interval=SEC  rewrite --metrics=FILE every SEC\n"
     "                 seconds while serving (live introspection)\n"
     "  SIGINT/SIGTERM drain in-flight queries, flush telemetry "
     "sinks,\n"
     "  and exit 0.\n",
     cmdServe},
    {"query",
     "  query <REQUEST>|-         one-shot protocol query (local or\n"
     "                            --connect=ADDR against a daemon)\n",
     "  --connect=ADDR ask a running daemon instead of answering\n"
     "                 locally; replies are byte-identical either way\n"
     "  --space=mica|hpc|key / --pca=K   fingerprint space (local)\n"
     "  REQUEST is one JSON object, e.g. "
     "'{\"op\":\"knn\",\"bench\":\"B\",\"k\":5}';\n"
     "  '-' streams request lines from stdin.\n",
     cmdQuery},
    {"serve-bench",
     "  serve-bench --connect=ADDR  load-generate against a daemon\n",
     "  --conns=N      concurrent connections (default 4)\n"
     "  --requests=N   requests per connection (default 100)\n"
     "  --bench=NAME   add kNN of NAME to the request mix\n",
     cmdServeBench},
    {"trace",
     "  trace record <bench>|<suite>|all  record traces to --out=DIR\n"
     "  trace convert <src> <dst> rewrite a v1 or v2 trace as v2\n"
     "  trace ls [DIR]            list the trace files in a tree\n",
     "  --out=DIR      destination directory (record; default "
     "traces)\n"
     "  --budget=N     records per trace, 0 = the whole run (record)\n"
     "  --jobs=N       benchmarks recorded at once (record)\n"
     "  traces are written in format v2; convert verifies the copy\n"
     "  record-identical; ls walks subdirectories and prints paths\n"
     "  relative to DIR, as `--traces=DIR` sweeps them\n",
     cmdTrace},
    {"faults",
     "  faults ls                 list fault-injection points\n"
     "  faults crash-matrix       crash-consistency check of every\n"
     "                            durable write path\n",
     "  --dir=DIR      scratch directory (crash-matrix)\n", cmdFaults},
    {"obs",
     "  obs demo                  telemetry self-test\n", "", cmdObs},
    {"capabilities",
     "  capabilities              machine-readable feature inventory\n",
     "", cmdCapabilities},
    {"help",
     "  help [verb]               this list, or one verb's flags\n", "",
     cmdHelp},
};

const VerbDef *
findVerb(const std::string &name)
{
    for (const auto &v : kVerbs) {
        if (name == v.name)
            return &v;
    }
    return nullptr;
}

int
usage()
{
    std::printf("usage: mica <command> [args] [flags]\n");
    for (const auto &v : kVerbs)
        std::printf("%s", v.usageLines);
    std::printf(
        "dataset verbs (profile hpc distance select cluster subset index "
        "serve\n"
        "query) take --budget=N --cache=DIR --jobs=N --suites=A,B "
        "--traces=DIR\n"
        "--max-failures=N; trace record takes --budget=N --jobs=N\n"
        "every verb takes --metrics=FILE --trace-out=FILE "
        "--obs-summary --failpoints=SPEC\n"
        "`mica <verb> --help` lists one verb's flags\n"
        "exit codes: 0 ok, 1 error, 2 usage, 3 partial (quarantined "
        "benchmarks),\n"
        "            4 missing file, 5 permission denied, 97 simulated "
        "crash\n");
    return 2;
}

int
verbHelp(const std::string &verb)
{
    const VerbDef *v = findVerb(verb);
    if (!v)
        return usage();
    std::printf("usage:\n%s", v->usageLines);
    if (v->flagHelp[0] != '\0')
        std::printf("flags:\n%s", v->flagHelp);
    if (collectsDataset(verb))
        std::printf("dataset flags: --budget=N --cache=DIR --jobs=N "
                    "--suites=A,B --traces=DIR --max-failures=N\n");
    std::printf("global flags: --metrics=FILE --trace-out=FILE "
                "--obs-summary --failpoints=SPEC\n");
    return 0;
}

int
cmdHelp(const util::CliArgs &args, const experiments::DatasetConfig &)
{
    if (args.positionals.size() >= 2)
        return verbHelp(args.positionals[1]);
    usage();
    return 0;
}

/**
 * One JSON object a harness can interrogate instead of parsing help
 * text: which verbs exist and which analyzers, spaces and trace
 * formats this build knows.
 */
int
cmdCapabilities(const util::CliArgs &, const experiments::DatasetConfig &)
{
    service::JsonValue doc = service::JsonValue::object();
    doc.set("schema", service::JsonValue::str("mica-capabilities/1"));
    service::JsonValue verbs = service::JsonValue::array();
    for (const auto &v : kVerbs)
        verbs.push(service::JsonValue::str(v.name));
    doc.set("verbs", std::move(verbs));
    service::JsonValue analyzers = service::JsonValue::array();
    for (const char *a : {"inst_mix", "ilp", "reg_traffic",
                          "working_set", "strides", "ppm"})
        analyzers.push(service::JsonValue::str(a));
    doc.set("analyzers", std::move(analyzers));
    service::JsonValue spaces = service::JsonValue::array();
    for (const char *s : {"mica", "hpc", "key"})
        spaces.push(service::JsonValue::str(s));
    doc.set("spaces", std::move(spaces));
    service::JsonValue formats = service::JsonValue::array();
    for (uint32_t v = kTraceFormatV1; v <= kTraceFormatLatest; ++v)
        formats.push(
            service::JsonValue::number(static_cast<uint64_t>(v)));
    doc.set("trace_formats", std::move(formats));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

/**
 * Exit epilogue shared by every verb: flush the requested telemetry
 * sinks. A sink that cannot be written turns a successful run into a
 * failure — the caller asked for the file, silently missing it would
 * poison whatever consumes it (CI asserts on these).
 */
int
obsFinish(const util::CliArgs &args, int rc)
{
    const std::string metricsPath = args.value("metrics");
    if (!metricsPath.empty() && !obs::writeMetricsJson(metricsPath)) {
        std::fprintf(stderr, "mica: cannot write metrics file %s\n",
                     metricsPath.c_str());
        if (rc == 0)
            rc = 1;
    }
    const std::string tracePath = args.value("trace-out");
    if (!tracePath.empty() && !obs::writeTraceJson(tracePath)) {
        std::fprintf(stderr, "mica: cannot write trace file %s\n",
                     tracePath.c_str());
        if (rc == 0)
            rc = 1;
    }
    if (args.has("obs-summary"))
        std::fprintf(stderr, "%s", obs::summaryText().c_str());
    return rc;
}

/**
 * @return the flag allow-list for one verb (strict parsing; a
 * trailing '=' marks a value-taking flag — see util::parseCliArgs).
 */
std::vector<std::string>
knownFlags(const std::string &cmd, const std::string &sub)
{
    // The telemetry sinks and the fault-injection switch are global:
    // every verb can export metrics and run under armed failpoints.
    std::vector<std::string> known = {"metrics=", "trace-out=",
                                      "obs-summary", "failpoints="};
    // Verbs that collect a dataset take every dataset flag. `trace
    // record` reads the budget and its worker count; no other verb
    // reads any of them, so none accepts one.
    if (collectsDataset(cmd)) {
        const auto &dataset = experiments::datasetFlags();
        known.insert(known.end(), dataset.begin(), dataset.end());
    }
    if (cmd == "serve")
        known.insert(known.end(),
                     {"listen=", "space=", "pca=", "max-conns=",
                      "drain-ms=", "metrics-interval="});
    if (cmd == "query")
        known.insert(known.end(), {"connect=", "space=", "pca="});
    if (cmd == "serve-bench")
        known.insert(known.end(),
                     {"connect=", "conns=", "requests=", "bench="});
    if (cmd == "faults" && sub == "crash-matrix")
        known.push_back("dir=");
    if (cmd == "profile" || cmd == "hpc")
        known.push_back("csv=");
    if (cmd == "cluster" || cmd == "subset")
        known.push_back("maxk=");
    if (cmd == "trace" && sub == "record")
        known.insert(known.end(), {"out=", "budget=", "jobs="});
    if (cmd == "index") {
        known.insert(known.end(), {"space=", "pca="});
        if (sub == "query")
            known.insert(known.end(), {"k=", "radius="});
        if (sub == "redundant")
            known.push_back("top=");
    }
    return known;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    // `mica --help` is `mica help`: the verb list, exit 0.
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    // --help anywhere after a verb prints that verb's page (rendered
    // from the dispatch table) before strict flag parsing would
    // reject it as unknown.
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0)
            return verbHelp(cmd);
    }
    // The sub-verb is the second positional (flags may come first, so
    // argv[2] is not necessarily it).
    std::string sub;
    for (int i = 2; i < argc; ++i) {
        if (argv[i][0] == '-' && argv[i][1] != '\0')
            continue;
        sub = argv[i];
        break;
    }
    const util::CliArgs args =
        util::parseCliArgs(argc, argv, knownFlags(cmd, sub));
    experiments::DatasetConfig cfg;
    std::string err;
    if (!experiments::datasetConfigFromFlags(args, &cfg, &err)) {
        std::fprintf(stderr, "mica %s: %s\n", cmd.c_str(), err.c_str());
        return 2;
    }

    // Arm fault injection: a spec that does not parse (or names an
    // unknown site) rejects loudly — a typo must not silently test
    // nothing.
    const std::string fpSpec = args.value("failpoints");
    if (!fpSpec.empty()) {
        if (!util::armFailpoints(fpSpec, &err)) {
            std::fprintf(stderr, "mica: --failpoints: %s\n", err.c_str());
            return 2;
        }
    }

    // Arm the span ring only when something will drain it; metric
    // counters are always live (their cost is a relaxed add).
    if (args.has("trace-out") || args.has("obs-summary") || cmd == "obs")
        obs::setTraceEnabled(true);

    // Trace-file problems (corrupt, truncated, layout-mismatched, or
    // unwritable files) surface as TraceFileError from any depth; they
    // must reject with the named reason, not crash the process. Every
    // exit path — including those failures — funnels through
    // obsFinish so the telemetry sinks always get written.
    const int rc = [&]() -> int {
        try {
            if (const VerbDef *v = findVerb(cmd))
                return v->run(args, cfg);
        } catch (const pipeline::SweepAborted &e) {
            // More quarantines than --max-failures allows: a hard
            // failure, not a partial result.
            std::fprintf(stderr, "mica %s: %s\n", cmd.c_str(), e.what());
            return 1;
        } catch (const TraceFileError &e) {
            // code() carries the errno class (0 = the file was
            // readable but corrupt), so scripts can branch on
            // missing-vs-unreadable-vs-corrupt.
            std::fprintf(stderr, "mica %s: %s\n", cmd.c_str(), e.what());
            return exitCodeFor(e.code());
        } catch (const util::IoError &e) {
            std::fprintf(stderr, "mica %s: %s\n", cmd.c_str(), e.what());
            return exitCodeFor(e.code());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "mica %s: %s\n", cmd.c_str(), e.what());
            return 1;
        }
        return usage();
    }();
    // A verb that succeeded over an incomplete dataset reports the
    // distinct partial-failure code; real failures keep theirs.
    return obsFinish(args, rc == 0 && gQuarantined ? kExitPartial : rc);
}
