/**
 * @file
 * Implementation of the shared experiment dataset collection, built on
 * the parallel profiling pipeline (src/pipeline).
 */

#include "experiments/experiments.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "mica/dataset.hh"
#include "mica/ppm.hh"
#include "obs/obs.hh"
#include "mica/runner.hh"
#include "pipeline/parallel_collector.hh"
#include "pipeline/profile_store.hh"
#include "uarch/hpc_runner.hh"
#include "util/checked_io.hh"
#include "workloads/registry.hh"

namespace mica::experiments
{

namespace
{

/**
 * Strict worker-count parser. strtoul would wrap "-1" to ULONG_MAX
 * and spawn billions of threads; garbage would silently mean "auto".
 * Anything that is not a plain decimal number falls back to serial,
 * and absurd counts are clamped.
 */
unsigned
parseJobs(const char *s)
{
    if (!s || !*s || *s < '0' || *s > '9')
        return 1;
    char *end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (*end != '\0')
        return 1;
    return static_cast<unsigned>(v > 256 ? 256 : v);
}

bool
suiteSelected(const DatasetConfig &cfg, const std::string &suite)
{
    if (cfg.suites.empty())
        return true;
    for (const auto &s : cfg.suites) {
        if (s == suite)
            return true;
    }
    return false;
}

} // namespace

Matrix
SuiteDataset::micaMatrix() const
{
    return profilesToMatrix(micaProfiles);
}

Matrix
SuiteDataset::hpcMatrix() const
{
    return uarch::hwProfilesToMatrix(hpcProfiles);
}

size_t
SuiteDataset::indexOf(const std::string &fullName) const
{
    for (size_t i = 0; i < benchmarks.size(); ++i) {
        if (benchmarks[i].fullName() == fullName)
            return i;
    }
    return static_cast<size_t>(-1);
}

SuiteDataset
collectSuiteDataset(const DatasetConfig &cfg)
{
    const auto &reg = workloads::BenchmarkRegistry::instance();

    SuiteDataset ds;
    // Trace-backed entries need owned storage; registry entries are
    // borrowed from the singleton. Both flow through one pointer list
    // so everything downstream (store, collector) is source-agnostic.
    std::vector<workloads::BenchmarkEntry> traceEntries;
    std::vector<const workloads::BenchmarkEntry *> selected;
    uint64_t traceStamp = 0;
    // Every worker would reject the order, so check it once, before
    // the store or the pool: one error, not 122 quarantined benchmarks.
    PpmBranchAnalyzer::checkOrder(cfg.ppmMaxOrder);
    if (!cfg.traceDir.empty() && !cfg.traceFiles.empty())
        throw std::invalid_argument(
            "traceDir and traceFiles are mutually exclusive");
    if (!cfg.traceDir.empty() || !cfg.traceFiles.empty()) {
        // Scan-time quarantine: a corrupt or short trace file is
        // reported and skipped; the rest of the sweep proceeds. The
        // directory iterator's order is filesystem-dependent, so sort
        // the report to keep it deterministic across runs and hosts.
        std::vector<std::pair<std::string, std::string>> badFiles;
        traceEntries =
            cfg.traceDir.empty()
                ? workloads::traceBenchmarksFromFiles(
                      cfg.traceFiles, cfg.maxInsts, &traceStamp,
                      &badFiles,
                      cfg.traceLabel.empty() ? "trace set"
                                             : cfg.traceLabel)
                : workloads::traceBenchmarks(cfg.traceDir, cfg.maxInsts,
                                             &traceStamp, &badFiles);
        std::sort(badFiles.begin(), badFiles.end());
        for (auto &bad : badFiles)
            ds.failures.push_back({std::move(bad.first), "scan",
                                   std::move(bad.second)});
        if (!ds.failures.empty()) {
            static obs::Counter quarantined("pipeline.quarantined");
            quarantined.add(ds.failures.size());
            if (ds.failures.size() > cfg.maxFailures)
                throw pipeline::SweepAborted(ds.failures.size(),
                                             cfg.maxFailures);
        }
        for (const auto &e : traceEntries) {
            if (suiteSelected(cfg, e.info.suite)) {
                ds.benchmarks.push_back(e.info);
                selected.push_back(&e);
            }
        }
    } else {
        for (const auto &e : reg.all()) {
            if (suiteSelected(cfg, e.info.suite)) {
                ds.benchmarks.push_back(e.info);
                selected.push_back(&e);
            }
        }
    }

    // A suite filter that matches nothing is a typo, and a typo must
    // not silently mean "profile zero benchmarks" (the same
    // strictness the CLI applies to its numeric flags).
    for (const auto &want : cfg.suites) {
        bool any = false;
        for (const auto &info : ds.benchmarks)
            any = any || info.suite == want;
        if (!any) {
            throw std::invalid_argument(
                "unknown suite '" + want +
                "' (selects no benchmarks; see 'mica list')");
        }
    }

    // The store is keyed by everything that changes measured values; a
    // store written under a different budget/PPM-order/suite filter/
    // trace directory (or a legacy CSV-era directory, which has no
    // profiles.bin at all) is rejected wholesale and the sweep
    // re-collects. For trace replay the key carries a digest of the
    // trace *contents*, so re-recording a file invalidates the cache
    // instead of silently serving profiles of the old bytes.
    pipeline::StoreKey key;
    key.maxInsts = cfg.maxInsts;
    key.ppmMaxOrder = cfg.ppmMaxOrder;
    key.suites = cfg.suites;
    if (!cfg.traceDir.empty() || !cfg.traceFiles.empty()) {
        // A file-list replay keys on its label (or "files") plus the
        // same content digest a directory replay uses, so one shard's
        // store never serves another's profiles.
        std::ostringstream stamped;
        stamped << (!cfg.traceDir.empty()
                        ? cfg.traceDir
                        : (cfg.traceLabel.empty() ? "files"
                                                  : cfg.traceLabel))
                << '#' << std::hex << traceStamp;
        key.traceDir = stamped.str();
    }

    std::unique_ptr<pipeline::ProfileStore> store;
    if (!cfg.cacheDir.empty()) {
        store = std::make_unique<pipeline::ProfileStore>(cfg.cacheDir, key);
        try {
            store->open();
        } catch (const util::IoError &e) {
            // A store that exists but cannot be read must not take
            // the sweep down with it: results are still computable,
            // just not cacheable. Degrade loudly.
            static obs::Counter degraded("store.degraded_open");
            degraded.add(1);
            std::fprintf(stderr,
                         "warning: profile store unusable, computing "
                         "without cache: %s\n",
                         e.what());
            store.reset();
        }
    }

    std::vector<const workloads::BenchmarkEntry *> missing;
    for (const auto *e : selected) {
        if (!store || !store->find(e->info.fullName()))
            missing.push_back(e);
    }

    if (store) {
        // Make cache effectiveness visible: a warm rerun that serves
        // every profile from the store should say so instead of just
        // finishing suspiciously fast.
        static obs::Counter hitC("store.profile.hit");
        static obs::Counter computedC("store.profile.computed");
        const size_t hits = selected.size() - missing.size();
        hitC.add(hits);
        computedC.add(missing.size());
        std::fprintf(stderr, "store: %zu hit / %zu computed\n", hits,
                     missing.size());
    }

    MicaRunnerConfig rc;
    rc.maxInsts = cfg.maxInsts;
    rc.ppmMaxOrder = cfg.ppmMaxOrder;

    // Persist each result the moment its job finishes (put is
    // thread-safe), so an interrupted or partially failed sweep keeps
    // everything completed so far.
    pipeline::ResultFn persist;
    if (store) {
        persist = [&store](const pipeline::StoredProfile &p) {
            store->put(p);
        };
    }

    // Profiling failures are isolated: the sweep finishes everyone
    // else, and the budget left over from scan-time quarantine caps
    // how many more benchmarks may fail.
    pipeline::FaultPolicy policy;
    policy.isolate = true;
    policy.maxFailures = cfg.maxFailures - ds.failures.size();
    std::vector<pipeline::SweepFailure> sweepFailures;
    std::vector<pipeline::StoredProfile> fresh;
    if (!missing.empty())
        fresh = pipeline::collectProfiles(missing, rc, cfg.jobs,
                                          cfg.progress, persist, policy,
                                          &sweepFailures);

    std::unordered_set<std::string> failedNames;
    for (auto &f : sweepFailures) {
        failedNames.insert(f.bench);
        ds.failures.push_back(std::move(f));
    }

    ds.micaProfiles.reserve(selected.size());
    ds.hpcProfiles.reserve(selected.size());
    if (store) {
        // Assemble everything from the store so cached and fresh
        // entries flow through one path. A name the store cannot
        // produce despite a "successful" sweep is itself quarantined
        // (belt and braces — put() never removes entries).
        for (const auto *e : selected) {
            const std::string name = e->info.fullName();
            if (failedNames.count(name))
                continue;
            const auto *p = store->find(name);
            if (!p) {
                failedNames.insert(name);
                ds.failures.push_back(
                    {name, "store", "missing from store after sweep"});
                continue;
            }
            ds.micaProfiles.push_back(p->mica);
            ds.hpcProfiles.push_back(p->hpc);
        }
    } else {
        for (size_t k = 0; k < fresh.size(); ++k) {
            if (failedNames.count(missing[k]->info.fullName()))
                continue;
            ds.micaProfiles.push_back(std::move(fresh[k].mica));
            ds.hpcProfiles.push_back(std::move(fresh[k].hpc));
        }
    }

    if (!failedNames.empty()) {
        // Quarantined benchmarks leave every dataset vector, so rows
        // stay aligned and downstream analyses see only completed
        // profiles.
        std::vector<workloads::BenchmarkInfo> kept;
        kept.reserve(ds.benchmarks.size());
        for (auto &info : ds.benchmarks) {
            if (!failedNames.count(info.fullName()))
                kept.push_back(std::move(info));
        }
        ds.benchmarks = std::move(kept);
    }

    if (store && !fresh.empty()) {
        // Human-readable exports next to the binary store. Never read
        // back — the store is the single source of cached truth.
        std::error_code ec;
        std::filesystem::create_directories(cfg.cacheDir, ec);
        saveProfilesCsv(cfg.cacheDir + "/mica_profiles.csv",
                        ds.micaProfiles);
        saveHpcCsv(cfg.cacheDir + "/hpc_profiles.csv", ds.hpcProfiles);
    }
    return ds;
}

namespace
{

/** Split "A,B,C" into its non-empty parts. */
std::vector<std::string>
splitCommas(const char *s)
{
    std::vector<std::string> out;
    std::string cur;
    for (; ; ++s) {
        if (*s == ',' || *s == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*s == '\0')
                break;
        } else {
            cur.push_back(*s);
        }
    }
    return out;
}

} // namespace

DatasetConfig
configFromArgs(int argc, char **argv)
{
    DatasetConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--budget=", 9) == 0)
            cfg.maxInsts = std::strtoull(arg + 9, nullptr, 10);
        else if (std::strncmp(arg, "--cache=", 8) == 0)
            cfg.cacheDir = arg + 8;
        else if (std::strncmp(arg, "--jobs=", 7) == 0)
            cfg.jobs = parseJobs(arg + 7);
        else if (std::strncmp(arg, "--suites=", 9) == 0)
            cfg.suites = splitCommas(arg + 9);
        else if (std::strncmp(arg, "--traces=", 9) == 0)
            cfg.traceDir = arg + 9;
        else if (std::strncmp(arg, "--max-failures=", 15) == 0)
            cfg.maxFailures = std::strtoull(arg + 15, nullptr, 10);
        else if (std::strcmp(arg, "--quick") == 0)
            cfg.maxInsts = 50000;
    }
    if (const char *env = std::getenv("MICA_BUDGET"))
        cfg.maxInsts = std::strtoull(env, nullptr, 10);
    if (const char *env = std::getenv("MICA_CACHE"))
        cfg.cacheDir = env;
    if (const char *env = std::getenv("MICA_JOBS"))
        cfg.jobs = parseJobs(env);
    if (const char *env = std::getenv("MICA_TRACES"))
        cfg.traceDir = env;
    return cfg;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "BioInfoMark", "BioMetricsWorkload", "CommBench",
        "MediaBench", "MiBench", "SPEC2000",
    };
    return names;
}

} // namespace mica::experiments
