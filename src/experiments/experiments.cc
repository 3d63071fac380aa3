/**
 * @file
 * Implementation of the shared experiment dataset collection, built on
 * the parallel profiling pipeline (src/pipeline).
 */

#include "experiments/experiments.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
        if (benchmarks[i].isNamed(fullName))
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
    // Every worker would reject the order, so check it once, before
    // the store or the pool: one error, not 122 quarantined benchmarks.
    PpmBranchAnalyzer::checkOrder(cfg.ppmMaxOrder);
    if (!cfg.traceDir.empty()) {
        // Scan-time quarantine: a trace file whose header fails a
        // check, or that is short of the budget, is reported and
        // skipped; the rest of the sweep proceeds. The tree walk is
        // sorted, so the report reads the same every run.
        std::vector<std::pair<std::string, std::string>> badFiles;
        traceEntries = workloads::traceBenchmarks(cfg.traceDir,
                                                  cfg.maxInsts, &badFiles);
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

    // The store is keyed by the knobs that change measured values; a
    // store written under a different budget or PPM order (or a legacy
    // CSV-era directory, which has no profiles.bin at all) is rejected
    // wholesale and the sweep re-collects. What the records were is
    // per entry: a lookup hits only on the entry's content id, so a
    // re-recorded trace re-profiles alone instead of being served the
    // profile of its old bytes.
    pipeline::StoreKey key;
    key.maxInsts = cfg.maxInsts;
    key.ppmMaxOrder = cfg.ppmMaxOrder;

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
        if (!store || !store->find(e->info.fullName(), e->contentId))
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

    // Profiling failures are quarantined: the sweep finishes everyone
    // else, and the budget left over from scan-time quarantine caps
    // how many more benchmarks may fail.
    pipeline::FaultPolicy policy;
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
            const auto *p = store->find(name, e->contentId);
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

    return ds;
}

namespace
{

/** Split "A,B,C" into its non-empty parts. */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string part;
    while (std::getline(in, part, ',')) {
        if (!part.empty())
            out.push_back(part);
    }
    return out;
}

} // namespace

const std::vector<std::string> &
datasetFlags()
{
    static const std::vector<std::string> flags = {
        "budget=", "cache=", "jobs=", "suites=", "traces=",
        "max-failures=",
    };
    return flags;
}

bool
datasetConfigFromFlags(const util::CliArgs &args, DatasetConfig *cfg,
                       std::string *err)
{
    if (!args.ok()) {
        *err = args.error;
        return false;
    }
    // A typo'd number must not silently mean something else:
    // --budget=20k is not 20 instructions, --jobs=banana not serial.
    for (const char *flag : {"budget", "jobs", "max-failures"}) {
        if (!args.intOk(flag)) {
            *err = std::string("--") + flag +
                   " needs a non-negative integer (got '" +
                   args.value(flag) + "')";
            return false;
        }
    }
    DatasetConfig out;
    out.maxInsts = static_cast<uint64_t>(args.intValue("budget", 0));
    out.cacheDir = args.value("cache");
    out.jobs = static_cast<unsigned>(
        std::min<long long>(args.intValue("jobs", 1), 256));
    out.suites = splitCommas(args.value("suites"));
    out.traceDir = args.value("traces");
    if (args.has("max-failures"))
        out.maxFailures =
            static_cast<size_t>(args.intValue("max-failures", 0));
    *cfg = std::move(out);
    return true;
}

DatasetConfig
datasetConfigOrExit(int argc, char **argv,
                    const std::vector<std::string> &known,
                    util::CliArgs *args)
{
    const util::CliArgs parsed = util::parseCliArgs(argc, argv, known);
    DatasetConfig cfg;
    std::string err;
    if (!datasetConfigFromFlags(parsed, &cfg, &err)) {
        std::fprintf(stderr, "%s: %s\n",
                     std::filesystem::path(argv[0]).filename().c_str(),
                     err.c_str());
        std::exit(2);
    }
    if (args)
        *args = parsed;
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
