/**
 * @file
 * End-to-end benchmark of the operations users run: the budget-0
 * profiling sweep of all 122 registry kernels, and daemon round trips
 * of similarity queries (kNN, radius, profile, ...) on its results.
 *
 *   micabench --workload W --seed N --seconds S --trace 0|1 --dir DIR
 *
 * Workloads:
 *   sweep  `mica profile all --budget=0 --jobs=4` into a cold profile
 *          store; one op = one whole sweep.
 *   serve  a `mica serve` daemon on the real 122-benchmark snapshot,
 *          2 closed-loop clients over a unix socket sending a fixed op
 *          mix; one op = one round trip.
 *
 * --trace 0 measures the end-to-end metrics: op_ms (median op wall
 * time; for serve the median of 2-second window means, see
 * WindowMeans) and setup_s (median of repeated set-ups).
 * --trace 1 measures the layer table instead, from this file, around
 * calls into each layer: kernel build, interpretation, the six MICA
 * analyzers, the HPC model, store commit, index build, request parse /
 * execute / serialize, and the daemon round-trip tail. The sweep layers
 * run serially on the registry kernels (their sum is the serial sweep),
 * the query layers on the 122-benchmark snapshot and serve's op mix.
 *
 * Which end-to-end number each layer should move: kernel build,
 * interpretation, the analyzers, the HPC model, store commit and
 * engine_records (records pushed through analysis engines in one
 * sweep) move op_ms of sweep and setup_s of serve; index build moves
 * setup_s of serve; request parse, execute, serialize and the
 * round-trip tail move op_ms of serve.
 *
 * Every op's output is checked: sweeps against the first sweep of the
 * run and against the library's direct single-benchmark path, daemon
 * replies byte for byte against the local engine, and kNN answers
 * against an exact scan done here. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "experiments/experiments.hh"
#include "index/fingerprint_index.hh"
#include "isa/interpreter.hh"
#include "mica/ilp.hh"
#include "mica/inst_mix.hh"
#include "mica/ppm.hh"
#include "mica/reg_traffic.hh"
#include "mica/runner.hh"
#include "mica/strides.hh"
#include "mica/working_set.hh"
#include "obs/obs.hh"
#include "pipeline/profile_store.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/query_engine.hh"
#include "service/server.hh"
#include "uarch/hpc_runner.hh"
#include "uarch/hw_counter.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mica;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using service::JsonValue;

/** Workers of the sweep and of the daemon's cold start. */
constexpr unsigned kSweepJobs = 4;
/** Closed-loop client connections of the serve workload. */
constexpr size_t kServeClients = 2;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    fs::path dir;
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    rank = std::min(std::max<size_t>(rank, 1), v.size());
    return v[rank - 1];
}

/** What one run prints. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::tuple<std::string, double, std::string>> metrics;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, value, unit);
    }

    void
    wrong(const std::string &why)
    {
        std::fprintf(stderr, "micabench: incorrect: %s\n", why.c_str());
        correct = false;
    }

    void
    print() const
    {
        std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                    "\"metrics\":{",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < metrics.size(); ++i) {
            const auto &[name, value, unit] = metrics[i];
            std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                        i ? "," : "", name.c_str(), value, unit.c_str());
        }
        std::printf("}}\n");
    }
};

// ----------------------------------------------------------------------
// Seeded inputs.
// ----------------------------------------------------------------------

size_t
below(std::mt19937_64 &rng, size_t n)
{
    return static_cast<size_t>(rng() % n);
}

double
unit(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

template <typename T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[below(rng, i)]);
}

/** One request line plus what its kNN answer is checked against. */
struct Query
{
    std::string line;
    int64_t knnId = -1;   ///< fingerprint id of a knn request, else -1
    size_t k = 0;
};

std::string
knnLine(const std::string &bench, size_t k)
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::str("knn"));
    req.set("bench", JsonValue::str(bench));
    req.set("k", JsonValue::number(static_cast<uint64_t>(k)));
    return req.dump();
}

/**
 * The serve workload's traffic: fixed counts per op (so every seed
 * sends the same mix) with seeded benchmarks, parameters and order.
 */
std::vector<Query>
serveMix(const service::ServerSnapshot &snap, std::mt19937_64 &rng)
{
    const auto &bs = snap.ds.benchmarks;
    std::vector<std::string> suites;
    for (const auto &b : bs)
        if (std::find(suites.begin(), suites.end(), b.suite) == suites.end())
            suites.push_back(b.suite);

    std::vector<Query> out;
    const size_t ks[] = {3, 5, 10};
    for (size_t i = 0; i < 128; ++i) {
        const std::string bench = bs[below(rng, bs.size())].fullName();
        const size_t k = ks[below(rng, 3)];
        out.push_back({knnLine(bench, k), snap.idx.idOf(bench), k});
    }
    for (size_t i = 0; i < 64; ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::str("profile"));
        req.set("bench", JsonValue::str(bs[below(rng, bs.size())].fullName()));
        req.set("space", JsonValue::str(i % 2 ? "hpc" : "mica"));
        out.push_back({req.dump(), -1, 0});
    }
    for (size_t i = 0; i < 32; ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::str("radius"));
        req.set("bench", JsonValue::str(bs[below(rng, bs.size())].fullName()));
        req.set("r", JsonValue::number(snap.maxPairDist *
                                        (0.1 + 0.2 * unit(rng))));
        out.push_back({req.dump(), -1, 0});
    }
    for (size_t i = 0; i < 16; ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::str("suites"));
        if (i % 2)
            req.set("suite", JsonValue::str(suites[below(rng, suites.size())]));
        out.push_back({req.dump(), -1, 0});
    }
    for (size_t i = 0; i < 8; ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::str("redundant"));
        req.set("top", JsonValue::number(static_cast<uint64_t>(
                           i % 2 ? 5 : 10)));
        out.push_back({req.dump(), -1, 0});
    }
    for (size_t i = 0; i < 8; ++i)
        out.push_back({"{\"op\":\"ping\"}", -1, 0});
    shuffle(out, rng);
    return out;
}

// ----------------------------------------------------------------------
// Output checks.
// ----------------------------------------------------------------------

uint64_t
fnv(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of every name, instruction count and value of a dataset. */
uint64_t
datasetDigest(const experiments::SuiteDataset &ds)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < ds.benchmarks.size(); ++i) {
        const std::string name = ds.benchmarks[i].fullName();
        h = fnv(h, name.data(), name.size());
        const MicaProfile &m = ds.micaProfiles[i];
        h = fnv(h, &m.instCount, sizeof m.instCount);
        h = fnv(h, m.values.data(), sizeof(double) * m.values.size());
        const auto &hp = ds.hpcProfiles[i];
        const std::vector<double> v = hp.toVector();
        h = fnv(h, &hp.instCount, sizeof hp.instCount);
        h = fnv(h, v.data(), sizeof(double) * v.size());
    }
    return h;
}

/** A complete sweep: every kernel, both characterizations, no failures. */
bool
datasetComplete(const experiments::SuiteDataset &ds, Report &rep)
{
    const size_t n = workloads::BenchmarkRegistry::instance().size();
    if (!ds.failures.empty()) {
        rep.wrong("sweep quarantined " + ds.failures.front().bench + ": " +
                  ds.failures.front().error);
        return false;
    }
    if (ds.benchmarks.size() != n || ds.micaProfiles.size() != n ||
        ds.hpcProfiles.size() != n) {
        rep.wrong("sweep returned " + std::to_string(ds.benchmarks.size()) +
                  " of " + std::to_string(n) + " benchmarks");
        return false;
    }
    for (size_t i = 0; i < n; ++i) {
        if (ds.micaProfiles[i].instCount == 0 ||
            ds.micaProfiles[i].instCount != ds.hpcProfiles[i].instCount) {
            rep.wrong("instruction counts disagree for " +
                      ds.benchmarks[i].fullName());
            return false;
        }
    }
    return true;
}

/**
 * Re-profile two seeded kernels through the library's direct
 * single-benchmark path and require the sweep's rows bit for bit.
 */
void
crossCheckSweep(const experiments::SuiteDataset &ds, std::mt19937_64 &rng,
                Report &rep)
{
    const auto &all = workloads::BenchmarkRegistry::instance().all();
    for (int k = 0; k < 2; ++k) {
        const auto &e = all[below(rng, all.size())];
        const std::string name = e.info.fullName();
        const size_t row = ds.indexOf(name);
        if (row == static_cast<size_t>(-1)) {
            rep.wrong(name + " missing from the sweep");
            continue;
        }
        const isa::Program prog = e.build();
        isa::Interpreter forMica(prog);
        const MicaProfile m = collectMicaProfile(forMica, name);
        isa::Interpreter forHpc(prog);
        const auto h = uarch::collectHwProfile(forHpc, name);
        const MicaProfile &sm = ds.micaProfiles[row];
        const auto hv = h.toVector(), sv = ds.hpcProfiles[row].toVector();
        if (m.instCount != sm.instCount ||
            std::memcmp(m.values.data(), sm.values.data(),
                        sizeof(double) * m.values.size()) != 0 ||
            hv.size() != sv.size() ||
            std::memcmp(hv.data(), sv.data(), sizeof(double) * hv.size()) != 0)
            rep.wrong("sweep row of " + name +
                      " differs from the direct profile");
    }
}

/** Exact kNN of fingerprint @p q by a full scan, (dist, id) order. */
std::vector<std::pair<double, uint32_t>>
exactKnn(const index::FingerprintSet &fps, size_t q, size_t k)
{
    std::vector<std::pair<double, uint32_t>> all;
    const double *a = fps.vec(q);
    for (size_t i = 0; i < fps.size(); ++i) {
        if (i == q)
            continue;
        const double *b = fps.vec(i);
        double s = 0.0;
        for (size_t c = 0; c < fps.dim; ++c)
            s += (a[c] - b[c]) * (a[c] - b[c]);
        all.emplace_back(std::sqrt(s), static_cast<uint32_t>(i));
    }
    k = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                      all.end());
    all.resize(k);
    return all;
}

/** @return whether a knn reply lists exactly the scan's neighbors. */
bool
knnReplyExact(const std::string &reply, const index::FingerprintIndex &idx,
              const Query &q)
{
    JsonValue doc;
    if (!service::parseJson(reply, &doc) || !doc.isObject())
        return false;
    const JsonValue *ok = doc.find("ok");
    const JsonValue *result = doc.find("result");
    if (!ok || !ok->isBool() || !ok->asBool() || !result)
        return false;
    const JsonValue *nbs = result->find("neighbors");
    const auto want = exactKnn(idx.fingerprints(),
                               static_cast<size_t>(q.knnId), q.k);
    if (!nbs || !nbs->isArray() || nbs->items().size() != want.size())
        return false;
    for (size_t i = 0; i < want.size(); ++i) {
        const JsonValue &nb = nbs->items()[i];
        const JsonValue *bench = nb.find("bench");
        const JsonValue *dist = nb.find("dist");
        if (!bench || !dist || !bench->isString() || !dist->isNumber() ||
            bench->asString() != idx.nameOf(want[i].second) ||
            std::fabs(dist->asDouble() - want[i].first) >
                1e-9 * std::max(1.0, want[i].first))
            return false;
    }
    return true;
}

/**
 * The expected reply of every request: the local engine's answer (the
 * `mica query` path), with each kNN answer checked against the scan.
 */
std::vector<std::string>
expectedReplies(const service::ServerSnapshot &snap,
                const std::vector<Query> &mix, Report &rep)
{
    std::vector<std::string> out;
    for (const auto &q : mix) {
        out.push_back(service::executeLine(snap, q.line));
        if (out.back().find("\"ok\":true") == std::string::npos)
            rep.wrong("request failed: " + q.line + " -> " + out.back());
        else if (q.knnId >= 0 && !knnReplyExact(out.back(), snap.idx, q))
            rep.wrong("knn answer differs from an exact scan: " + q.line);
    }
    return out;
}

// ----------------------------------------------------------------------
// System under test.
// ----------------------------------------------------------------------

experiments::DatasetConfig
sweepConfig(const fs::path &cache, unsigned jobs)
{
    experiments::DatasetConfig cfg;
    cfg.maxInsts = 0;
    cfg.jobs = jobs;
    cfg.cacheDir = cache.string();
    return cfg;
}

/** `mica profile all --budget=0 --jobs=J --cache=DIR` on a cold store. */
experiments::SuiteDataset
coldSweep(const fs::path &cache, unsigned jobs)
{
    return experiments::collectSuiteDataset(sweepConfig(cache, jobs));
}

/** A `mica serve` daemon on its own event-loop thread. */
class Daemon
{
  public:
    Daemon(const std::string &address,
           std::shared_ptr<const service::ServerSnapshot> snap,
           const experiments::DatasetConfig &cfg)
    {
        service::ServerOptions opt;
        opt.address = address;
        opt.jobs = kServeClients;
        server_ = std::make_unique<service::Server>(opt, std::move(snap), cfg,
                                                    service::SpaceChoice{});
        std::string err;
        if (!server_->start(&err))
            throw std::runtime_error("daemon start: " + err);
        loop_ = std::thread([this] { server_->run(); });
    }

    ~Daemon()
    {
        server_->requestStop();
        loop_.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::string address() const { return server_->boundAddress(); }

  private:
    std::unique_ptr<service::Server> server_;
    std::thread loop_;
};

/**
 * Mean op time over consecutive windows of kWindowS seconds. On shared
 * machines speed alternates between full speed and slower spells of a
 * few seconds, so the per-op median of microsecond ops flips between
 * the two modes from run to run; window means move smoothly with the
 * share of slow time, and their median is steady.
 */
class WindowMeans
{
  public:
    void
    add(double dt)
    {
        sum_ += dt;
        ++n_;
        if (since(start_) >= kWindowS)
            flush();
    }

    /** @return the window means, the last partial window only if alone. */
    std::vector<double>
    means()
    {
        if (means_.empty())
            flush();
        return means_;
    }

  private:
    static constexpr double kWindowS = 2.0;

    void
    flush()
    {
        if (n_)
            means_.push_back(sum_ / static_cast<double>(n_));
        sum_ = 0.0;
        n_ = 0;
        start_ = Clock::now();
    }

    std::vector<double> means_;
    double sum_ = 0.0;
    size_t n_ = 0;
    Clock::time_point start_ = Clock::now();
};

/** Round-trip latencies of closed-loop clients, checked reply by reply. */
struct LoopResult
{
    std::vector<double> latency;   ///< seconds per round trip
    std::vector<double> windows;   ///< WindowMeans of every client
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

LoopResult
closedLoop(const std::string &address, const std::vector<Query> &mix,
           const std::vector<std::string> &expect, size_t clients,
           size_t warmup, double seconds, size_t maxRequests)
{
    std::vector<LoopResult> per(clients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            LoopResult &r = per[c];
            WindowMeans windows;
            service::ServiceClient client;
            std::string err, reply;
            if (!client.connect(address, &err)) {
                std::fprintf(stderr, "micabench: connect: %s\n", err.c_str());
                r.attempted = r.failed = 1;
                return;
            }
            size_t i = c * mix.size() / clients;
            for (size_t n = 0;; ++n, ++i) {
                const bool timed = n >= warmup;
                if (timed && (since(start) >= seconds ||
                              r.latency.size() >= maxRequests)) {
                    r.windows = windows.means();
                    break;
                }
                const size_t at = i % mix.size();
                const Clock::time_point t0 = Clock::now();
                const bool ok = client.request(mix[at].line, &reply, &err);
                const double dt = since(t0);
                if (!timed)
                    continue;
                ++r.attempted;
                if (!ok || reply != expect[at]) {
                    ++r.failed;
                    std::fprintf(stderr, "micabench: bad reply to %s: %s\n",
                                 mix[at].line.c_str(),
                                 ok ? reply.c_str() : err.c_str());
                    if (!ok)
                        return;
                    continue;
                }
                r.latency.push_back(dt);
                windows.add(dt);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    LoopResult all;
    for (auto &r : per) {
        all.latency.insert(all.latency.end(), r.latency.begin(),
                           r.latency.end());
        all.windows.insert(all.windows.end(), r.windows.begin(),
                           r.windows.end());
        all.attempted += r.attempted;
        all.failed += r.failed;
    }
    return all;
}

int64_t
engineRecords()
{
    const obs::MetricsSnapshot ms = obs::snapshotMetrics();
    const auto it = ms.metrics.find("engine.records");
    return it == ms.metrics.end() ? 0 : it->second.value;
}

// ----------------------------------------------------------------------
// End-to-end workloads (--trace 0).
// ----------------------------------------------------------------------

void
runSweep(const Options &o, Report &rep)
{
    std::mt19937_64 rng(o.seed);
    const auto &all = workloads::BenchmarkRegistry::instance().all();

    // Set-up: an empty store directory and every kernel assembled once
    // (the registry defers program construction to first use).
    std::vector<double> setup;
    for (int i = 0; i < 9; ++i) {
        const Clock::time_point t0 = Clock::now();
        fs::remove_all(o.dir / "store");
        fs::create_directories(o.dir / "store");
        for (const auto &e : all) {
            const isa::Program prog = e.build();
            (void)prog;
        }
        setup.push_back(since(t0));
    }

    // Warm-up sweep: the reference every timed sweep must reproduce.
    const fs::path cache = o.dir / "store";
    const experiments::SuiteDataset ref = coldSweep(cache, kSweepJobs);
    ++rep.attempted;
    if (!datasetComplete(ref, rep))
        ++rep.failed;
    const uint64_t refDigest = datasetDigest(ref);

    std::vector<double> times;
    const Clock::time_point start = Clock::now();
    while (times.size() < 3 || since(start) < o.seconds) {
        fs::remove_all(cache);
        const Clock::time_point t0 = Clock::now();
        const experiments::SuiteDataset ds = coldSweep(cache, kSweepJobs);
        times.push_back(since(t0));
        ++rep.attempted;
        if (datasetDigest(ds) != refDigest) {
            ++rep.failed;
            rep.wrong("sweep " + std::to_string(times.size()) +
                      " differs from the first sweep");
        }
    }
    crossCheckSweep(ref, rng, rep);

    rep.metric("op_ms", median(times) * 1e3, "ms");
    rep.metric("setup_s", median(setup), "s");
}

void
runServe(const Options &o, Report &rep)
{
    std::mt19937_64 rng(o.seed);

    // Set-up: a daemon cold start — profile every kernel into an empty
    // store, build and persist the index, bind the socket.
    std::vector<double> setup;
    std::shared_ptr<const service::ServerSnapshot> snap;
    std::unique_ptr<Daemon> daemon;
    experiments::DatasetConfig cfg;
    for (int i = 0; i < 3; ++i) {
        daemon.reset();
        const fs::path cache = o.dir / ("serve-" + std::to_string(i));
        fs::remove_all(cache);
        cfg = sweepConfig(cache, kSweepJobs);
        const Clock::time_point t0 = Clock::now();
        std::string err;
        snap = service::buildServerSnapshot(cfg, service::SpaceChoice{},
                                            nullptr, 0, {}, &err);
        if (!snap)
            throw std::runtime_error("snapshot: " + err);
        const fs::path sock = cache.string() + ".sock";
        daemon = std::make_unique<Daemon>("unix:" + sock.string(), snap, cfg);
        setup.push_back(since(t0));
    }
    datasetComplete(snap->ds, rep);

    const std::vector<Query> mix = serveMix(*snap, rng);
    const std::vector<std::string> expect = expectedReplies(*snap, mix, rep);
    const LoopResult r = closedLoop(daemon->address(), mix, expect,
                                    kServeClients, 200, o.seconds,
                                    static_cast<size_t>(-1));
    daemon.reset();
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    if (r.failed)
        rep.wrong(std::to_string(r.failed) + " daemon replies were wrong");

    rep.metric("op_ms", median(r.windows) * 1e3, "ms");
    rep.metric("setup_s", median(setup), "s");
}

// ----------------------------------------------------------------------
// Layer table (--trace 1).
// ----------------------------------------------------------------------

/** Feed one chunk to an analyzer in engine-sized batches, timed. */
void
feed(TraceAnalyzer &a, const InstRecord *recs, size_t n, double &busy)
{
    const Clock::time_point t0 = Clock::now();
    for (size_t off = 0; off < n; off += AnalysisEngine::kDefaultBatchSize)
        a.acceptBatch(recs + off,
                      std::min(AnalysisEngine::kDefaultBatchSize, n - off));
    busy += since(t0);
}

/**
 * Every registry kernel through each sweep layer on its own: kernel
 * build, interpretation into a chunk buffer, then each analyzer over
 * the chunk with the lone-analyzer batch kernel the engine uses.
 */
void
kernelLayers(Report &rep)
{
    enum { Build, Interp, Mix, Ilp, Reg, Ws, Strides, Ppm, Hpc, NLayers };
    double busy[NLayers] = {};
    std::vector<InstRecord> buf(1 << 16);
    for (const auto &e : workloads::BenchmarkRegistry::instance().all()) {
        Clock::time_point t0 = Clock::now();
        const isa::Program prog = e.build();
        busy[Build] += since(t0);

        isa::Interpreter interp(prog);
        InstMixAnalyzer mix;
        IlpAnalyzer ilp;
        RegTrafficAnalyzer reg;
        WorkingSetAnalyzer ws;
        StrideAnalyzer strides;
        PpmBranchAnalyzer ppm;
        uarch::HwCounterAnalyzer hpc;
        std::pair<TraceAnalyzer *, int> layers[] = {
            {&mix, Mix}, {&ilp, Ilp},         {&reg, Reg},
            {&ws, Ws},   {&strides, Strides}, {&ppm, Ppm},
            {&hpc, Hpc}};
        for (;;) {
            t0 = Clock::now();
            const size_t got = interp.nextBatch(buf.data(), buf.size());
            busy[Interp] += since(t0);
            if (got == 0)
                break;
            for (auto &[a, layer] : layers)
                feed(*a, buf.data(), got, busy[layer]);
        }
        for (auto &[a, layer] : layers) {
            t0 = Clock::now();
            a->finish();
            busy[layer] += since(t0);
        }
    }
    rep.metric("kernel_build_ms", busy[Build] * 1e3, "ms");
    rep.metric("interpret_s", busy[Interp], "s");
    rep.metric("inst_mix_s", busy[Mix], "s");
    rep.metric("ilp_s", busy[Ilp], "s");
    rep.metric("reg_traffic_s", busy[Reg], "s");
    rep.metric("working_set_s", busy[Ws], "s");
    rep.metric("strides_s", busy[Strides], "s");
    rep.metric("ppm_s", busy[Ppm], "s");
    rep.metric("hpc_model_s", busy[Hpc], "s");
}

/** Parse, execute and serialize of every request, medians in us. */
void
requestLayers(const service::ServerSnapshot &snap,
              const std::vector<Query> &mix, Report &rep)
{
    std::vector<double> parse, exec, ser;
    for (int pass = 0; pass < 4; ++pass) {
        for (const auto &q : mix) {
            Clock::time_point t0 = Clock::now();
            service::Request req;
            service::ErrorCode code = service::ErrorCode::Internal;
            std::string msg;
            const bool ok = service::parseRequest(q.line, &req, &code, &msg);
            parse.push_back(since(t0));
            if (!ok) {
                rep.wrong("request did not parse: " + q.line);
                continue;
            }
            t0 = Clock::now();
            const JsonValue resp = service::executeRequest(snap, req);
            exec.push_back(since(t0));
            t0 = Clock::now();
            const std::string line = service::serializeResponse(resp);
            ser.push_back(since(t0));
            ++rep.attempted;
            if (line.find("\"ok\":true") == std::string::npos) {
                ++rep.failed;
                rep.wrong("request failed: " + q.line);
            }
        }
    }
    rep.metric("request_parse_us", median(parse) * 1e6, "us");
    rep.metric("request_execute_us", median(exec) * 1e6, "us");
    rep.metric("response_serialize_us", median(ser) * 1e6, "us");
}

void
runLayers(const Options &o, Report &rep)
{
    std::mt19937_64 rng(o.seed);

    // One sweep, for the records its engines process and the profiles
    // the store-commit layer writes.
    const fs::path cache = o.dir / "layers";
    const int64_t before = engineRecords();
    const experiments::SuiteDataset ds = coldSweep(cache, kSweepJobs);
    const int64_t records = engineRecords() - before;
    ++rep.attempted;
    if (!datasetComplete(ds, rep))
        ++rep.failed;

    kernelLayers(rep);

    pipeline::StoreKey key;
    pipeline::ProfileStore store((o.dir / "commit").string(), key);
    store.open();
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < ds.micaProfiles.size(); ++i)
        store.put({ds.micaProfiles[i], ds.hpcProfiles[i]});
    rep.metric("store_commit_ms", since(t0) * 1e3, "ms");
    rep.metric("engine_records", static_cast<double>(records), "count");

    t0 = Clock::now();
    const index::FingerprintIndex idx =
        service::indexFromDataset(ds, "mica", 0, nullptr);
    rep.metric("index_build_ms", since(t0) * 1e3, "ms");

    // The snapshot a daemon starts on after this sweep (a store hit).
    std::string err;
    const std::shared_ptr<const service::ServerSnapshot> snap =
        service::buildServerSnapshot(sweepConfig(cache, kSweepJobs),
                                     service::SpaceChoice{}, nullptr, 0, {},
                                     &err);
    if (!snap)
        throw std::runtime_error("snapshot: " + err);
    const std::vector<Query> mix = serveMix(*snap, rng);
    const std::vector<std::string> expect = expectedReplies(*snap, mix, rep);
    requestLayers(*snap, mix, rep);

    Daemon daemon("unix:" + (o.dir / "layers.sock").string(), snap,
                  sweepConfig(cache, kSweepJobs));
    const LoopResult r = closedLoop(daemon.address(), mix, expect, 1, 100,
                                    o.seconds, 4000);
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    if (r.failed)
        rep.wrong(std::to_string(r.failed) + " daemon replies were wrong");
    rep.metric("daemon_rtt_p99_us", quantile(r.latency, 0.99) * 1e6, "us");
}

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            o->workload = value;
        else if (flag == "--seed")
            o->seed = std::stoull(value);
        else if (flag == "--seconds")
            o->seconds = std::stod(value);
        else if (flag == "--trace")
            o->trace = value == "1";
        else if (flag == "--dir")
            o->dir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !o->workload.empty() && !o->dir.empty() &&
           o->seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        if (!parseArgs(argc, argv, &o)) {
            std::fprintf(stderr,
                         "usage: micabench --workload W --seed N "
                         "--seconds S --trace 0|1 --dir DIR\n");
            return 2;
        }
        const std::string &w = o.workload;
        if (w != "sweep" && w != "serve") {
            std::fprintf(stderr, "micabench: unknown workload '%s'\n",
                         w.c_str());
            return 2;
        }
        fs::create_directories(o.dir);
        Report rep;
        if (o.trace)
            runLayers(o, rep);
        else if (w == "sweep")
            runSweep(o, rep);
        else
            runServe(o, rep);
        rep.print();
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "micabench: %s\n", e.what());
        return 1;
    }
}
