#include "service/query_engine.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "index/snapshot.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "mica/profile.hh"
#include "obs/obs.hh"
#include "pipeline/profile_store.hh"
#include "pipeline/thread_pool.hh"
#include "uarch/hw_counter.hh"

namespace mica::service
{

std::string
datasetKeyPart(const experiments::DatasetConfig &cfg)
{
    pipeline::StoreKey key;
    key.maxInsts = cfg.maxInsts;
    key.ppmMaxOrder = cfg.ppmMaxOrder;
    key.suites = cfg.suites;
    return key.describe();
}

std::string
indexKey(const experiments::DatasetConfig &cfg, const std::string &space,
         size_t pca)
{
    return datasetKeyPart(cfg) + "|space=" + space +
        "|pca=" + std::to_string(pca);
}

bool
adoptSpaceFromKey(const std::string &storedKey, SpaceChoice *sc)
{
    if (sc->given)
        return false;
    const size_t sPos = storedKey.rfind("|space=");
    const size_t pPos = storedKey.rfind("|pca=");
    if (sPos == std::string::npos || pPos == std::string::npos ||
        pPos <= sPos)
        return false;
    sc->space = storedKey.substr(sPos + 7, pPos - (sPos + 7));
    sc->pca = static_cast<size_t>(
        std::strtoull(storedKey.c_str() + pPos + 5, nullptr, 10));
    return true;
}

index::FingerprintIndex
indexFromDataset(const experiments::SuiteDataset &ds,
                 const std::string &space, size_t pca,
                 pipeline::ThreadPool *pool)
{
    index::FingerprintOptions opt;
    opt.pcaDims = pca;
    Matrix m;
    if (space == "hpc") {
        m = ds.hpcMatrix();
    } else {
        m = ds.micaMatrix();
        if (space == "key") {
            // Fingerprint the raw matrix restricted to the GA-selected
            // key characteristics; normalization is re-frozen over the
            // subset, as the paper's reduced space does.
            const WorkloadSpace ws(m, pool);
            GaConfig gcfg;
            opt.columns = geneticSelect(ws, gcfg, pool).selected;
        }
    }
    return index::FingerprintIndex::build(m, opt);
}

void
fillAnswerTables(ServerSnapshot *snap, size_t maxPairs)
{
    const index::FingerprintSet &fps = snap->idx.fingerprints();
    const size_t n = fps.size();

    // Every pair once. Only the maxPairs closest are kept: whenever
    // the candidates reach twice that, nth_element cuts them back.
    std::vector<index::RedundantPair> &closest = snap->closestPairs;
    closest.clear();
    const auto keepClosest = [&] {
        if (closest.size() <= maxPairs)
            return;
        std::nth_element(closest.begin(), closest.begin() + maxPairs,
                         closest.end());
        closest.resize(maxPairs);
    };
    double maxD = 0.0;
    for (size_t a = 0; a + 1 < n; ++a) {
        for (size_t b = a + 1; b < n; ++b) {
            const double d =
                index::l2Dist(fps.vec(a), fps.vec(b), fps.dim);
            if (d > maxD)
                maxD = d;
            closest.push_back({d, static_cast<uint32_t>(a),
                               static_cast<uint32_t>(b)});
        }
        if (closest.size() >= 2 * maxPairs)
            keepClosest();
    }
    keepClosest();
    std::sort(closest.begin(), closest.end());
    snap->maxPairDist = maxD;

    // Suites in first-appearance order of the dataset; members in
    // dataset order and pairs in (i, j) order, so mean_dist sums in
    // the same order as the walk a request used to make.
    snap->suiteRows.clear();
    const double simCut = 0.2 * maxD;
    for (const auto &bench : snap->ds.benchmarks) {
        if (std::any_of(snap->suiteRows.begin(), snap->suiteRows.end(),
                        [&](const SuiteRow &r) {
                            return r.suite == bench.suite;
                        }))
            continue;
        std::vector<size_t> ids;
        for (const auto &b : snap->ds.benchmarks) {
            if (b.suite != bench.suite)
                continue;
            const int64_t id = snap->idx.idOf(b.fullName());
            if (id >= 0)
                ids.push_back(static_cast<size_t>(id));
        }
        SuiteRow row;
        row.suite = bench.suite;
        row.count = ids.size();
        double sum = 0.0;
        size_t pairs = 0;
        for (size_t i = 0; i + 1 < ids.size(); ++i) {
            for (size_t j = i + 1; j < ids.size(); ++j) {
                const double d = index::l2Dist(
                    fps.vec(ids[i]), fps.vec(ids[j]), fps.dim);
                if (pairs == 0 || d < row.minDist)
                    row.minDist = d;
                if (d > row.maxDist)
                    row.maxDist = d;
                sum += d;
                ++pairs;
                if (d <= simCut)
                    ++row.within20;
            }
        }
        if (pairs)
            row.meanDist = sum / static_cast<double>(pairs);
        snap->suiteRows.push_back(std::move(row));
    }
}

std::shared_ptr<const ServerSnapshot>
buildServerSnapshot(const experiments::DatasetConfig &cfg, SpaceChoice sc,
                    pipeline::ThreadPool *pool, uint64_t generation,
                    const CollectFn &collect, std::string *err)
{
    obs::ObsSpan span("serve.snapshot.build");
    experiments::DatasetConfig icfg = cfg;
    if (icfg.cacheDir.empty())
        icfg.cacheDir = ".mica-index";

    // One header probe serves both the space adoption and the
    // load-vs-rebuild decision; the payload is only read below when
    // the key already matches.
    const std::string path = index::snapshotPath(icfg.cacheDir);
    const index::SnapshotKeyProbe probe = index::probeSnapshotKey(path);
    if (probe.valid)
        adoptSpaceFromKey(probe.key, &sc);
    if (sc.space != "mica" && sc.space != "hpc" && sc.space != "key") {
        if (err)
            *err = "space must be mica, hpc, or key (got '" + sc.space +
                "')";
        return nullptr;
    }

    auto snap = std::make_shared<ServerSnapshot>();
    snap->space = sc.space;
    snap->pca = sc.pca;
    snap->key = indexKey(icfg, sc.space, sc.pca);
    snap->generation = generation;

    try {
        snap->ds = collect ? collect(icfg)
                           : experiments::collectSuiteDataset(icfg);
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return nullptr;
    }
    if (snap->ds.benchmarks.empty()) {
        if (err)
            *err = "dataset is empty — nothing to serve";
        return nullptr;
    }

    bool loaded = false;
    if (probe.valid && probe.key == snap->key) {
        std::string why;
        loaded = index::loadIndexSnapshot(path, snap->key, &snap->idx,
                                          &why);
    }
    if (!loaded) {
        snap->idx =
            indexFromDataset(snap->ds, sc.space, sc.pca, pool);
        // Persisting is best-effort: an unwritable cache degrades the
        // next start to a rebuild, it does not fail this one.
        std::string why;
        index::saveIndexSnapshot(snap->idx, path, snap->key, &why);
    }

    // A quarantined benchmark is absent from both the dataset and a
    // freshly built index, but a *reloaded* snapshot may predate the
    // quarantine. The index stands alone (similarity queries answer
    // from fingerprints), but profile queries answer only from the
    // dataset, so the two can legitimately differ in membership.
    fillAnswerTables(snap.get());
    span.arg("benchmarks", static_cast<uint64_t>(snap->ds.benchmarks.size()));
    span.arg("generation", generation);
    return snap;
}

namespace
{

JsonValue
neighborsJson(const ServerSnapshot &snap,
              const std::vector<index::Neighbor> &neighbors)
{
    JsonValue arr = JsonValue::array();
    for (const auto &nb : neighbors) {
        JsonValue one = JsonValue::object();
        one.set("bench", JsonValue::str(snap.idx.nameOf(nb.id)));
        one.set("dist", JsonValue::number(nb.dist));
        arr.push(std::move(one));
    }
    return arr;
}

JsonValue
execProfile(const ServerSnapshot &snap, const Request &req,
            ErrorCode *code, std::string *message)
{
    const size_t row = snap.ds.indexOf(req.bench);
    if (row == static_cast<size_t>(-1)) {
        *code = ErrorCode::UnknownBench;
        *message = "'" + req.bench + "' is not in the served dataset";
        return JsonValue();
    }
    JsonValue result = JsonValue::object();
    result.set("bench", JsonValue::str(req.bench));
    result.set("space", JsonValue::str(req.space));
    JsonValue values = JsonValue::object();
    if (req.space == "hpc") {
        const auto &p = snap.ds.hpcProfiles[row];
        result.set("inst_count", JsonValue::number(p.instCount));
        const auto v = p.toVector();
        for (size_t i = 0; i < v.size(); ++i) {
            values.set(uarch::HwCounterProfile::metricNames()[i],
                       JsonValue::number(v[i]));
        }
    } else {
        const auto &p = snap.ds.micaProfiles[row];
        result.set("inst_count", JsonValue::number(p.instCount));
        for (size_t c = 0; c < kNumMicaChars; ++c) {
            values.set(micaCharInfo(c).name, JsonValue::number(p[c]));
        }
    }
    result.set("values", std::move(values));
    return result;
}

JsonValue
execKnn(const ServerSnapshot &snap, const Request &req, ErrorCode *code,
        std::string *message)
{
    const int64_t id = snap.idx.idOf(req.bench);
    if (id < 0) {
        *code = ErrorCode::UnknownBench;
        *message = "'" + req.bench + "' is not in the index";
        return JsonValue();
    }
    JsonValue result = JsonValue::object();
    result.set("bench", JsonValue::str(req.bench));
    result.set("k", JsonValue::number(static_cast<uint64_t>(req.k)));
    result.set("neighbors",
               neighborsJson(snap, snap.idx.knn(static_cast<size_t>(id),
                                                req.k)));
    return result;
}

JsonValue
execRadius(const ServerSnapshot &snap, const Request &req,
           ErrorCode *code, std::string *message)
{
    const int64_t id = snap.idx.idOf(req.bench);
    if (id < 0) {
        *code = ErrorCode::UnknownBench;
        *message = "'" + req.bench + "' is not in the index";
        return JsonValue();
    }
    JsonValue result = JsonValue::object();
    result.set("bench", JsonValue::str(req.bench));
    result.set("r", JsonValue::number(req.radius));
    result.set("neighbors",
               neighborsJson(snap,
                             snap.idx.radius(static_cast<size_t>(id),
                                             req.radius)));
    return result;
}

JsonValue
execRedundant(const ServerSnapshot &snap, const Request &req)
{
    JsonValue result = JsonValue::object();
    result.set("top", JsonValue::number(static_cast<uint64_t>(req.top)));
    JsonValue arr = JsonValue::array();
    const size_t shown = std::min(req.top, snap.closestPairs.size());
    for (size_t i = 0; i < shown; ++i) {
        const index::RedundantPair &p = snap.closestPairs[i];
        JsonValue one = JsonValue::object();
        one.set("a", JsonValue::str(snap.idx.nameOf(p.a)));
        one.set("b", JsonValue::str(snap.idx.nameOf(p.b)));
        one.set("dist", JsonValue::number(p.dist));
        arr.push(std::move(one));
    }
    result.set("pairs", std::move(arr));
    return result;
}

JsonValue
execSuites(const ServerSnapshot &snap, const Request &req,
           ErrorCode *code, std::string *message)
{
    JsonValue arr = JsonValue::array();
    for (const SuiteRow &row : snap.suiteRows) {
        if (!req.suite.empty() && row.suite != req.suite)
            continue;
        JsonValue one = JsonValue::object();
        one.set("suite", JsonValue::str(row.suite));
        one.set("count",
                JsonValue::number(static_cast<uint64_t>(row.count)));
        one.set("mean_dist", JsonValue::number(row.meanDist));
        one.set("min_dist", JsonValue::number(row.minDist));
        one.set("max_dist", JsonValue::number(row.maxDist));
        // The paper's 20%-of-max similarity threshold: how many
        // within-suite pairs are redundant by that cut.
        one.set("pairs_within_20pct_max",
                JsonValue::number(static_cast<uint64_t>(row.within20)));
        arr.push(std::move(one));
    }
    if (!req.suite.empty() && arr.items().empty()) {
        *code = ErrorCode::UnknownBench;
        *message = "suite '" + req.suite + "' is not in the served dataset";
        return JsonValue();
    }
    JsonValue result = JsonValue::object();
    result.set("population_max_dist",
               JsonValue::number(snap.maxPairDist));
    result.set("suites", std::move(arr));
    return result;
}

} // namespace

JsonValue
executeRequest(const ServerSnapshot &snap, const Request &req,
               bool serverMode)
{
    try {
        ErrorCode code = ErrorCode::Internal;
        std::string message;
        JsonValue result;
        switch (req.op) {
        case Op::Ping:
            result = JsonValue::object();
            result.set("pong", JsonValue::boolean(true));
            result.set("generation", JsonValue::number(snap.generation));
            return makeResponse(req, std::move(result));
        case Op::Stats:
            result = JsonValue::object();
            result.set("generation", JsonValue::number(snap.generation));
            result.set("benchmarks",
                       JsonValue::number(static_cast<uint64_t>(
                           snap.ds.benchmarks.size())));
            result.set("indexed",
                       JsonValue::number(
                           static_cast<uint64_t>(snap.idx.size())));
            result.set("dim", JsonValue::number(
                                  static_cast<uint64_t>(snap.idx.dim())));
            result.set("space", JsonValue::str(snap.space));
            result.set("pca", JsonValue::number(
                                  static_cast<uint64_t>(snap.pca)));
            result.set("population_max_dist",
                       JsonValue::number(snap.maxPairDist));
            // Server-only introspection: live request counters and
            // latency quantiles folded from the telemetry registry.
            // Gated on serverMode so a local `mica query` answer stays
            // byte-identical to... itself — the local path has no
            // daemon to describe (and CI diffs the other ops).
            if (serverMode) {
                const obs::MetricsSnapshot ms = obs::snapshotMetrics();
                const auto count = [&](const char *name) -> int64_t {
                    const auto it = ms.metrics.find(name);
                    return it == ms.metrics.end() ? 0 : it->second.value;
                };
                result.set("uptime_s",
                           JsonValue::number(
                               static_cast<double>(obs::nowNs()) / 1e9));
                JsonValue reqs = JsonValue::object();
                reqs.set("total",
                         JsonValue::number(count("serve.request.count")));
                reqs.set("errors",
                         JsonValue::number(count("serve.request.error")));
                JsonValue byOp = JsonValue::object();
                for (const char *op :
                     {"ping", "stats", "profile", "knn", "radius",
                      "redundant", "suites", "reindex"})
                    byOp.set(op,
                             JsonValue::number(count(
                                 ("serve.request.op." + std::string(op))
                                     .c_str())));
                reqs.set("by_op", std::move(byOp));
                obs::HistogramValue hist;
                const auto it = ms.metrics.find("serve.request.us");
                if (it != ms.metrics.end() &&
                    it->second.kind == obs::MetricKind::Histogram)
                    hist = it->second.hist;
                JsonValue lat = JsonValue::object();
                lat.set("count", JsonValue::number(hist.count));
                lat.set("p50",
                        JsonValue::number(obs::histQuantile(hist, 0.50)));
                lat.set("p90",
                        JsonValue::number(obs::histQuantile(hist, 0.90)));
                lat.set("p99",
                        JsonValue::number(obs::histQuantile(hist, 0.99)));
                reqs.set("latency_us", std::move(lat));
                result.set("requests", std::move(reqs));
                JsonValue conns = JsonValue::object();
                conns.set("open",
                          JsonValue::number(count("serve.conn.open")));
                conns.set("accepted",
                          JsonValue::number(count("serve.conn.accepted")));
                conns.set("rejected",
                          JsonValue::number(count("serve.conn.rejected")));
                conns.set(
                    "quarantined",
                    JsonValue::number(count("serve.conn.quarantined")));
                result.set("connections", std::move(conns));
            }
            return makeResponse(req, std::move(result));
        case Op::Profile:
            result = execProfile(snap, req, &code, &message);
            break;
        case Op::Knn:
            result = execKnn(snap, req, &code, &message);
            break;
        case Op::Radius:
            result = execRadius(snap, req, &code, &message);
            break;
        case Op::Redundant:
            return makeResponse(req, execRedundant(snap, req));
        case Op::Suites:
            result = execSuites(snap, req, &code, &message);
            break;
        case Op::Reindex:
            // The daemon intercepts reindex before dispatching here;
            // reaching the engine means there is no server to rebuild.
            return makeError(req, ErrorCode::Unavailable,
                             serverMode
                                 ? "reindex is handled by the server"
                                 : "reindex needs a running server "
                                   "(mica serve)");
        }
        if (result.isNull())
            return makeError(req, code, message);
        return makeResponse(req, std::move(result));
    } catch (const std::exception &e) {
        return makeError(req, ErrorCode::Internal, e.what());
    } catch (...) {
        return makeError(req, ErrorCode::Internal, "unknown error");
    }
}

std::string
executeLine(const ServerSnapshot &snap, const std::string &line,
            bool serverMode)
{
    Request req;
    ErrorCode code = ErrorCode::Internal;
    std::string message;
    if (!parseRequest(line, &req, &code, &message))
        return serializeResponse(makeError(req, code, message));
    return serializeResponse(executeRequest(snap, req, serverMode));
}

} // namespace mica::service
