#include "service/query_engine.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <utility>

#include "index/snapshot.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "mica/profile.hh"
#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
#include "trace/trace_file.hh"
#include "uarch/hw_counter.hh"

namespace mica::service
{

namespace
{

bool
isSpace(const std::string &space)
{
    return space == "mica" || space == "hpc" || space == "key";
}

/** The raw matrix a space fingerprints. */
Matrix
sourceMatrix(const experiments::SuiteDataset &ds, const std::string &space)
{
    return space == "hpc" ? ds.hpcMatrix() : ds.micaMatrix();
}

/**
 * The source columns a space fingerprints: every column of mica and
 * hpc; for key, the GA-selected key characteristics (the subset is
 * then z-scored on its own, as the paper's reduced space is).
 */
std::vector<size_t>
spaceColumns(const Matrix &m, const std::string &space,
             pipeline::ThreadPool *pool)
{
    if (space == "key")
        return geneticSelect(WorkloadSpace(m, pool), GaConfig{}, pool)
            .selected;
    std::vector<size_t> all(m.cols());
    std::iota(all.begin(), all.end(), size_t{0});
    return all;
}

index::FingerprintIndex
indexOver(const Matrix &m, std::vector<size_t> columns, size_t pca,
          pipeline::ThreadPool *pool)
{
    index::FingerprintOptions opt;
    opt.columns = std::move(columns);
    opt.pcaDims = pca;
    return index::FingerprintIndex::build(m, opt, pool);
}

} // namespace

std::string
indexKey(const experiments::SuiteDataset &ds, const std::string &space,
         size_t pca)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const Matrix &m : {ds.micaMatrix(), ds.hpcMatrix()}) {
        for (size_t r = 0; r < m.rows(); ++r) {
            const std::string &name = m.rowNames[r];
            const uint64_t len = name.size();
            h = fnv1a(&len, sizeof(len), h);
            h = fnv1a(name.data(), name.size(), h);
            h = fnv1a(m.row(r), m.cols() * sizeof(double), h);
        }
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string("data=") + digest + "|space=" + space +
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
    const std::string space = storedKey.substr(sPos + 7, pPos - (sPos + 7));
    if (!isSpace(space))
        return false;
    sc->space = space;
    sc->pca = static_cast<size_t>(
        std::strtoull(storedKey.c_str() + pPos + 5, nullptr, 10));
    return true;
}

index::FingerprintIndex
indexFromDataset(const experiments::SuiteDataset &ds,
                 const std::string &space, size_t pca,
                 pipeline::ThreadPool *pool)
{
    const Matrix m = sourceMatrix(ds, space);
    return indexOver(m, spaceColumns(m, space, pool), pca, pool);
}

namespace
{

/** One `suites` row as the reply renders it. */
std::string
suiteRowJson(const SuiteRow &row)
{
    std::string out = "{\"suite\":";
    jsonQuote(row.suite, out);
    out += ",\"count\":";
    jsonNumber(static_cast<uint64_t>(row.count), out);
    out += ",\"mean_dist\":";
    jsonNumber(row.meanDist, out);
    out += ",\"min_dist\":";
    jsonNumber(row.minDist, out);
    out += ",\"max_dist\":";
    jsonNumber(row.maxDist, out);
    // The paper's 20%-of-max similarity threshold: how many
    // within-suite pairs are redundant by that cut.
    out += ",\"pairs_within_20pct_max\":";
    jsonNumber(static_cast<uint64_t>(row.within20), out);
    out += '}';
    return out;
}

/**
 * One `profile` result: the benchmark, its space and instruction
 * count, and each value under nameOf(its index).
 */
template <typename NameOf, typename Values>
std::string
profileJson(const std::string &bench, const char *space,
            uint64_t instCount, NameOf nameOf, const Values &values)
{
    std::string out = "{\"bench\":";
    jsonQuote(bench, out);
    out += ",\"space\":";
    jsonQuote(space, out);
    out += ",\"inst_count\":";
    jsonNumber(instCount, out);
    out += ",\"values\":{";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        jsonQuote(nameOf(i), out);
        out += ':';
        jsonNumber(values[i], out);
    }
    out += "}}";
    return out;
}

} // namespace

void
fillAnswerTables(ServerSnapshot *snap, size_t maxPairs)
{
    const DistanceMatrix &dist = snap->idx.distances();
    const size_t n = dist.numItems();
    const double *all = dist.condensed().data();

    // Every pair once, in (a, b) order. Only the maxPairs closest are
    // kept: whenever the candidates reach twice that, nth_element cuts
    // them back.
    std::vector<index::RedundantPair> &closest = snap->closestPairs;
    closest.clear();
    const auto keepClosest = [&] {
        if (closest.size() <= maxPairs)
            return;
        std::nth_element(closest.begin(), closest.begin() + maxPairs,
                         closest.end());
        closest.resize(maxPairs);
    };
    for (size_t a = 0, p = 0; a + 1 < n; ++a) {
        for (size_t b = a + 1; b < n; ++b, ++p)
            closest.push_back({all[p], static_cast<uint32_t>(a),
                               static_cast<uint32_t>(b)});
        if (closest.size() >= 2 * maxPairs)
            keepClosest();
    }
    keepClosest();
    std::sort(closest.begin(), closest.end());
    snap->maxPairDist = dist.maxDistance();

    // Suites in first-appearance order of the dataset; members in
    // dataset order and pairs in (i, j) order, so mean_dist sums in
    // the same order as the walk a request used to make.
    snap->suiteRows.clear();
    const double simCut = 0.2 * snap->maxPairDist;
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
                const double d = dist.at(ids[i], ids[j]);
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
        row.json = suiteRowJson(row);
        snap->suiteRows.push_back(std::move(row));
    }

    // Every dataset row's profile results, as `profile` replies print
    // them; only rows carrying both profiles answer (a snapshot built
    // by hand may list benchmarks alone).
    const experiments::SuiteDataset &ds = snap->ds;
    const size_t rows = std::min({ds.benchmarks.size(),
                                  ds.micaProfiles.size(),
                                  ds.hpcProfiles.size()});
    std::vector<std::string> names;
    snap->profiles.clear();
    for (size_t i = 0; i < rows; ++i) {
        names.push_back(ds.benchmarks[i].fullName());
        const MicaProfile &m = ds.micaProfiles[i];
        const uarch::HwCounterProfile &h = ds.hpcProfiles[i];
        snap->profiles.push_back(
            {profileJson(names.back(), "mica", m.instCount,
                         [](size_t c) { return micaCharInfo(c).name; },
                         m.values),
             profileJson(names.back(), "hpc", h.instCount,
                         [](size_t c) {
                             return uarch::HwCounterProfile::metricNames()[c];
                         },
                         h.toVector())});
    }
    snap->profileRows = util::NameIndex(std::move(names));
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

    // The record names the space the cache was built in (adopted
    // unless one is given) and, once the collected dataset's key
    // matches it, the columns that space selected.
    const std::string path = index::snapshotPath(icfg.cacheDir);
    index::IndexRecord rec;
    const bool current = index::loadIndexRecord(path, &rec);
    adoptSpaceFromKey(rec.key, &sc);
    if (!isSpace(sc.space)) {
        if (err)
            *err = "space must be mica, hpc, or key (got '" + sc.space +
                "')";
        return nullptr;
    }

    auto snap = std::make_shared<ServerSnapshot>();
    snap->space = sc.space;
    snap->pca = sc.pca;
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

    // The index is always built from the dataset, so it holds exactly
    // the benchmarks the dataset does; only the column choice (the
    // GA's, in the key space) comes from a matching record.
    snap->key = indexKey(snap->ds, sc.space, sc.pca);
    const Matrix m = sourceMatrix(snap->ds, sc.space);
    const bool reuse =
        current && rec.key == snap->key && rec.sourceCols == m.cols();
    if (!reuse)
        rec = {snap->key, m.cols(), spaceColumns(m, sc.space, pool)};
    snap->idx = indexOver(m, rec.columns, sc.pca, pool);
    // Persisting is best-effort: an unwritable cache degrades the next
    // open to a fresh column choice, it does not fail this one.
    if (!reuse)
        index::saveIndexRecord(rec, path);

    fillAnswerTables(snap.get());
    span.arg("benchmarks", static_cast<uint64_t>(snap->ds.benchmarks.size()));
    span.arg("generation", generation);
    return snap;
}

namespace
{

bool
execProfile(const ServerSnapshot &snap, const Request &req,
            std::string &out, std::string *message)
{
    const int64_t row = snap.profileRows.find(req.bench);
    if (row < 0) {
        *message = "'" + req.bench + "' is not in the served dataset";
        return false;
    }
    const ProfileResults &p = snap.profiles[static_cast<size_t>(row)];
    out += req.space == "hpc" ? p.hpc : p.mica;
    return true;
}

/** `knn` and `radius`: the query, its parameter, its neighbours. */
bool
execNeighbors(const ServerSnapshot &snap, const Request &req,
              std::string &out, std::string *message)
{
    const int64_t id = snap.idx.idOf(req.bench);
    if (id < 0) {
        *message = "'" + req.bench + "' is not in the index";
        return false;
    }
    out += "{\"bench\":";
    jsonQuote(req.bench, out);
    std::vector<index::Neighbor> neighbors;
    if (req.op == Op::Knn) {
        out += ",\"k\":";
        jsonNumber(static_cast<uint64_t>(req.k), out);
        neighbors = snap.idx.knn(static_cast<size_t>(id), req.k);
    } else {
        out += ",\"r\":";
        jsonNumber(req.radius, out);
        neighbors = snap.idx.radius(static_cast<size_t>(id), req.radius);
    }
    out.reserve(out.size() + 64 * (neighbors.size() + 1));
    out += ",\"neighbors\":[";
    for (size_t i = 0; i < neighbors.size(); ++i) {
        out += i ? ",{\"bench\":" : "{\"bench\":";
        jsonQuote(snap.idx.nameOf(neighbors[i].id), out);
        out += ",\"dist\":";
        jsonNumber(neighbors[i].dist, out);
        out += '}';
    }
    out += "]}";
    return true;
}

void
execRedundant(const ServerSnapshot &snap, const Request &req,
              std::string &out)
{
    out += "{\"top\":";
    jsonNumber(static_cast<uint64_t>(req.top), out);
    out += ",\"pairs\":[";
    const size_t shown = std::min(req.top, snap.closestPairs.size());
    out.reserve(out.size() + 96 * (shown + 1));
    for (size_t i = 0; i < shown; ++i) {
        const index::RedundantPair &p = snap.closestPairs[i];
        out += i ? ",{\"a\":" : "{\"a\":";
        jsonQuote(snap.idx.nameOf(p.a), out);
        out += ",\"b\":";
        jsonQuote(snap.idx.nameOf(p.b), out);
        out += ",\"dist\":";
        jsonNumber(p.dist, out);
        out += '}';
    }
    out += "]}";
}

bool
execSuites(const ServerSnapshot &snap, const Request &req,
           std::string &out, std::string *message)
{
    out += "{\"population_max_dist\":";
    jsonNumber(snap.maxPairDist, out);
    out += ",\"suites\":[";
    bool any = false;
    for (const SuiteRow &row : snap.suiteRows) {
        if (!req.suite.empty() && row.suite != req.suite)
            continue;
        if (any)
            out += ',';
        out += row.json;
        any = true;
    }
    if (!req.suite.empty() && !any) {
        *message = "suite '" + req.suite + "' is not in the served dataset";
        return false;
    }
    out += "]}";
    return true;
}

void
execStats(const ServerSnapshot &snap, bool serverMode, std::string &out)
{
    out += "{\"generation\":";
    jsonNumber(snap.generation, out);
    out += ",\"benchmarks\":";
    jsonNumber(static_cast<uint64_t>(snap.ds.benchmarks.size()), out);
    out += ",\"indexed\":";
    jsonNumber(static_cast<uint64_t>(snap.idx.size()), out);
    out += ",\"dim\":";
    jsonNumber(static_cast<uint64_t>(snap.idx.dim()), out);
    out += ",\"space\":";
    jsonQuote(snap.space, out);
    out += ",\"pca\":";
    jsonNumber(static_cast<uint64_t>(snap.pca), out);
    out += ",\"population_max_dist\":";
    jsonNumber(snap.maxPairDist, out);
    // Server-only introspection: live request counters and latency
    // quantiles folded from the telemetry registry. Gated on
    // serverMode so a local `mica query` answer stays byte-identical
    // to... itself — the local path has no daemon to describe (and CI
    // diffs the other ops).
    if (serverMode) {
        const obs::MetricsSnapshot ms = obs::snapshotMetrics();
        const auto count = [&](const std::string &name) -> int64_t {
            const auto it = ms.metrics.find(name);
            return it == ms.metrics.end() ? 0 : it->second.value;
        };
        out += ",\"uptime_s\":";
        jsonNumber(static_cast<double>(obs::nowNs()) / 1e9, out);
        out += ",\"requests\":{\"total\":";
        jsonNumber(count("serve.request.count"), out);
        out += ",\"errors\":";
        jsonNumber(count("serve.request.error"), out);
        out += ",\"by_op\":{";
        const char *sep = "";
        for (const char *op :
             {"ping", "stats", "profile", "knn", "radius", "redundant",
              "suites", "reindex"}) {
            out += sep;
            jsonQuote(op, out);
            out += ':';
            jsonNumber(count("serve.request.op." + std::string(op)), out);
            sep = ",";
        }
        obs::HistogramValue hist;
        const auto it = ms.metrics.find("serve.request.us");
        if (it != ms.metrics.end() &&
            it->second.kind == obs::MetricKind::Histogram)
            hist = it->second.hist;
        out += "},\"latency_us\":{\"count\":";
        jsonNumber(hist.count, out);
        out += ",\"p50\":";
        jsonNumber(obs::histQuantile(hist, 0.50), out);
        out += ",\"p90\":";
        jsonNumber(obs::histQuantile(hist, 0.90), out);
        out += ",\"p99\":";
        jsonNumber(obs::histQuantile(hist, 0.99), out);
        out += "}},\"connections\":{\"open\":";
        jsonNumber(count("serve.conn.open"), out);
        out += ",\"accepted\":";
        jsonNumber(count("serve.conn.accepted"), out);
        out += ",\"rejected\":";
        jsonNumber(count("serve.conn.rejected"), out);
        out += ",\"quarantined\":";
        jsonNumber(count("serve.conn.quarantined"), out);
        out += '}';
    }
    out += '}';
}

} // namespace

JsonValue
executeRequest(const ServerSnapshot &snap, const Request &req,
               bool serverMode)
{
    try {
        std::string result, message;
        bool found = true;
        switch (req.op) {
        case Op::Ping:
            result = "{\"pong\":true,\"generation\":";
            jsonNumber(snap.generation, result);
            result += '}';
            break;
        case Op::Stats:
            execStats(snap, serverMode, result);
            break;
        case Op::Profile:
            found = execProfile(snap, req, result, &message);
            break;
        case Op::Knn:
        case Op::Radius:
            found = execNeighbors(snap, req, result, &message);
            break;
        case Op::Redundant:
            execRedundant(snap, req, result);
            break;
        case Op::Suites:
            found = execSuites(snap, req, result, &message);
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
        if (!found)
            return makeError(req, ErrorCode::UnknownBench, message);
        return makeResponse(req, JsonValue::raw(std::move(result)));
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
