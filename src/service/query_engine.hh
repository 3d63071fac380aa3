/**
 * @file
 * The reusable similarity-query engine: one immutable snapshot, one
 * execution path for every front end.
 *
 * Before this layer existed, each query was a one-shot CLI invocation
 * that re-read the profile store and index snapshot from disk inside
 * its verb handler. The engine splits that into:
 *
 *  - **ServerSnapshot** — everything a query needs (the collected
 *    dataset, the fingerprint index, the frozen space parameters)
 *    plus the answer tables computed from them once, at build: the
 *    population's closest pairs and one distance summary per suite,
 *    so `redundant` and `suites` render instead of recompute.
 *    Immutable once built. Concurrent readers share it by
 *    shared_ptr; a re-index builds a *new* snapshot and swaps the
 *    pointer (see SnapshotHolder in server.hh), so readers never
 *    block and never observe a half-updated state.
 *
 *  - **executeRequest** — the one dispatch point for every protocol
 *    op. The daemon calls it per request line; `mica query` calls it
 *    once and exits. Same snapshot + same request = same response
 *    bytes, which is the CLI↔server byte-identity contract CI
 *    enforces.
 *
 * buildServerSnapshot is the one way to open or build a snapshot:
 * the daemon, `mica query`, and the `mica index query`/`redundant`
 * table renderers all start from it. It reuses the persistent index
 * snapshot when its header key matches (probed once — the payload is
 * only read when the key already matches, never to *discover* a
 * mismatch) and rebuilds + persists it otherwise.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "experiments/experiments.hh"
#include "index/fingerprint_index.hh"
#include "service/protocol.hh"

namespace mica::pipeline
{
class ThreadPool;
} // namespace mica::pipeline

namespace mica::service
{

/** The fingerprint-space knobs, carried with "were they explicit". */
struct SpaceChoice
{
    std::string space = "mica";   ///< "mica", "hpc", or "key"
    size_t pca = 0;               ///< principal components (0 = none)

    /**
     * Whether either knob was given explicitly. When false, snapshot
     * opening adopts whatever space the on-disk index was built with,
     * so a key-space index is never silently answered — or
     * overwritten — in the default space.
     */
    bool given = false;
};

/** The dataset half of the index key (exactly the ProfileStore key). */
std::string datasetKeyPart(const experiments::DatasetConfig &cfg);

/** Canonical index-snapshot key: dataset key + space knobs. */
std::string indexKey(const experiments::DatasetConfig &cfg,
                     const std::string &space, size_t pca);

/**
 * Adopt the space/pca a stored index key carries into @p sc, unless
 * the caller already chose explicitly (sc->given). @return whether
 * the key parsed and was adopted.
 */
bool adoptSpaceFromKey(const std::string &storedKey, SpaceChoice *sc);

/** Build the fingerprint index for one space over a dataset. */
index::FingerprintIndex
indexFromDataset(const experiments::SuiteDataset &ds,
                 const std::string &space, size_t pca,
                 pipeline::ThreadPool *pool);

/** One suite's row of the `suites` reply. */
struct SuiteRow
{
    std::string suite;
    size_t count = 0;          ///< members present in the index
    double meanDist = 0.0;     ///< over within-suite pairs; 0 if none
    double minDist = 0.0;
    double maxDist = 0.0;
    size_t within20 = 0;       ///< pairs <= 20% of maxPairDist apart
};

/**
 * Everything a query reads, frozen at load time. Immutable once
 * published: queries take a shared_ptr<const ServerSnapshot> and the
 * swap path never mutates a published snapshot.
 *
 * The last three fields are the answer tables: the paper computes
 * the matrix of all pairwise distances once and cuts it at 20% of
 * its maximum, and a snapshot does the same when it is built
 * (fillAnswerTables).
 */
struct ServerSnapshot
{
    experiments::SuiteDataset ds;
    index::FingerprintIndex idx;
    std::string space;
    size_t pca = 0;
    std::string key;            ///< full index key this was built under

    /** Monotonic swap counter; 0 = the snapshot loaded at startup. */
    uint64_t generation = 0;

    /**
     * Population max pairwise fingerprint distance: the paper's
     * 20%-of-max similarity threshold is one multiply at query time.
     */
    double maxPairDist = 0.0;

    /**
     * The closest pairs, ascending (distance, a, b), at most
     * kMaxCount of them: every valid `redundant` top is a prefix.
     */
    std::vector<index::RedundantPair> closestPairs;

    /** One row per suite, in first-appearance order of ds.benchmarks. */
    std::vector<SuiteRow> suiteRows;
};

/**
 * Fill @p snap's answer tables from its index and dataset in one
 * pass over all pairs (the same l2Dist as every query, so values are
 * bit-equal to a per-request walk). buildServerSnapshot calls it;
 * snapshots assembled by hand call it when they answer `redundant`
 * or `suites`. Never holds much more than 2 * @p maxPairs candidate
 * pairs; @p maxPairs below kMaxCount only serves tests of that cut.
 */
void fillAnswerTables(ServerSnapshot *snap, size_t maxPairs = kMaxCount);

/**
 * Dataset collection hook: the CLI passes its quarantine-reporting
 * wrapper; the default is plain experiments::collectSuiteDataset.
 */
using CollectFn =
    std::function<experiments::SuiteDataset(
        const experiments::DatasetConfig &)>;

/**
 * Load-or-build a complete snapshot: collect the dataset (profile
 * store hits make a warm start cheap), reuse the persistent index
 * snapshot when its probed key matches, rebuild + persist otherwise.
 * @param cfg collection config; an empty cacheDir defaults to
 *        ".mica-index" (the index needs a durable home)
 * @param sc space knobs; adopted from the stored snapshot when not
 *        explicitly given
 * @param err on failure, a one-line reason
 * @return the immutable snapshot, or nullptr (err set)
 */
std::shared_ptr<const ServerSnapshot>
buildServerSnapshot(const experiments::DatasetConfig &cfg,
                    SpaceChoice sc, pipeline::ThreadPool *pool,
                    uint64_t generation = 0,
                    const CollectFn &collect = {},
                    std::string *err = nullptr);

/**
 * Execute one parsed request against a snapshot and return the full
 * response envelope. Never throws: execution failures become
 * `internal` error envelopes. @p serverMode gates the daemon-only
 * ops (reindex) — the one-shot path answers them with `unavailable`.
 */
JsonValue executeRequest(const ServerSnapshot &snap, const Request &req,
                         bool serverMode = false);

/**
 * Parse + execute + serialize one request line: the exact
 * transformation the daemon applies per line, shared with the
 * one-shot CLI. @return the response line (no trailing newline).
 */
std::string executeLine(const ServerSnapshot &snap,
                        const std::string &line,
                        bool serverMode = false);

} // namespace mica::service
