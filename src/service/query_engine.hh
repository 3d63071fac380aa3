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
 *    dataset and the fingerprint index, which holds the matrix of
 *    all pairwise distances) plus the answer tables read off that
 *    matrix once, at build: the population's closest pairs, one
 *    distance summary per suite, and the reply fragments that never
 *    change for the snapshot (each benchmark's `profile` result in
 *    both spaces, each `suites` row), already rendered as canonical
 *    JSON text. `knn` and `radius` select from the same matrix, so
 *    every distance a reply shows was computed once, by the build.
 *    Immutable once built. Concurrent readers share it by
 *    shared_ptr; a re-index builds a *new* snapshot and swaps the
 *    pointer (see SnapshotHolder in server.hh), so readers never
 *    block and never observe a half-updated state.
 *
 *  - **executeRequest** — the one dispatch point for every protocol
 *    op. The daemon calls it per request line; `mica query` calls it
 *    once and exits. Every op writes its `result` as text: `profile`
 *    and `suites` copy their fragments, and `knn`, `radius` and
 *    `redundant` append each entry (quoted name, to_chars distance)
 *    straight into the line, so no op builds a JSON tree per request.
 *    Only the envelope (id, ok, op) is a JsonValue, holding the
 *    result as a Raw value. Same snapshot + same request = same
 *    response bytes, which is the CLI↔server byte-identity contract
 *    CI enforces; tests/service_replies.golden and CI's
 *    tests/service_stream.golden pin those bytes across commits.
 *
 * buildServerSnapshot is the one way to open a snapshot: the daemon,
 * `mica query` and every `mica index` verb start from it. It always
 * builds the index from the collected dataset. The cache's index
 * record (index/snapshot.hh) supplies only what a build cannot
 * cheaply redo: the space an open without --space adopts, and the
 * GA's key columns, so a warm key-space open runs no GA.
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
#include "util/flat_hash.hh"

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
     * opening adopts whatever space the cache's index record names,
     * so a key-space index is never silently answered — or
     * overwritten — in the default space.
     */
    bool given = false;
};

/**
 * Canonical index key: "data=<digest>|space=S|pca=K", where the
 * digest covers the dataset's benchmark names and the bits of both
 * profile matrices. It names what the index was built from, not how
 * that was configured, so an index record is reused exactly when the
 * collected dataset is the same — whichever budget, suite filter or
 * trace tree produced it.
 */
std::string indexKey(const experiments::SuiteDataset &ds,
                     const std::string &space, size_t pca);

/**
 * Adopt the space/pca a stored index key carries into @p sc, unless
 * the caller already chose explicitly (sc->given). A space other than
 * mica, hpc or key is not adopted. @return whether the key parsed and
 * was adopted.
 */
bool adoptSpaceFromKey(const std::string &storedKey, SpaceChoice *sc);

/**
 * Build the fingerprint index for one space over a dataset; the GA
 * (key space) and the distance matrix fan out across @p pool.
 */
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
    std::string json;          ///< this row as the reply renders it
};

/** One dataset row's `profile` results, rendered once per snapshot. */
struct ProfileResults
{
    std::string mica;
    std::string hpc;
};

/**
 * Everything a query reads, frozen at load time. Immutable once
 * published: queries take a shared_ptr<const ServerSnapshot> and the
 * swap path never mutates a published snapshot.
 *
 * The fields from maxPairDist on are the answer tables: the paper
 * computes the matrix of all pairwise distances once and cuts it at
 * 20% of its maximum, and a snapshot reads the same cuts off its
 * index's matrix when it is built (fillAnswerTables), along with the
 * reply text of every profile.
 */
struct ServerSnapshot
{
    experiments::SuiteDataset ds;
    index::FingerprintIndex idx;
    std::string space;
    size_t pca = 0;
    std::string key;            ///< full index key this was built under

    /** Monotonic swap counter; 0 = the snapshot opened at startup. */
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

    /** Dataset rows by benchmark full name: `profile` looks up here. */
    util::NameIndex profileRows;

    /** The `profile` results of ds row i, at profiles[i]. */
    std::vector<ProfileResults> profiles;
};

/**
 * Fill @p snap's answer tables from its index's distance matrix (the
 * one every query reads, so values are bit-equal to a per-request
 * walk), and render the suite rows and every dataset row's profile
 * results. buildServerSnapshot calls it;
 * snapshots assembled by hand call it when they answer `profile`,
 * `redundant` or `suites`. Never holds much more than 2 * @p maxPairs
 * candidate pairs; @p maxPairs below kMaxCount only serves tests of
 * that cut.
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
 * Open a complete snapshot: collect the dataset (profile store hits
 * make a warm start cheap) and build its index. The columns come from
 * the cache's index record when its key matches the collected
 * dataset's indexKey; otherwise they are chosen afresh (the GA, in
 * the key space) and the record is rewritten.
 * @param cfg collection config; an empty cacheDir defaults to
 *        ".mica-index" (the record needs a durable home)
 * @param sc space knobs; adopted from the stored record when not
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
 * response envelope; a success's `result` is a Raw value (walk the
 * serialized line, not the tree). Never throws: execution failures
 * become `internal` error envelopes. @p serverMode gates the
 * daemon-only ops (reindex) — the one-shot path answers them with
 * `unavailable` — and the live introspection `stats` adds.
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
