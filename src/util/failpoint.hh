/**
 * @file
 * Deterministic fault injection: named failpoints at I/O call sites.
 *
 * Every durable write/read site in the persistence stack (profile
 * store, index record, trace files) evaluates a named failpoint
 * before touching the file. Disarmed — the default — an evaluation is
 * one relaxed atomic load; armed via `--failpoints=SPEC`, the named
 * sites fire deterministic faults so tests, CI, and the `mica faults
 * crash-matrix` harness can prove every failure either recovers
 * cleanly or rejects loudly — never silently corrupts data.
 *
 * Spec grammar (';'-separated list of points):
 *
 *   SPEC    := POINT (';' POINT)*
 *   POINT   := NAME '=' ACTION [':' ARG] [TRIGGER]
 *   ACTION  := 'error'      fail the call with an errno (ARG = errno
 *                           name ENOSPC/EIO/EACCES/ENOENT or number;
 *                           default EIO)
 *            | 'shortwrite' write only ARG bytes (default half the
 *                           buffer), then fail with ENOSPC
 *            | 'throw'      throw std::runtime_error (ARG = message)
 *            | 'delay'      sleep ARG milliseconds, then proceed
 *            | 'abort'      write half the buffer (write sites), then
 *                           _exit(kCrashExitCode) — simulated crash
 *            | 'off'        explicitly disarmed (spec can mask a point
 *                           armed earlier in the list)
 *   TRIGGER := '@' N           fire on the Nth evaluation only (1-based)
 *            | ',every=' N     fire on every Nth evaluation
 *            | ',p=' P [',seed=' S]   fire with probability P from a
 *                           seeded per-site RNG — identical spec (and
 *                           serial execution) means an identical fire
 *                           pattern, byte-identical run to run
 *
 *   Default trigger: fire on every evaluation.
 *
 * Examples:
 *
 *   store.append.write=error:ENOSPC@2   second store append hits ENOSPC
 *   trace.chunk.read=error,every=3      every 3rd chunk read fails EIO
 *   index.snapshot.rename=abort@1       crash at the index record rename
 *   store.put.write=shortwrite:100      torn 100-byte writes, always
 *
 * Site names are a fixed registry (knownFailpoints()); arming an
 * unknown name is an error naming it, so a typo can never silently
 * test nothing. Hit counting is per site and process-wide:
 * deterministic for serial runs, documented-racy across worker
 * threads (the count still totals exactly, only the attribution of
 * "the Nth hit" to a particular job varies).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mica::util
{

/** Exit code of an 'abort'-action simulated crash. */
constexpr int kCrashExitCode = 97;

enum class FailOp : uint8_t
{
    None,          ///< do not fire
    Error,         ///< fail the call with `err`
    ShortWrite,    ///< write only `param` bytes, then fail ENOSPC
    Throw,         ///< throw std::runtime_error
    Delay,         ///< sleep `param` ms, then proceed normally
    Abort,         ///< partial write, then _exit(kCrashExitCode)
};

/** What one evaluation of an armed failpoint asks the site to do. */
struct FailDecision
{
    FailOp op = FailOp::None;
    int err = 0;           ///< errno for Error (and ShortWrite's tail)
    uint64_t param = 0;    ///< ShortWrite byte cap / Delay milliseconds
    const char *site = ""; ///< site name, for error messages

    explicit operator bool() const { return op != FailOp::None; }
};

/** One registered site's metadata (see knownFailpoints()). */
struct FailpointInfo
{
    std::string name;
    bool writeSite = false;    ///< on a durable-write path (crash matrix)
};

/**
 * Handle to one named site. Construction resolves the name against
 * the fixed registry once; eval() is one relaxed load while nothing
 * is armed. The idiomatic use is a function-local static:
 *
 *   static util::Failpoint fp("store.put.write");
 *   if (auto d = fp.eval())
 *       ...act on d...
 *
 * (checked_io evaluates sites for its callers, so most code never
 * touches this class directly.)
 */
class Failpoint
{
  public:
    explicit Failpoint(const std::string &name);

    /** Evaluate the site: count the hit, return what to do (if armed). */
    FailDecision eval() noexcept;

  private:
    uint32_t site_;
};

/**
 * Evaluate a site by name (the checked_io layer builds
 * "<prefix>.<op>" names at the call site). Names not in the registry
 * never fire — arming already rejected them, so this stays noexcept.
 * Call only after failpointsArmed() returned true; while disarmed it
 * is correct but wastes a name lookup.
 */
FailDecision evalFailpoint(const std::string &name) noexcept;

/**
 * Arm the points named in @p spec (see the grammar above), replacing
 * any previous arming.
 * @return false with *err naming the offending token when the spec
 * does not parse or names an unknown site.
 */
bool armFailpoints(const std::string &spec, std::string *err = nullptr);

/** Disarm every site and reset all hit counters. */
void disarmFailpoints();

/** @return whether any site is currently armed. */
bool failpointsArmed();

/** @return times @p name fired so far (0 for unknown names). */
uint64_t failpointFireCount(const std::string &name);

/** @return the fixed site registry, in stable order. */
const std::vector<FailpointInfo> &knownFailpoints();

} // namespace mica::util
