/**
 * @file
 * Crash-consistency matrix over the durable write paths.
 *
 * For every write-path failpoint in the registry (store.put.*,
 * store.append.*, index.snapshot.*, trace.record.*), a child process
 * is forked, the site is armed with `abort@1` (simulated crash: torn
 * write, then _exit), and the matching writer scenario runs until it
 * dies at the site. The parent then verifies the old-valid-or-new-valid
 * contract: the survivor holds the complete pre-crash state, or
 * parses as the complete post-write state — never anything in
 * between. For the rewriting writers the old state is the pre-crash
 * file, byte for byte. For the profile store's append it is any file
 * that starts with the pre-crash bytes and opens to exactly the
 * pre-crash entries, bit for bit: a torn frame past them is dropped on
 * open. Finally the same operation reruns unfaulted to prove
 * recovery: the write succeeds, the new state validates, and no .tmp
 * debris is left behind to block or be mistaken for a commit.
 */

#pragma once

#include <string>
#include <vector>

namespace mica::experiments
{

/** One (failpoint site x writer scenario) cell's verdict. */
struct CrashMatrixRow
{
    std::string site;        ///< failpoint armed with abort@1
    std::string scenario;    ///< writer family: "store.append", ...
    bool crashed = false;    ///< child died with util::kCrashExitCode
    bool oldValid = false;   ///< survivor holds the pre-crash state
    bool newValid = false;   ///< survivor parses as the completed write
    bool recovered = false;  ///< unfaulted rerun committed cleanly
    std::string detail;      ///< explanation when !ok()

    bool ok() const { return crashed && (oldValid || newValid) && recovered; }
};

/** @return false when fault injection is compiled out (MICA_FAILPOINTS=0). */
bool crashMatrixSupported();

/**
 * Run the full matrix under @p workDir (created if needed; each site
 * gets its own scratch subdirectory). Requires crashMatrixSupported().
 */
std::vector<CrashMatrixRow> runCrashMatrix(const std::string &workDir);

} // namespace mica::experiments
