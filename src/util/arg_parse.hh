/**
 * @file
 * Strict command-line flag parsing: the one parser of the mica CLI,
 * the bench harnesses and the examples.
 *
 * The CLI's original loop scanned for the flags it knew and silently
 * ignored everything else, so `mica cluster --mask=40` (a typo for
 * --maxk) ran the full default sweep without a word. This helper
 * splits argv into positionals and --flag[=value] options against an
 * explicit allow-list and reports the first unknown flag *by name*.
 * experiments::datasetConfigFromFlags builds the shared dataset flags
 * (--budget, --cache, ...) of every front end from the result.
 */

#pragma once

#include <string>
#include <vector>

namespace mica::util
{

/** Result of parsing one argv. */
struct CliArgs
{
    /** Non-flag arguments, in order (argv[0] is not included). */
    std::vector<std::string> positionals;

    /** Parsed (name, value) options; value is "" for bare flags. */
    std::vector<std::pair<std::string, std::string>> flags;

    /** Nonempty when parsing failed; names the offending flag. */
    std::string error;

    bool ok() const { return error.empty(); }

    /** @return whether --name appeared. */
    bool has(const std::string &name) const;

    /**
     * @return value of --name=value, or @p fallback when absent.
     * A repeated flag follows the usual CLI convention: last wins.
     */
    std::string value(const std::string &name,
                      const std::string &fallback = "") const;

    /**
     * @return --name parsed as a non-negative integer; @p fallback
     * when absent or not a plain decimal number.
     */
    long long intValue(const std::string &name, long long fallback) const;

    /**
     * @return whether --name is absent or parses as a plain decimal —
     * callers that must not let a typo'd value silently mean "use the
     * default" check this and reject.
     */
    bool intOk(const std::string &name) const;
};

/**
 * Parse argv[1..] against an allow-list of flag names (no "--"
 * prefix). An entry ending in '=' declares a value-taking flag
 * ("budget="); a plain entry declares a bare flag ("obs-summary").
 * Passing a value to a bare flag ("--obs-summary=0") is an error —
 * silently swallowing "=false" would invert the user's intent — and
 * so is writing a value-taking flag bare ("--cache /tmp/x" with a
 * space would silently run uncached).
 * Arguments starting with "--" must match a known name — anything
 * else sets CliArgs::error naming the flag and listing the accepted
 * ones. A lone "-" and arguments not starting with "-" are
 * positionals; any other single-dash argument is rejected (the CLI
 * has no short options).
 */
CliArgs parseCliArgs(int argc, char **argv,
                     const std::vector<std::string> &known);

} // namespace mica::util
