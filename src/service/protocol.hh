/**
 * @file
 * The mica service wire protocol: line-delimited JSON requests and
 * responses.
 *
 * One request is one '\n'-terminated JSON object; one response is one
 * '\n'-terminated JSON object. The same request always yields the
 * same response bytes whether it is executed by the daemon (`mica
 * serve`) or by the one-shot CLI (`mica query`), because both funnel
 * through service::executeRequest and the canonical JSON serializer —
 * CI cmp's the two outputs.
 *
 * Request:  {"op":"knn","bench":"SPEC2000/gzip.graphic","k":5}
 *           optional "id": any JSON value, echoed verbatim in the
 *           response so pipelined clients can match replies. Fields
 *           an op does not read are ignored.
 * Success:  {"id":...,"ok":true,"op":"knn","result":{...}}
 * Failure:  {"id":...,"ok":false,"error":{"code":"...","message":"..."}}
 *
 * Error codes are a closed set (see ErrorCode): scripts branch on the
 * code, humans read the message. A request that fails to parse still
 * gets a response (code bad_json / line_too_long) — the server never
 * silently drops a line, and never crashes on one.
 */

#pragma once

#include <cstdint>
#include <string>

#include "service/json.hh"

namespace mica::service
{

/**
 * Upper bound on one request line (bytes, newline included). A line
 * that grows past this without a newline gets a line_too_long error
 * reply and the connection is closed — an unbounded buffer per
 * client is a memory-exhaustion vector.
 */
constexpr size_t kMaxLineBytes = 1 << 20;

/** The closed set of protocol error codes. */
enum class ErrorCode
{
    BadJson,        ///< the line is not a JSON object
    BadRequest,     ///< a field is missing, mistyped, or out of range
    UnknownOp,      ///< "op" names no query
    UnknownBench,   ///< the named benchmark is not in the snapshot
    LineTooLong,    ///< request exceeded kMaxLineBytes
    Unavailable,    ///< server-only op asked of the one-shot CLI
    Internal,       ///< query execution threw
};

/** @return the canonical wire string for an error code. */
const char *errorCodeName(ErrorCode code);

/** The query kinds the engine answers. */
enum class Op
{
    Ping,
    Stats,
    Profile,
    Knn,
    Radius,
    Redundant,
    Suites,
    Reindex,   ///< daemon-only: background rebuild + snapshot swap
};

/** @return the wire name of an op ("knn", "suites", ...). */
const char *opName(Op op);

/** One parsed, validated request. */
struct Request
{
    Op op = Op::Ping;
    JsonValue id;              ///< echoed verbatim; Null when absent
    bool hasId = false;
    std::string bench;         ///< profile/knn/radius
    std::string space;         ///< profile: "mica" (default) or "hpc"
    std::string suite;         ///< suites: optional filter
    size_t k = 10;             ///< knn
    double radius = 0.0;       ///< radius
    size_t top = 10;           ///< redundant
};

/**
 * Parse and validate one request line (without the trailing newline).
 * On failure the returned false comes with *code and *message filled so
 * the caller can build the error reply; *out is only meaningful on
 * success. The id (when present and well-formed) is preserved in
 * *out even on failure, so error replies still echo it.
 */
bool parseRequest(const std::string &line, Request *out,
                  ErrorCode *code, std::string *message);

/** Build the success envelope around an op's result object. */
JsonValue makeResponse(const Request &req, JsonValue result);

/** Build the failure envelope. */
JsonValue makeError(const Request &req, ErrorCode code,
                    const std::string &message);

/** Serialize an envelope to its canonical single line (no newline). */
std::string serializeResponse(const JsonValue &response);

} // namespace mica::service
