#include "service/protocol.hh"

namespace mica::service
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadJson:
        return "bad_json";
    case ErrorCode::BadRequest:
        return "bad_request";
    case ErrorCode::UnknownOp:
        return "unknown_op";
    case ErrorCode::UnknownBench:
        return "unknown_bench";
    case ErrorCode::LineTooLong:
        return "line_too_long";
    case ErrorCode::Unavailable:
        return "unavailable";
    case ErrorCode::Internal:
        return "internal";
    }
    return "internal";
}

const char *
opName(Op op)
{
    switch (op) {
    case Op::Ping:
        return "ping";
    case Op::Stats:
        return "stats";
    case Op::Profile:
        return "profile";
    case Op::Knn:
        return "knn";
    case Op::Radius:
        return "radius";
    case Op::Redundant:
        return "redundant";
    case Op::Suites:
        return "suites";
    case Op::Reindex:
        return "reindex";
    }
    return "ping";
}

namespace
{

bool
failWith(ErrorCode *code, std::string *message, ErrorCode c,
         const std::string &m)
{
    *code = c;
    *message = m;
    return false;
}

/** @return the "bench" string field, validating presence and type. */
bool
requireBench(const JsonValue &doc, Request *out, ErrorCode *code,
             std::string *message)
{
    const JsonValue *b = doc.find("bench");
    if (!b || !b->isString() || b->asString().empty()) {
        return failWith(code, message, ErrorCode::BadRequest,
                        "'bench' must be a non-empty string");
    }
    out->bench = b->asString();
    return true;
}

/** Read an optional count field in [0, kMaxCount]. */
bool
optionalCount(const JsonValue &doc, const char *field, size_t fallback,
              size_t *out, ErrorCode *code, std::string *message)
{
    const JsonValue *v = doc.find(field);
    if (!v) {
        *out = fallback;
        return true;
    }
    const int64_t n = v->asCount();
    if (n < 0 || static_cast<uint64_t>(n) > kMaxCount) {
        return failWith(code, message, ErrorCode::BadRequest,
                        std::string("'") + field +
                            "' must be an integer in [0, " +
                            std::to_string(kMaxCount) + "]");
    }
    *out = static_cast<size_t>(n);
    return true;
}

} // namespace

bool
parseRequest(const std::string &line, Request *out, ErrorCode *code,
             std::string *message)
{
    *out = Request();
    JsonValue doc;
    std::string perr;
    if (!parseJson(line, &doc, &perr))
        return failWith(code, message, ErrorCode::BadJson, perr);
    if (!doc.isObject()) {
        return failWith(code, message, ErrorCode::BadJson,
                        "request must be a JSON object");
    }
    // The id is salvaged before any validation so even a garbage
    // request's error reply can be matched by a pipelined client.
    if (const JsonValue *id = doc.find("id")) {
        out->id = *id;
        out->hasId = true;
    }
    const JsonValue *op = doc.find("op");
    if (!op || !op->isString()) {
        return failWith(code, message, ErrorCode::BadRequest,
                        "'op' must be a string");
    }
    const std::string &name = op->asString();
    if (name == "ping") {
        out->op = Op::Ping;
        return true;
    }
    if (name == "stats") {
        out->op = Op::Stats;
        return true;
    }
    if (name == "reindex") {
        out->op = Op::Reindex;
        return true;
    }
    if (name == "profile") {
        out->op = Op::Profile;
        if (!requireBench(doc, out, code, message))
            return false;
        out->space = "mica";
        if (const JsonValue *s = doc.find("space")) {
            if (!s->isString() || (s->asString() != "mica" &&
                                   s->asString() != "hpc")) {
                return failWith(code, message, ErrorCode::BadRequest,
                                "'space' must be \"mica\" or \"hpc\"");
            }
            out->space = s->asString();
        }
        return true;
    }
    if (name == "knn") {
        out->op = Op::Knn;
        return requireBench(doc, out, code, message) &&
            optionalCount(doc, "k", 10, &out->k, code, message);
    }
    if (name == "radius") {
        out->op = Op::Radius;
        if (!requireBench(doc, out, code, message))
            return false;
        const JsonValue *r = doc.find("r");
        if (!r || !r->isNumber() || !(r->asDouble() >= 0.0)) {
            return failWith(code, message, ErrorCode::BadRequest,
                            "'r' must be a non-negative number");
        }
        out->radius = r->asDouble();
        return true;
    }
    if (name == "redundant") {
        out->op = Op::Redundant;
        return optionalCount(doc, "top", 10, &out->top, code, message);
    }
    if (name == "suites") {
        out->op = Op::Suites;
        if (const JsonValue *s = doc.find("suite")) {
            if (!s->isString()) {
                return failWith(code, message, ErrorCode::BadRequest,
                                "'suite' must be a string");
            }
            out->suite = s->asString();
        }
        return true;
    }
    return failWith(code, message, ErrorCode::UnknownOp,
                    "unknown op '" + name + "'");
}

JsonValue
makeResponse(const Request &req, JsonValue result)
{
    JsonValue resp = JsonValue::object();
    if (req.hasId)
        resp.set("id", req.id);
    resp.set("ok", JsonValue::boolean(true));
    resp.set("op", JsonValue::str(opName(req.op)));
    resp.set("result", std::move(result));
    return resp;
}

JsonValue
makeError(const Request &req, ErrorCode code, const std::string &message)
{
    JsonValue resp = JsonValue::object();
    if (req.hasId)
        resp.set("id", req.id);
    resp.set("ok", JsonValue::boolean(false));
    JsonValue err = JsonValue::object();
    err.set("code", JsonValue::str(errorCodeName(code)));
    err.set("message", JsonValue::str(message));
    resp.set("error", std::move(err));
    return resp;
}

std::string
serializeResponse(const JsonValue &response)
{
    // One allocation: the envelope's few members around a result
    // that is usually text already, plus the newline a daemon adds.
    const JsonValue *result = response.find("result");
    std::string line;
    line.reserve(128 + (result ? result->asString().size() : 0));
    response.dumpTo(line);
    return line;
}

} // namespace mica::service
