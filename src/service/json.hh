/**
 * @file
 * Minimal JSON document model for the service wire protocol.
 *
 * The daemon and the one-shot CLI path must produce *byte-identical*
 * response lines for the same query, so serialization has to be
 * canonical: object members keep insertion order, numbers render via
 * std::to_chars (shortest round-trip form — the same bits always
 * produce the same text), strings escape exactly the characters JSON
 * requires, and there is no whitespace. Parsing is strict — anything
 * RFC 8259 rejects is an error naming the byte offset — because a
 * lenient reader on a network socket is how protocol drift starts.
 *
 * This is deliberately a small DOM, not a streaming parser: protocol
 * lines are bounded (service::kMaxLineBytes), so documents are tiny.
 * Requests are parsed into it and reply envelopes are built with it,
 * but a query's `result` is written as text: the engine appends its
 * canonical form with jsonQuote()/jsonNumber() (the writers dump()
 * itself uses, so text and tree render one value to the same bytes)
 * or copies fragments rendered once per snapshot, and wraps it in a
 * Raw value that dump() copies verbatim.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mica::service
{

class JsonValue;

/** Object members as an insertion-ordered (key, value) sequence. */
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
        Raw,    ///< canonical JSON text, already rendered
    };

    JsonValue() = default;

    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    static JsonValue number(double v);
    static JsonValue number(int64_t v);
    static JsonValue number(uint64_t v);
    static JsonValue str(std::string s);
    static JsonValue array();
    static JsonValue object();

    /**
     * A value already rendered as canonical JSON text, which dump()
     * appends verbatim. It has no members or items to walk: parse the
     * serialized line to inspect it.
     */
    static JsonValue raw(std::string text);

    Kind kind() const { return kind_; }

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }

    double asDouble() const { return num_; }

    /**
     * @return the number as a non-negative integer; @p fallback when
     * this is not a number, is negative, is fractional, or exceeds
     * what a double can represent exactly. Protocol fields (k, top,
     * id) come through here so a malformed count can never silently
     * truncate to something plausible.
     */
    int64_t asCount(int64_t fallback = -1) const;

    /** @return a string's value, or a Raw value's text. */
    const std::string &asString() const { return str_; }

    const std::vector<JsonValue> &items() const { return items_; }

    const JsonMembers &members() const { return members_; }

    /** @return member by key, or nullptr (objects only). */
    const JsonValue *find(const std::string &key) const;

    /** Append a member (objects only; duplicate keys are a bug). */
    JsonValue &set(std::string key, JsonValue v);

    /** Append an element (arrays only). */
    JsonValue &push(JsonValue v);

    /**
     * Serialize canonically: no whitespace, insertion-order members,
     * shortest-round-trip numbers. NaN/Inf (which JSON cannot carry)
     * render as null — the engine never produces them, but a
     * serializer that can emit unparseable output is a latent bug.
     */
    std::string dump() const;

    void dumpTo(std::string &out) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    /** Integral numbers remember their text so 2^53+ survives. */
    bool isInt_ = false;
    int64_t int_ = 0;
    std::string str_;
    std::vector<JsonValue> items_;
    JsonMembers members_;
};

/**
 * Parse one JSON document. The whole input must be consumed (trailing
 * garbage is an error); leading/trailing ASCII whitespace is allowed.
 * @param err on failure, a one-line reason with the byte offset
 * @return the document, or no value (err set)
 */
bool parseJson(const std::string &text, JsonValue *out,
               std::string *err = nullptr);

/** Append @p s to @p out with JSON string escaping (no quotes). */
void jsonEscape(std::string_view s, std::string &out);

/** Append @p s as a quoted, escaped JSON string. */
void jsonQuote(std::string_view s, std::string &out);

/**
 * Append @p v as JsonValue::number(v).dump() renders it: shortest
 * round-trip text, and null for NaN/Inf.
 */
void jsonNumber(double v, std::string &out);

/** Append @p v as JsonValue::number(v).dump() renders it. */
void jsonNumber(int64_t v, std::string &out);

/** Append @p v as JsonValue::number(v).dump() renders it. */
void jsonNumber(uint64_t v, std::string &out);

} // namespace mica::service
