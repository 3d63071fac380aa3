#include "service/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace mica::service
{

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

JsonValue
JsonValue::number(int64_t i)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = static_cast<double>(i);
    v.isInt_ = true;
    v.int_ = i;
    return v;
}

JsonValue
JsonValue::number(uint64_t i)
{
    // Wire counts never approach 2^63; pin the cast so a future huge
    // value renders as a (lossy but parseable) double, not garbage.
    if (i > static_cast<uint64_t>(INT64_MAX))
        return number(static_cast<double>(i));
    return number(static_cast<int64_t>(i));
}

JsonValue
JsonValue::raw(std::string text)
{
    JsonValue v;
    v.kind_ = Kind::Raw;
    v.str_ = std::move(text);
    return v;
}

JsonValue
JsonValue::str(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

int64_t
JsonValue::asCount(int64_t fallback) const
{
    if (kind_ != Kind::Number)
        return fallback;
    if (isInt_)
        return int_ >= 0 ? int_ : fallback;
    if (!(num_ >= 0.0) || num_ != std::floor(num_) || num_ > 9.0e15)
        return fallback;
    return static_cast<int64_t>(num_);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

JsonValue &
JsonValue::set(std::string key, JsonValue v)
{
    // Requests and reply envelopes have a handful of members: one
    // allocation holds them.
    if (members_.empty())
        members_.reserve(4);
    members_.emplace_back(std::move(key), std::move(v));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    items_.push_back(std::move(v));
    return *this;
}

void
jsonEscape(std::string_view s, std::string &out)
{
    // Bytes that need no escape are copied a run at a time.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

void
jsonQuote(std::string_view s, std::string &out)
{
    out += '"';
    jsonEscape(s, out);
    out += '"';
}

void
jsonNumber(double v, std::string &out)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Shortest round-trip form: the same double always serializes to
    // the same bytes, which is what makes the CLI-vs-server
    // byte-identity contract checkable.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

void
jsonNumber(int64_t v, std::string &out)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

void
jsonNumber(uint64_t v, std::string &out)
{
    // The same cut JsonValue::number(uint64_t) makes.
    if (v > static_cast<uint64_t>(INT64_MAX))
        jsonNumber(static_cast<double>(v), out);
    else
        jsonNumber(static_cast<int64_t>(v), out);
}

void
JsonValue::dumpTo(std::string &out) const
{
    switch (kind_) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
    case Kind::Number:
        if (isInt_)
            jsonNumber(int_, out);
        else
            jsonNumber(num_, out);
        break;
    case Kind::String:
        jsonQuote(str_, out);
        break;
    case Kind::Raw:
        out += str_;
        break;
    case Kind::Array: {
        out += '[';
        bool first = true;
        for (const auto &v : items_) {
            if (!first)
                out += ',';
            first = false;
            v.dumpTo(out);
        }
        out += ']';
        break;
    }
    case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &m : members_) {
            if (!first)
                out += ',';
            first = false;
            jsonQuote(m.first, out);
            out += ':';
            m.second.dumpTo(out);
        }
        out += '}';
        break;
    }
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

namespace
{

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {
    }

    bool
    parse(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    /** Nesting guard: a hostile line of '[[[[…' must not overflow. */
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *reason)
    {
        if (err_) {
            *err_ = std::string(reason) + " at byte " +
                std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail("invalid literal");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
        case 'n':
            if (!literal("null"))
                return false;
            *out = JsonValue::null();
            return true;
        case 't':
            if (!literal("true"))
                return false;
            *out = JsonValue::boolean(true);
            return true;
        case 'f':
            if (!literal("false"))
                return false;
            *out = JsonValue::boolean(false);
            return true;
        case '"':
            return parseString(out);
        case '[':
            return parseArray(out, depth);
        case '{':
            return parseObject(out, depth);
        default:
            return parseNumber(out);
        }
    }

    bool
    parseHex4(uint32_t *cp)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + static_cast<size_t>(i)];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        pos_ += 4;
        *cp = v;
        return true;
    }

    void
    appendUtf8(std::string &s, uint32_t cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseStringInto(std::string *s)
    {
        ++pos_; // opening quote
        for (;;) {
            // Bytes that need no decoding are copied a run at a time.
            const size_t run = pos_;
            while (pos_ < text_.size()) {
                const unsigned char c =
                    static_cast<unsigned char>(text_[pos_]);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++pos_;
            }
            s->append(text_, run, pos_ - run);
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            ++pos_;
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"':
                *s += '"';
                break;
            case '\\':
                *s += '\\';
                break;
            case '/':
                *s += '/';
                break;
            case 'b':
                *s += '\b';
                break;
            case 'f':
                *s += '\f';
                break;
            case 'n':
                *s += '\n';
                break;
            case 'r':
                *s += '\r';
                break;
            case 't':
                *s += '\t';
                break;
            case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(&cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // Surrogate pair.
                    if (text_.compare(pos_, 2, "\\u") != 0)
                        return fail("unpaired surrogate");
                    pos_ += 2;
                    uint32_t lo = 0;
                    if (!parseHex4(&lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                        (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(*s, cp);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseString(JsonValue *out)
    {
        std::string s;
        if (!parseStringInto(&s))
            return false;
        *out = JsonValue::str(std::move(s));
        return true;
    }

    bool
    parseNumber(JsonValue *out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool sawDigit = false;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
            sawDigit = true;
        }
        if (!sawDigit) {
            pos_ = start;
            return fail("invalid value");
        }
        // "-012" is not JSON: a leading zero takes the whole integer
        // part.
        const size_t intDigits =
            pos_ - start - (text_[start] == '-' ? 1 : 0);
        const char firstDigit =
            text_[start + (text_[start] == '-' ? 1 : 0)];
        if (intDigits > 1 && firstDigit == '0') {
            pos_ = start;
            return fail("leading zero in number");
        }
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            bool frac = false;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                frac = true;
            }
            if (!frac)
                return fail("missing fraction digits");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            bool exp = false;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                exp = true;
            }
            if (!exp)
                return fail("missing exponent digits");
        }
        const std::string tok = text_.substr(start, pos_ - start);
        if (integral) {
            int64_t iv = 0;
            const auto r = std::from_chars(
                tok.data(), tok.data() + tok.size(), iv);
            if (r.ec == std::errc() &&
                r.ptr == tok.data() + tok.size()) {
                *out = JsonValue::number(iv);
                return true;
            }
            // Out of int64 range: fall through to double.
        }
        double dv = 0.0;
        const auto r =
            std::from_chars(tok.data(), tok.data() + tok.size(), dv);
        if (r.ec != std::errc() || r.ptr != tok.data() + tok.size())
            return fail("unparseable number");
        *out = JsonValue::number(dv);
        return true;
    }

    bool
    parseArray(JsonValue *out, int depth)
    {
        ++pos_; // '['
        *out = JsonValue::array();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue v;
            skipWs();
            if (!parseValue(&v, depth + 1))
                return false;
            out->push(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue *out, int depth)
    {
        ++pos_; // '{'
        *out = JsonValue::object();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected member key");
            std::string key;
            if (!parseStringInto(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue v;
            if (!parseValue(&v, depth + 1))
                return false;
            out->set(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *err_;
    size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *err)
{
    Parser p(text, err);
    return p.parse(out);
}

} // namespace mica::service
