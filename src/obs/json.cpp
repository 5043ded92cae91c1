#include "json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tbstc::obs {

namespace {

const JsonValue &
nullValue()
{
    static const JsonValue v;
    return v;
}

const std::string &
emptyString()
{
    static const std::string s;
    return s;
}

const JsonValue::Object &
emptyObject()
{
    static const JsonValue::Object o;
    return o;
}

const JsonValue::Array &
emptyArray()
{
    static const JsonValue::Array a;
    return a;
}

/** Recursive-descent parser over one string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    util::Result<JsonValue, JsonError>
    document()
    {
        skipWs();
        auto v = value(0);
        if (!v)
            return util::unexpected(v.error());
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing bytes after JSON value");
        return std::move(*v);
    }

  private:
    util::Result<JsonValue, JsonError>
    fail(std::string msg) const
    {
        return util::unexpected(JsonError{pos_, std::move(msg)});
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    util::Result<JsonValue, JsonError>
    value(size_t depth)
    {
        if (depth > kJsonMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        if (c == '"') {
            auto s = string();
            if (!s)
                return util::unexpected(s.error());
            return JsonValue::makeString(std::move(*s));
        }
        if (literal("true"))
            return JsonValue::makeBool(true);
        if (literal("false"))
            return JsonValue::makeBool(false);
        if (literal("null"))
            return JsonValue();
        return number();
    }

    util::Result<JsonValue, JsonError>
    number()
    {
        const size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size()
               && (std::isdigit(static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("invalid value");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(v)) {
            pos_ = start;
            return fail("invalid number '" + token + "'");
        }
        return JsonValue::makeNumber(v);
    }

    util::Result<std::string, JsonError>
    string()
    {
        if (!consume('"'))
            return util::unexpected(JsonError{pos_, "expected string"});
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                return util::unexpected(JsonError{pos_ - 1,
                              "unescaped control character in string"});
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return util::unexpected(JsonError{pos_, "truncated \\u escape"});
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return util::unexpected(JsonError{pos_ - 1, "bad \\u escape digit"});
                }
                // UTF-8 encode the BMP code point (surrogate pairs in
                // request payloads are not expected; a lone surrogate
                // encodes as its raw 3-byte form, which round-trips).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return util::unexpected(JsonError{pos_ - 1, "unknown escape"});
            }
        }
        return util::unexpected(JsonError{pos_, "unterminated string"});
    }

    util::Result<JsonValue, JsonError>
    object(size_t depth)
    {
        consume('{');
        JsonValue::Object members;
        skipWs();
        if (consume('}'))
            return JsonValue::makeObject(std::move(members));
        for (;;) {
            skipWs();
            auto key = string();
            if (!key)
                return util::unexpected(key.error());
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWs();
            auto v = value(depth + 1);
            if (!v)
                return v;
            members.insert_or_assign(std::move(*key), std::move(*v));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return JsonValue::makeObject(std::move(members));
            return fail("expected ',' or '}' in object");
        }
    }

    util::Result<JsonValue, JsonError>
    array(size_t depth)
    {
        consume('[');
        JsonValue::Array items;
        skipWs();
        if (consume(']'))
            return JsonValue::makeArray(std::move(items));
        for (;;) {
            skipWs();
            auto v = value(depth + 1);
            if (!v)
                return v;
            items.push_back(std::move(*v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return JsonValue::makeArray(std::move(items));
            return fail("expected ',' or ']' in array");
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
};

} // namespace

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.num_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeObject(Object o)
{
    JsonValue v;
    v.type_ = Type::Object;
    v.obj_ = std::move(o);
    return v;
}

JsonValue
JsonValue::makeArray(Array a)
{
    JsonValue v;
    v.type_ = Type::Array;
    v.arr_ = std::move(a);
    return v;
}

bool
JsonValue::asBool(bool dflt) const
{
    return type_ == Type::Bool ? bool_ : dflt;
}

double
JsonValue::asNumber(double dflt) const
{
    return type_ == Type::Number ? num_ : dflt;
}

const std::string &
JsonValue::asString() const
{
    return type_ == Type::String ? str_ : emptyString();
}

const JsonValue::Object &
JsonValue::asObject() const
{
    return type_ == Type::Object ? obj_ : emptyObject();
}

const JsonValue::Array &
JsonValue::asArray() const
{
    return type_ == Type::Array ? arr_ : emptyArray();
}

const JsonValue &
JsonValue::get(std::string_view name) const
{
    if (type_ != Type::Object)
        return nullValue();
    const auto it = obj_.find(name);
    return it == obj_.end() ? nullValue() : it->second;
}

bool
JsonValue::has(std::string_view name) const
{
    return type_ == Type::Object && obj_.find(name) != obj_.end();
}

util::Result<JsonValue, JsonError>
parseJson(std::string_view text)
{
    return Parser(text).document();
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (v == static_cast<double>(static_cast<long long>(v))
        && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace tbstc::obs
