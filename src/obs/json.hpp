/**
 * @file
 * The project's one JSON module: the string quoter the metric, trace
 * and serve writers share, the number formatter, and the reader the
 * serve daemon parses client frames and config files with.
 *
 * The reader is a small recursive-descent parser producing an
 * immutable JsonValue tree: objects are string maps, numbers are
 * doubles (request ids and sizes fit double's exact 53-bit integer
 * range), and parse failures return a Result error with the byte
 * offset instead of throwing, mirroring the format layer's
 * hardened-decode convention — a hostile frame can never abort the
 * daemon. Depth is bounded (kJsonMaxDepth) so deeply nested input
 * cannot overflow the stack; the caller bounds input *size* via the
 * frame layer.
 *
 * obs sits below util in the layering; util/result.hpp is
 * header-only, so using it here adds no link dependency. None of
 * this is gated by TBSTC_OBS, because serve needs the reader.
 */

#ifndef TBSTC_OBS_JSON_HPP
#define TBSTC_OBS_JSON_HPP

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace tbstc::obs {

/** Quote and escape @p s as a JSON string literal. */
inline std::string
jsonQuote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

/** Maximum nesting depth accepted by parseJson(). */
constexpr size_t kJsonMaxDepth = 64;

/** One parsed JSON value (immutable after parsing). */
class JsonValue
{
  public:
    enum class Type : uint8_t { Null, Bool, Number, String, Object, Array };

    using Object = std::map<std::string, JsonValue, std::less<>>;
    using Array = std::vector<JsonValue>;

    JsonValue() = default;
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string s);
    static JsonValue makeObject(Object o);
    static JsonValue makeArray(Array a);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }

    /** Value accessors; defaults are returned on type mismatch. */
    bool asBool(bool dflt = false) const;
    double asNumber(double dflt = 0.0) const;
    const std::string &asString() const;
    const Object &asObject() const;
    const Array &asArray() const;

    /** Object member lookup; a shared null value when absent. */
    const JsonValue &get(std::string_view name) const;
    bool has(std::string_view name) const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Object obj_;
    Array arr_;
};

/** Where and why parsing failed. */
struct JsonError
{
    size_t offset = 0;
    std::string message;
};

/**
 * Parse one complete JSON document (trailing bytes after the value are
 * an error, so a frame is exactly one request).
 */
util::Result<JsonValue, JsonError> parseJson(std::string_view text);

/**
 * Render a double for every JSON writer (serve replies, metrics
 * bucket bounds): %.17g, so it round-trips; integers below 1e15
 * without a fractional part. NaN/Inf (not representable in JSON)
 * render as null.
 */
std::string jsonNumber(double v);

} // namespace tbstc::obs

#endif // TBSTC_OBS_JSON_HPP
