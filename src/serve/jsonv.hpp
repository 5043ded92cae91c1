/**
 * @file
 * Minimal JSON document model for the serve protocol.
 *
 * The daemon's wire format is length-prefixed JSON (docs/serving.md),
 * so the server must *parse* arbitrary client bytes — obs/json.hpp
 * only escapes strings for export. This is a small recursive-descent
 * parser producing an immutable JsonValue tree: objects are string
 * maps, numbers are doubles (request ids and sizes fit double's exact
 * 53-bit integer range), and parse failures return a Result error with
 * the byte offset instead of throwing, mirroring the format layer's
 * hardened-decode convention — a hostile frame can never abort the
 * daemon.
 *
 * Depth is bounded (kMaxDepth) so deeply nested input cannot overflow
 * the stack; the caller bounds input *size* via the frame layer.
 */

#ifndef TBSTC_SERVE_JSONV_HPP
#define TBSTC_SERVE_JSONV_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace tbstc::serve {

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
 * Render a double the way the serve protocol expects: shortest form
 * that round-trips (%.17g trimmed), "0" for zero, integers without a
 * fractional part. NaN/Inf (not representable in JSON) render as null.
 */
std::string jsonNumber(double v);

} // namespace tbstc::serve

#endif // TBSTC_SERVE_JSONV_HPP
