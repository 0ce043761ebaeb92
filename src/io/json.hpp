#ifndef HATT_IO_JSON_HPP
#define HATT_IO_JSON_HPP

/**
 * @file
 * Minimal self-contained JSON value / parser / writer used by the io
 * subsystem (serialized trees, mappings, qubit Hamiltonians, the mapping
 * cache and the `hattc` driver). No external dependencies; numbers are
 * IEEE doubles written with enough digits (17 significant) to round-trip
 * bit-exactly, which the serialization tests rely on. All JSON text the
 * io subsystem writes goes through the one JsonWriter below.
 */

#include <cstdint>
#include <istream>
#include <locale>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hatt::io {

/** Error raised by every parser in the io subsystem (JSON and text). */
class ParseError : public std::runtime_error
{
  public:
    explicit ParseError(const std::string &what) : std::runtime_error(what)
    {
    }
};

/**
 * Exception-safe classic-locale imbue for the C-locale text writers
 * (.ops, FCIDUMP): a grouping/comma-decimal locale on the caller's
 * stream would corrupt emitted numbers. Restores the previous locale on
 * scope exit, including when a writer throws mid-document.
 */
class ClassicLocaleScope
{
  public:
    explicit ClassicLocaleScope(std::ostream &os)
        : os_(os), prev_(os.imbue(std::locale::classic()))
    {
    }
    ~ClassicLocaleScope() { os_.imbue(prev_); }
    ClassicLocaleScope(const ClassicLocaleScope &) = delete;
    ClassicLocaleScope &operator=(const ClassicLocaleScope &) = delete;

  private:
    std::ostream &os_;
    std::locale prev_;
};

class JsonWriter;

/**
 * A JSON document node. Object member order is preserved (vector of
 * key/value pairs) so emitted files are stable across runs.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    using Object = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(double n) : kind_(Kind::Number), num_(n) {}
    JsonValue(int n) : kind_(Kind::Number), num_(n) {}
    JsonValue(int64_t n) : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    JsonValue(uint64_t n) : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    JsonValue(uint32_t n) : kind_(Kind::Number), num_(n) {}
    JsonValue(const char *s) : kind_(Kind::String), str_(s) {}
    JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static JsonValue array() { return JsonValue(Kind::Array); }
    static JsonValue object() { return JsonValue(Kind::Object); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw ParseError on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** asNumber() checked to be an integer in [lo, hi]. */
    int64_t asInt(int64_t lo = INT64_MIN, int64_t hi = INT64_MAX) const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Array element access (throws on kind/range mismatch). */
    const JsonValue &at(size_t index) const;
    size_t size() const;

    /** Object member lookup; nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
    /** Object member lookup; throws ParseError when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Object/array builders. */
    void add(std::string key, JsonValue value);
    void push(JsonValue value);

    /**
     * Serialize. @p indent < 0 emits compact one-line JSON; >= 0 pretty
     * prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /** Drive @p out through this value (dump() is exactly this walk). */
    void writeTo(JsonWriter &out) const;

    /** Parse a complete document; trailing garbage is an error. */
    static JsonValue parse(const std::string &text);
    static JsonValue parse(std::istream &in);

  private:
    explicit JsonValue(Kind kind) : kind_(kind) {}

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

/**
 * Streaming JSON text writer: the one owner of the layout dump() emits
 * (indent, "," and ": " separators, empty [] and {}, the trailing
 * newline of a pretty-printed document), its string escaping and its
 * number format. Output goes to one of two sinks: a caller's
 * std::string, or a file descriptor behind a fixed 64 KiB buffer
 * drained with write(2), so a document of any size streams to disk
 * without ever existing as one string.
 *
 * The calls must spell exactly one well-nested value: scalars and
 * begin/end pairs, with key() before each object member, then finish().
 */
class JsonWriter
{
  public:
    /** Append to @p out; @p indent < 0 writes compact one-line JSON. */
    JsonWriter(std::string &out, int indent);
    /**
     * Write to the open descriptor @p fd, which the caller keeps owning;
     * @p path only names it in errors.
     */
    JsonWriter(int fd, std::string path, int indent);
    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void null();
    void boolean(bool value);
    /** @throws ParseError on a non-finite value. */
    void number(double value);
    void string(std::string_view value);
    void beginArray();
    void endArray();
    void beginObject();
    void endObject();
    void key(std::string_view name);

    /**
     * End the document: the trailing newline when pretty-printing, then
     * (fd sink) drain the buffer. Without it buffered bytes are dropped.
     * @throws ParseError naming the path when a write fails.
     */
    void finish();

  private:
    static constexpr size_t kBufferBytes = size_t{64} << 10;

    void put(const char *data, size_t size);
    void put(char c) { put(&c, 1); }
    void beforeValue();
    void newline(int level);
    void open(char bracket);
    void close(char bracket);
    void writeAll(const char *data, size_t size);

    std::string buffer_; //!< the fd sink's buffer (capacity kBufferBytes)
    std::string &out_;   //!< the caller's string, or buffer_
    int fd_ = -1;
    std::string path_;
    int indent_;
    int depth_ = 0;
    bool empty_ = false;    //!< open container has no member yet
    bool afterKey_ = false; //!< next value completes an object member
};

/** @p value as JSON, or null when unset. */
template <typename T>
JsonValue
optionalToJson(const std::optional<T> &value)
{
    return value ? JsonValue(*value) : JsonValue(nullptr);
}

/** Render a double with round-trip (17 significant digit) precision. */
std::string jsonNumberToString(double value);

/**
 * Parse a decimal-number prefix of [first, last) locale-independently
 * via from_chars, with strtod's accepted syntax and range semantics
 * restored: an explicit leading '+' is honored (only when a number
 * follows, so "+-2" still fails), a magnitude too small for a double
 * quietly underflows to (signed) zero instead of failing, and overflow
 * parses to (signed) infinity — callers reject it via their isfinite
 * checks with their own diagnostics.
 * @return pointer one past the number, or @p first when no valid number
 * starts there.
 */
const char *parseDoubleToken(const char *first, const char *last,
                             double &out);

} // namespace hatt::io

#endif // HATT_IO_JSON_HPP
