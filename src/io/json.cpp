#include "io/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <iterator>
#include <system_error>

#include <unistd.h>

#include "common/json_escape.hpp"

namespace hatt::io {

namespace {

/** Recursive-descent JSON parser over an in-memory buffer. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    static constexpr int kMaxDepth = 200;

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        size_t line = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i)
            if (text_[i] == '\n')
                ++line;
        throw ParseError("JSON parse error (line " + std::to_string(line) +
                         "): " + msg);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWhitespace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t len = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, len, lit) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        char c = peek();
        switch (c) {
        case '{':
            return parseObject(depth);
        case '[':
            return parseArray(depth);
        case '"':
            return JsonValue(parseString());
        case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("invalid literal");
        case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("invalid literal");
        case 'n':
            if (consumeLiteral("null"))
                return JsonValue(nullptr);
            fail("invalid literal");
        default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject(int depth)
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            expect(':');
            obj.add(std::move(key), parseValue(depth + 1));
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseArray(int depth)
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue(depth + 1));
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': appendUnicodeEscape(out); break;
            default: fail("invalid escape character");
            }
        }
    }

    unsigned
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v += static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v += static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v += static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return v;
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        unsigned cp = parseHex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
                fail("unpaired surrogate");
            pos_ += 2;
            unsigned lo = parseHex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
                fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
        }
        // UTF-8 encode.
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    JsonValue
    parseNumber()
    {
        skipWhitespace();
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
            digits = true;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (!digits)
            fail("invalid number");
        // Locale-independent (strtod honors LC_NUMERIC, so a comma-
        // decimal locale would truncate "1.5" to 1) with strtod's range
        // semantics kept: underflow -> 0, overflow -> inf.
        double v = 0.0;
        const char *tok = text_.data() + start;
        const char *tok_end = text_.data() + pos_;
        if (parseDoubleToken(tok, tok_end, v) != tok_end)
            fail("invalid number");
        return JsonValue(v);
    }

    const std::string &text_;
    size_t pos_ = 0;
};

/**
 * Format @p value into @p buf (>= 64 bytes) and return one past the
 * last character written. Integral values within the exact-double range
 * print without a fraction; everything else uses 17 significant digits,
 * which from_chars round-trips bit-exactly. to_chars always emits the C
 * locale's '.' — snprintf("%.17g") honors LC_NUMERIC, so under a
 * comma-decimal locale it would emit invalid JSON.
 */
char *
formatNumber(char *buf, double value)
{
    if (!std::isfinite(value))
        throw ParseError("cannot serialize non-finite number");
    std::to_chars_result r =
        value == std::floor(value) && std::abs(value) < 1e15
            ? std::to_chars(buf, buf + 64, value,
                            std::chars_format::fixed, 0)
            : std::to_chars(buf, buf + 64, value,
                            std::chars_format::general, 17);
    if (r.ec != std::errc{})
        throw ParseError("cannot serialize number");
    return r.ptr;
}

} // namespace

const char *
parseDoubleToken(const char *first, const char *last, double &out)
{
    // strtod accepted an explicit '+' sign, from_chars does not; honor
    // it only when a number actually follows, so malformed sequences
    // like "+-2" still fail instead of silently parsing as "-2".
    const char *begin = first;
    if (begin < last && *begin == '+' && begin + 1 < last &&
        (*(begin + 1) == '.' ||
         (*(begin + 1) >= '0' && *(begin + 1) <= '9')))
        ++begin;
    auto [end, ec] = std::from_chars(begin, last, out);
    if (ec == std::errc{})
        return end;
    if (ec != std::errc::result_out_of_range || end == begin)
        return first;
    // from_chars consumed a grammatical number whose magnitude falls
    // outside double's range and left `out` unmodified (libstdc++).
    // Restore strtod's semantics — underflow rounds to signed zero,
    // overflow saturates to signed infinity — by classifying the token:
    // its value is d.ddd * 10^(lead + exp10) with `lead` the decimal
    // exponent of the first significant digit.
    const char *p = first;
    const bool neg = *p == '-';
    if (*p == '-' || *p == '+')
        ++p;
    const char *mant_end = p;
    while (mant_end < end && *mant_end != 'e' && *mant_end != 'E')
        ++mant_end;
    long long exp10 = 0;
    if (mant_end < end) {
        const char *q = mant_end + 1;
        bool eneg = false;
        if (q < end && (*q == '+' || *q == '-')) {
            eneg = *q == '-';
            ++q;
        }
        for (; q < end && *q >= '0' && *q <= '9'; ++q)
            exp10 = std::min<long long>(exp10 * 10 + (*q - '0'), 1000000);
        if (eneg)
            exp10 = -exp10;
    }
    const char *point = p;
    while (point < mant_end && *point != '.')
        ++point;
    long long lead = 0;
    bool significant = false;
    for (const char *q = p; q < mant_end && !significant; ++q) {
        if (*q == '.' || *q == '0')
            continue;
        lead = q < point ? (point - q) - 1 : -(q - point);
        significant = true;
    }
    // (!significant would mean a zero significand, never out of range.)
    const bool tiny = !significant || lead + exp10 < 0;
    const double mag =
        tiny ? 0.0 : std::numeric_limits<double>::infinity();
    out = neg ? -mag : mag;
    return end;
}

std::string
jsonNumberToString(double value)
{
    char buf[64];
    return std::string(buf, formatNumber(buf, value));
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        throw ParseError("JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        throw ParseError("JSON value is not a number");
    return num_;
}

int64_t
JsonValue::asInt(int64_t lo, int64_t hi) const
{
    double v = asNumber();
    if (v != std::floor(v) || v < static_cast<double>(lo) ||
        v > static_cast<double>(hi))
        throw ParseError("JSON number out of integer range");
    return static_cast<int64_t>(v);
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        throw ParseError("JSON value is not a string");
    return str_;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        throw ParseError("JSON value is not an array");
    return arr_;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        throw ParseError("JSON value is not an object");
    return obj_;
}

const JsonValue &
JsonValue::at(size_t index) const
{
    const Array &a = asArray();
    if (index >= a.size())
        throw ParseError("JSON array index out of range");
    return a[index];
}

size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    throw ParseError("JSON value has no size");
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw ParseError("missing JSON object key \"" + key + "\"");
}

void
JsonValue::add(std::string key, JsonValue value)
{
    if (kind_ != Kind::Object)
        throw ParseError("add(key, value) on non-object JSON value");
    obj_.emplace_back(std::move(key), std::move(value));
}

void
JsonValue::push(JsonValue value)
{
    if (kind_ != Kind::Array)
        throw ParseError("push(value) on non-array JSON value");
    arr_.push_back(std::move(value));
}

JsonWriter::JsonWriter(std::string &out, int indent)
    : out_(out), indent_(indent)
{
}

JsonWriter::JsonWriter(int fd, std::string path, int indent)
    : out_(buffer_), fd_(fd), path_(std::move(path)), indent_(indent)
{
    buffer_.reserve(kBufferBytes);
}

void
JsonWriter::put(const char *data, size_t size)
{
    if (fd_ >= 0 && out_.size() + size > kBufferBytes) {
        writeAll(out_.data(), out_.size());
        out_.clear();
        if (size > kBufferBytes) {
            writeAll(data, size);
            return;
        }
    }
    out_.append(data, size);
}

void
JsonWriter::writeAll(const char *data, size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd_, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ParseError("write failed: " + path_);
        }
        data += n;
        size -= static_cast<size_t>(n);
    }
}

void
JsonWriter::newline(int level)
{
    if (indent_ < 0)
        return;
    put('\n');
    static constexpr char kSpaces[] = "                                ";
    for (size_t n = static_cast<size_t>(indent_) * level; n > 0;) {
        const size_t chunk = std::min(n, sizeof(kSpaces) - 1);
        put(kSpaces, chunk);
        n -= chunk;
    }
}

void
JsonWriter::beforeValue()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    if (!empty_)
        put(',');
    empty_ = false;
    newline(depth_);
}

void
JsonWriter::open(char bracket)
{
    beforeValue();
    put(bracket);
    ++depth_;
    empty_ = true;
}

void
JsonWriter::close(char bracket)
{
    --depth_;
    if (!empty_)
        newline(depth_);
    put(bracket);
    empty_ = false;
}

void
JsonWriter::null()
{
    beforeValue();
    put("null", 4);
}

void
JsonWriter::boolean(bool value)
{
    beforeValue();
    if (value)
        put("true", 4);
    else
        put("false", 5);
}

void
JsonWriter::number(double value)
{
    char buf[64];
    const char *end = formatNumber(buf, value);
    beforeValue();
    put(buf, static_cast<size_t>(end - buf));
}

void
JsonWriter::string(std::string_view value)
{
    beforeValue();
    struct Sink
    {
        JsonWriter &writer;
        void append(const char *data, size_t n) { writer.put(data, n); }
    } sink{*this};
    put('"');
    appendJsonEscaped(sink, value);
    put('"');
}

void
JsonWriter::beginArray()
{
    open('[');
}

void
JsonWriter::endArray()
{
    close(']');
}

void
JsonWriter::beginObject()
{
    open('{');
}

void
JsonWriter::endObject()
{
    close('}');
}

void
JsonWriter::key(std::string_view name)
{
    string(name);
    if (indent_ < 0)
        put(':');
    else
        put(": ", 2);
    afterKey_ = true;
}

void
JsonWriter::finish()
{
    if (indent_ >= 0)
        put('\n');
    if (fd_ >= 0) {
        writeAll(out_.data(), out_.size());
        out_.clear();
    }
}

void
JsonValue::writeTo(JsonWriter &out) const
{
    switch (kind_) {
    case Kind::Null:
        out.null();
        break;
    case Kind::Bool:
        out.boolean(bool_);
        break;
    case Kind::Number:
        out.number(num_);
        break;
    case Kind::String:
        out.string(str_);
        break;
    case Kind::Array:
        out.beginArray();
        for (const JsonValue &v : arr_)
            v.writeTo(out);
        out.endArray();
        break;
    case Kind::Object:
        out.beginObject();
        for (const auto &[k, v] : obj_) {
            out.key(k);
            v.writeTo(out);
        }
        out.endObject();
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    JsonWriter writer(out, indent);
    writeTo(writer);
    writer.finish();
    return out;
}

JsonValue
JsonValue::parse(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

JsonValue
JsonValue::parse(std::istream &in)
{
    // One read into a string sized from the stream's remaining length;
    // whatever a non-seekable stream still holds is appended after.
    std::string text;
    const std::streampos start = in.tellg();
    if (start != std::streampos(-1) && in.seekg(0, std::ios::end)) {
        const std::streampos end = in.tellg();
        in.seekg(start);
        if (end > start) {
            text.resize(static_cast<size_t>(end - start));
            in.read(text.data(), static_cast<std::streamsize>(text.size()));
            text.resize(static_cast<size_t>(in.gcount()));
        }
    }
    in.clear();
    text.append(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return parse(text);
}

} // namespace hatt::io
