#ifndef HATT_COMMON_JSON_ESCAPE_HPP
#define HATT_COMMON_JSON_ESCAPE_HPP

/**
 * @file
 * The library's one JSON string escaper, shared by the io JSON writer
 * and the trace writer. Artifact bytes are pinned by tests, so the
 * escape set must never change: '"' and '\\' escaped with a backslash,
 * \b \f \n \r \t as short escapes, every other byte below 0x20 as
 * \u00xx (lowercase hex), and every other byte — 0x7f and UTF-8
 * sequences included — copied verbatim.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace hatt {

/** True for the bytes appendJsonEscaped cannot copy verbatim. */
constexpr bool
needsJsonEscape(char c)
{
    return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}

/**
 * True when none of the 8 bytes at @p p needs an escape: the classic
 * SWAR byte tests ((v - n) & ~v & 0x80.. is non-zero exactly when some
 * byte of v is below n < 0x80), applied to v for the control bytes and
 * to v with '"' and '\\' xor-ed to zero.
 */
inline bool
jsonSafeWord(const char *p)
{
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    constexpr uint64_t kHigh = 0x8080808080808080ull;
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    const uint64_t quote = v ^ (kOnes * '"');
    const uint64_t slash = v ^ (kOnes * '\\');
    const uint64_t hits = ((v - kOnes * 0x20) & ~v) |
                          ((quote - kOnes) & ~quote) |
                          ((slash - kOnes) & ~slash);
    return (hits & kHigh) == 0;
}

/**
 * Append @p text JSON-escaped, without the surrounding quotes, to
 * @p out — anything with `append(const char *, size_t)`, such as
 * std::string. Each run of bytes that needs no escape goes out in one
 * append.
 */
template <class Out>
void
appendJsonEscaped(Out &out, std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const char *p = text.data();
    const char *const end = p + text.size();
    while (p != end) {
        const char *run = p;
        while (end - p >= 8 && jsonSafeWord(p))
            p += 8;
        while (p != end && !needsJsonEscape(*p))
            ++p;
        if (p != run)
            out.append(run, static_cast<size_t>(p - run));
        if (p == end)
            break;
        const auto c = static_cast<unsigned char>(*p++);
        char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        size_t len = 2;
        switch (c) {
          case '"': esc[1] = '"'; break;
          case '\\': esc[1] = '\\'; break;
          case '\b': esc[1] = 'b'; break;
          case '\f': esc[1] = 'f'; break;
          case '\n': esc[1] = 'n'; break;
          case '\r': esc[1] = 'r'; break;
          case '\t': esc[1] = 't'; break;
          default: len = 6; break;
        }
        out.append(esc, len);
    }
}

} // namespace hatt

#endif // HATT_COMMON_JSON_ESCAPE_HPP
