#ifndef HATT_COMMON_HASH_HPP
#define HATT_COMMON_HASH_HPP

/**
 * @file
 * The library's shared non-cryptographic hash primitives. Content
 * hashes built on them are pinned by tests, so the bit-level definitions
 * here must never change.
 */

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace hatt {

/** splitmix64 finalizer: a full-avalanche 64-bit mix. */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** 64-bit FNV-1a over the bytes of @p s (standard offset basis). */
inline uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

/** Hash for index vectors (Majorana monomials keyed by their indices). */
struct IndexVecHash
{
    size_t
    operator()(const std::vector<uint32_t> &v) const
    {
        uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
        for (uint32_t x : v) {
            h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            h *= 0xff51afd7ed558ccdULL;
        }
        return static_cast<size_t>(h);
    }
};

} // namespace hatt

#endif // HATT_COMMON_HASH_HPP
