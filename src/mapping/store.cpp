#include "mapping/store.hpp"

#include <algorithm>
#include <functional>

#include "common/hash.hpp"
#include "common/metrics.hpp"

namespace hatt {

namespace {

/** Mix (hash, kind) into a shard index: splitmix64 finisher over the
    content hash xor a string hash, so one hot content hash with many
    kinds still spreads across shards. */
size_t
shardIndex(uint64_t content_hash, const std::string &kind, size_t shards)
{
    const uint64_t x =
        splitmix64(content_hash ^ std::hash<std::string>{}(kind));
    return static_cast<size_t>(x % shards);
}

} // namespace

TieredMappingStore::Shard &
TieredMappingStore::shardFor(uint64_t content_hash, const std::string &kind)
{
    return shards_[shardIndex(content_hash, kind, kShards)];
}

const TieredMappingStore::Shard &
TieredMappingStore::shardFor(uint64_t content_hash,
                             const std::string &kind) const
{
    return shards_[shardIndex(content_hash, kind, kShards)];
}

std::optional<MappingStore::Entry>
TieredMappingStore::load(uint64_t content_hash, const std::string &kind)
{
    {
        Shard &shard = shardFor(content_hash, kind);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(Key(content_hash, kind));
        if (it != shard.entries.end()) {
            memory_hits_.fetch_add(1, std::memory_order_relaxed);
            metrics::add("store.memory_hits");
            Entry out = it->second;
            out.tier = "memory";
            return out;
        }
    }
    if (!backing_) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    std::optional<Entry> hit = backing_->load(content_hash, kind);
    if (!hit) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    backing_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics::add("store.backing_hits");
    // Read promotion: the next load() of this key is a memory hit. The
    // promoted copy is stored tier-less; tiers are stamped at serve
    // time, not at rest.
    publish(content_hash, kind, *hit);
    promotions_.fetch_add(1, std::memory_order_relaxed);
    metrics::add("store.promotions");
    return hit;
}

void
TieredMappingStore::save(uint64_t content_hash, const std::string &kind,
                         const Entry &entry)
{
    stores_.fetch_add(1, std::memory_order_relaxed);
    // Write-through, durable tier first: if the backing persist fails
    // (it is best-effort by contract), the memory tier still serves
    // this process, and a later recompute re-attempts the disk write.
    if (backing_)
        backing_->save(content_hash, kind, entry);
    publish(content_hash, kind, entry);
}

void
TieredMappingStore::publish(uint64_t content_hash, const std::string &kind,
                            const Entry &entry)
{
    Shard &shard = shardFor(content_hash, kind);
    Entry stored = entry;
    stored.tier.clear();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.insert_or_assign(Key(content_hash, kind),
                                   std::move(stored));
}

TieredMappingStore::Stats
TieredMappingStore::stats() const
{
    Stats s;
    s.memoryHits = memory_hits_.load(std::memory_order_relaxed);
    s.backingHits = backing_hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.promotions = promotions_.load(std::memory_order_relaxed);
    s.entries = entryCount();
    return s;
}

std::vector<std::pair<uint64_t, std::string>>
TieredMappingStore::keys() const
{
    std::vector<Key> out;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto &[key, entry] : shard.entries)
            out.push_back(key);
    }
    std::sort(out.begin(), out.end());
    return out;
}

size_t
TieredMappingStore::entryCount() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.entries.size();
    }
    return n;
}

void
TieredMappingStore::clearMemory()
{
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.clear();
    }
}

} // namespace hatt
