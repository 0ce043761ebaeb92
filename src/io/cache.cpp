#include "io/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

namespace {

constexpr int kCacheVersion = 1;
/** v2 adds the advisory "quarantined" file count; v1 indexes load. */
constexpr int kIndexVersion = 2;
constexpr const char *kIndexFile = "index.json";
constexpr const char *kLockFile = ".lock";
constexpr const char *kQuarantineDir = "quarantine";
/** Temp files from interrupted writers older than this are gc()'d. */
constexpr int64_t kTmpMaxAgeSeconds = 3600;

int64_t
wallClockNow()
{
    return static_cast<int64_t>(std::time(nullptr));
}

/** stat() a file; false when it vanished (concurrent eviction). */
bool
statFile(const std::string &path, uint64_t &size, int64_t &mtime)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    size = static_cast<uint64_t>(st.st_size);
    mtime = static_cast<int64_t>(st.st_mtime);
    return true;
}

bool
isTmpFile(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

bool isEntryFile(const std::string &name);

bool
isDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (c < '0' || c > '9')
            return false;
    return true;
}

/**
 * A temp file THIS cache's writers create: an entry-file or index name
 * plus ".tmp.<pid>.<counter>". gc() deletes only these — a mistargeted
 * directory's unrelated "*.tmp.*" files are not cache debris.
 */
bool
isCacheTmpFile(const std::string &name)
{
    const size_t pos = name.find(".tmp.");
    if (pos == std::string::npos)
        return false;
    const std::string base = name.substr(0, pos);
    if (base != kIndexFile && !isEntryFile(base))
        return false;
    const std::string rest = name.substr(pos + 5);
    const size_t dot = rest.find('.');
    if (dot == std::string::npos)
        return false;
    return isDigits(rest.substr(0, dot)) && isDigits(rest.substr(dot + 1));
}

/**
 * An entry file matches exactly the names store() creates:
 * <16 lowercase hex>-<kind>.json. Anything else in the directory —
 * index.json, temp files, and above all unrelated user files when the
 * cache path is mistargeted at an output directory — is never treated
 * (or deleted!) as a cache entry.
 */
bool
isEntryFile(const std::string &name)
{
    constexpr size_t hex = 16;
    constexpr const char *suffix = ".json";
    constexpr size_t suffix_len = 5;
    if (isTmpFile(name) || name.size() < hex + 1 + 1 + suffix_len)
        return false;
    for (size_t i = 0; i < hex; ++i) {
        const char c = name[i];
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    if (name[hex] != '-')
        return false;
    if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0)
        return false;
    // A non-empty kind between the dash and the extension.
    return name.size() - suffix_len > hex + 1;
}

/**
 * Advisory writer lock on <dir>/.lock: flock(LOCK_EX) with bounded
 * retry (8 attempts, 1 ms doubling to 128 ms). Exhausting the retries
 * is NOT an error — entry publication is an atomic rename, so the lock
 * only serializes writers to reduce tmp-file churn and index races; a
 * wedged or dead lock holder must never stall compilation.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
    {
        // The wait is pure scheduling noise, so it is a volatile
        // timing, never a deterministic counter.
        Timer wait;
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0)
            return; // unwritable dir: store() will surface the real error
        int delay_ms = 1;
        for (int attempt = 0; attempt < 8; ++attempt) {
            if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
                locked_ = true;
                if (attempt > 0)
                    trace::instant("cache", "lock_contended");
                metrics::observe("cache.lock_wait_seconds",
                                 wait.seconds());
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
            delay_ms *= 2;
        }
        trace::instant("cache", "lock_timeout");
        metrics::observe("cache.lock_wait_seconds", wait.seconds());
    }

    ~FileLock()
    {
        if (fd_ < 0)
            return;
        if (locked_)
            ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd_ = -1;
    bool locked_ = false;
};

/** Best-effort directory fsync: makes a completed rename durable. */
void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

MappingCache::MappingCache(std::string dir) : dir_(std::move(dir)) {}

MappingCache::~MappingCache()
{
    // Only flush when this instance actually used the cache: read-only
    // inspection (`hattc cache list`) must not rewrite index.json — a
    // --check that failed would otherwise repair the drift it just
    // reported.
    {
        std::lock_guard<std::mutex> lock(uses_mutex_);
        if (pending_uses_.empty())
            return;
    }
    try {
        flushIndex();
    } catch (...) {
        // Best effort: the index is advisory; never throw from a dtor.
    }
}

std::string
MappingCache::entryPath(uint64_t content_hash,
                        const std::string &kind) const
{
    return (fs::path(dir_) / (hashToHex(content_hash) + "-" + kind +
                              ".json"))
        .string();
}

std::string
MappingCache::indexPath() const
{
    return (fs::path(dir_) / kIndexFile).string();
}

void
MappingCache::recordUse(const std::string &file) const
{
    const int64_t now = wallClockNow();
    std::lock_guard<std::mutex> lock(uses_mutex_);
    int64_t &slot = pending_uses_[file];
    slot = std::max(slot, now);
}

std::optional<CachedMapping>
MappingCache::lookup(uint64_t content_hash, const std::string &kind) const
{
    trace::Span span("cache", "lookup");
    const std::string path = entryPath(content_hash, kind);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return std::nullopt;

    // A cache is an accelerator, never a correctness dependency: a
    // truncated or corrupt entry (interrupted writer, bit rot) is
    // treated as a miss so the caller recomputes — it must not kill a
    // whole batch run. The damaged file is moved into quarantine/ so it
    // is never re-read, stays available for post-mortem until the next
    // gc(), and the recompute's store() recreates a clean entry. A
    // key-mismatched entry (hash collision) is healthy and stays put.
    try {
        JsonValue doc = loadJsonFile(path);
        // Injection point: an entry that reads back damaged (torn
        // write, bit rot) despite parsing — drives the quarantine path
        // on otherwise healthy files. Fail models a transient read
        // error: a plain miss, entry left in place.
        switch (fault::at("cache.read")) {
          case fault::Action::Throw:
            throw ParseError("fault injected: cache.read");
          case fault::Action::Fail: return std::nullopt;
          case fault::Action::None: break;
        }
        checkEnvelope(doc, "hatt-cache", kCacheVersion);
        if (doc.at("content_hash").asString() != hashToHex(content_hash) ||
            doc.at("kind").asString() != kind)
            return std::nullopt;

        CachedMapping hit;
        hit.mapping = mappingFromJson(doc.at("mapping"));
        if (const JsonValue *tree = doc.find("tree"))
            hit.tree = treeFromJson(*tree);
        if (const JsonValue *cand = doc.find("candidates"))
            if (cand->isNumber())
                hit.candidates = static_cast<uint64_t>(
                    cand->asInt(0, INT64_MAX));
        recordUse(fs::path(path).filename().string());
        return hit;
    } catch (const std::exception &) {
        // ParseError from the loader/validators, or std::invalid_argument
        // from PauliString reconstruction on mangled labels.
        quarantineEntry(path);
        return std::nullopt;
    }
}

std::string
MappingCache::quarantinePath() const
{
    return (fs::path(dir_) / kQuarantineDir).string();
}

void
MappingCache::quarantineEntry(const std::string &path) const
{
    const std::string name = fs::path(path).filename().string();
    metrics::add("cache.quarantined");
    trace::instant("cache", "quarantine:" + name);
    std::error_code ec;
    fs::create_directories(quarantinePath(), ec);
    if (!ec) {
        // Re-quarantining the same name overwrites the earlier copy:
        // the newest damage is the interesting one.
        fs::rename(path, fs::path(quarantinePath()) / name, ec);
    }
    if (ec)
        fs::remove(path, ec); // can't move it aside: drop it instead
    std::lock_guard<std::mutex> lock(uses_mutex_);
    quarantined_.insert(name);
}

size_t
MappingCache::quarantinedCount() const
{
    std::error_code ec;
    if (!fs::is_directory(quarantinePath(), ec))
        return 0;
    size_t count = 0;
    for (const fs::directory_entry &de :
         fs::directory_iterator(quarantinePath(), ec))
        if (de.is_regular_file(ec))
            ++count;
    return count;
}

bool
MappingCache::wasQuarantined(uint64_t content_hash,
                             const std::string &kind) const
{
    const std::string name =
        hashToHex(content_hash) + "-" + kind + ".json";
    std::lock_guard<std::mutex> lock(uses_mutex_);
    return quarantined_.count(name) != 0;
}

void
MappingCache::store(uint64_t content_hash, const std::string &kind,
                    const FermionQubitMapping &mapping,
                    const TernaryTree *tree,
                    std::optional<uint64_t> candidates)
{
    trace::Span span("cache", "store");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw ParseError("cannot create cache directory " + dir_ + ": " +
                         ec.message());

    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-cache");
    doc.add("version", kCacheVersion);
    doc.add("content_hash", hashToHex(content_hash));
    doc.add("kind", kind);
    doc.add("mapping", mappingToJson(mapping));
    if (tree)
        doc.add("tree", treeToJson(*tree));
    if (candidates)
        doc.add("candidates", *candidates);

    // Serialize concurrent writers (advisory, best-effort on
    // contention — see FileLock).
    FileLock lock((fs::path(dir_) / kLockFile).string());

    // Atomic, durable publish: write a writer-unique temp file in the
    // same directory, fsync it, rename over the entry, fsync the
    // directory — concurrent writers of the same key each publish a
    // complete file, last rename wins, and a power cut can only leave
    // the old entry or the new one, never a torn file under the live
    // name.
    static std::atomic<uint64_t> counter{0};
    const std::string path = entryPath(content_hash, kind);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(counter.fetch_add(1));
    // Injection point: Throw dies before touching disk; Fail dies
    // between the temp write and the publish rename, leaving exactly
    // the debris an interrupted writer would (gc() cleans it up).
    const fault::Action write_fault = fault::at("cache.write");
    if (write_fault == fault::Action::Throw)
        throw ParseError("cannot write cache entry " + path +
                         " (fault injected: cache.write)");
    saveJsonFileDurable(tmp, doc);
    if (write_fault == fault::Action::Fail)
        throw ParseError("cannot publish cache entry " + path +
                         " (fault injected: cache.write)");
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        throw ParseError("cannot publish cache entry " + path);
    }
    fsyncDir(dir_);
    metrics::add("cache.stores");
    recordUse(fs::path(path).filename().string());
}

std::optional<MappingStore::Entry>
MappingCache::load(uint64_t content_hash, const std::string &kind)
{
    std::optional<CachedMapping> hit = lookup(content_hash, kind);
    if (!hit)
        return std::nullopt;
    MappingStore::Entry entry;
    entry.mapping = std::move(hit->mapping);
    entry.tree = std::move(hit->tree);
    entry.candidates = hit->candidates;
    entry.tier = "disk";
    return entry;
}

void
MappingCache::save(uint64_t content_hash, const std::string &kind,
                   const MappingStore::Entry &entry)
{
    // The registry-facing cache is strictly advisory: the mapping was
    // already computed, so a failed persist (full disk, injected
    // cache.write fault) must not fail the build that produced it.
    // Direct store() callers still see the ParseError.
    try {
        store(content_hash, kind, entry.mapping,
              entry.tree ? &*entry.tree : nullptr, entry.candidates);
    } catch (const std::exception &) {
    }
}

std::vector<CacheIndexEntry>
MappingCache::loadIndex() const
{
    std::vector<CacheIndexEntry> entries;
    std::error_code ec;
    if (!fs::exists(indexPath(), ec))
        return entries;
    try {
        JsonValue doc = loadJsonFile(indexPath());
        checkEnvelope(doc, "hatt-cache-index", kIndexVersion);
        for (const JsonValue &rec : doc.at("entries").asArray()) {
            CacheIndexEntry e;
            e.file = rec.at("file").asString();
            e.size = static_cast<uint64_t>(
                rec.at("size").asInt(0, INT64_MAX));
            e.lastUsed = rec.at("last_used").asInt();
            entries.push_back(std::move(e));
        }
    } catch (const std::exception &) {
        // Advisory data: a damaged index reads as empty and is replaced
        // wholesale by the next flushIndex()/gc().
        entries.clear();
    }
    return entries;
}

std::map<std::string, int64_t>
MappingCache::takeUses() const
{
    std::map<std::string, int64_t> uses;
    std::lock_guard<std::mutex> lock(uses_mutex_);
    uses.swap(pending_uses_);
    return uses;
}

void
MappingCache::restoreUses(const std::map<std::string, int64_t> &uses) const
{
    std::lock_guard<std::mutex> lock(uses_mutex_);
    for (const auto &[file, when] : uses) {
        int64_t &slot = pending_uses_[file];
        slot = std::max(slot, when);
    }
}

std::vector<CacheIndexEntry>
MappingCache::scanEntries() const
{
    return scanEntries(loadIndex());
}

std::vector<CacheIndexEntry>
MappingCache::scanEntries(const std::vector<CacheIndexEntry> &index) const
{
    std::map<std::string, int64_t> uses;
    {
        // Copy, then release: the scan does file I/O and must not block
        // concurrent lookup()/store() usage recording.
        std::lock_guard<std::mutex> lock(uses_mutex_);
        uses = pending_uses_;
    }
    return scanMerged(uses, index);
}

std::vector<CacheIndexEntry>
MappingCache::scanMerged(const std::map<std::string, int64_t> &uses,
                         const std::vector<CacheIndexEntry> &index) const
{
    std::map<std::string, int64_t> last_used;
    for (const CacheIndexEntry &e : index)
        last_used[e.file] = e.lastUsed;
    for (const auto &[file, when] : uses) {
        int64_t &slot = last_used[file];
        slot = std::max(slot, when);
    }

    std::vector<CacheIndexEntry> entries;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (!isEntryFile(name))
            continue;
        CacheIndexEntry e;
        e.file = name;
        int64_t mtime = 0;
        if (!statFile(de.path().string(), e.size, mtime))
            continue; // concurrently evicted
        auto it = last_used.find(name);
        // mtime is the floor: an entry no run has touched since the
        // index was last written still ages from its creation time.
        e.lastUsed = it == last_used.end() ? mtime
                                           : std::max(it->second, mtime);
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CacheIndexEntry &a, const CacheIndexEntry &b) {
                  return a.file < b.file;
              });
    return entries;
}

namespace {

void
writeIndexFile(const std::string &dir, const std::string &index_path,
               const std::vector<CacheIndexEntry> &entries,
               size_t quarantined)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-cache-index");
    doc.add("version", kIndexVersion);
    doc.add("quarantined", static_cast<uint64_t>(quarantined));
    JsonValue arr = JsonValue::array();
    for (const CacheIndexEntry &e : entries) {
        JsonValue rec = JsonValue::object();
        rec.add("file", e.file);
        rec.add("size", e.size);
        rec.add("last_used", e.lastUsed);
        arr.push(std::move(rec));
    }
    doc.add("entries", std::move(arr));

    // Same discipline as entry publication: locked writers, fsync'd
    // temp, atomic rename (the index is advisory, but a torn index
    // would masquerade as drift to --check).
    FileLock lock((fs::path(dir) / kLockFile).string());
    static std::atomic<uint64_t> counter{0};
    const std::string tmp = index_path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1));
    saveJsonFileDurable(tmp, doc);
    std::error_code ec;
    fs::rename(tmp, index_path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        throw ParseError("cannot publish cache index in " + dir);
    }
    fsyncDir(dir);
}

} // namespace

void
MappingCache::flushIndex()
{
    std::error_code ec;
    if (!fs::is_directory(dir_, ec))
        return; // nothing stored yet; keep the usage log for later
    // Snapshot-and-swap: a lookup()/store() racing this flush lands its
    // usage record in the (now empty) log for the NEXT flush instead of
    // being silently discarded by a clear-after-write.
    std::map<std::string, int64_t> uses = takeUses();
    try {
        writeIndexFile(dir_, indexPath(), scanMerged(uses, loadIndex()),
                       quarantinedCount());
    } catch (...) {
        restoreUses(uses);
        throw;
    }
}

bool
MappingCache::indexConsistent() const
{
    std::vector<CacheIndexEntry> index = loadIndex();
    std::vector<CacheIndexEntry> disk = scanEntries(index);
    return entriesMatch(std::move(index), disk);
}

bool
MappingCache::entriesMatch(std::vector<CacheIndexEntry> index,
                           const std::vector<CacheIndexEntry> &disk)
{
    if (index.size() != disk.size())
        return false;
    std::sort(index.begin(), index.end(),
              [](const CacheIndexEntry &a, const CacheIndexEntry &b) {
                  return a.file < b.file;
              });
    for (size_t i = 0; i < disk.size(); ++i)
        if (index[i].file != disk[i].file || index[i].size != disk[i].size)
            return false;
    return true;
}

CacheGcStats
MappingCache::gc(const CacheGcOptions &options)
{
    CacheGcStats stats;
    std::error_code ec;
    if (!fs::is_directory(dir_, ec))
        return stats;

    const int64_t now = options.now ? *options.now : wallClockNow();

    // Purge quarantined entries: files lookup() moved aside are kept
    // for post-mortem only until the next gc pass.
    if (fs::is_directory(quarantinePath(), ec)) {
        for (const fs::directory_entry &de :
             fs::directory_iterator(quarantinePath(), ec)) {
            std::error_code rec;
            if (fs::remove(de.path(), rec))
                ++stats.quarantinePurged;
        }
    }

    // Clear crash debris: temp files an interrupted cache writer left
    // behind (and only those — see isCacheTmpFile). Live writers publish
    // within milliseconds, so an hour-old temp is never in flight.
    // Judged against the same `now` as the age policy, so an injected
    // clock governs the whole pass.
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (!isCacheTmpFile(name))
            continue;
        uint64_t size = 0;
        int64_t mtime = 0;
        if (statFile(de.path().string(), size, mtime) &&
            now - mtime > kTmpMaxAgeSeconds)
            fs::remove(de.path(), ec);
    }

    // Snapshot-and-swap the usage log (see flushIndex): records arriving
    // after this point land in the next flush instead of being dropped.
    std::map<std::string, int64_t> uses = takeUses();
    std::vector<CacheIndexEntry> entries = scanMerged(uses, loadIndex());
    stats.entries = entries.size();
    for (const CacheIndexEntry &e : entries)
        stats.bytesBefore += e.size;

    // Age policy first, then LRU down to the byte budget. Oldest
    // last-used evicts first; equal times break by file name so a gc
    // pass is deterministic given the same directory state.
    std::vector<CacheIndexEntry> keep;
    std::vector<CacheIndexEntry> evict;
    for (CacheIndexEntry &e : entries) {
        if (options.maxAgeSeconds &&
            now - e.lastUsed > *options.maxAgeSeconds)
            evict.push_back(std::move(e));
        else
            keep.push_back(std::move(e));
    }
    if (options.maxBytes) {
        std::sort(keep.begin(), keep.end(),
                  [](const CacheIndexEntry &a, const CacheIndexEntry &b) {
                      return a.lastUsed != b.lastUsed
                                 ? a.lastUsed < b.lastUsed
                                 : a.file < b.file;
                  });
        uint64_t total = 0;
        for (const CacheIndexEntry &e : keep)
            total += e.size;
        size_t next = 0;
        while (total > *options.maxBytes && next < keep.size()) {
            total -= keep[next].size;
            evict.push_back(std::move(keep[next]));
            ++next;
        }
        keep.erase(keep.begin(),
                   keep.begin() + static_cast<ptrdiff_t>(next));
        // (keep is re-sorted by file name below, after the evict loop.)
    }

    for (CacheIndexEntry &e : evict) {
        std::error_code rec;
        fs::remove(fs::path(dir_) / e.file, rec);
        if (rec) {
            // Couldn't delete (permissions, pinned file): the entry is
            // still on disk, so it stays in the index — dropping it
            // would manufacture exactly the drift --check exists to
            // catch — and is not counted as evicted.
            keep.push_back(std::move(e));
        } else {
            ++stats.evicted;
        }
    }
    std::sort(keep.begin(), keep.end(),
              [](const CacheIndexEntry &a, const CacheIndexEntry &b) {
                  return a.file < b.file;
              });
    for (const CacheIndexEntry &e : keep)
        stats.bytesAfter += e.size;

    try {
        writeIndexFile(dir_, indexPath(), keep, quarantinedCount());
    } catch (...) {
        restoreUses(uses);
        throw;
    }
    return stats;
}

} // namespace hatt::io
