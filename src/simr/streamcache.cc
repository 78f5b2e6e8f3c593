#include "simr/streamcache.h"

#include "common/config.h"
#include "common/logging.h"
#include "trace/compile.h"

namespace simr
{

StreamCache::StreamCache(size_t budget_bytes)
    : budget_(budget_bytes)
{
}

StreamCache::~StreamCache() = default;

bool
StreamCache::lookup(const std::string &key, StreamEntry *out)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++misses_;
        return false;
    }
    Entry &e = it->second;
    touch(e);
    ++hits_;
    ++e.hits;
    // Compile on the second hit: the first hit proved the cell
    // re-runs, so the lowering cost amortizes. The
    // entry was just touched to the LRU back, so eviction below can
    // never free it.
    if (e.payload.compiled == nullptr && e.hits >= 2) {
        e.payload.compiled = trace::compileStream(e.payload.trace);
        bytes_ += e.payload.compiled->byteSize();
        compiledBytes_ += e.payload.compiled->byteSize();
        ++compiledEntries_;
        evictOverBudget();
    }
    *out = e.payload;
    return true;
}

void
StreamCache::insert(const std::string &key, StreamEntry entry)
{
    if (!entry.trace)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // A concurrent worker captured the same cell first; keep its
        // copy so every holder keeps sharing one allocation.
        touch(it->second);
        return;
    }
    lru_.push_back(key);
    Entry e{std::move(entry), 0, std::prev(lru_.end())};
    bytes_ += e.payload.trace->byteSize();
    if (e.payload.compiled != nullptr) {
        bytes_ += e.payload.compiled->byteSize();
        compiledBytes_ += e.payload.compiled->byteSize();
        ++compiledEntries_;
    }
    map_.emplace(key, std::move(e));
    evictOverBudget();
}

void
StreamCache::touch(Entry &e)
{
    lru_.splice(lru_.end(), lru_, e.lru);
}

void
StreamCache::evictOverBudget()
{
    // Never evict the hottest entry (usually the one just inserted):
    // a budget smaller than one stream must not thrash the insert path.
    while (bytes_ > budget_ && lru_.size() > 1) {
        auto it = map_.find(lru_.front());
        simr_assert(it != map_.end(), "LRU entry missing from the map");
        bytes_ -= it->second.payload.trace->byteSize();
        if (it->second.payload.compiled != nullptr) {
            bytes_ -= it->second.payload.compiled->byteSize();
            compiledBytes_ -= it->second.payload.compiled->byteSize();
            --compiledEntries_;
        }
        map_.erase(it);
        lru_.pop_front();
        ++evictions_;
    }
}

void
StreamCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
    compiledEntries_ = 0;
    compiledBytes_ = 0;
}

uint64_t
StreamCache::bytesResident() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

uint64_t
StreamCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

uint64_t
StreamCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

uint64_t
StreamCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
StreamCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

uint64_t
StreamCache::compiledEntries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return compiledEntries_;
}

uint64_t
StreamCache::compiledBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return compiledBytes_;
}

StreamCache *
StreamCache::process()
{
    // Leaked singleton, same lifetime story as TraceCache::process():
    // worker threads may consult the cache during teardown, so it is
    // never destructed. SIMR_TRACE_CACHE=0 disables all trace reuse,
    // stream level included.
    static StreamCache *cache = []() -> StreamCache * {
        if (envInt("SIMR_TRACE_CACHE", 1) == 0)
            return nullptr;
        size_t mb = static_cast<size_t>(
            envInt("SIMR_STREAM_CACHE_MB",
                   static_cast<int64_t>(kDefaultBudget >> 20), 0));
        return new StreamCache(mb << 20);
    }();
    return cache;
}

} // namespace simr
