#include "simr/streamcache.h"

#include "common/logging.h"

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
    Entry e{std::move(entry), std::prev(lru_.end())};
    bytes_ += e.payload.trace->byteSize();
    ops_ += e.payload.trace->opCount();
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
        ops_ -= it->second.payload.trace->opCount();
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
    ops_ = 0;
}

uint64_t
StreamCache::bytesResident() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

uint64_t
StreamCache::opsResident() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
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

StreamCache *
StreamCache::process()
{
    // Leaked singleton, same lifetime story as TraceCache::process():
    // worker threads may consult the cache during teardown, so it is
    // never destructed.
    static StreamCache *cache = new StreamCache();
    return cache;
}

} // namespace simr
