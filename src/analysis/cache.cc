#include "analysis/cache.h"

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "common/logging.h"
#include "trace/capture.h"

namespace simr::analysis
{

std::shared_ptr<const CachedAnalysis>
analyzeAndProve(const isa::Program &prog)
{
    auto entry = std::make_shared<CachedAnalysis>();
    entry->report = analyze(prog);
    if (entry->report.ok()) {
        // A laid-out, structurally valid program: the fingerprint and
        // the proof's flat tables are both well defined.
        entry->fingerprint = trace::ProgramIndex(prog).fingerprint();
        entry->proof = buildStaticProof(prog, entry->report.dataflow);
    }
    return entry;
}

AnalysisCache *
AnalysisCache::process()
{
    // Leaked singleton: see TraceCache::process() for the rationale.
    static AnalysisCache *cache = new AnalysisCache();
    return cache;
}

std::shared_ptr<const CachedAnalysis>
AnalysisCache::get(const isa::Program &prog)
{
    uint64_t fp = trace::ProgramIndex(prog).fingerprint();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(fp);
        if (it != map_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Analyze outside the lock: fixpoints are slow and pure, and two
    // racing workers computing the same entry is harmless (one wins).
    std::shared_ptr<const CachedAnalysis> entry = analyzeAndProve(prog);
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    auto [it, inserted] = map_.emplace(fp, std::move(entry));
    (void)inserted;
    return it->second;
}

uint64_t
AnalysisCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
AnalysisCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

uint64_t
AnalysisCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::shared_ptr<const CachedAnalysis>
gateAndProve(const isa::Program &prog)
{
    std::shared_ptr<const CachedAnalysis> entry =
        AnalysisCache::process()->get(prog);
    const Report &r = entry->report;
    if (r.ok())
        return entry;
    for (const auto &d : r.diags)
        if (d.sev == Severity::Error)
            simr_warn("analysis: %s: %s", prog.name().c_str(),
                      d.str().c_str());
    simr_fatal("analysis: program '%s' has %d error finding(s); refusing "
               "to simulate an ill-formed program", prog.name().c_str(),
               r.errors());
}

} // namespace simr::analysis
