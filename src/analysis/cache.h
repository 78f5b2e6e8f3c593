/**
 * @file
 * Process-wide analysis cache: one analyzer Report + StaticProof per
 * program content fingerprint. Runner entry points (measureEfficiency,
 * runFrontEnd, runTiming) and every cell of a sweep re-gate the same
 * service programs; the full analysis (CFG, dominators, two dataflow
 * fixpoints) is pure in the program content, so it is computed once and
 * shared.
 */

#ifndef SIMR_ANALYSIS_CACHE_H
#define SIMR_ANALYSIS_CACHE_H

#include <memory>
#include <mutex>
#include <unordered_map>

#include "analysis/diag.h"
#include "isa/program.h"
#include "trace/proof.h"

namespace simr::analysis
{

/** Everything the analyzer derives from one program, shareable. */
struct CachedAnalysis
{
    uint64_t fingerprint = 0;  ///< trace::ProgramIndex content hash
    Report report;
    std::shared_ptr<const trace::StaticProof> proof;  ///< null unless ok
};

/** Fingerprint-keyed store of analysis results. Thread-safe. */
class AnalysisCache
{
  public:
    /**
     * The process-wide cache (never null). Leaked singleton, same
     * lifetime contract as TraceCache::process().
     */
    static AnalysisCache *process();

    /** Analysis for `prog`, computing and retaining it on first use. */
    std::shared_ptr<const CachedAnalysis> get(const isa::Program &prog);

    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t entries() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_ptr<const CachedAnalysis>>
        map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** Analyze `prog` (uncached): Report plus proof when the report is ok. */
std::shared_ptr<const CachedAnalysis>
analyzeAndProve(const isa::Program &prog);

/**
 * Cached gate: fatal (like gateOrDie) when `prog` carries error
 * findings, otherwise returns the shared analysis with its StaticProof.
 */
std::shared_ptr<const CachedAnalysis>
gateAndProve(const isa::Program &prog);

} // namespace simr::analysis

#endif // SIMR_ANALYSIS_CACHE_H
