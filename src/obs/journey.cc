#include "obs/journey.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/rng.h"

namespace simr::obs
{

JourneyMode
journeyModeFromName(const std::string &name)
{
    if (name == "off")
        return JourneyMode::Off;
    if (name == "sampled")
        return JourneyMode::Sampled;
    if (name == "all")
        return JourneyMode::All;
    simr_fatal("journey mode '%s': expected off|sampled|all",
               name.c_str());
}

const char *
journeyModeName(JourneyMode m)
{
    switch (m) {
      case JourneyMode::Off: return "off";
      case JourneyMode::Sampled: return "sampled";
      case JourneyMode::All: return "all";
    }
    return "?";
}

const char *
stageName(JStage s)
{
    switch (s) {
      case JStage::Arrival: return "arrival";
      case JStage::BatchFormed: return "batch-formed";
      case JStage::TierEnqueue: return "enqueue";
      case JStage::TierStart: return "service-start";
      case JStage::TierDone: return "service-done";
      case JStage::ReconvJoin: return "reconv-join";
      case JStage::Completion: return "completion";
      case JStage::CacheOutcome: return "cache-outcome";
      case JStage::SplitRetry: return "split-retry";
    }
    return "?";
}

JourneyRecorder::JourneyRecorder(JourneyMode mode, size_t capacity,
                                 uint64_t seed)
    : mode_(mode), capacity_(capacity ? capacity : 1), seed_(seed)
{}

void
JourneyRecorder::admit(Journey &&j, uint64_t key)
{
    if (mode_ == JourneyMode::Off)
        return;
    if (mode_ == JourneyMode::All) {
        log_.push_back(std::move(j));
        return;
    }
    keep({key, std::move(j)});
}

void
JourneyRecorder::keep(Entry &&e)
{
    auto by_key_min = [](const Entry &a, const Entry &b) {
        return a.key > b.key;   // min-heap on key
    };
    if (heap_.size() >= capacity_) {
        if (e.key <= heap_.front().key)
            return;             // spurious accept at the threshold; drop
        std::pop_heap(heap_.begin(), heap_.end(), by_key_min);
        heap_.pop_back();
    }
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), by_key_min);
    if (heap_.size() >= capacity_) {
        thr_ = heap_.front().key;
        inv53_ = thr_ ? 0x1.0p53 / std::bit_cast<double>(thr_) : 0.0;
    }
}

void
JourneyRecorder::merge(JourneyRecorder &&o)
{
    simr_assert(o.mode_ == mode_ && o.seed_ == seed_,
                "merged journey recorders must share mode and seed");
    seen_ += o.seen_;
    for (Journey &j : o.log_)
        log_.push_back(std::move(j));
    for (Entry &e : o.heap_)
        keep(std::move(e));
    o.clear();
}

std::vector<Journey>
JourneyRecorder::snapshot() const
{
    std::vector<Journey> out = log_;
    out.reserve(out.size() + heap_.size());
    for (const Entry &e : heap_)
        out.push_back(e.journey);
    std::sort(out.begin(), out.end(),
              [](const Journey &a, const Journey &b) {
                  return a.reqId < b.reqId;
              });
    return out;
}

void
JourneyRecorder::clear()
{
    heap_.clear();
    log_.clear();
    seen_ = 0;
    thr_ = 0;
    inv53_ = 0;
}

} // namespace simr::obs
