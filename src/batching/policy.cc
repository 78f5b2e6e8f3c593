#include "batching/policy.h"

#include <algorithm>
#include <cstddef>
#include <map>

#include "common/logging.h"
#include "obs/trace.h"

namespace simr::batch
{

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::Naive: return "naive";
      case Policy::PerApi: return "per-api";
      case Policy::PerApiArgSize: return "per-api+arg";
    }
    return "?";
}

uint64_t
BatchingServer::keyOf(const svc::Request &r) const
{
    switch (policy_) {
      case Policy::Naive:
        return 0;
      case Policy::PerApi:
        return static_cast<uint64_t>(r.api);
      case Policy::PerApiArgSize:
        return static_cast<uint64_t>(r.api);
    }
    return 0;
}

std::vector<Batch>
BatchingServer::formBatches(const std::vector<svc::Request> &arrivals) const
{
    simr_assert(batchSize_ >= 1, "batch size must be positive");

    // Accumulate per-key open groups; emit each as it fills. Ordered
    // map keeps output deterministic across platforms. Under the
    // per-API+argument-size policy, each API's group is additionally
    // kept sorted by argument length over an arrival window of a few
    // batches ("similar argument/query length"), so a heavy-tailed
    // length distribution still yields full, homogeneous batches.
    const size_t window = static_cast<size_t>(batchSize_) * 16;
    std::vector<Batch> out;
    std::map<uint64_t, std::vector<svc::Request>> open;

    auto drain = [&](std::vector<svc::Request> &buf, bool flush) {
        if (policy_ == Policy::PerApiArgSize) {
            std::stable_sort(buf.begin(), buf.end(),
                             [](const svc::Request &a,
                                const svc::Request &b) {
                                 return a.argLen < b.argLen;
                             });
        }
        size_t i = 0;
        while (buf.size() - i >= static_cast<size_t>(batchSize_) ||
               (flush && i < buf.size())) {
            Batch b;
            size_t take = std::min(buf.size() - i,
                                   static_cast<size_t>(batchSize_));
            for (size_t k = 0; k < take; ++k)
                b.requests.push_back(buf[i + k]);
            i += take;
            out.push_back(std::move(b));
        }
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(i));
    };

    for (const auto &r : arrivals) {
        auto &buf = open[keyOf(r)];
        buf.push_back(r);
        if (policy_ == Policy::PerApiArgSize) {
            if (buf.size() >= window)
                drain(buf, false);
        } else if (static_cast<int>(buf.size()) == batchSize_) {
            drain(buf, false);
        }
    }
    // Timeout: flush the partial leftovers in key order.
    for (auto &[key, buf] : open) {
        (void)key;
        drain(buf, true);
    }

    // Observability: batch-formation metrics into the scoped registry,
    // plus one span per formed batch on the batching track (virtual
    // time: one batch = one microsecond slot).
    obs::Registry *reg = obs::Scope::registry();
    obs::Counter *formed = reg->counter("batch.formed");
    obs::Counter *partial = reg->counter("batch.partial");
    obs::Hist *fill = reg->hist("batch.fill");
    formed->inc(out.size());
    for (const auto &b : out) {
        if (b.size() < batchSize_)
            partial->inc();
        fill->add(static_cast<double>(b.size()));
    }
    if (obs::Tracer *tr = obs::Scope::tracer()) {
        for (size_t i = 0; i < out.size(); ++i) {
            const Batch &b = out[i];
            tr->complete(
                "batch " + std::to_string(i), "batching",
                static_cast<double>(i), 1.0, 0, 0,
                {{"size", obs::jnum(static_cast<uint64_t>(b.size()))},
                 {"api", obs::jnum(static_cast<uint64_t>(
                      b.requests.empty() ? 0 : b.requests.front().api))},
                 {"policy", obs::jstr(policyName(policy_))}});
        }
    }
    return out;
}

} // namespace simr::batch
