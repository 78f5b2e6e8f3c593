#include "trace/stream.h"

namespace simr::trace
{

ScalarStream::ScalarStream(const isa::Program &prog,
                           RequestProvider provider, TraceCache *cache)
    : pi_(prog), lane_(pi_, 1, cache), provider_(std::move(provider))
{
}

bool
ScalarStream::next(DynOp &op)
{
    if (lane_.retired(0)) {
        if (!provider_ || !provider_(init_))
            return false;
        if (lane_.launch(&init_, 1) == 0)
            return false;
    }
    op.batchStart = lane_.opCount() == 0;
    op.mask = 1;
    op.pathSwitch = false;
    lane_.step(1, op);
    if (op.endMask != 0)
        ++completed_;
    return true;
}

} // namespace simr::trace
