#include "trace/capture.h"

#include <new>

#include "common/logging.h"
#include "common/rng.h"
#include "isa/builder.h"

namespace simr::trace
{

using isa::AluKind;
using isa::Op;
using isa::StaticInst;

// ---------------------------------------------------------------------------
// ProgramIndex

ProgramIndex::ProgramIndex(const isa::Program &prog)
    : prog_(&prog), codeBase_(prog.codeBase())
{
    simr_assert(prog.laidOut(), "indexing a program before layout");
    insts_.reserve(prog.staticInstCount());
    blockOf_.reserve(prog.staticInstCount());
    idxInBlock_.reserve(prog.staticInstCount());
    memSize_.reserve(prog.staticInstCount());

    uint64_t h = mix64(0x7ace'cafe ^ prog.staticInstCount());
    for (int b = 0; b < prog.numBlocks(); ++b) {
        const isa::BasicBlock &bb = prog.block(b);
        simr_assert(prog.blockPc(b) ==
                        codeBase_ + insts_.size() * isa::kInstBytes,
                    "program PCs are not contiguous");
        h = mix64(h ^ static_cast<uint64_t>(bb.fallthrough) ^
                  (static_cast<uint64_t>(b) << 32));
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const StaticInst &si = bb.insts[i];
            insts_.push_back(&si);
            blockOf_.push_back(b);
            idxInBlock_.push_back(static_cast<uint32_t>(i));
            memSize_.push_back(isa::opInfo(si.op).isMem ? si.accessSize : 0);
            uint64_t w1 = static_cast<uint64_t>(si.op) |
                (static_cast<uint64_t>(si.alu) << 8) |
                (static_cast<uint64_t>(si.cmp) << 16) |
                (static_cast<uint64_t>(si.dst) << 24) |
                (static_cast<uint64_t>(si.src1) << 32) |
                (static_cast<uint64_t>(si.src2) << 40) |
                (static_cast<uint64_t>(si.accessSize) << 48);
            uint64_t w2 = static_cast<uint64_t>(si.imm);
            uint64_t w3 = (static_cast<uint64_t>(
                               static_cast<uint32_t>(si.targetBlock))) |
                (static_cast<uint64_t>(
                     static_cast<uint32_t>(si.funcId)) << 32);
            uint64_t w4 = static_cast<uint64_t>(
                              static_cast<uint32_t>(si.reconvBlock)) |
                (static_cast<uint64_t>(si.sys) << 32);
            h = mix64(h ^ w1);
            h = mix64(h ^ w2);
            h = mix64(h ^ w3);
            h = mix64(h ^ w4);
        }
    }
    for (int f = 0; f < prog.numFunctions(); ++f) {
        const isa::Function &fn = prog.func(f);
        h = mix64(h ^ std::hash<std::string>{}(fn.name));
        h = mix64(h ^ static_cast<uint64_t>(fn.entry));
    }
    h = mix64(h ^ codeBase_);
    fingerprint_ = h;
}

// ---------------------------------------------------------------------------
// TaintTracker

void
TaintTracker::reset()
{
    for (auto &r : regs_)
        r = Abs{};
    // The frame: everything else in ThreadInit is part of the cache key
    // (api/argLen/key/dataSeed/sharedBase), so it is invariant within a
    // key and needs no taint.
    regs_[isa::R_SP].cs = 1;
    regs_[isa::R_HEAP].ch = 1;
    regs_[isa::R_TID].id = true;
    regs_[isa::R_REQID].id = true;
    idDep_ = false;
    frameDep_ = false;
}

void
TaintTracker::write(isa::RegId r, Abs v)
{
    if (r == isa::R_ZERO)
        return;  // mirrors ThreadState::writeReg: r0 stays clean zero
    regs_[r] = v;
}

TaintTracker::Abs
TaintTracker::aluAbs(const StaticInst &si) const
{
    const Abs &a = regs_[si.src1];
    const Abs &b = regs_[si.src2];
    Abs o;
    // Nonlinear combinations: any base coefficient poisons the result.
    auto nonlinear2 = [](const Abs &x, const Abs &y) {
        Abs n;
        n.id = x.id || y.id;
        n.fr = x.fr || y.fr || x.cs != 0 || x.ch != 0 || y.cs != 0 ||
            y.ch != 0;
        return n;
    };
    auto nonlinear1 = [](const Abs &x) {
        Abs n;
        n.id = x.id;
        n.fr = x.fr || x.cs != 0 || x.ch != 0;
        return n;
    };
    switch (si.alu) {
      case AluKind::MovImm:
        return o;
      case AluKind::Mov:
      case AluKind::AddImm:
        return a;
      case AluKind::Add:
      case AluKind::Sub: {
        int sign = si.alu == AluKind::Add ? 1 : -1;
        int cs = a.cs + sign * b.cs;
        int ch = a.ch + sign * b.ch;
        o.id = a.id || b.id;
        o.fr = a.fr || b.fr;
        if (cs < -3 || cs > 3 || ch < -3 || ch > 3) {
            o.fr = true;  // runaway coefficients: give up on linearity
            cs = ch = 0;
        }
        o.cs = static_cast<int8_t>(cs);
        o.ch = static_cast<int8_t>(ch);
        return o;
      }
      case AluKind::Min:
      case AluKind::Max:
        // min/max of two equal-coefficient values picks one of them:
        // the coefficients survive and the choice is frame-invariant.
        if (a.cs == b.cs && a.ch == b.ch) {
            o.cs = a.cs;
            o.ch = a.ch;
            o.id = a.id || b.id;
            o.fr = a.fr || b.fr;
            return o;
        }
        return nonlinear2(a, b);
      case AluKind::AndImm:
      case AluKind::Shl:
      case AluKind::Shr:
      case AluKind::ModImm:
        return nonlinear1(a);
      case AluKind::Mul:
      case AluKind::Div:
      case AluKind::And:
      case AluKind::Or:
      case AluKind::Xor:
      case AluKind::Mix:
        return nonlinear2(a, b);
    }
    return nonlinear2(a, b);
}

AddrKind
TaintTracker::step(const StaticInst &si, const StepResult &r)
{
    (void)r;
    switch (si.op) {
      case Op::IAlu:
      case Op::IMul:
      case Op::IDiv:
      case Op::FAlu:
      case Op::Simd:
        write(si.dst, aluAbs(si));
        return AddrKind::Invariant;

      case Op::Load:
      case Op::Store:
      case Op::Atomic: {
        // Effective address is regs[src1] + imm: the abstract value of
        // the address is exactly src1's.
        const Abs &a = regs_[si.src1];
        if (a.id)
            idDep_ = true;  // address varies per request identity
        AddrKind kind = AddrKind::Invariant;
        if (a.fr) {
            frameDep_ = true;  // address not base + invariant offset
        } else if (a.cs == 0 && a.ch == 0) {
            kind = AddrKind::Invariant;
        } else if (a.cs == 1 && a.ch == 0) {
            kind = AddrKind::StackRel;
        } else if (a.cs == 0 && a.ch == 1) {
            kind = AddrKind::HeapRel;
        } else {
            frameDep_ = true;  // mixed / scaled bases: not relocatable
        }
        if (si.op == Op::Load) {
            // Loaded values hash the address: moving the frame moves
            // the address and therefore the value.
            Abs v;
            v.id = a.id;
            v.fr = a.fr || kind != AddrKind::Invariant;
            write(si.dst, v);
        } else if (si.op == Op::Atomic) {
            // Atomic results are salted with threadSalt (reqId) and
            // hash the address like loads do.
            Abs v;
            v.id = true;
            v.fr = a.fr || kind != AddrKind::Invariant;
            write(si.dst, v);
        }
        return kind;
      }

      case Op::Branch: {
        const Abs &a = regs_[si.src1];
        const Abs &b = regs_[si.src2];
        if (a.id || b.id)
            idDep_ = true;
        // Equal coefficients cancel in the comparison (ptr < ptr_end
        // style loop bounds stay frame-invariant); anything else makes
        // the outcome depend on where the frame sits.
        if (a.fr || b.fr || a.cs != b.cs || a.ch != b.ch)
            frameDep_ = true;
        return AddrKind::Invariant;
      }

      case Op::Syscall: {
        Abs v;
        v.id = true;  // salted with threadSalt
        write(si.dst, v);
        return AddrKind::Invariant;
      }

      case Op::Jump:
      case Op::Call:
      case Op::Ret:
      case Op::Fence:
      case Op::Nop:
      default:
        return AddrKind::Invariant;
    }
}

// ---------------------------------------------------------------------------
// CaptureBuilder

void
CaptureBuilder::reset(const ThreadInit &init)
{
    out_ = std::make_unique<CapturedTrace>();
    out_->frame_ = init;
    out_->fingerprint_ = pi_->fingerprint();
    // Static tier-1 proof for this exact program: the per-op taint walk
    // is redundant (every address kind is exact on every path and no
    // identity/frame event can occur), so capture reads kinds from the
    // proof table instead of interpreting the lattice per op.
    static_ = proof_ != nullptr && proof_->tier1() &&
        proof_->fingerprint == pi_->fingerprint();
    taint_.reset();
}

void
CaptureBuilder::onStep(const StepResult &r)
{
    const StaticInst &si = *r.si;
    uint32_t flat = pi_->flatOf(r.pc);
    AddrKind kind = AddrKind::Invariant;
    if (static_) {
        if (isa::opInfo(si.op).isMem)
            kind = static_cast<AddrKind>(proof_->memKind[flat]);
    } else {
        kind = taint_.step(si, r);
    }
    uint8_t flags = r.taken ? CapturedTrace::kTakenBit : 0;
    if (isa::opInfo(si.op).isMem) {
        flags |= CapturedTrace::kMemBit;
        flags |= static_cast<uint8_t>(
            static_cast<uint8_t>(kind) << CapturedTrace::kAddrKindShift);
        out_->addr_.push_back(r.addr);
    }
    out_->staticIdx_.push_back(flat);
    out_->flags_.push_back(flags);
    out_->dep1_.push_back(r.dep1);
    out_->dep2_.push_back(r.dep2);
    out_->callDepth_.push_back(r.callDepth);
}

std::shared_ptr<const CapturedTrace>
CaptureBuilder::finish()
{
    simr_assert(out_ != nullptr, "finish without reset");
    // Tier-1 proof: no identity or frame event is possible on any path.
    out_->idDep_ = static_ ? false : taint_.identityDependent();
    out_->frameDep_ = static_ ? false : taint_.frameDependent();
    out_->staticIdx_.shrink_to_fit();
    out_->flags_.shrink_to_fit();
    out_->dep1_.shrink_to_fit();
    out_->dep2_.shrink_to_fit();
    out_->callDepth_.shrink_to_fit();
    out_->addr_.shrink_to_fit();
    return std::shared_ptr<const CapturedTrace>(std::move(out_));
}

// ---------------------------------------------------------------------------
// TraceCache

bool
TraceCache::Key::operator==(const Key &o) const
{
    return fingerprint == o.fingerprint && api == o.api &&
        argLen == o.argLen && key == o.key &&
        sharedBase == o.sharedBase && dataSeed == o.dataSeed &&
        stackTop == o.stackTop && heapBase == o.heapBase &&
        reqId == o.reqId && tid == o.tid && tier == o.tier;
}

size_t
TraceCache::KeyHash::operator()(const Key &k) const
{
    uint64_t h = mix64(k.fingerprint ^ (0x7ca9'0000ULL + k.tier));
    h = mix64(h ^ static_cast<uint64_t>(k.api));
    h = mix64(h ^ static_cast<uint64_t>(k.argLen));
    h = mix64(h ^ k.key);
    h = mix64(h ^ k.sharedBase);
    h = mix64(h ^ k.dataSeed);
    h = mix64(h ^ k.stackTop);
    h = mix64(h ^ k.heapBase);
    h = mix64(h ^ static_cast<uint64_t>(k.reqId));
    h = mix64(h ^ static_cast<uint64_t>(k.tid));
    return static_cast<size_t>(h);
}

TraceCache::Key
TraceCache::makeKey(uint64_t fingerprint, const ThreadInit &init, int tier)
{
    Key k{};
    k.fingerprint = fingerprint;
    k.api = init.api;
    k.argLen = init.argLen;
    k.key = init.key;
    k.sharedBase = init.sharedBase;
    k.dataSeed = init.dataSeed;
    k.tier = static_cast<uint8_t>(tier);
    if (tier >= 2) {
        k.stackTop = init.stackTop;
        k.heapBase = init.heapBase;
    }
    if (tier >= 3) {
        k.reqId = init.reqId;
        k.tid = init.tid;
    }
    return k;
}

TraceCache::TraceCache(size_t budget_bytes)
    : budget_(budget_bytes)
{
}

TraceCache::~TraceCache() = default;

std::shared_ptr<const CapturedTrace>
TraceCache::lookup(uint64_t fingerprint, const ThreadInit &init,
                   bool *dedup)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (int tier = 1; tier <= 3; ++tier) {
        auto it = map_.find(makeKey(fingerprint, init, tier));
        if (it == map_.end())
            continue;
        Entry &e = it->second;
        touch(e);
        ++hits_;
        bool d = e.trace->frame().reqId != init.reqId;
        if (d)
            ++dedupHits_;
        if (dedup)
            *dedup = d;
        return e.trace;
    }
    ++misses_;
    if (dedup)
        *dedup = false;
    return nullptr;
}

void
TraceCache::insert(uint64_t fingerprint, const ThreadInit &init,
                   std::shared_ptr<const CapturedTrace> trace)
{
    int tier = trace->identityDependent() ? 3 :
        trace->frameDependent() ? 2 : 1;
    Key k = makeKey(fingerprint, init, tier);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(k);
    if (it != map_.end()) {
        // A concurrent worker captured the same request first; keep its
        // copy so every holder keeps sharing one allocation.
        touch(it->second);
        return;
    }
    lru_.push_back(k);
    Entry e{std::move(trace), std::prev(lru_.end())};
    bytes_ += e.trace->byteSize();
    map_.emplace(std::move(k), std::move(e));
    evictOverBudget();
}

void
TraceCache::touch(Entry &e)
{
    lru_.splice(lru_.end(), lru_, e.lru);
}

void
TraceCache::evictOverBudget()
{
    // Never evict the hottest entry (usually the one just inserted):
    // a budget smaller than one trace must not thrash the insert path.
    while (bytes_ > budget_ && lru_.size() > 1) {
        auto it = map_.find(lru_.front());
        simr_assert(it != map_.end(), "LRU entry missing from the map");
        bytes_ -= it->second.trace->byteSize();
        map_.erase(it);
        lru_.pop_front();
        ++evictions_;
    }
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
}

uint64_t
TraceCache::bytesResident() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

uint64_t
TraceCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

uint64_t
TraceCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

uint64_t
TraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
TraceCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

uint64_t
TraceCache::dedupRequests() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dedupHits_;
}

TraceCache *
TraceCache::process()
{
    // Never destructed: streams may consult the cache from worker
    // threads torn down after main exits. Built in static storage
    // rather than leaked from `new`, which gcc -fanalyzer (tools/lint.sh)
    // reports as a possibly-null argument and a leak.
    alignas(TraceCache) static unsigned char storage[sizeof(TraceCache)];
    static TraceCache *cache = ::new (storage) TraceCache();
    return cache;
}

} // namespace simr::trace
