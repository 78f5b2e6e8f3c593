/**
 * @file
 * Extension workload (paper Section VI-D): a GPGPU-style SPMD kernel.
 *
 * The RPU "can seamlessly execute other HPC, GPGPU and DL applications
 * that exhibit the SPMD pattern". This is a saxpy-like kernel: every
 * thread streams through a private chunk with wide loads and fused
 * SIMD multiply-adds, no data-dependent branches -- perfect SIMT
 * efficiency, backend-dominated energy. Used by `reproduce ext_gpgpu`
 * to place CPU, RPU and GPU on the Section VI-D spectrum.
 */

#include "services/all_services.h"

#include "services/basic_service.h"
#include "services/emit.h"

using namespace simr::isa;

namespace simr::svc
{

std::unique_ptr<Service>
makeGpgpuSaxpy()
{
    ProgramBuilder b("gpgpu-saxpy");

    b.beginFunction("main");
    emit::prologue(b, 2);
    // Each "request" is one SPMD work item: argLen chunks of 64
    // vectors, y[i] = a*x[i] + y[i] in 256-bit lanes.
    b.alu(AluKind::Shl, R_T5, R_ARGLEN, R_ZERO, 6);
    b.forLoop(R_T0, R_T5, [&] {
        b.alu(AluKind::Shl, R_T1, R_T0, R_ZERO, 6);
        b.alu(AluKind::Add, R_T1, R_T1, R_HEAP);
        b.load(R_T2, R_T1, 0, 32);           // x[i]
        b.load(R_T3, R_T1, 32, 32);          // y[i]
        b.simd(AluKind::Xor, R_T4, R_T2, R_T3);   // a*x
        b.simd(AluKind::Add, R_T4, R_T4, R_T3);   // + y
        b.store(R_T4, R_T1, 32, 32);         // y[i] =
    });
    emit::epilogue(b, 2);
    b.ret();
    b.endFunction();

    ServiceTraits t;
    t.name = "gpgpu-saxpy";
    t.group = "GPGPU";
    t.numApis = 1;
    t.maxArgLen = 4;
    return std::make_unique<BasicService>(
        t, b.finish(), [](int64_t, Rng &rng) {
            Request r;
            r.api = 0;
            r.argLen = 4;  // kernels launch with uniform trip counts
            r.key = rng.next();
            return r;
        });
}

} // namespace simr::svc
