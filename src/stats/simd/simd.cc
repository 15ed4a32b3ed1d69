/**
 * @file
 * Kernel-table dispatch and the SummaryLanes fold.
 *
 * The active table is published through one atomic pointer: hot
 * paths pay a single acquire load per batch, and tests can repoint
 * it at either table because both compute identical bits — swapping
 * mid-stream is safe by the bit-identity contract.
 */

#include "stats/simd/simd.hh"

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/binenc.hh"
#include "stats/simd/kernels.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace stats
{
namespace simd
{

namespace
{

std::atomic<const KernelOps *> g_ops{nullptr};
std::atomic<int> g_isa{static_cast<int>(Isa::kScalar)};
std::once_flag g_init_once;

} // anonymous namespace

bool
supported(Isa isa)
{
#if defined(DLW_HAVE_AVX2)
    if (isa == Isa::kAvx2)
        return __builtin_cpu_supports("avx2") != 0;
#endif
    return isa == Isa::kScalar;
}

Isa
bestSupported()
{
    return supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

Isa
activeIsa()
{
    ops(); // ensure the table has been selected
    return static_cast<Isa>(g_isa.load(std::memory_order_relaxed));
}

const char *
isaName(Isa isa)
{
    return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

void
force(Isa isa)
{
    if (!supported(isa))
        isa = Isa::kScalar;
    const KernelOps *table = &detail::kScalarOps;
#if defined(DLW_HAVE_AVX2)
    if (isa == Isa::kAvx2)
        table = &detail::kAvx2Ops;
#endif
    g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
    g_ops.store(table, std::memory_order_release);
}

const KernelOps &
ops()
{
    const KernelOps *t = g_ops.load(std::memory_order_acquire);
    if (t != nullptr)
        return *t;
    std::call_once(g_init_once, [] { force(bestSupported()); });
    return *g_ops.load(std::memory_order_acquire);
}

void
SummaryLanes::clear()
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        n[i] = 0.0;
        mean[i] = 0.0;
        m2[i] = 0.0;
    }
    next = 0;
}

Summary
SummaryLanes::combined() const
{
    Summary out;
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        if (n[i] == 0.0)
            continue;
        out.merge(Summary::fromRaw(
            static_cast<std::uint64_t>(n[i]), mean[i], m2[i],
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()));
    }
    return out;
}

void
SummaryLanes::saveState(BinEnc &enc) const
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        enc.f64(n[i]);
        enc.f64(mean[i]);
        enc.f64(m2[i]);
    }
    enc.u8(static_cast<std::uint8_t>(next));
}

bool
SummaryLanes::loadState(BinDec &dec)
{
    bool counts_ok = true;
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        n[i] = dec.f64();
        mean[i] = dec.f64();
        m2[i] = dec.f64();
        // combined() converts the count to an integer: that is
        // undefined for a NaN, a negative or a too-large double.
        counts_ok = counts_ok && n[i] >= 0.0 && n[i] < 0x1p53 &&
                    n[i] == std::floor(n[i]);
    }
    const std::uint8_t cursor = dec.u8();
    if (!dec.ok() || !counts_ok || cursor >= kSummaryLanes)
        return false;
    next = cursor;
    return true;
}

} // namespace simd
} // namespace stats
} // namespace dlw
