/**
 * @file
 * The cycle loop allocates nothing in steady state. A replaced global
 * operator new counts every heap allocation the measuring thread makes
 * while the core runs; after a warm-up that lets grow-once structures
 * (waiter lists, the oracle ring, the emulator's call stack) reach their
 * high-water marks, a further window of committed instructions must make
 * zero allocations — assertions, completion scheduling, the LSQ and the
 * per-branch profile included.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/core.hh"
#include "driver/grids.hh"
#include "program/decoded.hh"
#include "program/suite.hh"
#include "sim/simulator.hh"

namespace
{

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};

/**
 * Every replaced form allocates with malloc/aligned_alloc and releases
 * with free, so the nothrow forms must be replaced too: a library
 * default would pair its own allocation with this file's free.
 */
void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    return align == 0 ? std::malloc(n)
                      : std::aligned_alloc(align, (n + align - 1) / align *
                                                      align);
}

void *
countedAllocOrThrow(std::size_t n, std::size_t align = 0)
{
    void *p = countedAlloc(n, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *operator new(std::size_t n, std::align_val_t al)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(al));
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(al));
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}
void *operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace pp;

namespace
{

constexpr std::uint64_t kWarm = 20000;
constexpr std::uint64_t kMeasure = 40000;

} // namespace

TEST(CycleAlloc, SteadyStateCycleLoopMakesNoHeapAllocation)
{
    // The Figure-5 columns on an integer, a floating-point and a
    // memory-bound profile: every scheme's predictor and both the
    // override and the flush paths run inside the measured window.
    for (const char *name : {"gzip", "swim", "mcf"}) {
        const auto profile = program::profileByName(name);
        const program::Program binary = sim::buildBinary(profile, false);
        const program::DecodedProgram decoded(binary);
        for (const auto &axis : driver::fig5Schemes()) {
            SCOPED_TRACE(std::string(name) + "/" + axis.name);
            core::OoOCore cpu(binary,
                              sim::resolveConfig(axis.scheme,
                                                 core::CoreConfig{}),
                              sim::coreSeed(profile), &decoded);
            cpu.run(kWarm);
            const std::uint64_t cycles_before = cpu.cycle();

            gAllocs.store(0);
            gCounting.store(true);
            cpu.run(kWarm + kMeasure);
            gCounting.store(false);

            const std::uint64_t allocs = gAllocs.load();
            const std::uint64_t cycles = cpu.cycle() - cycles_before;
            EXPECT_EQ(allocs, 0u)
                << allocs << " allocations over " << cycles << " cycles ("
                << double(allocs) / double(cycles) << " per cycle)";
        }
    }
}
