// Tier-1 allocation budget of the paper-baseline trial.
//
// This binary replaces the global allocation functions with counting ones
// (the same technique as perfbench's alloc_count.cpp), so it is built apart
// from every other test.  Allocations are an exact count: a reintroduced
// per-frame copy raises it by dozens per trial, which CI sees here even
// where wall-clock time is too noisy to notice.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "world/experiment.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
    ++g_allocations;
    return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace injectable::world {
namespace {

TEST(AllocBudgetTest, PaperBaselineTrialStaysUnderCeiling) {
    // perfbench's paper_baseline series at seed 1: the Fig. 8 testbed, a
    // 12-byte LL payload, 1500 attempts, trial seeds (1 << 32) + i.
    ExperimentConfig config;
    config.name = "paper_baseline";
    config.world = WorldSpec::paper_baseline();
    config.ll_payload_size = 12;
    config.max_attempts = 1500;
    config.jobs = 1;
    const std::uint64_t base_seed = std::uint64_t{1} << 32;
    constexpr int kTrials = 50;

    // One uncounted trial first: process-wide one-time state (profiler call
    // sites, logging) is not a per-trial cost.
    (void)run_injection_experiment_with_retry(config, base_seed, kSetupRetries);

    const std::uint64_t before = g_allocations;
    int successes = 0;
    for (int i = 0; i < kTrials; ++i) {
        const RunResult result =
            run_injection_experiment_with_retry(config, base_seed + i, kSetupRetries);
        if (result.success) ++successes;
    }
    const double per_trial = static_cast<double>(g_allocations - before) / kTrials;

    EXPECT_EQ(successes, kTrials);  // the trials really ran the attack
    // Measured 169.2 allocations per trial once the frame path was pooled
    // (514.1 before); the ceiling leaves under 10% headroom.
    EXPECT_LE(per_trial, 185.0);
    EXPECT_GT(per_trial, 100.0);  // the counter really counts
    std::printf("allocations per paper_baseline trial: %.2f\n", per_trial);
}

}  // namespace
}  // namespace injectable::world
