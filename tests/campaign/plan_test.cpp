// ShardPlan: deterministic grid tiling and the plan JSON round trip.
#include "campaign/plan.hpp"

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace injectable::campaign {
namespace {

std::vector<world::ExperimentConfig> two_series(int runs_a, int runs_b) {
    std::vector<world::ExperimentConfig> series(2);
    series[0].name = "a";
    series[0].runs = runs_a;
    series[0].base_seed = 100;
    series[1].name = "b";
    series[1].runs = runs_b;
    series[1].base_seed = 200;
    return series;
}

TEST(CampaignPlan, TilesEachSeriesContiguouslyAndCoversEveryTrial) {
    const CampaignPlan plan = plan_campaign("t", two_series(10, 3), 4);
    // 10 runs / 4 shards -> 3,3,2,2; 3 runs / 4 shards -> 1,1,1.
    ASSERT_EQ(plan.tasks.size(), 7u);
    EXPECT_EQ(plan.total_trials(), 13);
    for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
        EXPECT_EQ(plan.tasks[i].id, static_cast<int>(i));
    }
    int expected_first = 0;
    for (const int id : plan.series_tasks(0)) {
        const ShardTask& task = plan.tasks[static_cast<std::size_t>(id)];
        EXPECT_EQ(task.first, expected_first);
        expected_first += task.count;
    }
    EXPECT_EQ(expected_first, 10);
    // Worker-side invariants are forced at plan time.
    EXPECT_FALSE(plan.channels.series_record);
    EXPECT_FALSE(plan.channels.wall_clock);
    for (const world::ExperimentConfig& config : plan.series) EXPECT_EQ(config.jobs, 1);
}

TEST(CampaignPlan, TilingDependsOnlyOnRunsAndShardCount) {
    const CampaignPlan a = plan_campaign("t", two_series(10, 3), 4);
    const CampaignPlan b = plan_campaign("t", two_series(10, 3), 4);
    EXPECT_EQ(a.tasks, b.tasks);
    // More shards than runs: one task per trial, never an empty slice.
    const CampaignPlan wide = plan_campaign("t", two_series(2, 1), 8);
    ASSERT_EQ(wide.tasks.size(), 3u);
    for (const ShardTask& task : wide.tasks) EXPECT_EQ(task.count, 1);
}

TEST(CampaignPlan, JsonRoundTripReproducesThePlanExactly) {
    CampaignPlan plan = plan_campaign("exp1", experiment1_grid(7), 4);
    plan.channels.metrics = true;
    plan.channels.traces = true;
    plan.channels.captures = true;
    const std::string text = plan_to_json(plan);

    CampaignPlan loaded;
    std::string error;
    ASSERT_TRUE(plan_from_json(text, loaded, &error)) << error;
    EXPECT_EQ(loaded.name, plan.name);
    EXPECT_EQ(loaded.tasks, plan.tasks);
    ASSERT_EQ(loaded.series.size(), plan.series.size());
    for (std::size_t i = 0; i < plan.series.size(); ++i) {
        EXPECT_EQ(loaded.series[i].runs, plan.series[i].runs);
        EXPECT_EQ(loaded.series[i].base_seed, plan.series[i].base_seed);
        EXPECT_EQ(loaded.series[i].world.hop_interval, plan.series[i].world.hop_interval);
        EXPECT_EQ(loaded.series[i].jobs, 1);
    }
    EXPECT_TRUE(loaded.channels.metrics);
    EXPECT_TRUE(loaded.channels.traces);
    EXPECT_TRUE(loaded.channels.captures);
    EXPECT_FALSE(loaded.channels.wall_clock);
    // A serialize -> parse -> serialize cycle is bit-stable (the meta codec
    // keeps number tokens verbatim).
    EXPECT_EQ(plan_to_json(loaded), text);
}

TEST(CampaignPlan, RejectsCorruptPlans) {
    CampaignPlan loaded;
    std::string error;
    EXPECT_FALSE(plan_from_json("{}", loaded, &error));
    EXPECT_FALSE(plan_from_json("{\"e\":\"campaign\",\"v\":99,\"series\":[],\"tasks\":[]}",
                                loaded, &error));
    // Task slice out of range.
    CampaignPlan plan = plan_campaign("t", two_series(4, 4), 2);
    std::string text = plan_to_json(plan);
    const std::size_t pos = text.rfind("\"count\":2");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 9, "\"count\":9");
    EXPECT_FALSE(plan_from_json(text, loaded, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos);
}

// Seeded fuzz of the plan reader every spawned worker runs: each mutation of
// a real plan document is rejected, or loads into a plan whose serialization
// is a fixed point of plan_from_json followed by plan_to_json.  The JSON
// layer underneath holds the same property for dump().
TEST(JsonFuzz, MutatedPlansAreRejectedOrReserializeToAFixedPoint) {
    CampaignPlan plan = plan_campaign("fuzz", two_series(5, 3), 3);
    plan.channels.metrics = true;
    const std::string text = plan_to_json(plan);
    int loaded_plans = 0;
    for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
        ble::Rng rng(seed);
        std::string mutated = text;
        const int edits = 1 + static_cast<int>(rng.next_below(3));
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng.next_below(mutated.size());
            switch (rng.next_below(3)) {
                case 0: mutated[at] = static_cast<char>(rng.next_below(256)); break;
                case 1: mutated.erase(at, 1); break;
                default: mutated.insert(at, 1, mutated[rng.next_below(mutated.size())]); break;
            }
        }

        const ble::json::ParseResult parsed = ble::json::parse(mutated);
        if (parsed.ok) {
            const std::string dumped = parsed.value.dump();
            const ble::json::ParseResult again = ble::json::parse(dumped);
            ASSERT_TRUE(again.ok) << "seed " << seed << ": " << again.error;
            EXPECT_EQ(again.value.dump(), dumped) << "seed " << seed;
        }

        CampaignPlan loaded;
        std::string error;
        if (!plan_from_json(mutated, loaded, &error)) {
            EXPECT_FALSE(error.empty()) << "seed " << seed;
            continue;
        }
        ++loaded_plans;
        const std::string once = plan_to_json(loaded);
        CampaignPlan reloaded;
        ASSERT_TRUE(plan_from_json(once, reloaded, &error)) << "seed " << seed << ": " << error;
        EXPECT_EQ(plan_to_json(reloaded), once) << "seed " << seed;
    }
    // Most single-byte edits land in names and values the reader accepts.
    EXPECT_GT(loaded_plans, 0);
}

}  // namespace
}  // namespace injectable::campaign
