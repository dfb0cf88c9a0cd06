// End-to-end campaigns: sharded execution over in-process workers must
// reproduce the single-process reference byte for byte.
#include "campaign/leader.hpp"

#include <gtest/gtest.h>

#include "capture_sink.hpp"

namespace injectable::campaign {
namespace {

using testutil::CaptureSink;
using testutil::edge_channels;
using testutil::run_reference;

CampaignPlan test_plan(int shards) {
    std::vector<world::ExperimentConfig> series(2);
    series[0].name = "camp-a";
    series[0].runs = 5;
    series[0].base_seed = 900;
    series[1].name = "camp-b";
    series[1].runs = 4;
    series[1].base_seed = 77;
    series[1].world.hop_interval = 50;
    world::ResultChannels channels;
    channels.metrics = true;
    channels.traces = true;
    channels.trace_all = true;
    return plan_campaign("camp", std::move(series), shards, channels);
}

void expect_identical(const CaptureSink& reference, const CaptureSink& campaign) {
    ASSERT_EQ(campaign.records().size(), reference.records().size());
    for (std::size_t i = 0; i < reference.records().size(); ++i) {
        EXPECT_EQ(campaign.records()[i], reference.records()[i]) << "series " << i;
    }
    EXPECT_EQ(campaign.sorted_artifacts(), reference.sorted_artifacts());
}

TEST(Campaign, InprocessShardingIsBitIdenticalToSingleProcess) {
    const CampaignPlan plan = test_plan(3);
    CaptureSink reference(edge_channels(plan));
    run_reference(plan, reference);

    CaptureSink merged(edge_channels(plan));
    LeaderOptions options;
    options.workers = 3;
    const CampaignOutcome outcome = run_campaign(
        plan,
        [](int worker, int) {
            WorkerOptions wo;
            wo.worker_id = worker;
            return make_inprocess_endpoint(wo);
        },
        options, merged);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.rounds, 1);
    EXPECT_EQ(outcome.reissued_tasks, 0);
    expect_identical(reference, merged);
}

TEST(Campaign, ResultIsIndependentOfWorkerCountAndShardCount) {
    const CampaignPlan narrow = test_plan(1);
    const CampaignPlan wide = test_plan(4);
    CaptureSink reference(edge_channels(narrow));
    run_reference(narrow, reference);

    for (const CampaignPlan* plan : {&narrow, &wide}) {
        for (const int workers : {1, 4}) {
            CaptureSink merged(edge_channels(*plan));
            LeaderOptions options;
            options.workers = workers;
            const CampaignOutcome outcome = run_campaign(
                *plan,
                [](int worker, int) {
                    WorkerOptions wo;
                    wo.worker_id = worker;
                    return make_inprocess_endpoint(wo);
                },
                options, merged);
            ASSERT_TRUE(outcome.ok) << outcome.error;
            expect_identical(reference, merged);
        }
    }
}

TEST(Campaign, ExhaustedRoundsIsAnExplicitErrorNeverASilentDrop) {
    const CampaignPlan plan = test_plan(2);
    CaptureSink merged(edge_channels(plan));
    LeaderOptions options;
    options.workers = 1;
    options.max_rounds = 2;
    options.read_timeout_ms = 2000;
    std::string last_status;
    options.on_status = [&](const std::string& status) { last_status = status; };
    // Every endpoint dies immediately: a stream that EOFs before any frame.
    const CampaignOutcome outcome = run_campaign(
        plan,
        [](int, int) -> std::unique_ptr<Endpoint> {
            class DeadEndpoint final : public Endpoint {
            public:
                ByteStream* start(const CampaignPlan&, std::vector<int>,
                                  std::string*) override {
                    auto conduit = std::make_shared<Conduit>();
                    conduit->close();
                    stream_ = std::make_unique<ConduitStream>(conduit, conduit);
                    return stream_.get();
                }
                bool finish(std::string* error) override {
                    if (error != nullptr) *error = "worker died at birth";
                    return false;
                }
                std::string describe() const override { return "dead worker"; }

            private:
                std::unique_ptr<ByteStream> stream_;
            };
            return std::make_unique<DeadEndpoint>();
        },
        options, merged);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.rounds, 2);
    EXPECT_NE(outcome.error.find("incomplete"), std::string::npos);
    EXPECT_NE(outcome.error.find("unfinished"), std::string::npos);
    EXPECT_TRUE(merged.records().empty());  // nothing partial leaked out
    // The last status document counts both rounds, like the error does.
    EXPECT_NE(last_status.find("\"round\":2,"), std::string::npos) << last_status;
}

TEST(Campaign, StatusJsonTracksRoundsAndPendingTasks) {
    const CampaignPlan plan = test_plan(2);
    std::vector<std::string> statuses;
    CaptureSink merged(edge_channels(plan));
    LeaderOptions options;
    options.workers = 2;
    options.on_status = [&](const std::string& status) { statuses.push_back(status); };
    const CampaignOutcome outcome = run_campaign(
        plan,
        [](int worker, int) {
            WorkerOptions wo;
            wo.worker_id = worker;
            return make_inprocess_endpoint(wo);
        },
        options, merged);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_GE(statuses.size(), 2u);  // per-round + final
    for (const std::string& status : statuses) {
        EXPECT_NE(status.find("\"round\":1,"), std::string::npos) << status;  // one round ran
    }
    EXPECT_NE(statuses.back().find("\"campaign\":\"camp\""), std::string::npos);
    EXPECT_NE(statuses.back().find("\"pending\":[]"), std::string::npos);
}

}  // namespace
}  // namespace injectable::campaign
