// Fault injection: a spawned worker killed mid-shard and a pipe closed
// mid-frame.  Both must cost only a re-issue round — the merged records,
// metrics and artifacts stay bit-identical to a no-fault run.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include <unistd.h>

#include "campaign/leader.hpp"
#include "campaign/wire.hpp"
#include "capture_sink.hpp"
#include "obs/sinks.hpp"

#ifndef CAMPAIGN_CTL_BIN
#define CAMPAIGN_CTL_BIN ""
#endif

namespace injectable::campaign {
namespace {

using testutil::CaptureSink;
using testutil::edge_channels;
using testutil::run_reference;

CampaignPlan fault_plan() {
    std::vector<world::ExperimentConfig> series(1);
    series[0].name = "fault";
    series[0].runs = 6;
    series[0].base_seed = 3000;
    world::ResultChannels channels;
    channels.metrics = true;
    channels.traces = true;
    channels.trace_all = true;
    return plan_campaign("fault", std::move(series), 3, channels);  // 3 tasks x 2 trials
}

/// Collects a worker's wire bytes without any transport.
class StringStream final : public ByteStream {
public:
    bool write(std::string_view bytes) override {
        data.append(bytes);
        return true;
    }
    ReadStatus read_some(std::string&, int) override { return ReadStatus::kEof; }
    void close_write() override {}
    std::string data;
};

/// Byte offset just past the frame whose decoded message satisfies `until`,
/// so `bytes[0, offset)` ends on a clean frame boundary.
std::size_t offset_after(const std::string& bytes,
                         const std::function<bool(const WireMessage&)>& until) {
    ble::common::FrameDecoder decoder;
    decoder.feed(bytes);
    std::size_t offset = 0;
    for (;;) {
        const auto frame = decoder.next();
        if (!frame.has_value()) break;
        offset += 8 + frame->payload.size();
        WireMessage message;
        if (decode_wire_message(*frame, message) && until(message)) return offset;
    }
    ADD_FAILURE() << "wire stream never satisfied the predicate";
    return bytes.size();
}

/// Round-0 endpoint that writes `bytes` into a real pipe through FdStream
/// and then closes it — the leader reads a stream that ends mid-frame.
class PipeDropEndpoint final : public Endpoint {
public:
    explicit PipeDropEndpoint(std::string bytes) : bytes_(std::move(bytes)) {}

    ~PipeDropEndpoint() override {
        if (writer_.joinable()) writer_.join();
    }

    ByteStream* start(const CampaignPlan&, std::vector<int>, std::string* error) override {
        int fds[2];
        if (::pipe(fds) != 0) {
            if (error != nullptr) *error = "pipe() failed";
            return nullptr;
        }
        leader_ = std::make_unique<FdStream>(fds[0]);
        // The torn stream may outgrow the pipe buffer, so a writer thread
        // feeds it while the leader drains the read end.
        writer_ = std::thread([this, fd = fds[1]] {
            FdStream out(fd);
            out.write(bytes_);
            out.close_write();
        });
        return leader_.get();
    }

    bool finish(std::string* error) override {
        if (writer_.joinable()) writer_.join();
        if (error != nullptr) *error = "pipe dropped";
        return false;
    }

    std::string describe() const override { return "pipe-drop worker"; }

private:
    std::string bytes_;
    std::unique_ptr<ByteStream> leader_;
    std::thread writer_;
};

TEST(CampaignFault, PipeDroppedMidFrameReissuesAndStaysBitIdentical) {
    const CampaignPlan plan = fault_plan();
    CaptureSink reference(edge_channels(plan));
    run_reference(plan, reference);
    ASSERT_FALSE(reference.sorted_artifacts().empty());  // traces ride the wire too

    // Record what a healthy worker running ALL tasks would send, then cut the
    // stream 5 bytes into the first frame after task 0's TaskDone: task 0
    // arrives complete, task 1 dies mid-frame, task 2 never starts.
    StringStream healthy;
    std::string worker_error;
    ASSERT_TRUE(run_worker_tasks(plan, {0, 1, 2}, healthy, {}, &worker_error))
        << worker_error;
    const std::size_t clean = offset_after(healthy.data, [](const WireMessage& m) {
        return m.type == WireType::kTaskDone && m.task == 0;
    });
    ASSERT_LT(clean + 5, healthy.data.size());
    const std::string torn = healthy.data.substr(0, clean + 5);

    CaptureSink merged(edge_channels(plan));
    LeaderOptions options;
    options.workers = 1;
    options.max_rounds = 3;
    options.read_timeout_ms = 10000;
    const CampaignOutcome outcome = run_campaign(
        plan,
        [&torn](int worker, int round) -> std::unique_ptr<Endpoint> {
            if (round == 0) return std::make_unique<PipeDropEndpoint>(torn);
            WorkerOptions wo;
            wo.worker_id = worker;
            return make_inprocess_endpoint(wo);
        },
        options, merged);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.rounds, 2);
    EXPECT_EQ(outcome.reissued_tasks, 2);  // tasks 1 and 2; task 0 committed

    ASSERT_EQ(merged.records().size(), reference.records().size());
    EXPECT_EQ(merged.records(), reference.records());
    EXPECT_EQ(merged.sorted_artifacts(), reference.sorted_artifacts());
}

TEST(CampaignFault, SpawnedWorkerKilledMidShardReissuesAndStaysBitIdentical) {
    const std::string binary = CAMPAIGN_CTL_BIN;
    ASSERT_FALSE(binary.empty()) << "CAMPAIGN_CTL_BIN not wired by CMake";

    const CampaignPlan plan = fault_plan();
    CaptureSink reference(edge_channels(plan));
    run_reference(plan, reference);
    ASSERT_FALSE(reference.sorted_artifacts().empty());  // traces ride the wire too

    const std::string plan_path = ::testing::TempDir() + "/fault_plan.json";
    ASSERT_TRUE(ble::obs::write_text_file(plan_path, plan_to_json(plan)));

    CaptureSink merged(edge_channels(plan));
    LeaderOptions options;
    options.workers = 2;
    options.max_rounds = 3;
    options.read_timeout_ms = 30000;
    const CampaignOutcome outcome = run_campaign(
        plan,
        [&](int worker, int round) {
            SpawnOptions so;
            so.binary = binary;
            so.plan_path = plan_path;
            so.worker.worker_id = worker;
            // Worker 0's first incarnation dies after one trial, leaving a
            // torn frame on its pipe; every later incarnation is healthy.
            if (worker == 0 && round == 0) so.worker.crash_after_trials = 1;
            return make_spawn_endpoint(std::move(so));
        },
        options, merged);
    std::remove(plan_path.c_str());
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_GE(outcome.rounds, 2);
    EXPECT_GE(outcome.reissued_tasks, 1);

    EXPECT_EQ(merged.records(), reference.records());
    EXPECT_EQ(merged.sorted_artifacts(), reference.sorted_artifacts());
}

}  // namespace
}  // namespace injectable::campaign
