// Campaign wire protocol and the leader's ResultCache state machine.
#include "campaign/cache.hpp"
#include "campaign/wire.hpp"

#include <gtest/gtest.h>

#include "obs/capture/capture.hpp"

namespace injectable::campaign {
namespace {

world::RunResult sample_result(std::uint64_t seed) {
    world::RunResult r;
    r.seed = seed;
    r.success = (seed % 2) == 0;
    r.attempts = static_cast<int>(seed % 37);
    r.sniffed = true;
    r.established = true;
    r.session_lost = (seed % 3) == 0;
    r.heuristic_false_positives = 1;
    return r;
}

WireMessage decode_one(const std::string& framed) {
    ble::common::FrameDecoder decoder;
    decoder.feed(framed);
    const auto frame = decoder.next();
    EXPECT_TRUE(frame.has_value());
    WireMessage message;
    std::string error;
    EXPECT_TRUE(decode_wire_message(*frame, message, &error)) << error;
    return message;
}

TEST(CampaignWire, ResultsRoundTripWithDeterministicFieldsIntact) {
    const std::vector<world::RunResult> results = {sample_result(7), sample_result(8)};
    const WireMessage message = decode_one(encode_task_results(3, results));
    EXPECT_EQ(message.type, WireType::kTaskResults);
    EXPECT_EQ(message.task, 3);
    ASSERT_EQ(message.results.size(), 2u);
    EXPECT_EQ(message.results[0], results[0]);  // operator== skips wall_ms
    EXPECT_EQ(message.results[1], results[1]);
}

TEST(CampaignWire, ArtifactContentSurvivesArbitraryBytes) {
    world::TrialArtifact artifact;
    artifact.kind = world::ArtifactKind::kChromeTimeline;
    artifact.stem = "exp1-seed1025";
    artifact.seed = 1025;
    artifact.success = true;
    // The literal's 22 characters, embedded NUL included (not its terminator).
    static constexpr char kContent[] = "line1\n\x00\x01\xff\"quoted\"\ttail";
    artifact.content = std::string(kContent, sizeof kContent - 1);
    const WireMessage message = decode_one(encode_artifact(5, artifact));
    EXPECT_EQ(message.type, WireType::kArtifact);
    EXPECT_EQ(message.artifact.kind, artifact.kind);
    EXPECT_EQ(message.artifact.stem, artifact.stem);
    EXPECT_EQ(message.artifact.seed, artifact.seed);
    EXPECT_EQ(message.artifact.success, artifact.success);
    EXPECT_EQ(message.artifact.content, artifact.content);
}

TEST(CampaignWire, PcapCaptureArtifactRoundTripsAsRawBinary) {
    // Capture artifacts are genuine binary (pcap headers are full of NULs and
    // high bytes); the wire framing must carry them unmangled so the leader's
    // merged files stay byte-identical to a single-process run.
    world::TrialArtifact artifact;
    artifact.kind = world::ArtifactKind::kPcapCapture;
    artifact.stem = "exp1-seed1025";
    artifact.seed = 1025;
    artifact.success = true;
    artifact.content = ble::obs::capture::pcap_bytes({ble::obs::capture::CaptureRecord{
        /*time=*/1000,
        /*channel=*/37,
        /*signal_dbm=*/-60,
        /*noise_dbm=*/0,
        /*aa_offenses=*/0,
        /*signal_valid=*/true,
        /*noise_valid=*/false,
        /*offenses_valid=*/false,
        /*crc_checked=*/false,
        /*crc_valid=*/false,
        /*bytes=*/{0xD6, 0xBE, 0x89, 0x8E, 0x00, 0x01, 0x02}}});
    ASSERT_NE(artifact.content.find('\0'), std::string::npos);  // really binary

    const WireMessage message = decode_one(encode_artifact(2, artifact));
    EXPECT_EQ(message.type, WireType::kArtifact);
    EXPECT_EQ(message.artifact.kind, world::ArtifactKind::kPcapCapture);
    EXPECT_EQ(message.artifact.content, artifact.content);
    const auto parsed = ble::obs::capture::parse_capture(message.artifact.content);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].channel, 37);
}

TEST(CampaignWire, ControlMessagesRoundTrip) {
    EXPECT_EQ(decode_one(encode_hello(2)).worker, 2);
    EXPECT_EQ(decode_one(encode_task_start(4)).task, 4);
    EXPECT_EQ(decode_one(encode_task_done(4)).type, WireType::kTaskDone);
    EXPECT_EQ(decode_one(encode_worker_done(1)).type, WireType::kWorkerDone);
    const WireMessage progress = decode_one(encode_progress(9, 3, 12));
    EXPECT_EQ(progress.done, 3);
    EXPECT_EQ(progress.total, 12);
    const WireMessage error_msg = decode_one(encode_error(0, "boom \"quoted\""));
    EXPECT_EQ(error_msg.type, WireType::kError);
    EXPECT_EQ(error_msg.message, "boom \"quoted\"");
}

TEST(CampaignWire, TelemetryRoundTripsCountersAndHistograms) {
    ble::obs::WorkerTelemetry hb;
    hb.worker = 3;
    hb.task = 7;
    hb.t_ms = 123456;
    hb.trials_done = 5;
    hb.trials_total = 12;
    hb.tx_frames = 40;
    hb.tx_bytes = 9001;
    hb.final_snapshot = true;
    hb.counters["events_total"] = 77;
    hb.counters["inject.success \"quoted\""] = 3;
    hb.hists["attempts"] = {4, 10};
    const WireMessage message = decode_one(encode_telemetry(hb));
    EXPECT_EQ(message.type, WireType::kTelemetry);
    EXPECT_EQ(message.telemetry, hb);

    // An empty heartbeat (no snapshot) survives too.
    ble::obs::WorkerTelemetry beat;
    beat.worker = 1;
    beat.t_ms = 42;
    EXPECT_EQ(decode_one(encode_telemetry(beat)).telemetry, beat);
}

TEST(CampaignWire, DecoderRejectsUnknownTypesAndGarbage) {
    WireMessage message;
    std::string error;
    EXPECT_FALSE(decode_wire_message(ble::common::Frame{999, "{}"}, message, &error));
    EXPECT_FALSE(decode_wire_message(
        ble::common::Frame{static_cast<std::uint32_t>(WireType::kTaskResults), "not json"},
        message, &error));
    EXPECT_FALSE(decode_wire_message(
        ble::common::Frame{static_cast<std::uint32_t>(WireType::kTaskResults), "{\"task\":1}"},
        message, &error));
}

// ---------------------------------------------------------------------------

CampaignPlan small_plan() {
    std::vector<world::ExperimentConfig> series(1);
    series[0].name = "cache";
    series[0].runs = 4;
    series[0].base_seed = 50;
    return plan_campaign("cache", std::move(series), 2);  // 2 tasks of 2 trials
}

TEST(ResultCache, CommitsOnlyOnTaskDoneAndAbandonRevertsPartials) {
    const CampaignPlan plan = small_plan();
    ResultCache cache(plan);
    EXPECT_EQ(cache.pending(), (std::vector<int>{0, 1}));

    ASSERT_TRUE(cache.accept(decode_one(encode_task_start(0))));
    ASSERT_TRUE(cache.accept(
        decode_one(encode_task_results(0, {sample_result(50), sample_result(51)}))));
    // Results buffered but not committed: still pending until TaskDone.
    EXPECT_EQ(cache.pending(), (std::vector<int>{0, 1}));
    cache.abandon(0);  // the stream died — partial evaporates
    EXPECT_EQ(cache.pending(), (std::vector<int>{0, 1}));

    // Second attempt completes.
    ASSERT_TRUE(cache.accept(decode_one(encode_task_start(0))));
    ASSERT_TRUE(cache.accept(
        decode_one(encode_task_results(0, {sample_result(50), sample_result(51)}))));
    ASSERT_TRUE(cache.accept(decode_one(encode_task_done(0))));
    EXPECT_EQ(cache.pending(), (std::vector<int>{1}));
    EXPECT_FALSE(cache.complete());
    EXPECT_EQ(cache.output(0).results.size(), 2u);
    // A committed task is immutable: abandon is a no-op, rewrites rejected.
    cache.abandon(0);
    EXPECT_EQ(cache.output(0).results.size(), 2u);
    std::string error;
    EXPECT_FALSE(cache.accept(decode_one(encode_task_start(0)), &error));
}

TEST(ResultCache, RejectsProtocolViolations) {
    const CampaignPlan plan = small_plan();
    ResultCache cache(plan);
    std::string error;
    // Results outside a TaskStart window.
    EXPECT_FALSE(cache.accept(
        decode_one(encode_task_results(0, {sample_result(50), sample_result(51)})), &error));
    // TaskDone with nothing delivered.
    ASSERT_TRUE(cache.accept(decode_one(encode_task_start(0))));
    EXPECT_FALSE(cache.accept(decode_one(encode_task_done(0)), &error));
    // Wrong trial count for the slice.
    EXPECT_FALSE(cache.accept(decode_one(encode_task_results(0, {sample_result(50)})), &error));
    EXPECT_NE(error.find("expected"), std::string::npos);
    // Unknown task id.
    EXPECT_FALSE(cache.accept(decode_one(encode_task_start(7)), &error));
    // A worker error frame is surfaced, not swallowed.
    EXPECT_FALSE(cache.accept(decode_one(encode_error(0, "died")), &error));
    EXPECT_NE(error.find("died"), std::string::npos);
}

}  // namespace
}  // namespace injectable::campaign
