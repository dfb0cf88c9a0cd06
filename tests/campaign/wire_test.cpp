// Campaign wire protocol and the leader's ResultCache state machine.
#include "campaign/cache.hpp"
#include "campaign/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/framing.hpp"
#include "common/rng.hpp"
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

TEST(CampaignWire, DecoderRejectsUnknownTypesAndGarbage) {
    WireMessage message;
    std::string error;
    EXPECT_FALSE(decode_wire_message(ble::common::Frame{999, "{}"}, message, &error));
    // 10 is a retired frame type: unknown like any other.
    EXPECT_FALSE(decode_wire_message(
        ble::common::Frame{10, "{\"worker\":2,\"task\":5,\"t_ms\":99}"}, message, &error));
    EXPECT_NE(error.find("unknown frame type 10"), std::string::npos) << error;
    EXPECT_FALSE(decode_wire_message(
        ble::common::Frame{static_cast<std::uint32_t>(WireType::kTaskResults), "not json"},
        message, &error));
    EXPECT_FALSE(decode_wire_message(
        ble::common::Frame{static_cast<std::uint32_t>(WireType::kTaskResults), "{\"task\":1}"},
        message, &error));
}

// ---------------------------------------------------------------------------
// Seeded fuzz of the worker-pipe decode path: valid encoded frames cut at
// random chunk boundaries, truncated, and with random bytes flipped go
// through FrameDecoder::feed and decode_wire_message.  Every input must be
// rejected or round-trip; under ASan/UBSan none may touch memory it should
// not.

/// One valid frame of every wire type, with payloads that stress escaping.
std::vector<std::string> fuzz_corpus() {
    ble::obs::MetricsSnapshot metrics;
    metrics.counters["events_total"] = 1234;
    metrics.counters["inject \"quoted\""] = 7;
    metrics.gauges["trial_span_ns"] = ble::obs::GaugeSnapshot{2, -5, -9, 40};
    ble::obs::HistogramSnapshot hist;
    for (const std::uint64_t v : {0u, 1u, 3u, 900u, 70000u}) hist.record(v);
    metrics.histograms["attempts"] = hist;

    world::TrialArtifact artifact;
    artifact.kind = world::ArtifactKind::kPcapCapture;
    artifact.stem = "exp1-seed\"9\"";
    artifact.seed = 9;
    artifact.success = true;
    for (int b = 0; b < 256; ++b) artifact.content.push_back(static_cast<char>(b));

    return {encode_hello(1),
            encode_task_start(5),
            encode_task_results(5, {sample_result(4), sample_result(9), sample_result(12)}),
            encode_task_metrics(5, metrics),
            encode_artifact(5, artifact),
            encode_progress(5, 2, 6),
            encode_task_done(5),
            encode_worker_done(1),
            encode_error(1, "torn \"frame\"\n\x01")};
}

/// The encoder call that produces `message`'s frame.
std::string reencode(const WireMessage& m) {
    switch (m.type) {
        case WireType::kHello: return encode_hello(m.worker);
        case WireType::kTaskStart: return encode_task_start(m.task);
        case WireType::kTaskResults: return encode_task_results(m.task, m.results);
        case WireType::kTaskMetrics: return encode_task_metrics(m.task, m.metrics);
        case WireType::kArtifact: return encode_artifact(m.task, m.artifact);
        case WireType::kProgress: return encode_progress(m.task, m.done, m.total);
        case WireType::kTaskDone: return encode_task_done(m.task);
        case WireType::kWorkerDone: return encode_worker_done(m.worker);
        case WireType::kError: return encode_error(m.worker, m.message);
    }
    return {};
}

/// Feeds `stream` to a decoder in random 1..max_chunk byte chunks, popping
/// frames as they complete.
std::vector<ble::common::Frame> feed_chunked(ble::common::FrameDecoder& decoder,
                                             const std::string& stream, ble::Rng& rng,
                                             std::size_t max_chunk) {
    std::vector<ble::common::Frame> frames;
    std::size_t at = 0;
    while (at < stream.size()) {
        const std::size_t n = std::min<std::size_t>(1 + rng.next_below(max_chunk),
                                                    stream.size() - at);
        decoder.feed(std::string_view(stream).substr(at, n));
        at += n;
        while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
    }
    return frames;
}

/// The decode contract for one frame off the pipe: it is rejected, or it
/// decodes to a message whose re-encoding decodes to the same message.
void expect_rejected_or_round_trips(const ble::common::Frame& frame) {
    WireMessage message;
    std::string error;
    if (!decode_wire_message(frame, message, &error)) {
        EXPECT_FALSE(error.empty());
        return;
    }
    const std::string once = reencode(message);
    ble::common::FrameDecoder decoder;
    decoder.feed(once);
    const auto again = decoder.next();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->type, frame.type);
    WireMessage second;
    ASSERT_TRUE(decode_wire_message(*again, second, &error)) << error;
    EXPECT_EQ(reencode(second), once);
}

TEST(CampaignWireFuzz, ValidFramesRoundTripAtAnyChunkBoundary) {
    const std::vector<std::string> corpus = fuzz_corpus();
    for (const std::string& framed : corpus) {
        ble::common::FrameDecoder decoder;
        decoder.feed(framed);
        const auto frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        WireMessage message;
        std::string error;
        ASSERT_TRUE(decode_wire_message(*frame, message, &error)) << error;
        EXPECT_EQ(reencode(message), framed) << "type " << frame->type;
    }
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        ble::Rng rng(seed);
        std::vector<std::size_t> order;
        std::string stream;
        for (int i = 0; i < 12; ++i) {
            order.push_back(rng.next_below(corpus.size()));
            stream += corpus[order.back()];
        }
        ble::common::FrameDecoder decoder;
        const auto frames = feed_chunked(decoder, stream, rng, 1 + seed % 97);
        ASSERT_EQ(frames.size(), order.size()) << "seed " << seed;
        EXPECT_TRUE(decoder.error().empty());
        EXPECT_FALSE(decoder.mid_frame());
        for (std::size_t i = 0; i < frames.size(); ++i) {
            EXPECT_EQ(ble::common::encode_frame(frames[i].type, frames[i].payload),
                      corpus[order[i]])
                << "seed " << seed << " frame " << i;
        }
    }
}

TEST(CampaignWireFuzz, TruncatedStreamsSurfaceOnlyWholeFrames) {
    const std::vector<std::string> corpus = fuzz_corpus();
    std::string stream;
    std::vector<std::size_t> ends;  // stream offset just past each frame
    for (const std::string& framed : corpus) {
        stream += framed;
        ends.push_back(stream.size());
    }
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        ble::Rng rng(seed);
        const std::size_t cut = rng.next_below(stream.size() + 1);
        ble::common::FrameDecoder decoder;
        const auto frames = feed_chunked(decoder, stream.substr(0, cut), rng, 64);
        const auto whole = static_cast<std::size_t>(
            std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
        ASSERT_EQ(frames.size(), whole) << "seed " << seed << " cut " << cut;
        for (std::size_t i = 0; i < whole; ++i) {
            EXPECT_EQ(ble::common::encode_frame(frames[i].type, frames[i].payload), corpus[i]);
        }
        const bool at_boundary = cut == 0 || (whole > 0 && ends[whole - 1] == cut);
        EXPECT_EQ(decoder.mid_frame(), !at_boundary) << "seed " << seed;
        EXPECT_TRUE(decoder.error().empty());
    }
    // A frame cut inside its payload never decodes, whatever the cut.
    for (const std::string& framed : corpus) {
        for (std::size_t keep = 8; keep < framed.size(); keep += 7) {
            const ble::common::Frame partial{
                static_cast<std::uint32_t>(static_cast<unsigned char>(framed[4])),
                framed.substr(8, keep - 8)};
            expect_rejected_or_round_trips(partial);
        }
    }
}

TEST(CampaignWireFuzz, FlippedBytesAreRejectedOrRoundTrip) {
    const std::vector<std::string> corpus = fuzz_corpus();
    std::string stream;
    for (const std::string& framed : corpus) stream += framed;
    int rejected = 0;
    int decoded = 0;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        ble::Rng rng(seed);
        std::string mutated = stream;
        const int flips = 1 + static_cast<int>(rng.next_below(4));
        for (int f = 0; f < flips; ++f) {
            mutated[rng.next_below(mutated.size())] ^=
                static_cast<char>(1u << rng.next_below(8));
        }
        ble::common::FrameDecoder decoder;
        for (const ble::common::Frame& frame : feed_chunked(decoder, mutated, rng, 128)) {
            WireMessage message;
            if (decode_wire_message(frame, message)) ++decoded;
            else ++rejected;
            expect_rejected_or_round_trips(frame);
        }
        // A corrupt length prefix may wedge the stream; a wedged decoder
        // surfaces nothing more, ever.
        if (!decoder.error().empty()) {
            decoder.feed(stream);
            EXPECT_FALSE(decoder.next().has_value());
        }
    }
    // Both outcomes occur: the corpus is neither all-fragile nor unchecked.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(decoded, 0);
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
