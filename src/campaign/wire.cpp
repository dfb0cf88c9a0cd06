#include "campaign/wire.hpp"

#include "common/json.hpp"
#include "obs/sinks.hpp"
#include "world/replay.hpp"

namespace injectable::campaign {

namespace {

std::string frame_of(WireType type, const std::string& payload) {
    return ble::common::encode_frame(static_cast<std::uint32_t>(type), payload);
}

}  // namespace

std::string encode_hello(int worker) {
    return frame_of(WireType::kHello, "{\"worker\":" + std::to_string(worker) + "}");
}

std::string encode_task_start(int task) {
    return frame_of(WireType::kTaskStart, "{\"task\":" + std::to_string(task) + "}");
}

std::string encode_task_results(int task, const std::vector<world::RunResult>& results) {
    std::string payload = "{\"task\":" + std::to_string(task) + ",\"trials\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i != 0) payload += ',';
        world::append_run_result_json(payload, results[i]);
    }
    payload += "]}";
    return frame_of(WireType::kTaskResults, payload);
}

std::string encode_task_metrics(int task, const ble::obs::MetricsSnapshot& metrics) {
    return frame_of(WireType::kTaskMetrics, "{\"task\":" + std::to_string(task) +
                                                ",\"metrics\":" + metrics.to_json() + "}");
}

std::string encode_artifact(int task, const world::TrialArtifact& artifact) {
    std::string payload = "{\"task\":" + std::to_string(task);
    payload += ",\"kind\":" + std::to_string(static_cast<int>(artifact.kind));
    payload += ",\"stem\":\"";
    ble::obs::append_json_escaped(payload, artifact.stem);
    payload += "\",\"seed\":" + std::to_string(artifact.seed);
    payload += ",\"success\":";
    payload += artifact.success ? "true" : "false";
    payload += ",\"content\":\"";
    ble::obs::append_json_escaped(payload, artifact.content);
    payload += "\"}";
    return frame_of(WireType::kArtifact, payload);
}

std::string encode_progress(int task, int done, int total) {
    return frame_of(WireType::kProgress, "{\"task\":" + std::to_string(task) +
                                             ",\"done\":" + std::to_string(done) +
                                             ",\"total\":" + std::to_string(total) + "}");
}

std::string encode_task_done(int task) {
    return frame_of(WireType::kTaskDone, "{\"task\":" + std::to_string(task) + "}");
}

std::string encode_worker_done(int worker) {
    return frame_of(WireType::kWorkerDone, "{\"worker\":" + std::to_string(worker) + "}");
}

std::string encode_error(int worker, const std::string& message) {
    std::string payload = "{\"worker\":" + std::to_string(worker) + ",\"message\":\"";
    ble::obs::append_json_escaped(payload, message);
    payload += "\"}";
    return frame_of(WireType::kError, payload);
}

bool decode_wire_message(const ble::common::Frame& frame, WireMessage& out, std::string* error) {
    auto fail = [&](std::string message) {
        if (error != nullptr) *error = std::move(message);
        return false;
    };
    out = WireMessage{};
    const auto type = static_cast<WireType>(frame.type);
    switch (type) {
        case WireType::kHello:
        case WireType::kTaskStart:
        case WireType::kTaskResults:
        case WireType::kTaskMetrics:
        case WireType::kArtifact:
        case WireType::kProgress:
        case WireType::kTaskDone:
        case WireType::kWorkerDone:
        case WireType::kError: break;
        default: return fail("unknown frame type " + std::to_string(frame.type));
    }
    out.type = type;

    const ble::json::ParseResult parsed = ble::json::parse(frame.payload);
    if (!parsed.ok) return fail("frame payload parse error: " + parsed.error);
    const ble::json::Value& doc = parsed.value;
    if (!doc.is_object()) return fail("frame payload is not an object");

    out.worker = static_cast<int>(doc.i64("worker", -1));
    out.task = static_cast<int>(doc.i64("task", -1));
    switch (type) {
        case WireType::kTaskResults: {
            const ble::json::Value* trials = doc.find("trials");
            if (trials == nullptr || !trials->is_array()) {
                return fail("TaskResults without \"trials\" array");
            }
            out.results.reserve(trials->array.size());
            for (const ble::json::Value& trial : trials->array) {
                if (!trial.is_object()) return fail("non-object trial entry");
                out.results.push_back(world::run_result_from_json(trial));
            }
            break;
        }
        case WireType::kTaskMetrics: {
            const ble::json::Value* metrics = doc.find("metrics");
            if (metrics == nullptr) return fail("TaskMetrics without \"metrics\"");
            std::string metrics_error;
            if (!ble::obs::metrics_snapshot_from_json(*metrics, out.metrics, &metrics_error)) {
                return fail("TaskMetrics: " + metrics_error);
            }
            break;
        }
        case WireType::kArtifact: {
            using world::ArtifactKind;
            const std::int64_t kind = doc.i64("kind", -1);
            if (kind != static_cast<int>(ArtifactKind::kEventTrace) &&
                kind != static_cast<int>(ArtifactKind::kChromeTimeline) &&
                kind != static_cast<int>(ArtifactKind::kPcapCapture)) {
                return fail("unknown artifact kind " + std::to_string(kind));
            }
            out.artifact.kind = static_cast<ArtifactKind>(kind);
            out.artifact.stem = doc.string_at("stem");
            out.artifact.seed = doc.u64("seed");
            out.artifact.success = doc.boolean_at("success");
            const ble::json::Value* content = doc.find("content");
            if (content == nullptr) return fail("artifact without \"content\"");
            out.artifact.content = content->as_string();
            break;
        }
        case WireType::kProgress:
            out.done = static_cast<int>(doc.i64("done"));
            out.total = static_cast<int>(doc.i64("total"));
            break;
        case WireType::kError: out.message = doc.string_at("message"); break;
        case WireType::kHello:
        case WireType::kTaskStart:
        case WireType::kTaskDone:
        case WireType::kWorkerDone:
            break;  // header-only frames: worker/task fields already decoded
    }
    return true;
}

}  // namespace injectable::campaign
