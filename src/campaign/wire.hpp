// Campaign wire protocol: typed, length-prefixed result frames.
//
// Workers stream everything a shard produces back to the leader as
// common::Frame messages (u32le length + type + JSON payload).  The protocol
// is strictly one-directional after launch — task assignment travels in the
// launch arguments (or the worker command line), results travel back — so a
// transport only has to be a byte stream with EOF.
//
// Per task the well-formed sequence is
//
//   TaskStart, (Artifact | Progress)*, TaskResults, [TaskMetrics], TaskDone
//
// and the leader's ResultCache buffers everything between TaskStart and
// TaskDone: a stream that dies mid-task (crash, closed pipe, torn frame)
// contributes nothing for that task, which is what makes re-issue safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/framing.hpp"
#include "obs/metrics.hpp"
#include "world/experiment.hpp"

namespace injectable::campaign {

enum class WireType : std::uint32_t {
    kHello = 1,        ///< worker announces itself: {"worker":id}
    kTaskStart = 2,    ///< {"task":id}
    kTaskResults = 3,  ///< {"task":id,"trials":[...]} — slice order
    kTaskMetrics = 4,  ///< {"task":id,"metrics":{...}} — merged slice partial
    kArtifact = 5,     ///< {"task":id,"kind":k,"stem":s,"seed":n,"success":b,"content":c}
    kProgress = 6,     ///< {"task":id,"done":n,"total":n}
    kTaskDone = 7,     ///< {"task":id}
    kWorkerDone = 8,   ///< {"worker":id} — clean end of stream
    kError = 9,        ///< {"worker":id,"message":m} — fatal worker error
    // 10 is unused: a retired frame type, rejected by the decoder as unknown.
};

/// One decoded message (a tagged union kept flat for simplicity).
struct WireMessage {
    WireType type = WireType::kHello;
    int worker = -1;
    int task = -1;
    std::vector<world::RunResult> results;
    ble::obs::MetricsSnapshot metrics;
    world::TrialArtifact artifact;
    int done = 0;
    int total = 0;
    std::string message;  ///< kError text
};

// Encoders: each returns one fully framed byte string ready for a stream.
[[nodiscard]] std::string encode_hello(int worker);
[[nodiscard]] std::string encode_task_start(int task);
[[nodiscard]] std::string encode_task_results(int task,
                                              const std::vector<world::RunResult>& results);
[[nodiscard]] std::string encode_task_metrics(int task,
                                              const ble::obs::MetricsSnapshot& metrics);
[[nodiscard]] std::string encode_artifact(int task, const world::TrialArtifact& artifact);
[[nodiscard]] std::string encode_progress(int task, int done, int total);
[[nodiscard]] std::string encode_task_done(int task);
[[nodiscard]] std::string encode_worker_done(int worker);
[[nodiscard]] std::string encode_error(int worker, const std::string& message);

/// Decodes one frame into a WireMessage.  Returns false and sets *error on
/// unknown types or malformed payloads.
[[nodiscard]] bool decode_wire_message(const ble::common::Frame& frame, WireMessage& out,
                                       std::string* error = nullptr);

}  // namespace injectable::campaign
