#include "campaign/cache.hpp"

namespace injectable::campaign {

ResultCache::ResultCache(const CampaignPlan& plan) {
    outputs_.resize(plan.tasks.size());
    expected_counts_.reserve(plan.tasks.size());
    for (const ShardTask& task : plan.tasks) {
        outputs_[static_cast<std::size_t>(task.id)].task = task.id;
        expected_counts_.push_back(task.count);
    }
}

bool ResultCache::accept(const WireMessage& message, std::string* error) {
    auto fail = [&](std::string text) {
        if (error != nullptr) *error = std::move(text);
        return false;
    };
    switch (message.type) {
        case WireType::kHello:
        case WireType::kWorkerDone:
        case WireType::kProgress: return true;  // informational, no task state
        case WireType::kError: return fail("worker error: " + message.message);
        case WireType::kTaskStart:
        case WireType::kTaskResults:
        case WireType::kTaskMetrics:
        case WireType::kArtifact:
        case WireType::kTaskDone: break;  // task-scoped: validated below
    }
    if (message.task < 0 || message.task >= static_cast<int>(outputs_.size())) {
        return fail("frame for unknown task " + std::to_string(message.task));
    }
    TaskOutput& slot = outputs_[static_cast<std::size_t>(message.task)];
    if (slot.done) {
        // A task committed by an earlier attempt must never be rewritten: a
        // straggling duplicate stream is a protocol violation, not a merge.
        return fail("frame for already-completed task " + std::to_string(message.task));
    }
    switch (message.type) {
        case WireType::kTaskStart:
            if (slot.started) return fail("duplicate TaskStart for task " +
                                          std::to_string(message.task));
            slot.started = true;
            return true;
        case WireType::kTaskResults:
            if (!slot.started) return fail("TaskResults before TaskStart");
            if (static_cast<int>(message.results.size()) !=
                expected_counts_[static_cast<std::size_t>(message.task)]) {
                return fail("task " + std::to_string(message.task) + " delivered " +
                            std::to_string(message.results.size()) + " trials, expected " +
                            std::to_string(expected_counts_[static_cast<std::size_t>(
                                message.task)]));
            }
            slot.results = message.results;
            return true;
        case WireType::kTaskMetrics:
            if (!slot.started) return fail("TaskMetrics before TaskStart");
            slot.metrics = message.metrics;
            slot.have_metrics = true;
            return true;
        case WireType::kArtifact:
            if (!slot.started) return fail("Artifact before TaskStart");
            slot.artifacts.push_back(message.artifact);
            return true;
        case WireType::kTaskDone:
            if (!slot.started) return fail("TaskDone before TaskStart");
            if (slot.results.empty() &&
                expected_counts_[static_cast<std::size_t>(message.task)] != 0) {
                return fail("TaskDone without TaskResults for task " +
                            std::to_string(message.task));
            }
            slot.done = true;
            return true;
        case WireType::kHello:
        case WireType::kProgress:
        case WireType::kWorkerDone:
        case WireType::kError:
            break;  // already fully handled (returned) by the switch above
    }
    return fail("unhandled frame type");
}

void ResultCache::abandon(int task) {
    if (task < 0 || task >= static_cast<int>(outputs_.size())) return;
    TaskOutput& slot = outputs_[static_cast<std::size_t>(task)];
    if (slot.done) return;
    slot = TaskOutput{};
    slot.task = task;
}

std::vector<int> ResultCache::pending() const {
    std::vector<int> ids;
    for (const TaskOutput& slot : outputs_) {
        if (!slot.done) ids.push_back(slot.task);
    }
    return ids;
}

bool ResultCache::complete() const {
    for (const TaskOutput& slot : outputs_) {
        if (!slot.done) return false;
    }
    return true;
}

int ResultCache::done_count() const {
    int count = 0;
    for (const TaskOutput& slot : outputs_) {
        if (slot.done) ++count;
    }
    return count;
}

}  // namespace injectable::campaign
