#include "campaign/leader.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/cache.hpp"
#include "campaign/wire.hpp"
#include "common/framing.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"

namespace injectable::campaign {

namespace {

/// Drains one endpoint stream into the cache.  Returns true on an orderly
/// end (EOF with no torn frame); any other exit leaves uncommitted tasks to
/// be abandoned by the caller.  `on_task_progress(task, done)` fires per
/// Progress frame (campaign-wide progress aggregation).
bool drain_stream(ByteStream& stream, int read_timeout_ms, ResultCache& cache,
                  std::mutex& cache_mutex,
                  const std::function<void(int, int)>& on_task_progress, std::string* error) {
    ble::common::FrameDecoder decoder;
    std::string chunk;
    for (;;) {
        chunk.clear();
        const ReadStatus status = stream.read_some(chunk, read_timeout_ms);
        if (status == ReadStatus::kTimeout) {
            *error = "worker silent past " + std::to_string(read_timeout_ms) + " ms";
            return false;
        }
        if (status == ReadStatus::kError) {
            *error = "transport read error";
            return false;
        }
        if (status == ReadStatus::kData) decoder.feed(chunk);
        for (;;) {
            const std::optional<ble::common::Frame> frame = decoder.next();
            if (!frame.has_value()) break;
            WireMessage message;
            std::string decode_error;
            if (!decode_wire_message(*frame, message, &decode_error)) {
                *error = "bad frame: " + decode_error;
                return false;
            }
            if (message.type == WireType::kProgress && on_task_progress) {
                on_task_progress(message.task, message.done);
            } else if (message.type == WireType::kTaskDone && on_task_progress) {
                on_task_progress(message.task, -1);  // -1 = task committed in full
            }
            const std::lock_guard lock(cache_mutex);
            std::string accept_error;
            if (!cache.accept(message, &accept_error)) {
                *error = accept_error;
                return false;
            }
        }
        if (!decoder.error().empty()) {
            *error = "frame decode: " + decoder.error();
            return false;
        }
        if (status == ReadStatus::kEof) {
            if (decoder.mid_frame()) {
                *error = "stream ended mid-frame";
                return false;
            }
            return true;
        }
    }
}

void emit_status(const CampaignPlan& plan, const LeaderOptions& options, int round,
                 int tasks_done, const std::vector<int>& pending) {
    if (options.status_path.empty() && !options.on_status) return;
    const std::string status = campaign_status_json(plan, round, tasks_done, pending);
    if (!options.status_path.empty()) {
        ble::obs::write_text_file(options.status_path, status + "\n");
    }
    if (options.on_status) options.on_status(status);
}

}  // namespace

std::string campaign_status_json(const CampaignPlan& plan, int round, int tasks_done,
                                 const std::vector<int>& pending) {
    std::string out = "{\"campaign\":\"";
    ble::obs::append_json_escaped(out, plan.name);
    out += "\",\"round\":" + std::to_string(round);
    out += ",\"tasks_total\":" + std::to_string(plan.tasks.size());
    out += ",\"tasks_done\":" + std::to_string(tasks_done);
    out += ",\"trials_total\":" + std::to_string(plan.total_trials());
    out += ",\"pending\":[";
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(pending[i]);
    }
    out += "]}";
    return out;
}

CampaignOutcome run_campaign(const CampaignPlan& plan, const EndpointFactory& factory,
                             const LeaderOptions& options, world::ResultSink& sink) {
    CampaignOutcome outcome;
    ResultCache cache(plan);
    std::mutex cache_mutex;
    std::string last_error;

    // Campaign-wide progress aggregation (the INJECTABLE_PROGRESS fix): the
    // per-task Progress frames from every worker fold into one leader-side
    // trials-done line on the edge sink.  The sink is not assumed
    // thread-safe, so the fold and the callback share one mutex.
    const bool edge_progress = sink.channels().progress;
    std::mutex progress_mutex;
    std::vector<int> task_done(plan.tasks.size(), 0);
    const int trials_total = plan.total_trials();
    auto on_task_progress = [&](int task, int done) {
        if (!edge_progress) return;
        if (task < 0 || task >= static_cast<int>(task_done.size())) return;
        const int task_trials = plan.tasks[static_cast<std::size_t>(task)].count;
        const std::lock_guard lock(progress_mutex);
        const int value = done < 0 ? task_trials : std::min(done, task_trials);
        task_done[static_cast<std::size_t>(task)] =
            std::max(task_done[static_cast<std::size_t>(task)], value);
        int total_done = 0;
        for (const int d : task_done) total_done += d;
        sink.on_progress(plan.name, total_done, trials_total);
    };

    const int worker_slots = std::max(1, options.workers);
    for (int round = 0; round < std::max(1, options.max_rounds); ++round) {
        const std::vector<int> pending = cache.pending();
        if (pending.empty()) break;
        outcome.rounds = round + 1;
        if (round > 0) outcome.reissued_tasks += static_cast<int>(pending.size());

        // Round-robin assignment over however many slots have work.
        const int active = std::min<int>(worker_slots, static_cast<int>(pending.size()));
        std::vector<std::vector<int>> assignment(static_cast<std::size_t>(active));
        for (std::size_t i = 0; i < pending.size(); ++i) {
            assignment[i % static_cast<std::size_t>(active)].push_back(pending[i]);
        }

        struct Slot {
            int id = 0;
            std::unique_ptr<Endpoint> endpoint;
            std::vector<int> tasks;
            std::thread reader;
            bool drained_ok = false;
            std::string error;
        };
        std::vector<Slot> slots(static_cast<std::size_t>(active));
        for (int w = 0; w < active; ++w) {
            Slot& slot = slots[static_cast<std::size_t>(w)];
            slot.id = w;
            slot.tasks = assignment[static_cast<std::size_t>(w)];
            slot.endpoint = factory(w, round);
            if (!slot.endpoint) {
                slot.error = "endpoint factory returned null";
                continue;
            }
            ByteStream* stream = slot.endpoint->start(plan, slot.tasks, &slot.error);
            if (stream == nullptr) continue;
            slot.reader = std::thread([stream, &slot, &cache, &cache_mutex, &options,
                                       &on_task_progress] {
                slot.drained_ok = drain_stream(*stream, options.read_timeout_ms, cache,
                                               cache_mutex, on_task_progress, &slot.error);
            });
        }

        for (Slot& slot : slots) {
            if (slot.reader.joinable()) slot.reader.join();
            if (!slot.endpoint) continue;
            if (!slot.drained_ok) slot.endpoint->interrupt();
            std::string finish_error;
            const bool finished_ok = slot.endpoint->finish(&finish_error);
            if (!slot.drained_ok || !finished_ok) {
                std::string why = slot.error;
                if (!finished_ok && !finish_error.empty()) {
                    if (!why.empty()) why += "; ";
                    why += finish_error;
                }
                last_error = slot.endpoint->describe() + ": " + why;
                const std::lock_guard lock(cache_mutex);
                const std::lock_guard progress_lock(progress_mutex);
                for (const int task : slot.tasks) {
                    cache.abandon(task);
                    // Lost progress is re-earned by the re-issued attempt.
                    if (!cache.output(task).done) task_done[static_cast<std::size_t>(task)] = 0;
                }
            }
        }

        emit_status(plan, options, outcome.rounds, cache.done_count(), cache.pending());
    }

    if (!cache.complete()) {
        outcome.error = "campaign incomplete after " + std::to_string(outcome.rounds) +
                        " round(s); " + std::to_string(cache.pending().size()) +
                        " task(s) unfinished";
        if (!last_error.empty()) outcome.error += " (last failure: " + last_error + ")";
        return outcome;
    }

    merge_into_sink(plan, cache, sink);
    emit_status(plan, options, outcome.rounds, cache.done_count(), {});
    outcome.ok = true;
    return outcome;
}

void merge_into_sink(const CampaignPlan& plan, const ResultCache& cache,
                     world::ResultSink& sink) {
    // Merge: per series, concatenate committed task slices in trial-index
    // order.  The plan's tiling is contiguous and series_tasks() sorts by
    // slice start, so this is exactly the order a single process produces;
    // metrics partials merge in the same order (MetricsSnapshot::merge over
    // ordered partials == sequential per-trial merge).
    const world::ResultChannels& edge = sink.channels();
    for (std::size_t s = 0; s < plan.series.size(); ++s) {
        const world::ExperimentConfig& config = plan.series[s];
        std::vector<world::RunResult> merged;
        merged.reserve(static_cast<std::size_t>(std::max(0, config.runs)));
        ble::obs::MetricsSnapshot metrics;
        bool have_metrics = false;
        for (const int task_id : plan.series_tasks(static_cast<int>(s))) {
            const TaskOutput& output = cache.output(task_id);
            merged.insert(merged.end(), output.results.begin(), output.results.end());
            if (output.have_metrics) {
                metrics.merge(output.metrics);
                have_metrics = true;
            }
            for (const world::TrialArtifact& artifact : output.artifacts) {
                sink.on_artifact(artifact);
            }
        }
        if (edge.series_record) {
            sink.on_series_record(config, world::SeriesSlice{0, config.runs}, merged,
                                  (edge.metrics && have_metrics) ? &metrics : nullptr);
        }
        if (edge.progress) {
            sink.on_progress(config.name, static_cast<int>(merged.size()),
                             static_cast<int>(merged.size()));
        }
    }
}

}  // namespace injectable::campaign
