#include "campaign/worker.hpp"

#include <atomic>
#include <mutex>

#include <unistd.h>

#include "campaign/wire.hpp"
#include "obs/metrics.hpp"

namespace injectable::campaign {

namespace {

/// Encodes every sink callback as a wire frame.  Frame writes are serialized
/// with a mutex: trial completions arrive concurrently from TrialRunner
/// workers and frames must hit the stream whole.
class StreamResultSink final : public world::ResultSink {
public:
    StreamResultSink(ByteStream& stream, std::mutex& write_mutex, int task,
                     world::ResultChannels channels, int crash_after_trials,
                     std::atomic<int>& trials_completed)
        : stream_(stream),
          write_mutex_(write_mutex),
          task_(task),
          channels_(channels),
          crash_after_trials_(crash_after_trials),
          trials_completed_(trials_completed) {}

    [[nodiscard]] const world::ResultChannels& channels() const noexcept override {
        return channels_;
    }

    void on_artifact(const world::TrialArtifact& artifact) override {
        const std::lock_guard lock(write_mutex_);
        stream_.write(encode_artifact(task_, artifact));
    }

    void on_series_record(const world::ExperimentConfig&, const world::SeriesSlice&,
                          const std::vector<world::RunResult>&,
                          const ble::obs::MetricsSnapshot*) override {
        // Workers never own the series record (the plan forces the channel
        // off); the leader's merger emits it once, over all shards.
    }

    void on_progress(const std::string&, int done, int total) override {
        const int completed = trials_completed_.fetch_add(1) + 1;
        const std::lock_guard lock(write_mutex_);
        stream_.write(encode_progress(task_, done, total));
        if (crash_after_trials_ >= 0 && completed >= crash_after_trials_) {
            // Fault injection: die the ugliest way available — a torn frame
            // (header promising more payload than follows) and a hard exit,
            // so the leader sees a mid-frame EOF with no TaskDone.
            stream_.write(std::string("\x40\x00\x00\x00\x02\x00\x00\x00{\"task\":", 12));
            _exit(2);
        }
    }

private:
    ByteStream& stream_;
    std::mutex& write_mutex_;  // guards: stream_ writes (frames must not interleave)
    int task_;
    world::ResultChannels channels_;
    int crash_after_trials_;
    std::atomic<int>& trials_completed_;
};

}  // namespace

bool run_worker_tasks(const CampaignPlan& plan, const std::vector<int>& task_ids,
                      ByteStream& stream, const WorkerOptions& options,
                      std::string* error) {
    auto fail = [&](const std::string& message) {
        stream.write(encode_error(options.worker_id, message));
        stream.close_write();
        if (error != nullptr) *error = message;
        return false;
    };

    std::mutex write_mutex;
    std::atomic<int> trials_completed{0};

    world::ResultChannels channels = plan.channels;
    // Shard invariants regardless of what a hand-edited plan says.
    channels.series_record = false;
    channels.wall_clock = false;
    if (options.crash_after_trials >= 0) channels.progress = true;  // crash hook rides progress

    stream.write(encode_hello(options.worker_id));
    for (const int task_id : task_ids) {
        if (task_id < 0 || task_id >= static_cast<int>(plan.tasks.size())) {
            return fail("unknown task id " + std::to_string(task_id));
        }
        const ShardTask& task = plan.tasks[static_cast<std::size_t>(task_id)];
        world::ExperimentConfig config = plan.series[static_cast<std::size_t>(task.series)];
        if (options.jobs > 0) config.jobs = options.jobs;

        ble::obs::MetricsSnapshot partial;
        bool have_partial = false;
        if (channels.metrics) {
            config.on_series_metrics = [&](const ble::obs::MetricsSnapshot& snapshot) {
                partial = snapshot;
                have_partial = true;
            };
        }

        {
            const std::lock_guard lock(write_mutex);
            if (!stream.write(encode_task_start(task.id))) {
                return fail("stream died before task " + std::to_string(task.id));
            }
        }
        StreamResultSink sink(stream, write_mutex, task.id, channels,
                              options.crash_after_trials, trials_completed);
        const std::vector<world::RunResult> results =
            world::run_series(config, sink, world::SeriesSlice{task.first, task.count});

        const std::lock_guard lock(write_mutex);
        bool ok = stream.write(encode_task_results(task.id, results));
        if (ok && have_partial) ok = stream.write(encode_task_metrics(task.id, partial));
        if (ok) ok = stream.write(encode_task_done(task.id));
        if (!ok) return fail("stream died finishing task " + std::to_string(task.id));
    }
    {
        const std::lock_guard lock(write_mutex);
        stream.write(encode_worker_done(options.worker_id));
    }
    stream.close_write();
    return true;
}

}  // namespace injectable::campaign
