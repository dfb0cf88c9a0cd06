#include "campaign/worker.hpp"

#include <atomic>
#include <mutex>

#include <unistd.h>

#include "campaign/wire.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace injectable::campaign {

namespace {

/// ByteStream wrapper that counts outbound frames and bytes — the worker's
/// half of the transport accounting.  Each write() call is exactly one wire
/// frame (every encoder returns one framed string), so frames == writes.
class CountingStream final : public ByteStream {
public:
    explicit CountingStream(ByteStream& inner) : inner_(inner) {}

    bool write(std::string_view bytes) override {
        tx_frames_.fetch_add(1, std::memory_order_relaxed);
        tx_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
        return inner_.write(bytes);
    }
    ReadStatus read_some(std::string& out, int timeout_ms) override {
        return inner_.read_some(out, timeout_ms);
    }
    void close_write() override { inner_.close_write(); }

    [[nodiscard]] std::uint64_t tx_frames() const noexcept {
        return tx_frames_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t tx_bytes() const noexcept {
        return tx_bytes_.load(std::memory_order_relaxed);
    }

private:
    ByteStream& inner_;
    std::atomic<std::uint64_t> tx_frames_{0};
    std::atomic<std::uint64_t> tx_bytes_{0};
};

/// Encodes every sink callback as a wire frame.  Frame writes are serialized
/// with a mutex: trial completions arrive concurrently from TrialRunner
/// workers and frames must hit the stream whole.
class StreamResultSink final : public world::ResultSink {
public:
    StreamResultSink(CountingStream& stream, std::mutex& write_mutex, int worker, int task,
                     int task_total, world::ResultChannels channels, int crash_after_trials,
                     int heartbeat_ms, std::atomic<int>& trials_completed)
        : stream_(stream),
          write_mutex_(write_mutex),
          worker_(worker),
          task_(task),
          task_total_(task_total),
          channels_(channels),
          crash_after_trials_(crash_after_trials),
          heartbeat_ms_(heartbeat_ms),
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
        maybe_heartbeat_locked(done, total);
        if (crash_after_trials_ >= 0 && completed >= crash_after_trials_) {
            // Fault injection: die the ugliest way available — a torn frame
            // (header promising more payload than follows) and a hard exit,
            // so the leader sees a mid-frame EOF with no TaskDone.
            stream_.write(std::string("\x40\x00\x00\x00\x02\x00\x00\x00{\"task\":", 12));
            _exit(2);
        }
    }

private:
    void maybe_heartbeat_locked(int done, int total) {
        if (heartbeat_ms_ < 0) return;
        const std::int64_t now = ble::telemetry_now_ms();
        if (last_heartbeat_ms_ != 0 && now - last_heartbeat_ms_ < heartbeat_ms_) return;
        last_heartbeat_ms_ = now;
        ble::obs::WorkerTelemetry hb;
        hb.worker = worker_;
        hb.task = task_;
        hb.t_ms = now;
        hb.trials_done = done;
        hb.trials_total = total > 0 ? total : task_total_;
        hb.tx_frames = stream_.tx_frames();
        hb.tx_bytes = stream_.tx_bytes();
        stream_.write(encode_telemetry(hb));
    }

    CountingStream& stream_;
    std::mutex& write_mutex_;  // guards: stream_ writes (frames must not interleave)
    int worker_;
    int task_;
    int task_total_;
    world::ResultChannels channels_;
    int crash_after_trials_;
    int heartbeat_ms_;
    std::int64_t last_heartbeat_ms_ = 0;
    std::atomic<int>& trials_completed_;
};

}  // namespace

bool run_worker_tasks(const CampaignPlan& plan, const std::vector<int>& task_ids,
                      ByteStream& raw_stream, const WorkerOptions& options,
                      std::string* error) {
    CountingStream stream(raw_stream);
    auto fail = [&](const std::string& message) {
        stream.write(encode_error(options.worker_id, message));
        stream.close_write();
        if (error != nullptr) *error = message;
        return false;
    };

    const bool telemetry = options.heartbeat_ms >= 0;
    std::mutex write_mutex;
    std::atomic<int> trials_completed{0};

    world::ResultChannels channels = plan.channels;
    // Shard invariants regardless of what a hand-edited plan says.
    channels.series_record = false;
    channels.wall_clock = false;
    if (options.crash_after_trials >= 0) channels.progress = true;  // crash hook rides progress
    // Heartbeats ride the progress callback too: without it run_series never
    // re-enters the sink between trials.
    if (telemetry) channels.progress = true;

    stream.write(encode_hello(options.worker_id));
    if (telemetry) {
        // Announce: task -1, zero trials — gives the leader a first
        // heartbeat (and clock anchor) before any task output.
        ble::obs::WorkerTelemetry hb;
        hb.worker = options.worker_id;
        hb.t_ms = ble::telemetry_now_ms();
        hb.tx_frames = stream.tx_frames();
        hb.tx_bytes = stream.tx_bytes();
        stream.write(encode_telemetry(hb));
    }
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
        StreamResultSink sink(stream, write_mutex, options.worker_id, task.id, task.count,
                              channels, options.crash_after_trials, options.heartbeat_ms,
                              trials_completed);
        const std::vector<world::RunResult> results =
            world::run_series(config, sink, world::SeriesSlice{task.first, task.count});

        const std::lock_guard lock(write_mutex);
        bool ok = stream.write(encode_task_results(task.id, results));
        if (ok && have_partial) ok = stream.write(encode_task_metrics(task.id, partial));
        if (ok && telemetry) {
            // Task-end snapshot: the shard's merged MetricsRegistry totals in
            // compact form, plus final transport counters.
            ble::obs::WorkerTelemetry hb;
            hb.worker = options.worker_id;
            hb.task = task.id;
            hb.t_ms = ble::telemetry_now_ms();
            hb.trials_done = task.count;
            hb.trials_total = task.count;
            hb.final_snapshot = true;
            if (have_partial) ble::obs::compact_snapshot(partial, hb);
            hb.tx_frames = stream.tx_frames();
            hb.tx_bytes = stream.tx_bytes();
            ok = stream.write(encode_telemetry(hb));
        }
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
