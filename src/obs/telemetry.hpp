// Campaign-wide telemetry: the wall-clock observability layer that spans
// the leader/worker process boundary.
//
// Every observability layer below this one (MetricsRegistry, event traces,
// Chrome timelines) is strictly deterministic: a pure function
// of (config, seed), merged in trial-index order, bit-identical for any
// worker count.  A *distributed* campaign needs the opposite kind of data —
// which shard is slow, which worker went silent, how many bytes a transport
// moved — and all of it is host wall time by nature.  This module keeps the
// two worlds apart by construction:
//
//  * every value derived from the host clock lives under the `telemetry.*`
//    metric namespace and in a separate JSONL campaign log, never in series
//    records, metrics.* snapshots, or traces;
//  * the only wall-clock read of the whole path is ble::telemetry_now_ns()
//    (src/common/time.hpp), behind a single audited lint allow(D2) — callers
//    here take explicit `now_ms` parameters so tests drive a fake clock.
//
// CampaignTelemetrySink is the leader-side aggregator: shard lifecycle spans
// (issued → accepted → running → done | lost, re-issued on later rounds),
// per-endpoint transport counters and heartbeat round-trip histograms,
// per-worker attribution, and the straggler watchdog that flags shards
// exceeding a configurable multiple of the median completed-shard latency.
// It appends one JSON line per event to the campaign telemetry log (the CI
// artifact campaign_report --telemetry consumes) and closes the log with a
// summary record.  All methods are thread-safe: endpoint reader threads and
// the leader's watchdog call concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace ble::obs {

/// Shard lifecycle.  kReissued marks a later-round issue of a task an
/// earlier attempt lost; the remaining states describe the current attempt.
enum class ShardState : std::uint8_t {
    kIssued = 0,
    kReissued = 1,
    kAccepted = 2,  ///< worker confirmed the task (TaskStart arrived)
    kRunning = 3,   ///< first trial progress arrived
    kDone = 4,      ///< TaskDone committed
    kLost = 5,      ///< stream died before TaskDone; task returns to pending
};

[[nodiscard]] const char* shard_state_name(ShardState state) noexcept;

/// Compact histogram total (count + sum) — the over-the-wire form of a
/// HistogramSnapshot in worker telemetry frames.
struct HistTotal {
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    friend bool operator==(const HistTotal&, const HistTotal&) = default;
};

/// One worker heartbeat / task-end snapshot as it travels the campaign wire
/// (src/campaign encodes this as the Telemetry frame).  `t_ms` is the
/// worker-side telemetry clock; counters/hists are empty on periodic
/// heartbeats and carry the compact MetricsRegistry totals on
/// the task-end snapshot (final_snapshot == true).
struct WorkerTelemetry {
    int worker = -1;
    int task = -1;
    std::int64_t t_ms = 0;
    int trials_done = 0;
    int trials_total = 0;
    std::uint64_t tx_frames = 0;  ///< frames this worker wrote so far (stream-cumulative)
    std::uint64_t tx_bytes = 0;
    bool final_snapshot = false;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistTotal> hists;

    friend bool operator==(const WorkerTelemetry&, const WorkerTelemetry&) = default;
};

/// One watchdog flag: a running shard whose elapsed time exceeds
/// straggler_factor × the median completed-shard latency.
struct StragglerFlag {
    int task = -1;
    int worker = -1;
    int round = 0;
    std::int64_t elapsed_ms = 0;
    std::int64_t median_ms = 0;
};

struct TelemetrySinkParams {
    std::string campaign;     ///< plan name, stamped into every JSONL line
    std::string jsonl_path;   ///< telemetry log path ("" keeps it in memory)
    int total_trials = 0;     ///< campaign trial count (ETA denominator)
    /// A running shard is flagged once its elapsed time exceeds this multiple
    /// of the median completed-shard latency.  <= 0 disables the watchdog.
    double straggler_factor = 4.0;
    /// Completed shards required before the watchdog arms (a median over one
    /// or two samples flags noise, not stragglers).
    int min_done_for_watchdog = 3;
};

class CampaignTelemetrySink {
public:
    explicit CampaignTelemetrySink(TelemetrySinkParams params);
    ~CampaignTelemetrySink();
    CampaignTelemetrySink(const CampaignTelemetrySink&) = delete;
    CampaignTelemetrySink& operator=(const CampaignTelemetrySink&) = delete;

    // -- shard lifecycle (leader calls; `trials` rides the issue event so
    //    per-worker attribution can credit completed trials) ----------------
    void shard_issued(int task, int series, int trials, int worker, int round,
                      std::int64_t now_ms, bool reissue);
    void shard_accepted(int task, int worker, int round, std::int64_t now_ms);
    void shard_running(int task, int worker, int round, std::int64_t now_ms);
    void shard_done(int task, int worker, int round, std::int64_t now_ms);
    void shard_lost(int task, int worker, int round, std::int64_t now_ms,
                    const std::string& reason);

    // -- transport + worker telemetry --------------------------------------
    /// Leader-side receive accounting for one endpoint stream read.
    void transport_read(int worker, std::uint64_t bytes, std::uint64_t frames);
    /// One decoded worker Telemetry frame; `now_ms` - hb.t_ms is the
    /// heartbeat transport latency (same monotonic clock on one host).
    void worker_heartbeat(const WorkerTelemetry& hb, std::int64_t now_ms);
    /// Stream teardown: ok = orderly EOF; torn/timeout classify failures.
    void stream_closed(int worker, int round, bool ok, bool torn, bool timeout);

    // -- watchdog + status --------------------------------------------------
    /// Evaluates running shards against the median completed-shard latency;
    /// logs and returns shards newly (or still) over the limit.  Each shard
    /// attempt is logged at most once.
    std::vector<StragglerFlag> check_stragglers(std::int64_t now_ms);

    /// Extra status-document fields for the live dashboard, starting with a
    /// comma (spliced into the leader's status JSON before its closing '}'):
    /// trials done, shard state counts, per-worker throughput/heartbeat-age,
    /// flagged stragglers, ETA.
    [[nodiscard]] std::string status_fields_json(std::int64_t now_ms) const;

    /// Writes the closing summary line (per-worker attribution, final shard
    /// spans, the telemetry.* snapshot).  Idempotent.
    void close(std::int64_t now_ms);

    // -- inspection (tests, campaign_ctl) -----------------------------------
    struct ShardRecord {
        int task = -1;
        int series = 0;
        int trials = 0;
        int worker = -1;
        int round = 0;
        ShardState state = ShardState::kIssued;
        std::int64_t issued_ms = 0;
        std::int64_t elapsed_ms = 0;  ///< set on done/lost
        int attempts = 0;             ///< issue count (1 + re-issues)
        bool flagged = false;         ///< straggler-flagged this attempt
    };
    [[nodiscard]] std::vector<ShardRecord> shards() const;
    /// All telemetry.* counters/gauges/histograms accumulated so far.
    [[nodiscard]] MetricsSnapshot telemetry_metrics() const;
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;
    [[nodiscard]] int straggler_count() const;
    [[nodiscard]] const std::string& jsonl_path() const noexcept {
        return params_.jsonl_path;
    }

private:
    struct WorkerState {
        int task = -1;
        int trials_done = 0;
        int trials_total = 0;
        std::int64_t last_hb_ms = 0;   ///< leader-clock arrival of last heartbeat
        std::int64_t first_seen_ms = 0;
        std::uint64_t heartbeats = 0;
        std::uint64_t rx_frames = 0;
        std::uint64_t rx_bytes = 0;
        // Worker-reported tx counters are cumulative per stream; a drop below
        // the last value marks a new stream and folds the old one into total.
        std::uint64_t stream_tx_frames = 0;
        std::uint64_t stream_tx_bytes = 0;
        std::uint64_t total_tx_frames = 0;
        std::uint64_t total_tx_bytes = 0;
        std::uint64_t tasks_done = 0;
        std::uint64_t trials_credited = 0;
        std::int64_t busy_ms = 0;  ///< sum of completed-shard latencies
    };

    ShardRecord& shard_slot(int task);
    void write_line_locked(const std::string& line);
    void lifecycle_line_locked(const ShardRecord& shard, std::int64_t now_ms,
                               const std::string& extra);
    [[nodiscard]] std::int64_t median_done_latency_locked() const;
    [[nodiscard]] int campaign_trials_done_locked() const;
    [[nodiscard]] std::uint64_t counter_unlocked(std::string_view name) const;

    TelemetrySinkParams params_;
    // guards: registry_, shards_, workers_, flagged_ and the journal writer
    mutable std::mutex mutex_;
    MetricsRegistry registry_;
    std::vector<ShardRecord> shards_;
    std::map<int, WorkerState> workers_;
    std::vector<StragglerFlag> flagged_;
    std::int64_t first_event_ms_ = -1;  ///< leader clock of the first issue
    bool closed_ = false;
    std::string jsonl_buffer_;  ///< in-memory log when jsonl_path is empty
};

/// Formats a WorkerTelemetry as the JSON object both the wire frame and the
/// telemetry log use: {"worker":..,"task":..,"t_ms":..,...,"counters":{...},
/// "hists":{"name":{"n":..,"sum":..},...}}.
[[nodiscard]] std::string worker_telemetry_to_json(const WorkerTelemetry& hb);

/// Builds the compact task-end snapshot from a merged MetricsSnapshot:
/// every counter verbatim, histograms reduced to {n, sum}.  Gauges are
/// dropped (their `last` field is meaningless across shards).
void compact_snapshot(const MetricsSnapshot& snapshot, WorkerTelemetry& out);

}  // namespace ble::obs
