// Shared declarations of the host-cost benchmark.
//
// The benchmark drives the library only through its public API, from the
// outside: it times calls into world/core/sim/campaign entry points and
// counts events on the public obs::EventBus.  Nothing here is linked into
// the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/bus.hpp"
#include "world/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using injectable::world::ExperimentConfig;
using injectable::world::RunResult;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// --- alloc_count.cpp -------------------------------------------------------

/// Heap allocations made by the calling thread since it started (counted by
/// the benchmark binary's replacement global operator new).
struct AllocCounts {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCounts thread_alloc_counts() noexcept;

// --- workloads.cpp ---------------------------------------------------------

/// One benchmark workload: a list of series (trial i runs series i % S with
/// series-local index i / S, seed = series base_seed + i / S) and the result
/// channels its trials produce.
struct Workload {
    std::string name;
    std::vector<ExperimentConfig> series;
    /// Trials run as campaign plans through campaign::run_campaign with
    /// `channels` on (campaign_artifacts); otherwise each trial is one call to
    /// run_injection_experiment_with_retry with every channel off.
    bool campaign = false;
    /// Campaign plans of any workload (its own loop, the traced run's
    /// campaign pass, the merge check) produce these outputs.
    injectable::world::ResultChannels channels{};
    int campaign_trials = 0;   ///< trials per campaign plan (multiple of S)
    int campaign_shards = 0;   ///< shard tasks per plan
    int campaign_workers = 0;  ///< in-process worker endpoints
    int warmup_trials = 0;     ///< per set-up repetition
    /// Trials per end-to-end round (multiple of S and of campaign_trials);
    /// every round's results are also checked against the library.
    int batch_trials = 0;
    /// Leading trials of the batch checked against the traced driver and
    /// run_series (multiple of S and of campaign_trials).
    int verify_trials = 0;
    /// Trials of the traced run's exact-count pass and phase rounds.
    int count_trials = 0;
    int reference_trials = 0;  ///< default-seed digest check
};

/// The seed every reference digest is recorded at.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Builds the named workload with its series seeded from `seed`; nullptr for
/// an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, unsigned nproc);

/// Series and series-local trial index of global trial `i`.
[[nodiscard]] inline const ExperimentConfig& series_of(const Workload& w, std::uint64_t i) {
    return w.series[i % w.series.size()];
}
[[nodiscard]] inline std::uint64_t trial_seed(const Workload& w, std::uint64_t i) {
    return series_of(w, i).base_seed + i / w.series.size();
}

// --- driver.cpp ------------------------------------------------------------

/// Phase spans of the mirrored trial.  A trial span is the parent of the
/// phase spans; campaign spans cover one run_campaign call and its merge.
enum class SpanName : std::uint8_t {
    kTrial,
    kConstruct,
    kEstablish,
    kSync,
    kInject,
    kSerialize,
    kTeardown,
    kCampaignRun,
    kCampaignMerge,
    kCount
};
[[nodiscard]] const char* span_name(SpanName name) noexcept;
[[nodiscard]] SpanName span_parent(SpanName name) noexcept;

struct Span {
    std::uint64_t id = 0;  ///< trial seed (campaign spans: first trial seed)
    SpanName name = SpanName::kTrial;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// In-memory span store; written out once, when the benchmark ends.
class SpanLog {
public:
    void add(std::uint64_t id, SpanName name, std::int64_t start, std::int64_t end) {
        spans_.push_back(Span{id, name, start, end});
    }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    void reserve(std::size_t n) { spans_.reserve(n); }
    /// One JSON object per line: id, name, parent, start/end ns.
    bool write_jsonl(const std::string& path) const;

private:
    std::vector<Span> spans_;
};

/// Per-world observers of a mirrored trial: called right after each World is
/// built (once per setup retry) to attach sinks, and after the trial's last
/// phase to serialize what they gathered.
struct TrialObservers {
    virtual ~TrialObservers() = default;
    virtual void attach(ble::obs::EventBus& bus, std::uint64_t trial_seed) = 0;
    virtual void finish(const RunResult& result) = 0;
};

struct MirroredTrial {
    RunResult result;
    /// Simulated time the trial advanced, summed over its setup retries.
    std::int64_t sim_ns = 0;
};

/// Step-for-step mirror of world::run_injection_experiment_with_retry built
/// from public calls only (World::World, World::establish_and_sniff,
/// AttackSession::start/inject, Scheduler::run_until), so phase spans can be
/// recorded around each call.  `spans` and `observers` may be null.
[[nodiscard]] MirroredTrial run_mirrored_trial(const ExperimentConfig& config,
                                               std::uint64_t seed, SpanLog* spans,
                                               TrialObservers* observers);

// --- recorder.cpp ----------------------------------------------------------

/// Exact work counts of a set of trials, taken by a counting obs sink.
struct WorkCounts {
    std::uint64_t trials = 0;
    std::uint64_t failed_trials = 0;  ///< no successful injection
    std::uint64_t attempts = 0;
    std::uint64_t events = 0;
    std::uint64_t tx = 0;
    std::uint64_t rx_delivered = 0;
    std::uint64_t rx_corrupted = 0;
    std::uint64_t rx_lost_sync = 0;
    std::uint64_t conn_events = 0;  ///< ConnEvent kEventClosed, both ends
    std::uint64_t window_widen = 0;
    std::uint64_t injection_attempts = 0;
    std::uint64_t crc_bytes = 0;  ///< PDU bytes CRC'd at TX + at each synced RX
    std::uint64_t sim_ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;

    friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
};

/// Every observable of one trial's event stream, deep-copied so it can be
/// replayed after the trial's world is gone.
struct RecordedTrial {
    std::vector<ble::obs::Event> events;
    /// Owns the bytes and strings the recorded events view.
    std::vector<std::unique_ptr<ble::Bytes>> byte_store;
    std::vector<std::unique_ptr<std::string>> text_store;
    std::uint64_t seed = 0;  ///< the trial's seed
    /// Payloads whose CRC the radios computed: one PDU per TxStart plus one
    /// per receiver the frame was handed to (delivered or corrupted), with
    /// the PDU's RF channel for whitening.
    std::vector<std::pair<std::uint8_t, ble::BytesView>> crc_work;
};

/// Observer that counts work on the bus and, optionally, records the event
/// stream of each trial.
class CountingObservers final : public TrialObservers {
public:
    explicit CountingObservers(bool record);
    ~CountingObservers() override;
    CountingObservers(const CountingObservers&) = delete;
    CountingObservers& operator=(const CountingObservers&) = delete;
    void attach(ble::obs::EventBus& bus, std::uint64_t trial_seed) override;
    void finish(const RunResult& result) override;

    [[nodiscard]] const WorkCounts& counts() const noexcept { return counts_; }
    [[nodiscard]] std::vector<RecordedTrial>& recorded() noexcept { return recorded_; }
    /// Folds per-trial measurements taken outside the bus into the counts.
    void add_trial_costs(std::uint64_t sim_ns, const AllocCounts& allocs) {
        counts_.sim_ns += sim_ns;
        counts_.allocs += allocs.calls;
        counts_.alloc_bytes += allocs.bytes;
    }

private:
    class Sink;
    bool record_ = false;
    WorkCounts counts_{};
    std::unique_ptr<Sink> sink_;
    std::unique_ptr<RecordedTrial> current_;
    std::vector<RecordedTrial> recorded_;
};

/// The sinks run_series attaches when every artifact channel is on (JSONL
/// trace, metrics, Chrome timeline, PCAP capture), serialized at the end of
/// each trial as run_series serializes them.
class ArtifactObservers final : public TrialObservers {
public:
    explicit ArtifactObservers(const ExperimentConfig& config);
    ~ArtifactObservers() override;
    ArtifactObservers(const ArtifactObservers&) = delete;
    ArtifactObservers& operator=(const ArtifactObservers&) = delete;
    void attach(ble::obs::EventBus& bus, std::uint64_t trial_seed) override;
    void finish(const RunResult& result) override;

private:
    struct Sinks;
    const ExperimentConfig& config_;
    std::unique_ptr<Sinks> sinks_;
};

/// Host cost of the obs layer over recorded event streams: each sink type
/// fed the same events, then serialized, per trial.  Passes repeat for
/// `budget_s`; each component is charged its fastest pass.
struct ObsReplayCost {
    double ns_per_event_jsonl = 0;
    double ns_per_event_metrics = 0;
    double ns_per_event_capture = 0;
    double ns_per_event_timeline = 0;
    double serialize_us_per_trial = 0;
    std::uint64_t artifact_bytes = 0;  ///< exact: serialized bytes, all trials
};
[[nodiscard]] ObsReplayCost replay_obs_sinks(const std::vector<RecordedTrial>& trials,
                                             const ExperimentConfig& config, double budget_s);

/// phy::crc24 and phy::whiten timed over exactly the recorded PDUs.
struct PhyReplayCost {
    double crc_ns = 0;     ///< one pass over every trial's CRC work
    double whiten_ns = 0;  ///< one pass over every trial's whitening work
    std::uint32_t crc_fold = 0;  ///< keeps the work observable
};
[[nodiscard]] PhyReplayCost replay_phy(const std::vector<RecordedTrial>& trials,
                                       double budget_s);

/// In-memory ResultSink: keeps series records and artifacts as bytes.
class MemorySink final : public injectable::world::ResultSink {
public:
    /// `keep_bytes` keeps every record and artifact byte for comparison.
    MemorySink(injectable::world::ResultChannels channels, bool keep_bytes)
        : channels_(channels), keep_bytes_(keep_bytes) {}
    [[nodiscard]] const injectable::world::ResultChannels& channels() const noexcept override {
        return channels_;
    }
    void on_artifact(const injectable::world::TrialArtifact& artifact) override;
    void on_series_record(const ExperimentConfig& config,
                          const injectable::world::SeriesSlice& slice,
                          const std::vector<RunResult>& results,
                          const ble::obs::MetricsSnapshot* metrics) override;
    void on_progress(const std::string&, int, int) override {}

    /// Host time of the first callback (the merge's first output), 0 if none.
    [[nodiscard]] std::int64_t first_callback_ns() const noexcept { return first_callback_ns_; }
    [[nodiscard]] const std::vector<RunResult>& results() const noexcept { return results_; }
    /// FNV-1a over every record and artifact (kind, stem, bytes) in order.
    [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
    /// Every record and artifact in order (only with keep_bytes).
    [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
    void clear();

private:
    void note_callback();
    void fold(std::string_view bytes);

    injectable::world::ResultChannels channels_;
    bool keep_bytes_ = false;
    std::mutex mutex_;  // guards: every member below
    std::int64_t first_callback_ns_ = 0;
    std::vector<RunResult> results_;
    std::uint64_t digest_ = 14695981039346656037ull;
    std::string bytes_;
};

/// FNV-1a over the deterministic fields of `results` (wall_ms zeroed).
[[nodiscard]] std::uint64_t results_digest(const std::vector<RunResult>& results);

}  // namespace perfbench
