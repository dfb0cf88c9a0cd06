// Exact work counters read off the public event bus, the obs/phy replays
// that time single layers over recorded traffic, and the in-memory result
// sink the campaign workload writes to.
#include <array>
#include <limits>
#include <unordered_map>

#include "bench.hpp"
#include "link/trace.hpp"
#include "obs/capture/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/timeline.hpp"
#include "phy/crc.hpp"
#include "phy/spec.hpp"
#include "phy/whitening.hpp"
#include "world/replay.hpp"

namespace perfbench {

using namespace ble;

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    return h;
}

/// PDU (header + payload) inside an on-air AA + PDU + CRC frame.
BytesView pdu_of(BytesView frame) {
    if (frame.size() < phy::kAccessAddressBytes + phy::kCrcBytes) return {};
    return frame.subspan(phy::kAccessAddressBytes,
                         frame.size() - phy::kAccessAddressBytes - phy::kCrcBytes);
}

}  // namespace

// ---------------------------------------------------------------------------
// Counting (and recording) sink

class CountingObservers::Sink final : public obs::EventSink {
public:
    Sink(WorkCounts& counts, RecordedTrial* record) : counts_(counts), record_(record) {}

    void on_event(const obs::Event& event) override {
        ++counts_.events;
        std::visit([this](const auto& e) { count(e); }, event);
        if (record_ != nullptr) std::visit([this](const auto& e) { keep(e); }, event);
    }

private:
    void count(const obs::TxStart& e) {
        ++counts_.tx;
        const std::size_t pdu = pdu_of(e.bytes).size();
        counts_.crc_bytes += pdu;
        tx_pdu_bytes_[e.tx_id] = pdu;
    }
    void count(const obs::RxDecision& e) {
        switch (e.verdict) {
            case obs::RxVerdict::kDelivered: ++counts_.rx_delivered; break;
            case obs::RxVerdict::kDeliveredCorrupted: ++counts_.rx_corrupted; break;
            case obs::RxVerdict::kLostSync: ++counts_.rx_lost_sync; return;
        }
        const auto it = tx_pdu_bytes_.find(e.tx_id);
        if (it != tx_pdu_bytes_.end()) counts_.crc_bytes += it->second;
    }
    void count(const obs::ConnEvent& e) {
        if (e.kind == obs::ConnEvent::Kind::kEventClosed) ++counts_.conn_events;
    }
    void count(const obs::WindowWiden&) { ++counts_.window_widen; }
    void count(const obs::InjectionAttempt&) { ++counts_.injection_attempts; }
    void count(const obs::IdsAlert&) {}
    void count(const obs::TrialPhase&) {}

    std::string_view text(std::string_view s) {
        record_->text_store.push_back(std::make_unique<std::string>(s));
        return *record_->text_store.back();
    }
    BytesView bytes(BytesView b) {
        record_->byte_store.push_back(std::make_unique<Bytes>(b.begin(), b.end()));
        return *record_->byte_store.back();
    }

    void keep(obs::TxStart e) {
        e.sender = text(e.sender);
        e.bytes = bytes(e.bytes);
        e.sender_device = nullptr;
        e.frame = nullptr;
        const BytesView pdu = pdu_of(e.bytes);
        tx_pdu_views_[e.tx_id] = {e.channel, pdu};
        record_->crc_work.emplace_back(e.channel, pdu);
        record_->events.emplace_back(e);
    }
    void keep(obs::RxDecision e) {
        e.receiver = text(e.receiver);
        if (e.verdict != obs::RxVerdict::kLostSync) {
            const auto it = tx_pdu_views_.find(e.tx_id);
            if (it != tx_pdu_views_.end()) record_->crc_work.push_back(it->second);
        }
        record_->events.emplace_back(e);
    }
    void keep(obs::ConnEvent e) {
        e.device = text(e.device);
        e.reason = text(e.reason);
        record_->events.emplace_back(e);
    }
    void keep(obs::WindowWiden e) {
        e.device = text(e.device);
        record_->events.emplace_back(e);
    }
    void keep(obs::InjectionAttempt e) {
        e.report = nullptr;
        record_->events.emplace_back(e);
    }
    void keep(obs::IdsAlert e) {
        e.type_name = text(e.type_name);
        e.detail = text(e.detail);
        record_->events.emplace_back(e);
    }
    void keep(obs::TrialPhase e) {
        e.phase = text(e.phase);
        e.detail = text(e.detail);
        record_->events.emplace_back(e);
    }

    WorkCounts& counts_;
    RecordedTrial* record_;
    std::unordered_map<std::uint64_t, std::size_t> tx_pdu_bytes_;
    std::unordered_map<std::uint64_t, std::pair<std::uint8_t, BytesView>> tx_pdu_views_;
};

CountingObservers::CountingObservers(bool record) : record_(record) {}
CountingObservers::~CountingObservers() = default;

void CountingObservers::attach(obs::EventBus& bus, std::uint64_t /*trial_seed*/) {
    // A setup retry builds a fresh world: like run_series' per-trial sinks,
    // the recording restarts so it holds only the surviving world's events.
    // Counts keep accumulating — the failed world's work was still done.
    if (record_) current_ = std::make_unique<RecordedTrial>();
    sink_ = std::make_unique<Sink>(counts_, current_.get());
    bus.attach(*sink_);
}

void CountingObservers::finish(const RunResult& result) {
    ++counts_.trials;
    if (!result.success) ++counts_.failed_trials;
    counts_.attempts += static_cast<std::uint64_t>(result.attempts);
    if (current_) {
        current_->seed = result.seed;
        recorded_.push_back(std::move(*current_));
        current_.reset();
    }
}

// ---------------------------------------------------------------------------
// Live artifact sinks

struct ArtifactObservers::Sinks {
    explicit Sinks(const ExperimentConfig& config, std::uint64_t seed)
        : trace(link::describe_frame), metrics(registry) {
        trace.set_header(injectable::world::experiment_meta_json(
            config, seed, injectable::world::kSetupRetries));
    }
    obs::JsonlTraceSink trace;
    obs::MetricsRegistry registry;
    obs::MetricsSink metrics;
    obs::ChannelOccupancySink occupancy;
    obs::capture::CaptureSink capture;
};

ArtifactObservers::ArtifactObservers(const ExperimentConfig& config) : config_(config) {}
ArtifactObservers::~ArtifactObservers() = default;

void ArtifactObservers::attach(obs::EventBus& bus, std::uint64_t trial_seed) {
    // run_series keys the trace header by the trial's base seed; a setup
    // retry restarts every sink, as run_series does.
    sinks_.reset();
    sinks_ = std::make_unique<Sinks>(config_, trial_seed);
    bus.attach(sinks_->trace);
    bus.attach(sinks_->metrics);
    bus.attach(sinks_->occupancy);
    bus.attach(sinks_->capture);
}

void ArtifactObservers::finish(const RunResult& /*result*/) {
    if (!sinks_) return;
    // What run_series produces from these sinks at the end of a trial (it
    // serializes the merged metrics once per series; here, once per trial).
    sinks_->metrics.finalize();
    (void)sinks_->registry.snapshot().to_json();
    (void)sinks_->trace.str();
    (void)sinks_->occupancy.chrome_trace_json();
    (void)sinks_->capture.pcap_bytes();
    sinks_.reset();
}

// ---------------------------------------------------------------------------
// obs replay

namespace {

/// Runs `pass` (which adds its component times to `ns`) at least twice and
/// until `budget_s` is spent; each component is charged its fastest pass, as
/// the end-to-end rounds charge each trial its fastest round.
template <std::size_t N, typename Pass>
std::array<double, N> fastest_passes(double budget_s, Pass&& pass) {
    std::array<double, N> best;
    best.fill(std::numeric_limits<double>::infinity());
    const std::int64_t start = now_ns();
    for (int n = 0; n < 2 || static_cast<double>(now_ns() - start) < budget_s * 1e9; ++n) {
        std::array<std::int64_t, N> ns{};
        pass(ns);
        for (std::size_t i = 0; i < N; ++i) {
            best[i] = std::min(best[i], static_cast<double>(ns[i]));
        }
    }
    return best;
}

}  // namespace

ObsReplayCost replay_obs_sinks(const std::vector<RecordedTrial>& trials,
                               const ExperimentConfig& config, double budget_s) {
    std::uint64_t events = 0;
    for (const RecordedTrial& trial : trials) events += trial.events.size();
    ObsReplayCost cost;
    bool first_pass = true;
    // Components: the four sinks' on_event loops, then serialization.
    const std::array<double, 5> best = fastest_passes<5>(budget_s, [&](auto& ns) {
        for (const RecordedTrial& trial : trials) {
            obs::JsonlTraceSink trace(link::describe_frame);
            trace.set_header(injectable::world::experiment_meta_json(
                config, trial.seed, injectable::world::kSetupRetries));
            obs::MetricsRegistry registry;
            obs::MetricsSink metrics(registry);
            obs::capture::CaptureSink capture;
            obs::ChannelOccupancySink occupancy;
            obs::EventSink* sinks[4] = {&trace, &metrics, &capture, &occupancy};
            for (std::size_t k = 0; k < 4; ++k) {
                const std::int64_t t0 = now_ns();
                for (const obs::Event& e : trial.events) sinks[k]->on_event(e);
                ns[k] += now_ns() - t0;
            }
            const std::int64_t t0 = now_ns();
            const std::string trace_text = trace.str();
            metrics.finalize();
            const std::string metrics_text = registry.snapshot().to_json();
            const std::string pcap = capture.pcap_bytes();
            const std::string timeline = occupancy.chrome_trace_json();
            ns[4] += now_ns() - t0;
            if (first_pass) {
                cost.artifact_bytes += trace_text.size() + pcap.size() + timeline.size();
            }
        }
        first_pass = false;
    });
    const double n_events = events == 0 ? 1.0 : static_cast<double>(events);
    cost.ns_per_event_jsonl = best[0] / n_events;
    cost.ns_per_event_metrics = best[1] / n_events;
    cost.ns_per_event_capture = best[2] / n_events;
    cost.ns_per_event_timeline = best[3] / n_events;
    cost.serialize_us_per_trial =
        trials.empty() ? 0.0 : best[4] / 1e3 / static_cast<double>(trials.size());
    return cost;
}

PhyReplayCost replay_phy(const std::vector<RecordedTrial>& trials, double budget_s) {
    PhyReplayCost cost;
    Bytes scratch;
    std::uint32_t fold = 0;
    const std::array<double, 2> best = fastest_passes<2>(budget_s, [&](auto& ns) {
        for (const RecordedTrial& trial : trials) {
            std::int64_t t0 = now_ns();
            for (const auto& [channel, pdu] : trial.crc_work) {
                fold ^= phy::crc24(pdu, 0x555555u ^ fold);
            }
            ns[0] += now_ns() - t0;
            t0 = now_ns();
            for (const auto& [channel, pdu] : trial.crc_work) {
                // The radio whitens PDU + CRC; three CRC bytes ride along.
                scratch.assign(pdu.begin(), pdu.end());
                scratch.resize(pdu.size() + phy::kCrcBytes, static_cast<std::uint8_t>(fold));
                phy::whiten(channel, scratch);
                fold += scratch.back();
            }
            ns[1] += now_ns() - t0;
        }
    });
    cost.crc_ns = best[0];
    cost.whiten_ns = best[1];
    cost.crc_fold = fold;
    return cost;
}

// ---------------------------------------------------------------------------
// In-memory result sink

void MemorySink::note_callback() {
    if (first_callback_ns_ == 0) first_callback_ns_ = now_ns();
}

void MemorySink::fold(std::string_view bytes) {
    digest_ = fnv1a(digest_, bytes);
    if (keep_bytes_) bytes_.append(bytes);
}

void MemorySink::on_artifact(const injectable::world::TrialArtifact& artifact) {
    const std::lock_guard lock(mutex_);
    note_callback();
    const char kind = static_cast<char>('0' + static_cast<int>(artifact.kind));
    fold(std::string_view(&kind, 1));
    fold(artifact.stem);
    fold(artifact.content);
}

void MemorySink::on_series_record(const ExperimentConfig& config,
                                  const injectable::world::SeriesSlice& /*slice*/,
                                  const std::vector<RunResult>& results,
                                  const obs::MetricsSnapshot* metrics) {
    const std::lock_guard lock(mutex_);
    note_callback();
    fold(injectable::world::to_json(config, results, metrics));
    results_.insert(results_.end(), results.begin(), results.end());
}

void MemorySink::clear() {
    const std::lock_guard lock(mutex_);
    first_callback_ns_ = 0;
    results_.clear();
    digest_ = 14695981039346656037ull;
    bytes_.clear();
}

std::uint64_t results_digest(const std::vector<RunResult>& results) {
    std::uint64_t h = 14695981039346656037ull;
    std::string line;
    for (RunResult r : results) {
        r.wall_ms = 0.0;
        line.clear();
        injectable::world::append_run_result_json(line, r);
        h = fnv1a(h, line);
    }
    return h;
}

}  // namespace perfbench
