// The traced phase driver: world::run_injection_experiment_with_retry
// re-stated step for step with public calls, so each phase can be timed from
// outside the library.  main.cpp asserts per seed that it returns exactly
// what the library's own entry points return, so the spans describe the real
// program.
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "core/forge.hpp"
#include "obs/sinks.hpp"

namespace perfbench {

using namespace ble;
using injectable::AttackSession;
using injectable::AttemptReport;
using injectable::world::World;

const char* span_name(SpanName name) noexcept {
    switch (name) {
        case SpanName::kTrial: return "trial";
        case SpanName::kConstruct: return "world.construct";
        case SpanName::kEstablish: return "host.establish";
        case SpanName::kSync: return "core.sync";
        case SpanName::kInject: return "core.inject";
        case SpanName::kSerialize: return "obs.serialize";
        case SpanName::kTeardown: return "world.teardown";
        case SpanName::kCampaignRun: return "campaign.run";
        case SpanName::kCampaignMerge: return "campaign.merge";
        case SpanName::kCount: break;
    }
    return "?";
}

SpanName span_parent(SpanName name) noexcept {
    switch (name) {
        case SpanName::kTrial:
        case SpanName::kCampaignRun: return SpanName::kCount;  // roots
        case SpanName::kCampaignMerge: return SpanName::kCampaignRun;
        default: return SpanName::kTrial;
    }
}

bool SpanLog::write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    for (const Span& s : spans_) {
        const SpanName parent = span_parent(s.name);
        out << "{\"id\":" << s.id << ",\"name\":\"" << span_name(s.name) << "\",\"parent\":"
            << (parent == SpanName::kCount ? std::string("null")
                                           : "\"" + std::string(span_name(parent)) + "\"")
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
}

namespace {

/// One world of the trial: world::run_injection_experiment, step for step.
RunResult run_attempt(const ExperimentConfig& config, std::uint64_t trial_id,
                      std::uint64_t seed, SpanLog* spans, TrialObservers* observers,
                      std::int64_t& sim_ns) {
    auto mark = [&](SpanName name, std::int64_t& since) {
        const std::int64_t t = now_ns();
        if (spans != nullptr) spans->add(trial_id, name, since, t);
        since = t;
    };

    RunResult result;
    result.seed = seed;
    std::int64_t t = now_ns();
    auto w = std::make_unique<World>(config.world, seed);
    {
        if (config.per_trial_sinks) config.per_trial_sinks(w->bus(), seed);
        if (observers != nullptr) observers->attach(w->bus(), trial_id);
        w->emit_phase("trial-start");

        obs::ScopedSubscription hook_sub;
        if (config.on_attempt_hook) {
            hook_sub = obs::ScopedSubscription(w->bus(), [&config](const obs::Event& event) {
                const auto* a = std::get_if<obs::InjectionAttempt>(&event);
                if (a != nullptr && a->report != nullptr) config.on_attempt_hook(*a->report);
            });
        }
        mark(SpanName::kConstruct, t);

        w->establish_and_sniff(10_s);
        result.established = w->central->connected() && w->peripheral->connected();
        result.sniffed = w->sniffed.has_value();
        bool ready = result.established && result.sniffed;
        if (ready && config.world.encrypt_link && !w->encrypt()) ready = false;
        mark(SpanName::kEstablish, t);

        std::optional<bool> outcome;
        int commands_seen = 0;
        if (ready) {
            w->start_traffic();
            w->session =
                std::make_unique<AttackSession>(*w->attacker, *w->sniffed, config.world.attack);
            AttackSession& session = *w->session;
            session.on_connection_lost = [&result] { result.session_lost = true; };
            w->peripheral->on_disconnected = [&result](link::DisconnectReason) {
                result.victim_disconnected = true;
            };
            w->central->on_disconnected = [&result](link::DisconnectReason) {
                result.victim_disconnected = true;
            };
            session.start();
            w->scheduler.run_until(w->scheduler.now() +
                                   8 * connection_interval(config.world.hop_interval));

            Bytes payload;
            if (config.payload_override) {
                payload = *config.payload_override;
            } else if (config.ll_payload_size >= 11) {
                const std::size_t pad = config.ll_payload_size - 11;
                payload = injectable::att_over_l2cap(att::make_write_cmd(
                    w->bulb.control_handle(),
                    gatt::LightbulbProfile::cmd_set_color(
                        static_cast<std::uint8_t>(w->rng.next_below(256)),
                        static_cast<std::uint8_t>(w->rng.next_below(256)),
                        static_cast<std::uint8_t>(w->rng.next_below(256)), pad)));
            } else {
                payload.resize(config.ll_payload_size);
                for (auto& b : payload) b = static_cast<std::uint8_t>(w->rng.next_below(256));
            }
            mark(SpanName::kSync, t);

            const bool observable = !config.payload_override && config.ll_payload_size >= 11;
            commands_seen = w->bulb.state().commands_received;
            World& world = *w;
            session.on_attempt = [&](const AttemptReport& report) {
                result.attempts = report.attempt;
                bool accepted = false;
                if (observable) {
                    accepted = world.bulb.state().commands_received > commands_seen;
                    commands_seen = world.bulb.state().commands_received;
                    const bool won = report.verdict.success();
                    if (won && !accepted) ++result.heuristic_false_positives;
                    if (!won && accepted) ++result.heuristic_false_negatives;
                }
                if (world.bus().active()) {
                    obs::InjectionAttempt event;
                    event.time = world.scheduler.now();
                    event.attempt = report.attempt;
                    event.event_counter = report.event_counter;
                    event.channel = report.channel;
                    event.heuristic_success = report.verdict.success();
                    event.ground_truth_known = observable;
                    event.accepted_by_slave = accepted;
                    event.report = &report;
                    world.bus().emit(event);
                }
            };

            AttackSession::InjectionRequest request;
            request.llid = config.llid;
            request.payload = payload;
            request.max_attempts = config.max_attempts;
            request.done = [&](bool ok, int attempts) {
                outcome = ok;
                result.attempts = attempts;
            };
            w->emit_phase("inject");
            session.inject(std::move(request));
            const Duration budget = connection_interval(config.world.hop_interval) *
                                    (4 * config.max_attempts + 64);
            w->run_until(budget, [&] { return outcome.has_value(); });
            w->stop_traffic();
            result.success = outcome.value_or(false);
            char done_detail[48];
            std::snprintf(done_detail, sizeof(done_detail), "success=%d attempts=%d",
                          result.success ? 1 : 0, result.attempts);
            w->emit_phase("done", done_detail);
            mark(SpanName::kInject, t);
        }
        sim_ns += w->scheduler.now();
    }
    w.reset();
    mark(SpanName::kTeardown, t);
    return result;
}

}  // namespace

MirroredTrial run_mirrored_trial(const ExperimentConfig& config, std::uint64_t seed,
                                 SpanLog* spans, TrialObservers* observers) {
    MirroredTrial out;
    const std::int64_t start = now_ns();
    for (int attempt = 0; attempt < injectable::world::kSetupRetries; ++attempt) {
        const std::uint64_t world_seed = seed + 7919u * static_cast<std::uint64_t>(attempt);
        out.result = run_attempt(config, seed, world_seed, spans, observers, out.sim_ns);
        if (out.result.established && out.result.sniffed) break;
    }
    out.result.seed = seed;
    if (observers != nullptr) {
        const std::int64_t t = now_ns();
        observers->finish(out.result);
        if (spans != nullptr) spans->add(seed, SpanName::kSerialize, t, now_ns());
    }
    if (spans != nullptr) spans->add(seed, SpanName::kTrial, start, now_ns());
    return out;
}

}  // namespace perfbench
