// The four workloads (perfbench/README.md records why each exists).
#include <algorithm>

#include "bench.hpp"

namespace perfbench {

namespace {

using injectable::world::WorldSpec;

/// Trial seeds of run `seed`: series s, trial j -> (seed << 32) + (s << 24) + j.
std::uint64_t series_base(std::uint64_t seed, std::size_t series) {
    return (seed << 32) + (static_cast<std::uint64_t>(series) << 24);
}

/// The paper's Fig. 8 testbed with a 22-byte injected write (12-byte LL
/// payload), a 1500-attempt budget and one worker.
ExperimentConfig paper_config(std::string name, WorldSpec world) {
    ExperimentConfig config;
    config.name = std::move(name);
    config.world = std::move(world);
    config.ll_payload_size = 12;
    config.max_attempts = 1500;
    config.jobs = 1;
    return config;
}

/// Exp. 3 geometry: victims 2 m apart, attacker on the far side of the bulb.
ExperimentConfig far_attacker(std::string name, double distance_m, bool wall) {
    WorldSpec world = WorldSpec::paper_baseline();
    world.peripheral_pos = {0.0, 0.0};
    world.central_pos = {2.0, 0.0};
    world.attacker_pos = {-distance_m, 0.0};
    if (wall) world.walls.push_back(ble::sim::Wall{{-1.0, -50.0}, {-1.0, 50.0}, 6.0});
    return paper_config(std::move(name), std::move(world));
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        unsigned nproc) {
    auto w = std::make_unique<Workload>();
    w->name = name;
    if (name == "paper_baseline" || name == "campaign_artifacts") {
        w->series.push_back(paper_config(name, WorldSpec::paper_baseline()));
        w->warmup_trials = 800;
        w->batch_trials = 2000;
        w->verify_trials = 2000;
        w->count_trials = 400;
        w->reference_trials = 48;
    } else if (name == "long_range") {
        w->series.push_back(far_attacker("long_range_E_8m", 8.0, false));
        w->series.push_back(far_attacker("long_range_F_10m", 10.0, false));
        w->series.push_back(far_attacker("long_range_8m_wall", 8.0, true));
        w->warmup_trials = 150;
        w->batch_trials = 2400;
        w->verify_trials = 600;
        w->count_trials = 300;
        w->reference_trials = 12;
    } else if (name == "office_crowd") {
        w->series.push_back(paper_config(name, WorldSpec::office()));
        w->warmup_trials = 120;
        w->batch_trials = 1000;
        w->verify_trials = 500;
        w->count_trials = 200;
        w->reference_trials = 12;
    } else {
        return nullptr;
    }
    // Every workload's trials can also run as a campaign plan with every
    // result channel on: the traced run times the campaign layer on them, and
    // every run checks the merge against a single-process run_series.
    w->channels.series_record = true;
    w->channels.metrics = true;
    w->channels.traces = true;
    w->channels.trace_all = true;
    w->channels.timelines = true;
    w->channels.captures = true;
    w->channels.wall_clock = false;
    w->campaign_trials = static_cast<int>(16 * w->series.size());
    w->campaign_shards = 4;
    // Two workers, but never more busy threads than the machine has.
    w->campaign_workers = static_cast<int>(std::clamp(nproc, 1u, 2u));
    if (name == "campaign_artifacts") {
        w->campaign = true;
        w->warmup_trials = 128;
        w->batch_trials = 1024;
        w->verify_trials = 1024;
        w->reference_trials = 16;
    }
    for (std::size_t s = 0; s < w->series.size(); ++s) {
        w->series[s].base_seed = series_base(seed, s);
    }
    return w;
}

}  // namespace perfbench
