// Campaign leader: issue shards, cache results, re-issue losses, merge.
//
// The leader owns the only durable result state (the ResultCache).  Each
// round it assigns every still-pending task round-robin across fresh
// endpoints from the factory, drains their streams on reader threads, and
// commits only tasks whose TaskDone arrived.  A worker that crashes, hangs,
// or tears a frame loses its uncommitted tasks back to the pending pool for
// the next round — a shard is *never* silently dropped; exhausting
// max_rounds is an explicit error.
//
// Once complete, the merger recombines shard outputs per series in
// trial-index order (plan tiling is contiguous and ordered) and replays them
// into the edge ResultSink, producing records, metrics and artifacts
// bit-identical to a single-process run over the same plan.
#pragma once

#include <functional>
#include <string>

#include "campaign/cache.hpp"
#include "campaign/endpoint.hpp"
#include "campaign/plan.hpp"
#include "world/result_sink.hpp"

namespace injectable::campaign {

struct LeaderOptions {
    /// Worker slots per round (tasks are assigned round-robin).
    int workers = 1;
    /// Issue rounds before the campaign gives up with an explicit error.
    int max_rounds = 5;
    /// Per-read stream timeout; a silent worker past this is abandoned.
    int read_timeout_ms = 120000;
    /// Optional path for the JSON status document written each round.
    std::string status_path;
    /// Optional callback receiving the same status JSON.
    std::function<void(const std::string&)> on_status;
};

struct CampaignOutcome {
    bool ok = false;
    int rounds = 0;         ///< issue rounds actually run
    int reissued_tasks = 0; ///< task attempts beyond the first round
    std::string error;
};

/// Runs `plan` to completion against workers minted by `factory`, then merges
/// into `sink` (the campaign's edge sink — the only consumer of results).
[[nodiscard]] CampaignOutcome run_campaign(const CampaignPlan& plan,
                                           const EndpointFactory& factory,
                                           const LeaderOptions& options,
                                           world::ResultSink& sink);

/// The merge step alone: recombines a *complete* cache into `sink`, per
/// series in trial-index order.  run_campaign calls this after the rounds;
/// `campaign_ctl merge` drives it over frame dumps recorded offline.
void merge_into_sink(const CampaignPlan& plan, const ResultCache& cache,
                     world::ResultSink& sink);

/// JSON status document: {"campaign","round","tasks_total","tasks_done",
/// "trials_total","pending":[...]} — written to status_path / on_status
/// after each round and once more after the merge.  `round` counts the
/// issue rounds run so far, so a failed campaign's last document agrees
/// with its "incomplete after N round(s)" error.
[[nodiscard]] std::string campaign_status_json(const CampaignPlan& plan, int round,
                                               int tasks_done,
                                               const std::vector<int>& pending);

}  // namespace injectable::campaign
