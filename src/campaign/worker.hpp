// Shard worker runtime: executes plan tasks and streams result frames.
//
// A worker is given the full plan plus the task ids it owns, runs each task
// through world::run_series with a ResultSink that encodes everything onto
// the wire, and terminates the stream with WorkerDone.  It holds no result
// state of its own — the leader's ResultCache is the only accumulator — so
// a worker that dies mid-task simply never sends that task's TaskDone and
// the leader re-issues it.
//
// The same entry point serves both transports: in-process threads hand it a
// ConduitStream, spawned workers (campaign_ctl worker) an FdStream on stdout.
#pragma once

#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/transport.hpp"

namespace injectable::campaign {

struct WorkerOptions {
    int worker_id = 0;
    /// Parallel trial jobs inside the worker (0 = config value; the plan pins
    /// configs to jobs=1 so shard-level parallelism is the default).
    int jobs = 0;
    /// Fault injection: after this many completed trials (across tasks), the
    /// worker writes a torn partial frame and calls _exit(2).  -1 disables.
    /// Only meaningful for spawned workers.
    int crash_after_trials = -1;
};

/// Runs `task_ids` from `plan` and streams frames onto `stream`.  Returns
/// false (with *error) on invalid task ids or a dead stream; the stream's
/// write side is closed before returning either way.
bool run_worker_tasks(const CampaignPlan& plan, const std::vector<int>& task_ids,
                      ByteStream& stream, const WorkerOptions& options = {},
                      std::string* error = nullptr);

}  // namespace injectable::campaign
