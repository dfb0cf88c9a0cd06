// Endpoint: one launched worker behind one leader-side byte stream.
//
// The leader never cares how a worker runs — thread or spawned process —
// only that start() yields a readable stream of result frames and finish()
// reports whether the worker ended cleanly.  Two stock transports:
//
//  * in-process — worker runs on a std::thread over a conduit pair; zero
//    syscalls, the reference transport for tests;
//  * spawn      — fork/exec `campaign_ctl worker`, frames arrive on the
//    child's stdout pipe; the transport that survives (and so can
//    fault-inject) a worker process death.
//
// An EndpointFactory lets the leader mint a fresh endpoint per worker per
// round, which is how re-issued tasks land on new workers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/transport.hpp"
#include "campaign/worker.hpp"

namespace injectable::campaign {

class Endpoint {
public:
    virtual ~Endpoint() = default;

    /// Launches the worker on `task_ids`.  Returns the leader-side stream
    /// (owned by the endpoint, valid until destruction) or nullptr + *error.
    [[nodiscard]] virtual ByteStream* start(const CampaignPlan& plan,
                                            std::vector<int> task_ids,
                                            std::string* error) = 0;

    /// Best-effort hard stop (kill the process) for a worker the leader has
    /// given up on.  Safe to call at any point.
    virtual void interrupt() {}

    /// Reaps the worker after the stream is drained.  False (with *error)
    /// when the worker failed: nonzero exit, signal, worker-side error.
    [[nodiscard]] virtual bool finish(std::string* error) = 0;

    [[nodiscard]] virtual std::string describe() const = 0;
};

/// Mints the endpoint for worker slot `worker` in re-issue round `round`.
using EndpointFactory = std::function<std::unique_ptr<Endpoint>(int worker, int round)>;

[[nodiscard]] std::unique_ptr<Endpoint> make_inprocess_endpoint(WorkerOptions options = {});

struct SpawnOptions {
    std::string binary;     ///< campaign_ctl executable path
    std::string plan_path;  ///< plan JSON on disk (the child re-reads it)
    WorkerOptions worker;   ///< worker_id / jobs / crash_after_trials
};

/// fork/exec `binary worker --plan ... --tasks ...`; frames on child stdout.
[[nodiscard]] std::unique_ptr<Endpoint> make_spawn_endpoint(SpawnOptions options);

}  // namespace injectable::campaign
