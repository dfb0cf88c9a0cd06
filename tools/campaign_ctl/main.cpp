// campaign_ctl: plan, execute, and merge sharded experiment campaigns.
//
//   campaign_ctl plan   --out FILE [--name S] [--runs N] [--shards N]
//                       [--metrics] [--traces] [--trace-all] [--timelines]
//                       [--captures] [--progress]
//   campaign_ctl run    --plan FILE [--transport inprocess|spawn|local]
//                       [--workers N] [--rounds N] [--timeout-ms N]
//                       [--json FILE] [--trace-dir DIR] [--trace-all] [--gzip]
//                       [--chrome-dir DIR] [--pcap-dir DIR] [--metrics-print]
//                       [--progress] [--status FILE] [--self BIN]
//                       [--chaos-kill-first N]
//   campaign_ctl worker --plan FILE --tasks ID[,ID...] [--worker N] [--jobs N]
//                       [--crash-after-trials N] [--out FILE|-]
//   campaign_ctl merge  --plan FILE [sink flags as for run] FRAMES...
//   campaign_ctl status FILE
//
// `run --transport local` is the single-process reference: the same plan
// executed inline through the same edge sink, producing the bytes every
// sharded transport must reproduce exactly.  `--chaos-kill-first N` (spawn
// only) makes worker 0 of round 0 die after N trials with a torn frame —
// the leader must re-issue and converge on identical output.  `--status
// FILE` rewrites a JSON status document after every round; `status FILE`
// prints it (its final `round` is the number of issue rounds the run took).
//
// Integer flags take a whole decimal token within the flag's range:
// --workers, --rounds, --timeout-ms, --runs and --shards at least 1; --jobs
// and --worker at least 0; --crash-after-trials and --chaos-kill-first at
// least -1 (-1 disables).
//
// exits 0 on success, 1 on campaign/worker failure, 2 on usage/IO errors.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "campaign/endpoint.hpp"
#include "campaign/leader.hpp"
#include "campaign/plan.hpp"
#include "campaign/transport.hpp"
#include "campaign/wire.hpp"
#include "common/json.hpp"
#include "obs/sinks.hpp"
#include "world/experiment.hpp"
#include "world/result_sink.hpp"

namespace {

using namespace injectable;
using namespace injectable::campaign;

void print_usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <plan|run|worker|merge|status> [options]\n"
                 "  plan   --out FILE [--name S] [--runs N] [--shards N] [channel flags]\n"
                 "  run    --plan FILE [--transport inprocess|spawn|local]\n"
                 "         [--workers N] [--rounds N] [--timeout-ms N] [sink flags]\n"
                 "         [--status FILE] [--chaos-kill-first N]\n"
                 "  worker --plan FILE --tasks ID[,ID...] [--worker N] [--jobs N]\n"
                 "         [--crash-after-trials N] [--out FILE|-]\n"
                 "  merge  --plan FILE [sink flags] FRAMES...\n"
                 "  status FILE\n",
                 argv0);
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

bool load_plan(const std::string& path, CampaignPlan& plan) {
    std::string text;
    if (!read_file(path, text)) {
        std::fprintf(stderr, "campaign_ctl: cannot read plan %s\n", path.c_str());
        return false;
    }
    std::string error;
    if (!plan_from_json(text, plan, &error)) {
        std::fprintf(stderr, "campaign_ctl: %s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

/// Parses all of `text` as a decimal int no smaller than `min_value`; false
/// on an empty token, a non-digit, trailing characters or an out-of-range
/// value.
bool parse_int(std::string_view text, int min_value, int& out) {
    int value = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last || value < min_value) return false;
    out = value;
    return true;
}

std::vector<int> parse_task_csv(const std::string& csv, bool& ok) {
    std::vector<int> ids;
    ok = !csv.empty();
    std::size_t start = 0;
    while (ok && start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string_view token = std::string_view(csv).substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        int value = 0;
        ok = parse_int(token, 0, value);
        if (!ok) break;
        ids.push_back(value);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return ids;
}

std::string self_binary(const char* argv0) {
    char buffer[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
    return argv0;
}

/// Shared flag state for the subcommands (one parse loop, per-command use).
struct Options {
    std::string out_path;
    std::string plan_path;
    std::string name = "campaign";
    int runs = 25;
    int shards = 4;
    std::string transport = "inprocess";
    int workers = 4;
    int rounds = 5;
    int timeout_ms = 120000;
    world::SinkPaths sink;
    std::string status_path;
    std::string self_path;
    int chaos_kill_first = -1;
    std::string tasks_csv;
    int worker_id = 0;
    int jobs = 0;
    int crash_after_trials = -1;
    bool plan_metrics = false;
    bool plan_traces = false;
    bool plan_trace_all = false;
    bool plan_timelines = false;
    bool plan_captures = false;
    bool plan_progress = false;
    std::vector<std::string> positional;
};

bool parse_options(int argc, char** argv, int first, Options& options) {
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](std::string& slot) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "campaign_ctl: %s needs an argument\n", arg.c_str());
                return false;
            }
            slot = argv[++i];
            return true;
        };
        auto int_of = [&](int& slot, int min_value) {
            std::string text;
            if (!value_of(text)) return false;
            if (!parse_int(text, min_value, slot)) {
                std::fprintf(stderr, "campaign_ctl: %s needs an integer >= %d, got '%s'\n",
                             arg.c_str(), min_value, text.c_str());
                return false;
            }
            return true;
        };
        if (arg == "--out") { if (!value_of(options.out_path)) return false; }
        else if (arg == "--plan") { if (!value_of(options.plan_path)) return false; }
        else if (arg == "--name") { if (!value_of(options.name)) return false; }
        else if (arg == "--runs") { if (!int_of(options.runs, 1)) return false; }
        else if (arg == "--shards") { if (!int_of(options.shards, 1)) return false; }
        else if (arg == "--transport") { if (!value_of(options.transport)) return false; }
        else if (arg == "--workers") { if (!int_of(options.workers, 1)) return false; }
        else if (arg == "--rounds") { if (!int_of(options.rounds, 1)) return false; }
        else if (arg == "--timeout-ms") { if (!int_of(options.timeout_ms, 1)) return false; }
        else if (arg == "--json") { if (!value_of(options.sink.json_path)) return false; }
        else if (arg == "--trace-dir") { if (!value_of(options.sink.trace_dir)) return false; }
        else if (arg == "--trace-all") { options.sink.trace_all = true; options.plan_trace_all = true; }
        else if (arg == "--gzip") { options.sink.trace_gzip = true; }
        else if (arg == "--chrome-dir") { if (!value_of(options.sink.chrome_dir)) return false; }
        else if (arg == "--pcap-dir") { if (!value_of(options.sink.pcap_dir)) return false; }
        else if (arg == "--metrics-print") { options.sink.metrics_print = true; }
        else if (arg == "--metrics") { options.sink.metrics = true; options.plan_metrics = true; }
        else if (arg == "--progress") { options.sink.progress = true; options.plan_progress = true; }
        else if (arg == "--traces") { options.plan_traces = true; }
        else if (arg == "--timelines") { options.plan_timelines = true; }
        else if (arg == "--captures") { options.plan_captures = true; }
        else if (arg == "--status") { if (!value_of(options.status_path)) return false; }
        else if (arg == "--self") { if (!value_of(options.self_path)) return false; }
        else if (arg == "--chaos-kill-first") { if (!int_of(options.chaos_kill_first, -1)) return false; }
        else if (arg == "--tasks") { if (!value_of(options.tasks_csv)) return false; }
        else if (arg == "--worker") { if (!int_of(options.worker_id, 0)) return false; }
        else if (arg == "--jobs") { if (!int_of(options.jobs, 0)) return false; }
        else if (arg == "--crash-after-trials") { if (!int_of(options.crash_after_trials, -1)) return false; }
        else if (arg == "--help" || arg == "-h") { print_usage("campaign_ctl"); return false; }
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "campaign_ctl: unknown option '%s'\n", arg.c_str());
            return false;
        } else {
            options.positional.push_back(arg);
        }
    }
    return true;
}

int cmd_plan(const Options& options) {
    if (options.out_path.empty()) {
        std::fprintf(stderr, "campaign_ctl plan: --out is required\n");
        return 2;
    }
    world::ResultChannels channels;
    channels.metrics = options.plan_metrics;
    channels.traces = options.plan_traces;
    channels.trace_all = options.plan_trace_all;
    channels.timelines = options.plan_timelines;
    channels.captures = options.plan_captures;
    channels.progress = options.plan_progress;
    const CampaignPlan plan =
        plan_campaign(options.name, experiment1_grid(options.runs), options.shards, channels);
    if (!ble::obs::write_text_file(options.out_path, plan_to_json(plan) + "\n")) {
        std::fprintf(stderr, "campaign_ctl plan: cannot write %s\n", options.out_path.c_str());
        return 2;
    }
    std::fprintf(stderr, "campaign_ctl: planned %zu series / %zu tasks / %d trials -> %s\n",
                 plan.series.size(), plan.tasks.size(), plan.total_trials(),
                 options.out_path.c_str());
    return 0;
}

int cmd_run(const Options& options, const char* argv0) {
    CampaignPlan plan;
    if (!load_plan(options.plan_path, plan)) return 2;

    world::SinkPaths paths = options.sink;
    paths.wall_clock = false;  // campaign outputs are wall-clock-free by contract
    world::PathsResultSink sink(paths);
    // Workers produce exactly what the edge sink consumes; the worker runtime
    // re-forces series_record/wall_clock off on its side.
    plan.channels = sink.channels();

    if (options.transport == "local") {
        for (const world::ExperimentConfig& config : plan.series) {
            (void)world::run_series(config, sink);
        }
        std::fprintf(stderr, "campaign_ctl: local run complete (%zu series)\n",
                     plan.series.size());
        return 0;
    }

    if (options.chaos_kill_first >= 0 && options.transport != "spawn") {
        std::fprintf(stderr, "campaign_ctl run: --chaos-kill-first requires --transport spawn\n");
        return 2;
    }

    const std::string self =
        options.self_path.empty() ? self_binary(argv0) : options.self_path;
    EndpointFactory factory;
    if (options.transport == "inprocess") {
        factory = [](int worker, int) {
            WorkerOptions wo;
            wo.worker_id = worker;
            return make_inprocess_endpoint(wo);
        };
    } else if (options.transport == "spawn") {
        // A spawned worker re-reads the plan from disk, so the channel
        // override above (workers produce what the edge sink consumes) must
        // reach the file it reads: write the effective plan — plan-time
        // grid and tasks, run-time channels — next to the original.
        const std::string plan_path = options.plan_path + ".effective";
        if (!ble::obs::write_text_file(plan_path, plan_to_json(plan) + "\n")) {
            std::fprintf(stderr, "campaign_ctl run: cannot write %s\n", plan_path.c_str());
            return 2;
        }
        const int chaos = options.chaos_kill_first;
        factory = [self, plan_path, chaos](int worker, int round) {
            SpawnOptions so;
            so.binary = self;
            so.plan_path = plan_path;
            so.worker.worker_id = worker;
            if (worker == 0 && round == 0) so.worker.crash_after_trials = chaos;
            return make_spawn_endpoint(std::move(so));
        };
    } else {
        std::fprintf(stderr, "campaign_ctl run: unknown transport '%s'\n",
                     options.transport.c_str());
        return 2;
    }

    LeaderOptions leader;
    leader.workers = options.workers;
    leader.max_rounds = options.rounds;
    leader.read_timeout_ms = options.timeout_ms;
    leader.status_path = options.status_path;
    const CampaignOutcome outcome = run_campaign(plan, factory, leader, sink);
    if (!outcome.ok) {
        std::fprintf(stderr, "campaign_ctl: FAILED: %s\n", outcome.error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "campaign_ctl: campaign complete (%d round%s, %d re-issued task%s)\n",
                 outcome.rounds, outcome.rounds == 1 ? "" : "s", outcome.reissued_tasks,
                 outcome.reissued_tasks == 1 ? "" : "s");
    return 0;
}

int cmd_worker(const Options& options) {
    CampaignPlan plan;
    if (!load_plan(options.plan_path, plan)) return 2;
    bool csv_ok = false;
    const std::vector<int> task_ids = parse_task_csv(options.tasks_csv, csv_ok);
    if (!csv_ok) {
        std::fprintf(stderr, "campaign_ctl worker: --tasks needs a comma-separated id list\n");
        return 2;
    }
    int fd = -1;
    if (options.out_path.empty() || options.out_path == "-") {
        fd = ::dup(STDOUT_FILENO);
    } else {
        std::FILE* file = std::fopen(options.out_path.c_str(), "wb");
        if (file == nullptr) {
            std::fprintf(stderr, "campaign_ctl worker: cannot write %s\n",
                         options.out_path.c_str());
            return 2;
        }
        fd = ::dup(::fileno(file));
        std::fclose(file);
    }
    if (fd < 0) {
        std::fprintf(stderr, "campaign_ctl worker: cannot open output\n");
        return 2;
    }
    FdStream stream(fd);
    WorkerOptions wo;
    wo.worker_id = options.worker_id;
    wo.jobs = options.jobs;
    wo.crash_after_trials = options.crash_after_trials;
    std::string error;
    if (!run_worker_tasks(plan, task_ids, stream, wo, &error)) {
        std::fprintf(stderr, "campaign_ctl worker: %s\n", error.c_str());
        return 1;
    }
    return 0;
}

int cmd_merge(const Options& options) {
    CampaignPlan plan;
    if (!load_plan(options.plan_path, plan)) return 2;
    if (options.positional.empty()) {
        std::fprintf(stderr, "campaign_ctl merge: no frame dumps given\n");
        return 2;
    }
    ResultCache cache(plan);
    for (const std::string& path : options.positional) {
        std::string bytes;
        if (!read_file(path, bytes)) {
            std::fprintf(stderr, "campaign_ctl merge: cannot read %s\n", path.c_str());
            return 2;
        }
        ble::common::FrameDecoder decoder;
        decoder.feed(bytes);
        for (;;) {
            const auto frame = decoder.next();
            if (!frame.has_value()) break;
            WireMessage message;
            std::string error;
            if (!decode_wire_message(*frame, message, &error) ||
                !cache.accept(message, &error)) {
                std::fprintf(stderr, "campaign_ctl merge: %s: %s\n", path.c_str(),
                             error.c_str());
                return 1;
            }
        }
        if (!decoder.error().empty() || decoder.mid_frame()) {
            std::fprintf(stderr, "campaign_ctl merge: %s: torn or corrupt frame stream\n",
                         path.c_str());
            return 1;
        }
    }
    if (!cache.complete()) {
        std::fprintf(stderr, "campaign_ctl merge: incomplete campaign (%zu task(s) missing)\n",
                     cache.pending().size());
        return 1;
    }
    world::SinkPaths paths = options.sink;
    paths.wall_clock = false;
    world::PathsResultSink sink(paths);
    merge_into_sink(plan, cache, sink);
    std::fprintf(stderr, "campaign_ctl: merged %zu task(s) across %zu series\n",
                 plan.tasks.size(), plan.series.size());
    return 0;
}

/// Renders one status document.
void render_status(const ble::json::Value& doc) {
    std::printf("campaign:     %s\n", doc.string_at("campaign").c_str());
    std::printf("round:        %lld\n", static_cast<long long>(doc.i64("round")));
    std::printf("tasks:        %lld/%lld done\n", static_cast<long long>(doc.i64("tasks_done")),
                static_cast<long long>(doc.i64("tasks_total")));
    std::printf("trials total: %lld\n", static_cast<long long>(doc.i64("trials_total")));
    if (const ble::json::Value* pending = doc.find("pending");
        pending != nullptr && pending->is_array() && !pending->array.empty()) {
        std::printf("pending:     ");
        for (const ble::json::Value& id : pending->array) {
            std::printf(" %lld", static_cast<long long>(id.as_i64()));
        }
        std::printf("\n");
    }
}

int cmd_status(const Options& options) {
    if (options.positional.size() != 1) {
        std::fprintf(stderr, "campaign_ctl status: exactly one status file expected\n");
        return 2;
    }
    const std::string& path = options.positional[0];
    std::string text;
    if (!read_file(path, text)) {
        std::fprintf(stderr, "campaign_ctl status: cannot read %s\n", path.c_str());
        return 2;
    }
    const ble::json::ParseResult parsed = ble::json::parse(text);
    if (!parsed.ok || !parsed.value.is_object()) {
        std::fprintf(stderr, "campaign_ctl status: unparsable status document\n");
        return 1;
    }
    render_status(parsed.value);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        print_usage(argv[0]);
        return 2;
    }
    // A worker whose leader died mid-stream must get EPIPE (a failed write),
    // not a process-killing signal.
    std::signal(SIGPIPE, SIG_IGN);

    const std::string command = argv[1];
    Options options;
    if (!parse_options(argc, argv, 2, options)) return 2;
    if (command == "plan") return cmd_plan(options);
    if (command == "run") return cmd_run(options, argv[0]);
    if (command == "worker") return cmd_worker(options);
    if (command == "merge") return cmd_merge(options);
    if (command == "status") return cmd_status(options);
    print_usage(argv[0]);
    return 2;
}
