// perfbench: host cost of the InjectaBLE reproduction, end to end and per
// layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --reference <digests file> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with nothing but a clock around
// each call into the library; --trace 1 is the separate traced run that
// yields the per-layer metrics.  Both run every output check.  The last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.  A failed check prints the object
// with "correct": false and exits 1.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "campaign/endpoint.hpp"
#include "campaign/leader.hpp"

namespace perfbench {
namespace {

using injectable::world::NullResultSink;
using injectable::world::ResultChannels;
namespace campaign = injectable::campaign;

const std::int64_t g_process_start_ns = now_ns();

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string out_dir;
    bool print_digest = false;
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--print-digest") {
            args.print_digest = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            const char* last = value.data() + value.size();
            const auto [end, ec] = std::from_chars(value.data(), last, args.seed);
            if (ec != std::errc() || end != last) return false;
        } else if (key == "--seconds") {
            char* end = nullptr;
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0') return false;
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--reference") {
            args.reference = value;
        } else if (key == "--out-dir") {
            args.out_dir = value;
        } else {
            return false;
        }
    }
    return !args.workload.empty() && args.seconds > 0;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

class Report {
public:
    void add(std::string name, double value, std::string unit) {
        metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
    }
    /// A failed check counts `failed_ops` failed operations (at least one).
    void check(bool ok, const std::string& what, std::uint64_t failed_ops = 1) {
        ++checks_;
        if (!ok) {
            ++failed_checks_;
            failed_ += std::max<std::uint64_t>(failed_ops, 1);
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
        }
    }
    void operations(std::uint64_t n) { attempted_ += n; }
    [[nodiscard]] bool correct() const { return failed_ == 0; }

    /// Human-readable table, then the JSON result as the last line.
    void print() const {
        for (const Metric& m : metrics_) {
            std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
        std::printf("checks: %llu run, %llu failed\n", static_cast<unsigned long long>(checks_),
                    static_cast<unsigned long long>(failed_checks_));
        std::string json = "{\"correct\": ";
        json += correct() ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
        json += ", \"failed\": " + std::to_string(failed_);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            if (i != 0) json += ", ";
            json += "\"" + metrics_[i].name + "\": {\"value\": " + number(metrics_[i].value) +
                    ", \"unit\": \"" + metrics_[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
    }

private:
    static std::string number(double v) {
        if (!std::isfinite(v)) v = 0;
        char buf[64];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return std::string(buf, res.ptr);
    }

    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;  // operations: trials run (and plans checked)
    std::uint64_t failed_ = 0;     // operations a failed check condemned
    std::uint64_t checks_ = 0;
    std::uint64_t failed_checks_ = 0;
};

// ---------------------------------------------------------------------------
// Helpers

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// CPU time of the whole process (every thread), in ns.
double process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

RunResult untraced_trial(const Workload& w, std::uint64_t i) {
    return injectable::world::run_injection_experiment_with_retry(
        series_of(w, i), trial_seed(w, i), injectable::world::kSetupRetries);
}

/// Trials [0, n) through world::run_series, one series at a time, in global
/// trial order.
std::vector<RunResult> run_series_trials(const Workload& w, std::uint64_t n) {
    const std::size_t s_count = w.series.size();
    std::vector<std::vector<RunResult>> per_series(s_count);
    for (std::size_t s = 0; s < s_count; ++s) {
        ExperimentConfig config = w.series[s];
        config.runs = static_cast<int>((n + s_count - 1 - s) / s_count);
        config.jobs = 1;
        NullResultSink sink;
        per_series[s] = injectable::world::run_series(config, sink);
    }
    std::vector<RunResult> out;
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(per_series[i % s_count][i / s_count]);
    return out;
}

/// The campaign plan of trials [first, first + w.campaign_trials).
campaign::CampaignPlan make_plan(const Workload& w, std::uint64_t first, int trials) {
    std::vector<ExperimentConfig> series;
    const std::size_t s_count = w.series.size();
    for (std::size_t s = 0; s < s_count; ++s) {
        ExperimentConfig config = w.series[s];
        config.base_seed += first / s_count;
        config.runs = trials / static_cast<int>(s_count);
        series.push_back(std::move(config));
    }
    return campaign::plan_campaign(w.name, std::move(series), w.campaign_shards, w.channels);
}

ResultChannels edge_channels(const Workload& w) {
    ResultChannels ch = w.channels;
    ch.series_record = true;
    ch.wall_clock = false;
    return ch;
}

struct CampaignRun {
    campaign::CampaignOutcome outcome;
    std::int64_t start_ns = 0;
    std::int64_t merge_ns = 0;  ///< first edge-sink callback
    std::int64_t end_ns = 0;
};

CampaignRun run_plan(const Workload& w, const campaign::CampaignPlan& plan, MemorySink& sink) {
    campaign::LeaderOptions options;
    options.workers = std::max(1, w.campaign_workers);
    const campaign::EndpointFactory factory = [](int, int) {
        return campaign::make_inprocess_endpoint();
    };
    sink.clear();
    CampaignRun run;
    run.start_ns = now_ns();
    run.outcome = campaign::run_campaign(plan, factory, options, sink);
    run.end_ns = now_ns();
    run.merge_ns = sink.first_callback_ns() != 0 ? sink.first_callback_ns() : run.end_ns;
    return run;
}

// ---------------------------------------------------------------------------
// Set-up: what a user pays before the first trial (plan and endpoint build,
// warm-up), repeated so its median is steady.

constexpr int kSetupRepetitions = 7;

double run_setup(const Args& args, unsigned nproc, std::unique_ptr<Workload>& workload) {
    std::vector<double> seconds;
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        const std::int64_t t0 = rep == 0 ? g_process_start_ns : now_ns();
        workload = make_workload(args.workload, args.seed, nproc);
        // Warm-up runs the default seed's trials whatever --seed is, so set-up
        // does the same work on every run.
        const auto warm = make_workload(args.workload, kDefaultSeed, nproc);
        const Workload& w = *warm;
        if (w.campaign) {
            MemorySink sink(edge_channels(w), false);
            for (int done = 0; done < w.warmup_trials; done += w.campaign_trials) {
                const auto first = static_cast<std::uint64_t>(done);
                (void)run_plan(w, make_plan(w, first, w.campaign_trials), sink);
            }
        } else {
            for (int i = 0; i < w.warmup_trials; ++i) {
                (void)untraced_trial(w, static_cast<std::uint64_t>(i));
            }
        }
        seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return median(seconds);
}

// ---------------------------------------------------------------------------
// Output checks

/// Untraced results == traced driver == run_series, trial for trial.
/// Returns the simulated ns of each trial (from the traced driver).
std::vector<std::int64_t> check_agreement(const Workload& w,
                                          const std::vector<RunResult>& untraced,
                                          Report& report) {
    const std::uint64_t n = untraced.size();
    const std::vector<RunResult> series = run_series_trials(w, n);
    std::vector<std::int64_t> sim_ns;
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const MirroredTrial m =
            run_mirrored_trial(series_of(w, i), trial_seed(w, i), nullptr, nullptr);
        sim_ns.push_back(m.sim_ns);
        if (!(m.result == untraced[i]) || !(series[i] == untraced[i])) ++mismatches;
    }
    report.operations(2 * n);
    report.check(mismatches == 0,
                 std::to_string(mismatches) + " of " + std::to_string(n) +
                     " trials differ between the untraced loop, the traced driver and "
                     "run_series",
                 mismatches);
    return sim_ns;
}

/// Digest of the workload's deterministic results at the default seed.
std::uint64_t reference_digest(const Args& args, unsigned nproc) {
    const auto w = make_workload(args.workload, kDefaultSeed, nproc);
    if (w->campaign) {
        MemorySink sink(edge_channels(*w), false);
        const auto plan = make_plan(*w, 0, w->reference_trials);
        const CampaignRun run = run_plan(*w, plan, sink);
        return run.outcome.ok ? sink.digest() : 0;
    }
    const auto n = static_cast<std::uint64_t>(w->reference_trials);
    return results_digest(run_series_trials(*w, n));
}

void check_reference(const Args& args, unsigned nproc, Report& report) {
    const std::uint64_t digest = reference_digest(args, nproc);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
    std::string expected;
    std::ifstream in(args.reference);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        std::string value;
        if (fields >> name >> value && name == args.workload) expected = value;
    }
    report.operations(1);
    report.check(expected == hex, "reference digest of " + args.workload + " at seed " +
                                      std::to_string(kDefaultSeed) + " is " + hex +
                                      ", expected '" + expected + "' from " + args.reference);
}

// ---------------------------------------------------------------------------
// Rounds.  The host is a shared VM whose speed swings by tens of percent from
// one second to the next, so a run repeats the same batch of trials round
// after round until --seconds are spent, and each timed unit (one trial, or
// one campaign plan) is charged its fastest round.  Every round must return
// exactly the results of the first.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Times `units` calls of `unit(u, results)` per round; keeps each unit's
/// fastest wall and CPU time and the first round's results.
struct RoundTimer {
    std::vector<double> best_unit_ns;
    std::vector<double> best_unit_cpu_ns;
    std::vector<RunResult> first_results;
    std::uint64_t rounds = 0;
    std::uint64_t mismatched_rounds = 0;

    template <typename Unit>
    void round(std::uint64_t units, std::uint64_t trials, Unit&& unit) {
        if (best_unit_ns.empty()) {
            best_unit_ns.assign(units, kInf);
            best_unit_cpu_ns.assign(units, kInf);
        }
        std::vector<RunResult> results;
        results.reserve(trials);
        for (std::uint64_t u = 0; u < units; ++u) {
            const double cpu0 = process_cpu_ns();
            const std::int64_t a = now_ns();
            unit(u, results);
            const auto wall = static_cast<double>(now_ns() - a);
            const double cpu = process_cpu_ns() - cpu0;
            best_unit_ns[u] = std::min(best_unit_ns[u], wall);
            best_unit_cpu_ns[u] = std::min(best_unit_cpu_ns[u], cpu);
        }
        if (rounds == 0) {
            first_results = std::move(results);
        } else if (results != first_results) {
            ++mismatched_rounds;
        }
        ++rounds;
    }
};

/// One timed unit of the end-to-end loop: a trial through
/// run_injection_experiment_with_retry, or a campaign plan through
/// run_campaign (the plan's merged results are appended in trial order).
struct UnitRunner {
    UnitRunner(const Workload& workload, MemorySink& memory) : w(workload), sink(memory) {}

    const Workload& w;
    MemorySink& sink;
    std::uint64_t campaign_failures = 0;
    std::string campaign_error;

    [[nodiscard]] std::uint64_t trials_per_unit() const {
        return w.campaign ? static_cast<std::uint64_t>(w.campaign_trials) : 1;
    }
    /// Plan `u`: trials [u * campaign_trials, (u + 1) * campaign_trials).
    CampaignRun plan(std::uint64_t u, std::vector<RunResult>& results) {
        const auto per = static_cast<std::uint64_t>(w.campaign_trials);
        const auto p = make_plan(w, u * per, static_cast<int>(per));
        const CampaignRun run = run_plan(w, p, sink);
        if (!run.outcome.ok) {
            ++campaign_failures;
            campaign_error = run.outcome.error;
        }
        results.insert(results.end(), sink.results().begin(), sink.results().end());
        return run;
    }
    void operator()(std::uint64_t u, std::vector<RunResult>& results) {
        if (w.campaign) {
            (void)plan(u, results);
        } else {
            results.push_back(untraced_trial(w, u));
        }
    }
};

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)

void untraced_run(const Args& args, const Workload& w, double setup_s, Report& report) {
    const auto batch = static_cast<std::uint64_t>(w.batch_trials);
    MemorySink sink(edge_channels(w), false);
    UnitRunner runner{w, sink};
    const std::uint64_t units = batch / runner.trials_per_unit();
    RoundTimer timer;
    const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t t0 = now_ns();
    while (timer.rounds < 2 || now_ns() - t0 < budget_ns) timer.round(units, batch, runner);
    const double elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
    // Set-up and the rounds only: the checks below hold whole artifacts.
    const double rss_mb = peak_rss_mb();

    report.operations(timer.rounds * batch);
    report.check(runner.campaign_failures == 0, "campaign run: " + runner.campaign_error);
    report.check(timer.mismatched_rounds == 0,
                 std::to_string(timer.mismatched_rounds) + " rounds returned other results");
    // Three-way agreement on the first verify_trials trials; their simulated
    // time over their host time is the simulator's speed.
    std::vector<RunResult> checked = timer.first_results;
    checked.resize(
        std::min<std::size_t>(checked.size(), static_cast<std::size_t>(w.verify_trials)));
    const std::vector<std::int64_t> sim_ns = check_agreement(w, checked, report);
    double sim_total_ns = 0;
    for (const std::int64_t ns : sim_ns) sim_total_ns += static_cast<double>(ns);
    double checked_host_ns = 0;
    const std::uint64_t checked_units = checked.size() / runner.trials_per_unit();
    for (std::uint64_t u = 0; u < checked_units; ++u) checked_host_ns += timer.best_unit_ns[u];

    {
        // The merged campaign output is byte-identical to one process running
        // run_series over the same plan.
        const auto plan = make_plan(w, 0, w.campaign_trials);
        MemorySink merged(edge_channels(w), true);
        const CampaignRun run = run_plan(w, plan, merged);
        MemorySink single(edge_channels(w), true);
        for (const ExperimentConfig& config : plan.series) {
            (void)injectable::world::run_series(config, single);
        }
        report.operations(2);
        report.check(run.outcome.ok && !merged.bytes().empty() &&
                         merged.bytes() == single.bytes(),
                     "campaign merge output differs from a single-process run_series (" +
                         std::to_string(merged.bytes().size()) + " vs " +
                         std::to_string(single.bytes().size()) + " bytes)");
    }

    double best_total_ns = 0;
    std::vector<double> unit_us;
    for (const double ns : timer.best_unit_ns) {
        best_total_ns += ns;
        unit_us.push_back(ns / 1e3 / static_cast<double>(runner.trials_per_unit()));
    }
    std::printf("%s: %llu rounds of %llu trials in %.3f s; trial_us_p99 over %zu samples "
                "(%zu beyond it)%s\n",
                w.name.c_str(), static_cast<unsigned long long>(timer.rounds),
                static_cast<unsigned long long>(batch), elapsed_s, unit_us.size(),
                unit_us.size() / 100,
                w.campaign ? "; one sample = one campaign plan's time / its trials" : "");
    report.add("trials_per_s", static_cast<double>(batch) / (best_total_ns / 1e9), "1/s");
    report.add("trial_us_p50", quantile(unit_us, 0.5), "us");
    report.add("trial_us_p99", quantile(unit_us, 0.99), "us");
    double best_cpu_ns = 0;
    for (const double ns : timer.best_unit_cpu_ns) best_cpu_ns += ns;
    report.add("cpu_s_per_1k_trials", best_cpu_ns / 1e9 / static_cast<double>(batch) * 1e3,
               "s");
    report.add("sim_s_per_host_s", sim_total_ns / checked_host_ns, "s/s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("setup_s", setup_s, "s");
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

struct PhaseTotals {
    double ns[static_cast<int>(SpanName::kCount)] = {};
    std::uint64_t trials = 0;
    std::vector<double> coverage;  ///< per trial: child spans / trial span
    double covered_ns = 0;
    double trial_ns = 0;
};

/// Folds spans [begin, end) into per-name totals; a trial's coverage is the
/// share of its span that its child spans cover.
void fold_spans(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
                PhaseTotals& totals) {
    double children = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const Span& s = spans[i];
        const auto d = static_cast<double>(s.end_ns - s.start_ns);
        totals.ns[static_cast<int>(s.name)] += d;
        if (span_parent(s.name) == SpanName::kTrial) {
            children += d;
        } else if (s.name == SpanName::kTrial) {
            // A trial's children are recorded before it closes.
            ++totals.trials;
            totals.trial_ns += d;
            totals.covered_ns += children;
            if (d > 0) totals.coverage.push_back(children / d);
            children = 0;
        }
    }
}

void traced_run(const Args& args, const Workload& w, Report& report) {
    const auto k = static_cast<std::uint64_t>(w.count_trials);
    const ExperimentConfig& config0 = w.series.front();
    // Campaign trials carry every artifact sink; the traced driver attaches
    // the same sinks so its phases include the obs cost the campaign pays.
    auto artifact_observers = [&]() -> std::unique_ptr<ArtifactObservers> {
        if (!w.campaign) return nullptr;
        return std::make_unique<ArtifactObservers>(config0);
    };

    // --- exact counts over the first k trials, twice -----------------------
    WorkCounts counts[2];
    std::vector<RecordedTrial> recorded;
    std::uint64_t observer_mismatches = 0;
    for (int pass = 0; pass < 2; ++pass) {
        auto artifacts = artifact_observers();
        CountingObservers counting(pass == 0);
        for (std::uint64_t i = 0; i < k; ++i) {
            // Allocations are counted on a run without the counting sink
            // (which allocates itself), with the workload's own sinks only.
            const AllocCounts a0 = thread_alloc_counts();
            const MirroredTrial plain =
                run_mirrored_trial(series_of(w, i), trial_seed(w, i), nullptr, artifacts.get());
            const AllocCounts a1 = thread_alloc_counts();
            const MirroredTrial counted =
                run_mirrored_trial(series_of(w, i), trial_seed(w, i), nullptr, &counting);
            counting.add_trial_costs(static_cast<std::uint64_t>(counted.sim_ns),
                                     AllocCounts{a1.calls - a0.calls, a1.bytes - a0.bytes});
            if (!(plain.result == counted.result)) ++observer_mismatches;
        }
        counts[pass] = counting.counts();
        if (pass == 0) recorded = std::move(counting.recorded());
    }
    report.operations(4 * k);
    report.check(observer_mismatches == 0, "attached observers changed a trial's result");
    report.check(counts[0] == counts[1], "work counts differ between two runs at one seed");
    const WorkCounts& c = counts[0];
    report.check(c.injection_attempts == c.attempts,
                 "the bus saw " + std::to_string(c.injection_attempts) +
                     " injection attempts, the results report " + std::to_string(c.attempts));
    const double kd = static_cast<double>(c.trials);

    // --- timed rounds: untraced, then traced over the same trials -----------
    // Non-campaign workloads: k untraced trials vs k traced-driver trials.
    // campaign_artifacts: the campaign batch without vs with campaign spans,
    // plus a phase round of the traced driver with the artifact sinks on.
    SpanLog spans;
    spans.reserve(1u << 20);
    MemorySink sink(edge_channels(w), false);
    UnitRunner runner{w, sink};
    RoundTimer untraced;
    RoundTimer traced;
    std::vector<double> campaign_run_ms;
    std::vector<double> campaign_merge_ms;
    int rounds = 0;
    int reissued = 0;
    auto note_campaign = [&](const CampaignRun& run, std::uint64_t id) {
        spans.add(id, SpanName::kCampaignMerge, run.merge_ns, run.end_ns);
        spans.add(id, SpanName::kCampaignRun, run.start_ns, run.end_ns);
        campaign_run_ms.push_back(static_cast<double>(run.end_ns - run.start_ns) / 1e6);
        campaign_merge_ms.push_back(static_cast<double>(run.end_ns - run.merge_ns) / 1e6);
        rounds = std::max(rounds, run.outcome.rounds);
        reissued += run.outcome.reissued_tasks;
    };

    PhaseTotals all;
    double best_phase_ns[static_cast<int>(SpanName::kCount)];
    std::fill(std::begin(best_phase_ns), std::end(best_phase_ns), kInf);
    double best_trial_round_ns = kInf;
    auto artifacts = artifact_observers();
    auto phase_round = [&]() {
        const std::size_t begin = spans.spans().size();
        std::vector<RunResult> results;
        auto mirrored = [&](std::uint64_t i, std::vector<RunResult>& out) {
            out.push_back(run_mirrored_trial(series_of(w, i), trial_seed(w, i), &spans,
                                             artifacts.get())
                              .result);
        };
        if (w.campaign) {
            for (std::uint64_t i = 0; i < k; ++i) mirrored(i, results);
        } else {
            traced.round(k, k, mirrored);
        }
        PhaseTotals round;
        fold_spans(spans.spans(), begin, spans.spans().size(), round);
        fold_spans(spans.spans(), begin, spans.spans().size(), all);
        for (int s = 0; s < static_cast<int>(SpanName::kCount); ++s) {
            best_phase_ns[s] = std::min(best_phase_ns[s], round.ns[s]);
        }
        best_trial_round_ns = std::min(best_trial_round_ns, round.trial_ns);
    };

    const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t t0 = now_ns();
    std::uint64_t trials_run = 0;
    if (w.campaign) {
        const auto batch = static_cast<std::uint64_t>(w.batch_trials);
        const std::uint64_t units = batch / runner.trials_per_unit();
        auto traced_plan = [&](std::uint64_t u, std::vector<RunResult>& out) {
            note_campaign(runner.plan(u, out), trial_seed(w, u * runner.trials_per_unit()));
        };
        for (std::uint64_t cycle = 0; cycle < 2 || now_ns() - t0 < budget_ns; ++cycle) {
            // Alternate which side goes first, so neither is favoured by
            // what ran before it.
            if (cycle % 2 == 0) untraced.round(units, batch, runner);
            traced.round(units, batch, traced_plan);
            if (cycle % 2 == 1) untraced.round(units, batch, runner);
            phase_round();
            trials_run += 2 * batch + k;
        }
    } else {
        for (std::uint64_t cycle = 0; cycle < 2 || now_ns() - t0 < budget_ns; ++cycle) {
            if (cycle % 2 == 0) untraced.round(k, k, runner);
            phase_round();
            if (cycle % 2 == 1) untraced.round(k, k, runner);
            trials_run += 2 * k;
        }
        // The campaign layer's cost on this workload's trials, every result
        // channel on: a few plans through run_campaign.
        std::vector<RunResult> ignored;
        for (std::uint64_t p = 0; p < 3; ++p) {
            note_campaign(runner.plan(p, ignored), trial_seed(w, p * w.campaign_trials));
        }
    }
    report.operations(trials_run);
    report.check(runner.campaign_failures == 0, "campaign run: " + runner.campaign_error);
    report.check(untraced.mismatched_rounds == 0 && traced.mismatched_rounds == 0 &&
                     (w.campaign || untraced.first_results == traced.first_results),
                 "traced and untraced rounds returned other results");

    // --- layer replays over the recorded traffic ----------------------------
    const ObsReplayCost obs_cost = replay_obs_sinks(recorded, config0, 1.0);
    const PhyReplayCost phy_cost = replay_phy(recorded, 0.5);
    std::printf("%s: %llu untraced + %llu traced rounds; phy replay fold %06x over %zu "
                "trials\n",
                w.name.c_str(), static_cast<unsigned long long>(untraced.rounds),
                static_cast<unsigned long long>(traced.rounds), phy_cost.crc_fold,
                recorded.size());

    auto phase_us = [&](SpanName name) {
        return best_phase_ns[static_cast<int>(name)] / 1e3 / kd;
    };
    double children_ns = 0;
    for (int s = 0; s < static_cast<int>(SpanName::kCount); ++s) {
        if (span_parent(static_cast<SpanName>(s)) == SpanName::kTrial) {
            children_ns += all.ns[s];
        }
    }
    report.add("world.construct_us", phase_us(SpanName::kConstruct), "us");
    report.add("world.teardown_us", phase_us(SpanName::kTeardown), "us");
    report.add("host.establish_us", phase_us(SpanName::kEstablish), "us");
    report.add("core.sync_us", phase_us(SpanName::kSync), "us");
    report.add("core.inject_us", phase_us(SpanName::kInject), "us");
    report.add("core.inject_us_per_attempt",
               best_phase_ns[static_cast<int>(SpanName::kInject)] / 1e3 /
                   std::max(1.0, static_cast<double>(c.attempts)),
               "us");
    report.add("core.attempts_per_trial", static_cast<double>(c.attempts) / kd, "count");
    report.add("trial_fail_ratio", static_cast<double>(c.failed_trials) / kd, "ratio");
    report.add("trial.self_us", (all.trial_ns - children_ns) / 1e3 /
                                    static_cast<double>(std::max<std::uint64_t>(all.trials, 1)),
               "us");
    report.add("trace.phase_coverage_pct",
               all.trial_ns > 0 ? 100.0 * all.covered_ns / all.trial_ns : 0, "%");
    // 1st percentile rather than the minimum: a single interrupt landing
    // between two phase boundaries should not read as a coverage gap.
    report.add("trace.phase_coverage_p1_pct", 100.0 * quantile(all.coverage, 0.01), "%");
    auto total = [](const std::vector<double>& v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    const double untraced_ns = total(untraced.best_unit_ns);
    const double traced_ns = total(traced.best_unit_ns);
    report.add("trace_overhead_pct", 100.0 * (traced_ns - untraced_ns) / untraced_ns, "%");
    report.add("link.conn_events_per_trial", static_cast<double>(c.conn_events) / kd, "count");
    report.add("link.window_widen_per_trial", static_cast<double>(c.window_widen) / kd,
               "count");
    report.add("sim.tx_per_trial", static_cast<double>(c.tx) / kd, "count");
    report.add("sim.rx_delivered_per_trial", static_cast<double>(c.rx_delivered) / kd, "count");
    report.add("sim.rx_corrupted_per_trial", static_cast<double>(c.rx_corrupted) / kd, "count");
    report.add("sim.rx_lost_sync_per_trial", static_cast<double>(c.rx_lost_sync) / kd, "count");
    report.add("sim.sim_ms_per_trial", static_cast<double>(c.sim_ns) / 1e6 / kd, "ms");
    // The phase rounds run exactly the k counted trials.
    report.add("sim.host_ns_per_tx",
               best_trial_round_ns / static_cast<double>(std::max<std::uint64_t>(c.tx, 1)),
               "ns");
    report.add("phy.crc_bytes_per_trial", static_cast<double>(c.crc_bytes) / kd, "count");
    report.add("phy.crc_us_per_trial", phy_cost.crc_ns / 1e3 / kd, "us");
    report.add("phy.whiten_us_per_trial", phy_cost.whiten_ns / 1e3 / kd, "us");
    report.add("common.allocs_per_trial", static_cast<double>(c.allocs) / kd, "count");
    report.add("common.alloc_bytes_per_trial", static_cast<double>(c.alloc_bytes) / kd, "B");
    report.add("obs.events_per_trial", static_cast<double>(c.events) / kd, "count");
    report.add("obs.artifact_bytes_per_trial",
               static_cast<double>(obs_cost.artifact_bytes) / kd, "B");
    report.add("obs.sink_ns_per_event.jsonl", obs_cost.ns_per_event_jsonl, "ns");
    report.add("obs.sink_ns_per_event.metrics", obs_cost.ns_per_event_metrics, "ns");
    report.add("obs.sink_ns_per_event.capture", obs_cost.ns_per_event_capture, "ns");
    report.add("obs.sink_ns_per_event.timeline", obs_cost.ns_per_event_timeline, "ns");
    report.add("obs.serialize_us_per_trial", obs_cost.serialize_us_per_trial, "us");
    report.add("campaign.run_ms", median(campaign_run_ms), "ms");
    report.add("campaign.merge_ms", median(campaign_merge_ms), "ms");
    report.add("campaign.rounds", rounds, "count");
    report.add("campaign.reissued_tasks", reissued, "count");

    if (!args.out_dir.empty()) {
        const std::string path = args.out_dir + "/spans-" + w.name + ".jsonl";
        if (!spans.write_jsonl(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        }
    }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> "
                     "--reference <file> [--out-dir <dir>] [--print-digest]\n");
        return 2;
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    if (!make_workload(args.workload, args.seed, nproc)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    if (args.print_digest) {
        std::printf("%s %016llx\n", args.workload.c_str(),
                    static_cast<unsigned long long>(reference_digest(args, nproc)));
        return 0;
    }

    Report report;
    std::unique_ptr<Workload> workload;
    const double setup_s = run_setup(args, nproc, workload);
    if (args.trace) {
        traced_run(args, *workload, report);
    } else {
        untraced_run(args, *workload, setup_s, report);
    }
    check_reference(args, nproc, report);
    std::printf("nproc %u\n", nproc);
    report.print();
    return report.correct() ? 0 : 1;
}
