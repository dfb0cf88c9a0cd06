#include "campaign/plan.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "obs/sinks.hpp"
#include "world/replay.hpp"

namespace injectable::campaign {

int CampaignPlan::total_trials() const noexcept {
    int total = 0;
    for (const ShardTask& task : tasks) total += task.count;
    return total;
}

std::vector<int> CampaignPlan::series_tasks(int series_index) const {
    std::vector<int> ids;
    for (const ShardTask& task : tasks) {
        if (task.series == series_index) ids.push_back(task.id);
    }
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        return tasks[static_cast<std::size_t>(a)].first < tasks[static_cast<std::size_t>(b)].first;
    });
    return ids;
}

CampaignPlan plan_campaign(std::string name, std::vector<world::ExperimentConfig> series,
                           int shards, world::ResultChannels channels) {
    CampaignPlan plan;
    plan.name = std::move(name);
    // Worker-side normalization: the merger owns the series record, and
    // wall-clock timing would make shard outputs depend on the host.
    channels.series_record = false;
    channels.wall_clock = false;
    plan.channels = channels;
    plan.series = std::move(series);
    if (shards < 1) shards = 1;

    for (std::size_t s = 0; s < plan.series.size(); ++s) {
        world::ExperimentConfig& config = plan.series[s];
        // The record's "jobs" field (and any other host-dependent resolution)
        // must be identical however the campaign executes.
        config.jobs = 1;
        const int runs = config.runs;
        if (runs <= 0) continue;
        const int slices = std::min(shards, runs);
        const int base = runs / slices;
        const int extra = runs % slices;  // first `extra` slices get one more
        int first = 0;
        for (int k = 0; k < slices; ++k) {
            ShardTask task;
            task.id = static_cast<int>(plan.tasks.size());
            task.series = static_cast<int>(s);
            task.first = first;
            task.count = base + (k < extra ? 1 : 0);
            first += task.count;
            plan.tasks.push_back(task);
        }
    }
    return plan;
}

namespace {

void append_bool_field(std::string& out, const char* key, bool value, bool& first) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += value ? "true" : "false";
}

std::string channels_to_json(const world::ResultChannels& ch) {
    std::string out = "{";
    bool first = true;
    append_bool_field(out, "series_record", ch.series_record, first);
    append_bool_field(out, "metrics", ch.metrics, first);
    append_bool_field(out, "traces", ch.traces, first);
    append_bool_field(out, "trace_all", ch.trace_all, first);
    append_bool_field(out, "timelines", ch.timelines, first);
    append_bool_field(out, "progress", ch.progress, first);
    append_bool_field(out, "captures", ch.captures, first);
    append_bool_field(out, "wall_clock", ch.wall_clock, first);
    out += '}';
    return out;
}

world::ResultChannels channels_from_json(const ble::json::Value& value) {
    world::ResultChannels ch;
    ch.series_record = value.boolean_at("series_record");
    ch.metrics = value.boolean_at("metrics");
    ch.traces = value.boolean_at("traces");
    ch.trace_all = value.boolean_at("trace_all");
    ch.timelines = value.boolean_at("timelines");
    ch.progress = value.boolean_at("progress");
    ch.captures = value.boolean_at("captures");
    ch.wall_clock = value.boolean_at("wall_clock");
    return ch;
}

}  // namespace

std::string plan_to_json(const CampaignPlan& plan) {
    std::string out;
    out.reserve(2048);
    out += "{\"e\":\"campaign\",\"v\":" + std::to_string(kCampaignPlanVersion);
    out += ",\"name\":\"";
    ble::obs::append_json_escaped(out, plan.name);
    out += "\",\"channels\":" + channels_to_json(plan.channels);
    out += ",\"series\":[";
    for (std::size_t s = 0; s < plan.series.size(); ++s) {
        const world::ExperimentConfig& config = plan.series[s];
        if (s != 0) out += ',';
        out += "{\"runs\":" + std::to_string(config.runs);
        // The same self-describing config codec every trace header uses:
        // %.17g doubles, bit-exact round trip through parse_trace_meta().
        out += ",\"meta\":" +
               world::experiment_meta_json(config, config.base_seed, world::kSetupRetries);
        out += '}';
    }
    out += "],\"tasks\":[";
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const ShardTask& task = plan.tasks[t];
        if (t != 0) out += ',';
        out += "{\"id\":" + std::to_string(task.id);
        out += ",\"series\":" + std::to_string(task.series);
        out += ",\"first\":" + std::to_string(task.first);
        out += ",\"count\":" + std::to_string(task.count);
        out += '}';
    }
    out += "]}";
    return out;
}

bool plan_from_json(const std::string& text, CampaignPlan& out, std::string* error) {
    auto fail = [&](std::string message) {
        if (error != nullptr) *error = std::move(message);
        return false;
    };
    out = CampaignPlan{};
    const ble::json::ParseResult parsed = ble::json::parse(text);
    if (!parsed.ok) return fail("plan parse error: " + parsed.error);
    const ble::json::Value& doc = parsed.value;
    if (!doc.is_object() || doc.string_at("e") != "campaign") {
        return fail("not a campaign plan document");
    }
    const std::int64_t version = doc.i64("v", -1);
    if (version != kCampaignPlanVersion) {
        return fail("unsupported plan version " + std::to_string(version));
    }
    out.name = doc.string_at("name", "campaign");
    if (const ble::json::Value* channels = doc.find("channels");
        channels != nullptr && channels->is_object()) {
        out.channels = channels_from_json(*channels);
    }
    const ble::json::Value* series = doc.find("series");
    if (series == nullptr || !series->is_array()) return fail("plan has no \"series\" array");
    for (const ble::json::Value& entry : series->array) {
        if (!entry.is_object()) return fail("non-object series entry");
        const ble::json::Value* meta = entry.find("meta");
        if (meta == nullptr || !meta->is_object()) return fail("series entry has no \"meta\"");
        // dump() keeps number tokens verbatim, so the reconstructed config is
        // bit-identical to the one the planner serialized.
        world::TraceMeta parsed_meta = world::parse_trace_meta(meta->dump());
        if (!parsed_meta.valid) return fail("series meta: " + parsed_meta.error);
        world::ExperimentConfig config = std::move(parsed_meta.config);
        config.runs = static_cast<int>(entry.i64("runs", 1));
        out.series.push_back(std::move(config));
    }
    const ble::json::Value* tasks = doc.find("tasks");
    if (tasks == nullptr || !tasks->is_array()) return fail("plan has no \"tasks\" array");
    for (const ble::json::Value& entry : tasks->array) {
        if (!entry.is_object()) return fail("non-object task entry");
        ShardTask task;
        task.id = static_cast<int>(entry.i64("id", -1));
        task.series = static_cast<int>(entry.i64("series", -1));
        if (task.id != static_cast<int>(out.tasks.size())) {
            return fail("task ids must be dense and ordered");
        }
        if (task.series < 0 || task.series >= static_cast<int>(out.series.size())) {
            return fail("task " + std::to_string(task.id) + " references unknown series");
        }
        // Range-check in 64 bits before narrowing: a hostile plan must not
        // overflow first + count.
        const std::int64_t runs = out.series[static_cast<std::size_t>(task.series)].runs;
        const std::int64_t first = entry.i64("first", 0);
        const std::int64_t count = entry.i64("count", 0);
        if (first < 0 || count < 0 || first > runs || count > runs - first) {
            return fail("task " + std::to_string(task.id) + " slice out of range");
        }
        task.first = static_cast<int>(first);
        task.count = static_cast<int>(count);
        out.tasks.push_back(task);
    }
    return true;
}

std::vector<world::ExperimentConfig> experiment1_grid(int runs) {
    // Mirrors bench/bench_experiment1_hop_interval.cpp: the paper's Fig. 9
    // left panel sweep (22-byte frame, 2 m triangle, per-hop base seeds).
    std::vector<world::ExperimentConfig> grid;
    for (const std::uint16_t hop : {25, 50, 75, 100, 125, 150}) {
        world::ExperimentConfig config;
        config.name = "exp1";
        config.runs = runs;
        config.world.master_sca_ppm = 250.0;
        config.world.master_clock_ppm = 80.0;
        config.world.hop_interval = hop;
        config.ll_payload_size = 12;  // -> 22 bytes / 176 µs over the air
        config.base_seed = 1000 + hop;
        grid.push_back(std::move(config));
    }
    return grid;
}

}  // namespace injectable::campaign
