// enforce_drill: the §6 enforcement drill on sim::DrillEngine at 2000 hosts,
// with per-agent phase jitter and a fixed fault schedule. No admission code
// runs: event dispatch, metering and rate-store aggregation do the work.
// Each config repeats the whole drill until its time is spent; the drill is
// the unit of work, and sim_speed is simulated seconds per wall second.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/drill_engine.h"

namespace perfbench {
namespace {

using namespace netent;

constexpr std::size_t kHosts = 2000;
/// The default 210-minute drill compressed to 20 minutes: entitlement cut,
/// ACL stages and rollback, plus agent crashes and a store partition.
constexpr double kDurationSeconds = 1200.0;
constexpr double kWarmupSeconds = 300.0;

sim::DrillConfig drill_config(double duration_s, std::size_t threads) {
  sim::DrillConfig config;
  config.host_count = kHosts;
  config.duration_seconds = duration_s;
  const double scale = duration_s / (210.0 * 60.0);
  config.entitled_cut_seconds = 30.0 * 60.0 * scale;
  config.acl_stages = {{65.0 * 60.0 * scale, 0.125},
                       {100.0 * 60.0 * scale, 0.50},
                       {135.0 * 60.0 * scale, 1.0},
                       {170.0 * 60.0 * scale, 0.0}};
  config.demand_ramp_end_seconds = 120.0 * 60.0 * scale;
  config.phase_jitter_seconds = config.tick_seconds;
  config.exec.threads = threads;
  using Kind = sim::DrillFault::Kind;
  for (std::size_t host = 0; host < 200; ++host) {
    config.faults.push_back({0.40 * duration_s, Kind::agent_crash, host});
    config.faults.push_back({0.60 * duration_s, Kind::agent_restart, host});
  }
  config.faults.push_back({0.45 * duration_s, Kind::store_partition, 0});
  config.faults.push_back({0.55 * duration_s, Kind::store_heal, 0});
  return config;
}

/// FNV-1a over every recorded tick value: the drill is bit-identical at any
/// thread count, so serial and parallel runs of one seed must agree.
std::uint64_t tick_fingerprint(const std::vector<sim::DrillTick>& ticks) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  for (const sim::DrillTick& t : ticks) {
    for (const double v : {t.t_seconds, t.acl_drop_fraction, t.entitled, t.demand, t.total_rate,
                           t.conform_rate, t.conform_loss_ratio, t.nonconform_loss_ratio,
                           t.conform_rtt_ms, t.nonconform_rtt_ms, t.read_latency_ms,
                           t.write_latency_ms, t.block_error_rate}) {
      mix(v);
    }
  }
  return hash;
}

struct DrillRun {
  ObsDelta obs;  ///< over the drills (set-ups excluded)
  Setups setups;
  std::vector<double> speed;  ///< per drill: simulated s per wall s
  std::vector<double> kernel_s;  ///< calibration pass after each drill
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t ticks = 0;
  std::uint64_t first_fingerprint = 0;
  bool repeats_agree = true;
};

/// Set-up: build the engine and run a short warm-up drill.
void run_setup(std::size_t threads, const Args& args, DrillRun& run) {
  const Clock::time_point start = Clock::now();
  sim::DrillEngine warmup(drill_config(kWarmupSeconds, threads), Rng(args.seed));
  (void)warmup.run();
  run.setups.add(seconds_between(start, Clock::now()));
}

/// One drill. Every drill of a run is the same: the fastest one is the one
/// other tenants of the machine slowed least.
void run_drill(std::size_t threads, const Args& args, Tracer& tracer, DrillRun& run) {
  const std::size_t rep = run.speed.size();
  sim::DrillEngine engine(drill_config(kDurationSeconds, threads), Rng(args.seed));
  run.obs.begin();
  const Clock::time_point rep_start = Clock::now();
  std::vector<sim::DrillTick> ticks;
  {
    const ScopedSpan span(tracer, "sim.drill.run", 0, rep + 1);
    ticks = engine.run();
  }
  const double wall = seconds_between(rep_start, Clock::now());
  run.obs.end();
  const std::uint64_t fingerprint = tick_fingerprint(ticks);
  if (rep == 0) run.first_fingerprint = fingerprint;
  run.repeats_agree = run.repeats_agree && fingerprint == run.first_fingerprint;
  run.speed.push_back(kDurationSeconds / wall);
  run.kernel_s.push_back(calibrate());
  run.wall_s += wall;
  run.events += engine.stats().events_executed;
  run.cancelled += engine.stats().events_cancelled;
  run.ticks += engine.stats().ticks_recorded;
}

/// Runs drills of every run's config in turn until `budget_s` has passed,
/// starting another round only if it is expected to end within the budget.
/// Alternating the configs makes a slow spell of the machine fall on all of
/// them. With `time_setups`, each round starts with a set-up of the first
/// config, so the set-ups too are spread over the whole run (timed back to
/// back at its start, their median moved by 0.29 between two A/A sets).
void run_drills(const std::vector<std::size_t>& threads, const Args& args, double budget_s,
                Tracer& tracer, std::vector<DrillRun*> runs, bool time_setups) {
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const double elapsed = seconds_between(start, Clock::now());
    if (round > 0 && elapsed + elapsed / static_cast<double>(round) > budget_s) break;
    if (time_setups) run_setup(threads[0], args, *runs[0]);
    for (std::size_t c = 0; c < runs.size(); ++c) run_drill(threads[c], args, tracer, *runs[c]);
  }
}

void report_layers(Report& report, const std::string& prefix, const DrillRun& run,
                   const Tracer& tracer) {
  const ObsDelta& obs = run.obs;
  report.layer(prefix + "sim.events_executed", static_cast<double>(run.events), "count");
  report.layer(prefix + "sim.events_cancelled", static_cast<double>(run.cancelled), "count");
  report.layer(prefix + "sim.events_per_s", ratio(static_cast<double>(run.events), run.wall_s),
               "1/s");
  report.layer(prefix + "sim.per_host_tick_ns",
               1e9 * ratio(run.wall_s, static_cast<double>(kHosts * run.ticks)), "ns",
               std::to_string(run.ticks) + " ticks x " + std::to_string(kHosts) + " hosts");
  report.layer(prefix + "sim.flows_classified", obs.counter("sim.drill.flows_classified"),
               "count");
  const double reads = obs.counter("enforce.ratestore.reads");
  report.layer(prefix + "enforce.ratestore.publishes", obs.counter("enforce.ratestore.publishes"),
               "count");
  report.layer(prefix + "enforce.ratestore.reads", reads, "count");
  report.layer(prefix + "enforce.ratestore.empty_read_ratio",
               ratio(obs.counter("enforce.ratestore.empty_reads"), reads), "ratio",
               std::to_string(obs.counter("enforce.ratestore.empty_reads")) + "/" +
                   std::to_string(reads) + " reads");
  report.layer(prefix + "enforce.ratestore.read_staleness_s_mean",
               ratio(obs.hist_sum("enforce.ratestore.read_staleness_seconds"),
                     obs.hist_count("enforce.ratestore.read_staleness_seconds")),
               "s");
  report.layer(prefix + "trace.spans", static_cast<double>(tracer.span_count()), "count");
  report.layer(prefix + "trace.self_s.sim", tracer.self_seconds("sim."), "s");
}

}  // namespace

void run_enforce_drill(const Args& args, Report& report) {
  std::cout << "workload enforce_drill: " << kHosts << " hosts, " << kDurationSeconds
            << " simulated s per drill, phase jitter = tick, 200 agent crashes + restarts and a "
               "store partition + heal\n";
  const std::vector<std::size_t> thread_counts = {1, kDrillParallelThreads};
  DrillRun runs[2];
  Tracer off(false);
  run_drills(thread_counts, args, args.trace ? args.seconds / 2.0 : args.seconds, off,
             {&runs[0], &runs[1]}, true);
  for (int c = 0; c < 2; ++c) {
    const std::string name = c == 0 ? "serial" : "parallel";
    report.check(name + " drill injected its faults",
                 runs[c].obs.counter("sim.faults.agent_crashes") > 0 &&
                     runs[c].obs.counter("sim.faults.store_partitions") > 0);
    report.check(name + " repeated drills tick identically", runs[c].repeats_agree);
  }
  report.check("serial ticks == parallel ticks",
               runs[0].first_fingerprint == runs[1].first_fingerprint);

  const auto ms_per_sim_s = [](const DrillRun& run) {
    std::vector<double> ms;
    for (const double speed : run.speed) ms.push_back(1e3 / speed);
    return median(ms);
  };
  // Gated: the fastest drill, at reference speed by the fastest calibration
  // pass (bench.h).
  const auto fastest_kernel = [](const DrillRun& run) {
    return *std::min_element(run.kernel_s.begin(), run.kernel_s.end());
  };
  const auto gated_speed = [&](const DrillRun& run) {
    return at_reference_rate(*std::max_element(run.speed.begin(), run.speed.end()),
                             fastest_kernel(run));
  };
  const std::string base = std::to_string(runs[0].speed.size()) + " drills";
  report.metric("setup_s", median(runs[0].setups.raw_s), "s",
                "median of " + std::to_string(runs[0].setups.raw_s.size()) + " serial set-ups");
  report.metric("sim_speed", median(runs[0].speed), "sim-s/wall-s", base);
  report.metric("parallel_sim_speed", median(runs[1].speed), "sim-s/wall-s",
                std::to_string(runs[1].speed.size()) + " drills");
  report.metric("wall_ms_per_sim_s", ms_per_sim_s(runs[0]), "ms", base);
  report.metric("parallel_wall_ms_per_sim_s", ms_per_sim_s(runs[1]), "ms");
  report.metric("failed_ratio", 0.0, "ratio", "a drill has no admission requests");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.attempted(runs[0].speed.size() + runs[1].speed.size());

  const double serial_speed = gated_speed(runs[0]);
  const double parallel_speed = gated_speed(runs[1]);
  report.metric("gated.serial_rate", serial_speed, "1/s",
                "fastest kernel " + std::to_string(fastest_kernel(runs[0]) * 1e3) + " ms");
  report.metric("gated.parallel_rate", parallel_speed, "1/s");
  // The same figures unscaled, so A/A runs can compare the two.
  const auto fastest = [](const DrillRun& run) {
    return *std::max_element(run.speed.begin(), run.speed.end());
  };
  report.metric("raw.serial_rate", fastest(runs[0]), "1/s");
  report.metric("raw.parallel_rate", fastest(runs[1]), "1/s");
  report.metric("gated.setup_s", median(runs[0].setups.reference_s), "s");
  report.gate("setup_s", median(runs[0].setups.reference_s));
  report.gate("peak_rss_mb", peak_rss_mb());
  report.gate("serial_rate", serial_speed);
  report.gate("parallel_rate", parallel_speed);
  report.gate("serial_mean_ms", 1e3 / serial_speed);
  report.gate("parallel_mean_ms", 1e3 / parallel_speed);

  if (!args.trace) return;
  for (int c = 0; c < 2; ++c) {
    const std::string prefix = c == 0 ? "" : "parallel.";
    Tracer tracer(true);
    DrillRun traced;
    run_drills({thread_counts[c]}, args, args.seconds / 4.0, tracer, {&traced}, false);
    report_layers(report, prefix, traced, tracer);
    const double untraced = gated_speed(runs[c]);
    report.layer(prefix + "trace.overhead_pct",
                 100.0 * ratio(untraced - gated_speed(traced), untraced), "%",
                 "sim_speed at reference speed untraced " + std::to_string(untraced) +
                     " vs traced " + std::to_string(gated_speed(traced)));
    tracer.write(".bench_build/perfbench-trace-enforce_drill-" +
                 std::string(c == 0 ? "serial" : "parallel") + ".tsv");
  }
}

}  // namespace perfbench
