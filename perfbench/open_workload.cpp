// open_arrivals: the open-loop admission workload. One generator thread
// issues admits as Poisson arrivals on a fixed ladder of offered rates and
// releases each admitted contract after an exponential holding time, so the
// admitted set is stationary (mean size = rate x holding time). One collector
// thread waits for verdicts. The controller runs in background mode, so
// requests wait in its queue and are coalesced by wall-clock window
// (batch_window_seconds) — the paths the manual-mode workloads bypass.
// Latency is timed from each request's due time, so a stall also charges
// the requests queued behind it.
// Bursts of identical admits, issued back to back to a fresh controller,
// time how fast the same paths drain a backlog.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <iostream>
#include <limits>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using namespace netent;
using service::AdmissionOutcome;
using service::AdmissionStatus;
using service::ContractId;

/// Offered admit arrival rates, per second (releases add about as many).
constexpr std::array<double, 7> kLadder = {1500.0, 2250.0, 3375.0, 5063.0, 7594.0, 11391.0, 17086.0};
/// A rate is sustained when its p99 from due time stays within this limit
/// and the backlog does not grow.
constexpr double kLatencyLimitMs = 100.0;
constexpr double kHoldSeconds = 1.0;  ///< mean contract holding time
constexpr double kBatchWindowSeconds = 0.002;
constexpr double kWarmupSeconds = 0.2;  ///< of each step, not measured
constexpr std::uint64_t kPrefillChunk = 256;
/// Share of a config's time given to the first rate, the reference: it runs
/// kReferenceRepeats times on identical inputs, and the fastest repetition
/// gives the gated latency (interference only ever slows a step down).
constexpr double kReferenceShare = 0.4;
constexpr std::size_t kReferenceRepeats = 4;
/// Share of a config's time given to bursts (at least kMinBursts of them):
/// kBurstRequests admits issued back to back, so they queue behind the
/// worker. The median burst gives the gated rate.
constexpr double kBurstShare = 0.2;
constexpr std::size_t kMinBursts = 3;
constexpr std::uint64_t kBurstRequests = 12000;

topology::Topology open_topology() {
  Rng topo_rng(7);
  topology::GeneratorConfig config;
  config.region_count = 8;
  config.base_capacity = Gbps(400);
  config.max_parallel_fibers = 2;
  return topology::generate_backbone(config, topo_rng);
}

service::AdmissionConfig open_config(const ExecChoice& exec) {
  service::AdmissionConfig config;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.max_simultaneous = 1;
  config.approval.fastpath.enabled = true;
  config.approval.fastpath.audit = true;
  config.exec.threads = exec.threads;
  config.exec.shards = exec.shards;
  config.seed = 20220822;
  config.background = true;
  config.batch_window_seconds = kBatchWindowSeconds;
  config.attach_counter_proposals = false;  // no negotiation loop here
  return config;
}

spec::EntitlementSpec arrival_spec(std::uint64_t id, Rng& rng, std::size_t regions) {
  spec::EntitlementSpec out;
  out.tenant = "open-" + std::to_string(id);
  out.npg = NpgId(static_cast<std::uint32_t>(id));
  out.action = spec::SpecAction::admit;
  out.qos = QosClass::c2_low;
  out.slo_availability = 0.99;
  out.window = core::Period{0.0, 90.0 * 86400.0};
  const double rate = rng.uniform(0.5, 2.0);
  const auto src = static_cast<std::uint32_t>(rng.uniform_int(regions));
  auto dst = static_cast<std::uint32_t>(rng.uniform_int(regions - 1));
  if (dst >= src) ++dst;
  out.hoses.push_back({RegionId(src), hose::Direction::egress, Gbps(rate), std::nullopt});
  out.hoses.push_back({RegionId(dst), hose::Direction::ingress, Gbps(rate), std::nullopt});
  return out;
}

spec::EntitlementSpec release_spec(std::uint64_t npg, ContractId contract) {
  spec::EntitlementSpec out;
  out.tenant = "open-" + std::to_string(npg);
  out.npg = NpgId(static_cast<std::uint32_t>(npg));
  out.action = spec::SpecAction::release;
  out.contract = contract;
  return out;
}

/// A scheduled request: an admit arrival or the release of a contract.
struct Event {
  Clock::time_point due;
  std::uint64_t npg = 0;    ///< admit: index into the step's specs
  ContractId contract = 0;  ///< 0 = admit
  double hold_s = 0.0;      ///< admit: holding time once admitted
  bool operator>(const Event& other) const { return due > other.due; }
};

struct Issued {
  Event event;
  std::future<AdmissionOutcome> future;
};

struct StepResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< measured requests; failures are +inf
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t prefill_failed = 0;
  std::uint64_t backlog_end = 0;  ///< due before the step ended, not yet answered
  double late_ms_max = 0.0;
  double setup_s = 0.0;
  bool residual_ok = true;
  bool audit_ok = true;
  std::uint64_t violations = 0;
  double p99 = 0.0;
  bool sustained = false;
  double busy_s = 0.0;    ///< time the worker spent inside windows
};

/// Runs one ladder step on a fresh controller.
StepResult run_step(const ExecChoice& exec, double rate, double duration_s, std::uint64_t seed,
                    Tracer& tracer, ObsDelta& obs) {
  StepResult result;
  result.rate = rate;
  Rng rng(seed);
  const Clock::time_point setup_start = Clock::now();
  const topology::Topology topo = open_topology();
  const std::size_t regions = topo.region_count();
  service::AdmissionController controller(topo, open_config(exec));

  // Every admit spec of the step, drawn up front so the inputs do not
  // depend on timing; specs[0] is unused (NPG ids start at 1).
  const auto prefill_count = static_cast<std::size_t>(rate * kHoldSeconds);
  std::vector<double> arrival_times;
  for (double t = rng.exponential(rate); t < duration_s; t += rng.exponential(rate)) {
    arrival_times.push_back(t);
  }
  std::vector<spec::EntitlementSpec> specs(1 + prefill_count + arrival_times.size());
  for (std::size_t npg = 1; npg < specs.size(); ++npg) specs[npg] = arrival_spec(npg, rng, regions);

  // Prefill the stationary admitted set in chunks the worker coalesces; by
  // memorylessness the residual holding times are again exponential.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> releases;
  std::vector<std::pair<std::uint64_t, ContractId>> prefilled;
  Tracer untraced(false);
  for (std::uint64_t first = 1; first <= prefill_count; first += kPrefillChunk) {
    std::vector<std::pair<std::uint64_t, std::future<AdmissionOutcome>>> chunk;
    for (std::uint64_t npg = first; npg <= prefill_count && npg < first + kPrefillChunk; ++npg) {
      Expected<service::AdmissionRequest> request =
          spec_pipeline(specs[npg], regions, untraced, 0, npg);
      if (request.has_value()) chunk.emplace_back(npg, controller.submit(std::move(*request)));
    }
    for (auto& [npg, future] : chunk) {
      const AdmissionOutcome outcome = future.get();
      if (outcome.status == AdmissionStatus::failed) ++result.prefill_failed;
      if (outcome.status == AdmissionStatus::admitted) prefilled.emplace_back(npg, outcome.contract);
    }
  }
  const Clock::time_point prefilled_at = Clock::now();
  for (const auto& [npg, contract] : prefilled) {
    const auto hold = std::chrono::duration<double>(rng.exponential(1.0 / kHoldSeconds));
    releases.push({prefilled_at + std::chrono::duration_cast<Clock::duration>(hold), npg,
                   contract, 0.0});
  }
  result.setup_s = seconds_between(setup_start, Clock::now());

  // Poisson arrival schedule over the step.
  obs.begin();
  obs::Histogram& window_seconds =
      obs::Registry::global().timer_histogram("service.admission.window_seconds");
  const double busy_before = window_seconds.sum();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(duration_s));
  const Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kWarmupSeconds));
  std::vector<Event> arrivals;
  for (std::size_t i = 0; i < arrival_times.size(); ++i) {
    arrivals.push_back({start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(arrival_times[i])),
                        1 + prefill_count + i, 0, rng.exponential(1.0 / kHoldSeconds)});
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Issued> in_flight;
  bool generator_done = false;
  std::uint64_t answered_before_end = 0;
  std::uint64_t issued_due_before_end = 0;

  std::thread collector([&] {
    for (;;) {
      Issued issued;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return generator_done || !in_flight.empty(); });
        if (in_flight.empty()) return;
        issued = std::move(in_flight.front());
        in_flight.pop_front();
      }
      const AdmissionOutcome outcome = issued.future.get();
      const Clock::time_point now = Clock::now();
      const bool failed = outcome.status == AdmissionStatus::failed;
      std::lock_guard<std::mutex> lock(mutex);
      ++result.attempted;
      if (failed) ++result.failed;
      if (now < end) ++answered_before_end;
      if (issued.event.due >= measure_from && issued.event.due < end) {
        result.latency_ms.push_back(failed ? std::numeric_limits<double>::infinity()
                                           : seconds_between(issued.event.due, now) * 1e3);
      }
      if (issued.event.contract == 0 && outcome.status == AdmissionStatus::admitted) {
        const Clock::time_point due = std::max(
            now, issued.event.due + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(issued.event.hold_s)));
        if (due < end) {
          releases.push({due, issued.event.npg, outcome.contract, 0.0});
          cv.notify_all();
        }
      }
    }
  });

  // The generator: issue each event at its due time, earliest first.
  std::size_t next_arrival = 0;
  std::unique_lock<std::mutex> lock(mutex);
  try {
    for (;;) {
      const bool have_arrival = next_arrival < arrivals.size();
      const bool have_release = !releases.empty() && releases.top().due < end;
      if (!have_arrival && !have_release) {
        if (Clock::now() >= end) break;
        cv.wait_until(lock, end);
        continue;
      }
      const bool take_release =
          have_release && (!have_arrival || releases.top().due < arrivals[next_arrival].due);
      const Event event = take_release ? releases.top() : arrivals[next_arrival];
      if (Clock::now() < event.due) {
        cv.wait_until(lock, event.due);  // a collector push may bring an earlier release
        continue;
      }
      if (take_release) {
        releases.pop();
      } else {
        ++next_arrival;
      }
      lock.unlock();
      const Clock::time_point issued_at = Clock::now();
      result.late_ms_max = std::max(result.late_ms_max, seconds_between(event.due, issued_at) * 1e3);
      const std::uint32_t root = tracer.open("request.issue", 0, event.npg);
      Expected<service::AdmissionRequest> request = spec_pipeline(
          event.contract == 0 ? specs[event.npg] : release_spec(event.npg, event.contract),
          regions, tracer, root, event.npg);
      Issued issued;
      issued.event = event;
      if (request.has_value()) {
        const ScopedSpan span(tracer, "service.submit", root, event.npg);
        issued.future = controller.submit(std::move(*request));
      } else {
        std::promise<AdmissionOutcome> failed;
        failed.set_value(AdmissionOutcome{});
        issued.future = failed.get_future();
      }
      tracer.close(root);
      lock.lock();
      ++issued_due_before_end;
      in_flight.push_back(std::move(issued));
      cv.notify_all();
    }
  } catch (...) {
    // Stop and join the collector before this frame, which it uses, unwinds.
    if (!lock.owns_lock()) lock.lock();
    generator_done = true;
    cv.notify_all();
    lock.unlock();
    collector.join();
    throw;
  }
  // Requests due before the end of the step: those never issued plus those
  // issued but not yet answered.
  const std::uint64_t unanswered = issued_due_before_end - answered_before_end;
  result.backlog_end = unanswered + (arrivals.size() - next_arrival);
  generator_done = true;
  cv.notify_all();
  lock.unlock();
  collector.join();
  obs.end();
  result.busy_s = window_seconds.sum() - busy_before;

  // Every request was answered; check the quiescent state.
  (void)controller.audit_fastpath();
  result.audit_ok = controller.audit_fastpath() == 0;
  result.violations = controller.fastpath_stats().violations;
  result.residual_ok =
      controller.residual_snapshot() == controller.rebuild_residuals_from_scratch();

  const double p99 = quantile(result.latency_ms, 0.99);
  result.p99 = p99;
  // Little's law: within the limit, at most rate x limit requests of each
  // kind are in flight; more means the backlog is growing.
  result.sustained = !result.latency_ms.empty() && p99 <= kLatencyLimitMs &&
                     static_cast<double>(result.backlog_end) <= 2.0 * rate * kLatencyLimitMs * 1e-3;
  return result;
}

/// The rate at which p99 crosses the limit, interpolated log-log between the
/// highest sustained ladder step and the next one (the top rate when it is
/// sustained).
double crossing_rate(const std::vector<StepResult>& steps) {
  std::size_t next = steps.size();
  while (next > 0 && !steps[next - 1].sustained) --next;
  if (next == steps.size()) return steps.back().rate;
  const StepResult& fail = steps[next];
  const double fail_p99 = std::max(fail.p99, kLatencyLimitMs * 1.01);
  if (next == 0) return fail.rate * std::min(1.0, kLatencyLimitMs / fail_p99);
  const StepResult& ok = steps[next - 1];
  const double share = std::log(kLatencyLimitMs / ok.p99) / std::log(fail_p99 / ok.p99);
  return ok.rate * std::pow(fail.rate / ok.rate, std::clamp(share, 0.0, 1.0));
}

/// Mean of the answered requests' latencies (failures are counted apart).
double finite_mean(std::vector<double> values) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return !std::isfinite(v); }),
               values.end());
  return mean(values);
}

/// One burst on a fresh controller with an empty network.
struct BurstResult {
  double rps = 0.0;  ///< requests answered per wall second, first issue to last verdict
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool residual_ok = true;
  bool audit_ok = true;
  std::uint64_t violations = 0;
};

BurstResult run_burst(const ExecChoice& exec, std::uint64_t seed, ObsDelta& obs) {
  BurstResult result;
  Rng rng(seed);
  const topology::Topology topo = open_topology();
  const std::size_t regions = topo.region_count();
  service::AdmissionController controller(topo, open_config(exec));
  std::vector<spec::EntitlementSpec> specs;
  for (std::uint64_t npg = 1; npg <= kBurstRequests; ++npg) {
    specs.push_back(arrival_spec(npg, rng, regions));
  }
  Tracer untraced(false);
  std::vector<std::future<AdmissionOutcome>> futures;
  futures.reserve(specs.size());
  obs.begin();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Expected<service::AdmissionRequest> request =
        spec_pipeline(specs[i], regions, untraced, 0, i + 1);
    if (request.has_value()) {
      futures.push_back(controller.submit(std::move(*request)));
    } else {
      std::promise<AdmissionOutcome> failed;
      failed.set_value(AdmissionOutcome{});
      futures.push_back(failed.get_future());
    }
  }
  for (std::future<AdmissionOutcome>& future : futures) {
    ++result.attempted;
    if (future.get().status == AdmissionStatus::failed) ++result.failed;
  }
  result.rps = ratio(static_cast<double>(result.attempted), seconds_between(start, Clock::now()));
  obs.end();
  (void)controller.audit_fastpath();
  result.audit_ok = controller.audit_fastpath() == 0;
  result.violations = controller.fastpath_stats().violations;
  result.residual_ok =
      controller.residual_snapshot() == controller.rebuild_residuals_from_scratch();
  return result;
}

struct LadderRun {
  std::vector<StepResult> reference;  ///< repetitions of the first rate
  std::vector<BurstResult> bursts;
  std::vector<StepResult> steps;      ///< the ladder; steps[0] is reference[0]
  std::vector<double> kernel_s;  ///< calibration pass after each reference step and burst
  ObsDelta obs;
  double sustained_rps = 0.0;  ///< highest sustained ladder rate (0 = none)
  double crossing_rps = 0.0;
};

void print_step(const ExecChoice& exec, const StepResult& step) {
  std::cout << "  " << exec.name << " step " << step.rate << "/s: p50 "
            << quantile(step.latency_ms, 0.5) << " ms, p99 " << step.p99 << " ms over "
            << step.latency_ms.size() << " requests, backlog_end " << step.backlog_end
            << ", generator late max " << step.late_ms_max << " ms, "
            << (step.sustained ? "sustained" : "not sustained") << '\n';
}

/// The reference repetitions of a config, over `budget_s`.
void run_reference(const ExecChoice& exec, const Args& args, double budget_s, Tracer& tracer,
                   LadderRun& ladder) {
  const double step_s = budget_s * kReferenceShare / static_cast<double>(kReferenceRepeats);
  for (std::size_t r = 0; r < kReferenceRepeats; ++r) {
    ladder.reference.push_back(
        run_step(exec, kLadder[0], step_s, args.seed * 7919ULL, tracer, ladder.obs));
    ladder.kernel_s.push_back(calibrate());  // after the controller has stopped
  }
  ladder.steps.push_back(ladder.reference.front());
  print_step(exec, ladder.steps.back());
}

/// Bursts of identical inputs until the config's burst time is spent.
void run_bursts(const ExecChoice& exec, const Args& args, double budget_s, LadderRun& ladder) {
  const Clock::time_point start = Clock::now();
  while (ladder.bursts.size() < kMinBursts ||
         seconds_between(start, Clock::now()) < budget_s * kBurstShare) {
    ladder.bursts.push_back(run_burst(exec, args.seed * 7919ULL + 100, ladder.obs));
    ladder.kernel_s.push_back(calibrate());
  }
  std::cout << "  " << exec.name << " bursts of " << kBurstRequests << ":";
  for (const BurstResult& burst : ladder.bursts) std::cout << ' ' << burst.rps;
  std::cout << " requests/s\n";
}

/// The rest of the ladder, one step per rate above the reference.
void run_rest(const ExecChoice& exec, const Args& args, double budget_s, Tracer& tracer,
              LadderRun& ladder) {
  const double rest_s = budget_s * (1.0 - kReferenceShare - kBurstShare) /
                        static_cast<double>(kLadder.size() - 1);
  for (std::size_t i = 1; i < kLadder.size(); ++i) {
    ladder.steps.push_back(
        run_step(exec, kLadder[i], rest_s, args.seed * 7919ULL + i, tracer, ladder.obs));
    print_step(exec, ladder.steps.back());
  }
  for (const StepResult& step : ladder.steps) {
    if (step.sustained) ladder.sustained_rps = step.rate;
  }
  ladder.crossing_rps = crossing_rate(ladder.steps);
}

/// Lowest mean latency from due time over the reference repetitions.
double fastest_mean(const LadderRun& ladder) {
  double best = std::numeric_limits<double>::infinity();
  for (const StepResult& step : ladder.reference) best = std::min(best, finite_mean(step.latency_ms));
  return best;
}

double median_burst(const LadderRun& ladder) {
  std::vector<double> rps;
  for (const BurstResult& burst : ladder.bursts) rps.push_back(burst.rps);
  return median(rps);
}

/// The gated figures of one config, at reference speed (bench.h) by its
/// fastest calibration pass. Only the latency beyond the fixed wall-clock
/// batch window is scaled: the window is waited out, not computed.
struct Gated {
  double rate = 0.0;
  double mean_ms = 0.0;
};

Gated gated(const LadderRun& ladder, bool calibrated = true) {
  const double kernel = calibrated
                            ? *std::min_element(ladder.kernel_s.begin(), ladder.kernel_s.end())
                            : kReferenceKernelSeconds;
  const double window_ms = kBatchWindowSeconds * 1e3;
  return {at_reference_rate(median_burst(ladder), kernel),
          window_ms + at_reference_time(fastest_mean(ladder) - window_ms, kernel)};
}

/// Requests answered per second the worker spent inside windows, over the
/// reference repetitions (window processing only; printed, not gated).
double service_rate(const LadderRun& ladder) {
  double attempted = 0.0;
  double busy = 0.0;
  for (const StepResult& step : ladder.reference) {
    attempted += static_cast<double>(step.attempted);
    busy += step.busy_s;
  }
  return ratio(attempted, busy);
}

}  // namespace

void run_open_arrivals(const Args& args, Report& report) {
  std::cout << "workload open_arrivals: open loop, 1 generator + 1 collector thread, ladder";
  for (const double rate : kLadder) std::cout << ' ' << rate;
  std::cout << " admits/s, mean hold " << kHoldSeconds << " s, latency limit p99 <= "
            << kLatencyLimitMs << " ms, batch window " << kBatchWindowSeconds * 1e3
            << " ms; bursts of " << kBurstRequests << " admits\n";
  const double half = args.seconds / 2.0;
  const double untraced_budget = args.trace ? half / 2.0 : half;
  LadderRun results[2];
  const ExecChoice configs[2] = {kSerial, kParallel};
  Tracer off(false);
  // Reference steps and bursts of both configs first, so peak memory is read
  // before the overloaded ladder steps, whose backlog depends on speed.
  for (int c = 0; c < 2; ++c) run_reference(configs[c], args, untraced_budget, off, results[c]);
  for (int c = 0; c < 2; ++c) run_bursts(configs[c], args, untraced_budget, results[c]);
  const double peak_rss = peak_rss_mb();
  for (int c = 0; c < 2; ++c) run_rest(configs[c], args, untraced_budget, off, results[c]);

  std::vector<double> setups;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int c = 0; c < 2; ++c) {
    const std::string name = configs[c].name;
    std::uint64_t seen_failed = 0;
    std::uint64_t prefill_failed = 0;
    const auto step_checks = [&](const StepResult& step) {
      attempted += step.attempted;
      failed += step.failed;
      seen_failed += step.failed;
      prefill_failed += step.prefill_failed;
      const std::string at = " " + std::to_string(static_cast<int>(step.rate)) + "/s";
      report.check(name + at + " residual == rebuild", step.residual_ok);
      report.check(name + at + " fast-path audit drained, no violation",
                   step.audit_ok && step.violations == 0, std::to_string(step.violations));
    };
    for (const StepResult& step : results[c].reference) {
      if (c == 0) setups.push_back(step.setup_s);
      step_checks(step);
    }
    for (std::size_t i = 1; i < results[c].steps.size(); ++i) step_checks(results[c].steps[i]);
    for (const BurstResult& burst : results[c].bursts) {
      attempted += burst.attempted;
      failed += burst.failed;
      seen_failed += burst.failed;
      report.check(name + " burst residual == rebuild", burst.residual_ok);
      report.check(name + " burst fast-path audit drained, no violation",
                   burst.audit_ok && burst.violations == 0, std::to_string(burst.violations));
    }
    // The prefill is set-up, outside the obs deltas: its failures are a check
    // of their own.
    report.check(name + " prefill had no failed outcome", prefill_failed == 0,
                 std::to_string(prefill_failed) + " failed");
    report.check(name + " failed outcomes counted",
                 static_cast<double>(seen_failed) ==
                     results[c].obs.counter("service.admission.failed"),
                 std::to_string(seen_failed) + " failed");
  }

  // Printed latency: every reference repetition pooled.
  const auto pooled = [](const LadderRun& ladder) {
    std::vector<double> out;
    for (const StepResult& step : ladder.reference) {
      out.insert(out.end(), step.latency_ms.begin(), step.latency_ms.end());
    }
    return out;
  };
  const std::vector<double> reference = pooled(results[0]);
  const std::vector<double> parallel_reference = pooled(results[1]);
  const std::string base = std::to_string(reference.size()) + " requests at " +
                           std::to_string(static_cast<int>(kLadder[0])) + "/s in " +
                           std::to_string(kReferenceRepeats) + " repetitions";
  report.metric("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) + " serial reference set-ups");
  report.metric("decision_p50_ms", quantile(reference, 0.5), "ms", base);
  report.metric("decision_p99_ms", quantile(reference, 0.99), "ms", base);
  report.metric("parallel_decision_p50_ms", quantile(parallel_reference, 0.5), "ms");
  report.metric("parallel_decision_p99_ms", quantile(parallel_reference, 0.99), "ms");
  report.metric("sustained_rps", results[0].sustained_rps, "1/s",
                "highest ladder rate with p99 <= " + std::to_string(kLatencyLimitMs) +
                    " ms and no growing backlog");
  report.metric("sustained_crossing_rps", results[0].crossing_rps, "1/s",
                "p99 limit crossing, interpolated on the ladder");
  report.metric("parallel_sustained_rps", results[1].sustained_rps, "1/s");
  report.metric("parallel_sustained_crossing_rps", results[1].crossing_rps, "1/s");
  report.metric("failed_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio", std::to_string(failed) + "/" + std::to_string(attempted));
  report.metric("peak_rss_mb", peak_rss, "MB", "before the ladder steps above the reference");
  report.metric("service_rate", service_rate(results[0]), "1/s",
                "reference requests per second of window processing");
  report.metric("parallel_service_rate", service_rate(results[1]), "1/s");
  report.attempted(attempted);
  report.failed(failed);

  // Gated figures: the median burst's drain rate and the lowest
  // reference-repetition mean latency from due time, at reference speed. The
  // p99-vs-rate curve has no sharp knee on the ladder (windows grow with
  // load), so the p99 crossing is printed but too noisy to gate.
  const std::string bursts = std::to_string(results[0].bursts.size()) + " serial bursts";
  report.metric("burst_rps", median_burst(results[0]), "1/s", "median of " + bursts);
  report.metric("parallel_burst_rps", median_burst(results[1]), "1/s");
  report.metric("reference_mean_ms", fastest_mean(results[0]), "ms",
                "lowest mean of " + std::to_string(kReferenceRepeats) + " repetitions");
  report.metric("parallel_reference_mean_ms", fastest_mean(results[1]), "ms");
  const double kernel = *std::min_element(results[0].kernel_s.begin(), results[0].kernel_s.end());
  const Gated s = gated(results[0]);
  const Gated p = gated(results[1]);
  report.metric("gated.serial_rate", s.rate, "1/s",
                "fastest kernel " + std::to_string(kernel * 1e3) + " ms");
  report.metric("gated.parallel_rate", p.rate, "1/s");
  report.metric("gated.serial_mean_ms", s.mean_ms, "ms");
  report.metric("gated.parallel_mean_ms", p.mean_ms, "ms");
  // The same figures unscaled, so A/A runs can compare the two.
  const Gated rs = gated(results[0], false);
  const Gated rp = gated(results[1], false);
  report.metric("raw.serial_rate", rs.rate, "1/s");
  report.metric("raw.parallel_rate", rp.rate, "1/s");
  report.metric("raw.serial_mean_ms", rs.mean_ms, "ms");
  report.metric("raw.parallel_mean_ms", rp.mean_ms, "ms");
  report.gate("setup_s", median(setups));
  report.gate("peak_rss_mb", peak_rss);
  report.gate("serial_rate", s.rate);
  report.gate("parallel_rate", p.rate);
  report.gate("serial_mean_ms", s.mean_ms);
  report.gate("parallel_mean_ms", p.mean_ms);

  if (!args.trace) return;
  for (int c = 0; c < 2; ++c) {
    const std::string prefix = c == 0 ? "" : "parallel.";
    Tracer tracer(true);
    LadderRun traced;
    run_reference(configs[c], args, half / 2.0, tracer, traced);
    run_rest(configs[c], args, half / 2.0, tracer, traced);
    report_admission_obs(report, prefix, traced.obs);
    std::vector<double> all;
    double late = 0.0;
    for (const StepResult& step : traced.steps) {
      all.insert(all.end(), step.latency_ms.begin(), step.latency_ms.end());
      late = std::max(late, step.late_ms_max);
    }
    report.layer(prefix + "service.queue_wait_ms_mean",
                 finite_mean(all) - 1e3 * ratio(traced.obs.hist_sum("service.admission.window_seconds"),
                                         traced.obs.hist_count("service.admission.window_seconds")),
                 "ms");
    report.layer(prefix + "open.generator_late_ms_max", late, "ms");
    report.layer(prefix + "open.backlog_end", static_cast<double>(traced.steps.back().backlog_end),
                 "count", "at " + std::to_string(static_cast<int>(kLadder.back())) + "/s");
    report.layer(prefix + "spec.calls",
                 static_cast<double>(tracer.durations_us("spec.parse").size()), "count");
    report.layer(prefix + "spec.busy_s", tracer.self_seconds("spec."), "s");
    report.layer(prefix + "spec.parse_us_p50", median(tracer.durations_us("spec.parse")), "us");
    report.layer(prefix + "spec.compile_us_p50", median(tracer.durations_us("spec.compile")),
                 "us");
    report.layer(prefix + "trace.spans", static_cast<double>(tracer.span_count()), "count");
    report.layer(prefix + "trace.self_s.spec", tracer.self_seconds("spec."), "s");
    report.layer(prefix + "trace.self_s.service", tracer.self_seconds("service."), "s");
    const double untraced = gated(results[c]).mean_ms;
    const double traced_ms = gated(traced).mean_ms;
    report.layer(prefix + "trace.overhead_pct", 100.0 * ratio(traced_ms - untraced, untraced), "%",
                 "reference mean latency at reference speed untraced " +
                     std::to_string(untraced) + " ms vs traced " + std::to_string(traced_ms) +
                     " ms");
    tracer.write(".bench_build/perfbench-trace-open_arrivals-" + std::string(configs[c].name) +
                 ".tsv");
  }
}

}  // namespace perfbench
