// The two closed-loop admission workloads. Both drive a manual-mode
// AdmissionController from one driver thread through the public spec
// pipeline (spec_to_json -> parse_spec -> compile_spec -> submit -> flush ->
// verdict), with a fleet driver modelled on spec::TenantFleet::run. That
// function is one call, so it cannot be timed per layer from outside; this
// driver times every window and records spans at each public call.
//
//   fleet_admit  short episodes of a few thousand tenants admitting into a
//                fresh controller: pure-admit windows, counter-proposals and
//                PolicyEngine negotiation; churn is kept under 1% of
//                decisions.
//   fleet_churn  episodes of a long committed history (untimed prefill),
//                then small windows mixing releases and resizes with
//                admits, plus a topology batch every few windows.
#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using namespace netent;
using service::AdmissionOutcome;
using service::AdmissionStatus;
using service::ContractId;

/// FNV-1a over the decision transcript; order-sensitive.
struct Fingerprint {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  }
};

std::uint64_t milli_gbps(double gbps) { return static_cast<std::uint64_t>(std::llround(gbps * 1000.0)); }

constexpr std::array<QosClass, 5> kOrdinaryClasses = {
    QosClass::c2_low, QosClass::c2_high, QosClass::c3_low, QosClass::c3_high, QosClass::c4_low};

/// The tight 8-region backbone of bench_tenant_fleet: heavy premium tenants
/// contend, so rejections carry counter-proposals.
topology::Topology fleet_topology() {
  Rng topo_rng(7);
  topology::GeneratorConfig config;
  config.region_count = 8;
  config.base_capacity = Gbps(400);
  config.max_parallel_fibers = 2;
  return topology::generate_backbone(config, topo_rng);
}

service::AdmissionConfig controller_config(const ExecChoice& exec) {
  service::AdmissionConfig config;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.max_simultaneous = 1;
  config.approval.fastpath.enabled = true;
  config.approval.fastpath.audit = true;
  config.exec.threads = exec.threads;
  config.exec.shards = exec.shards;
  config.seed = 20220822;
  config.background = false;
  config.admit_min_fraction = 1.0;
  config.attach_counter_proposals = true;
  return config;
}

struct Tenant {
  std::uint64_t id = 0;
  Rng rng;
  spec::EntitlementSpec spec;
  ContractId contract = 0;
  spec::NegotiationState negotiation;
  std::size_t wait_until = 0;  ///< round (fleet_admit) or window (fleet_churn)
  bool dormant = false;
};

constexpr std::size_t kHeavyEvery = 41;  // coprime to the 4 strategies

spec::EntitlementSpec make_admit_spec(Tenant& tenant, std::size_t regions) {
  const bool heavy = tenant.id % kHeavyEvery == 0;
  spec::EntitlementSpec out;
  out.tenant = "tenant-" + std::to_string(tenant.id);
  out.npg = NpgId(static_cast<std::uint32_t>(tenant.id + 1));
  out.action = spec::SpecAction::admit;
  out.qos = heavy ? QosClass::c1_low
                  : kOrdinaryClasses[tenant.rng.uniform_int(kOrdinaryClasses.size())];
  out.slo_availability = 0.99;
  out.window = core::Period{0.0, 90.0 * 86400.0};
  out.policy.strategy = static_cast<spec::Strategy>(tenant.id % spec::kStrategyCount);
  out.policy.min_accept_fraction = 0.1;
  const double rate = heavy ? 60.0 : tenant.rng.uniform(0.5, 2.0);
  // Heavy tenants carry about half of the requested Gbps, so where they land
  // decides how loaded the backbone is and how much every later window
  // costs. They take a fixed rotation of region pairs, the same for every
  // seed, so that seeds differ in their many light tenants only.
  std::size_t src = 0;
  std::size_t dst = 0;
  if (heavy) {
    const std::size_t rank = tenant.id / kHeavyEvery;
    src = rank % regions;
    dst = (src + 1 + (rank / regions) % (regions - 1)) % regions;
  } else {
    src = tenant.rng.uniform_int(regions);
    dst = tenant.rng.uniform_int(regions - 1);
    if (dst >= src) ++dst;
  }
  out.hoses.push_back({RegionId(static_cast<std::uint32_t>(src)), hose::Direction::egress,
                       Gbps(rate), std::nullopt});
  out.hoses.push_back({RegionId(static_cast<std::uint32_t>(dst)), hose::Direction::ingress,
                       Gbps(rate), std::nullopt});
  return out;
}

std::vector<Tenant> make_tenants(std::size_t count, std::uint64_t seed, std::size_t regions) {
  std::vector<Tenant> tenants(count);
  for (std::size_t i = 0; i < count; ++i) {
    tenants[i].id = i;
    tenants[i].rng = Rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    tenants[i].spec = make_admit_spec(tenants[i], regions);
  }
  return tenants;
}

bool is_serial(const ExecChoice& exec) { return exec.threads == 1 && exec.shards == 1; }

enum class WindowKind : std::uint8_t { admit, churn, topology };

/// One episode: a fresh controller driven through a fixed, seed-derived
/// sequence of windows. Episodes of one input do exactly the same work.
struct Episode {
  std::size_t input = 0;
  std::uint64_t fingerprint = 0;  ///< decision transcript
  double requested_gbps = 0.0;    ///< over admit decisions
  double granted_gbps = 0.0;      ///< over admitted decisions
  std::vector<double> latency_ms;  ///< per decision, in decision order
  std::vector<double> laps_s;      ///< per window, from the previous window's end
};

/// Everything one config's timed phase measured.
struct ConfigRun {
  std::vector<double> latency_ms;  ///< per decision, spec pipeline start -> verdict
  std::vector<double> queue_wait_ms;  ///< per decision, submit -> its window starts
  std::array<std::vector<double>, 3> window_ms;  ///< by WindowKind
  std::uint64_t decisions = 0;
  std::uint64_t failed = 0;
  std::uint64_t admit_decisions = 0;
  std::uint64_t admitted = 0;
  double requested_gbps = 0.0;  ///< over admit decisions
  double granted_gbps = 0.0;    ///< over admitted decisions
  std::uint64_t spec_calls = 0;
  std::uint64_t spec_errors = 0;
  double timed_s = 0.0;
  std::vector<Episode> episodes;
  Clock::time_point lap_start;  ///< end of the current episode's last window
  std::vector<double> laps_s;   ///< the current episode's laps so far
  std::vector<double> kernel_s;  ///< calibration pass after each episode
  ObsDelta obs;                  ///< over the timed parts
  Setups setups;
  bool residual_ok = true;
  bool audit_ok = true;
  std::uint64_t violations = 0;
  double audit_s = 0.0;
};

/// One in-flight submission of a window.
struct InFlight {
  std::size_t tenant = 0;
  spec::SpecAction action = spec::SpecAction::admit;
  std::uint64_t request = 0;
  double requested_gbps = 0.0;
  std::future<AdmissionOutcome> future;
  Clock::time_point started;
  Clock::time_point submitted;
  std::uint32_t span = 0;
};

/// Starts timing an episode's windows.
void start_laps(ConfigRun& run) {
  run.laps_s.clear();
  run.lap_start = Clock::now();
}

/// Ends one lap: the time since the previous lap ended.
void lap(ConfigRun& run) {
  const Clock::time_point now = Clock::now();
  run.laps_s.push_back(seconds_between(run.lap_start, now));
  run.lap_start = now;
}

/// Submits specs through the public pipeline and flushes windows, recording
/// latency, transcript and spans into a ConfigRun.
class Driver {
 public:
  Driver(service::AdmissionController& controller, std::size_t regions, Tracer& tracer,
         ConfigRun& run, Fingerprint& fp)
      : controller_(controller), regions_(regions), tracer_(tracer), run_(run), fp_(fp) {}

  /// spec_to_json -> parse_spec -> compile_spec -> submit. A spec that does
  /// not round-trip or compile counts as a failed request.
  void submit(const spec::EntitlementSpec& spec, std::size_t tenant,
              std::vector<InFlight>& window) {
    InFlight flight;
    flight.tenant = tenant;
    flight.action = spec.action;
    flight.request = ++next_request_;
    flight.started = Clock::now();
    flight.span = tracer_.open("request", 0, flight.request);
    for (const spec::SpecHose& hose : spec.hoses) flight.requested_gbps += hose.rate.value();
    ++run_.spec_calls;
    const ScopedSpan pipeline(tracer_, "spec.pipeline", flight.span, flight.request);
    Expected<service::AdmissionRequest> request =
        spec_pipeline(spec, regions_, tracer_, pipeline.id(), flight.request);
    flight.submitted = Clock::now();
    if (!request.has_value()) {
      ++run_.spec_errors;
      std::promise<AdmissionOutcome> failed;
      AdmissionOutcome outcome;
      outcome.status = AdmissionStatus::failed;
      failed.set_value(std::move(outcome));
      flight.future = failed.get_future();
    } else {
      const ScopedSpan span(tracer_, "service.submit", pipeline.id(), flight.request);
      flight.future = controller_.submit(std::move(*request));
    }
    window.push_back(std::move(flight));
  }

  /// Flushes one window and feeds every outcome through `handle`.
  template <typename Handle>
  void flush(std::size_t round, WindowKind kind, std::vector<InFlight>& window, Handle&& handle) {
    if (window.empty()) return;
    const Clock::time_point start = Clock::now();
    for (const InFlight& flight : window) {
      run_.queue_wait_ms.push_back(seconds_between(flight.submitted, start) * 1e3);
    }
    {
      const ScopedSpan span(tracer_, kind == WindowKind::admit ? "service.flush.admit"
                                                               : "service.flush.churn");
      for (const InFlight& flight : window) tracer_.served(span.id(), flight.request);
      controller_.flush();
    }
    for (InFlight& flight : window) {
      const AdmissionOutcome outcome = flight.future.get();
      run_.latency_ms.push_back(seconds_between(flight.started, Clock::now()) * 1e3);
      tracer_.close(flight.span);
      record(round, flight, outcome);
      handle(flight, outcome);
    }
    run_.window_ms[static_cast<std::size_t>(kind)].push_back(
        seconds_between(start, Clock::now()) * 1e3);
    lap(run_);
    window.clear();
  }

  /// A topology batch as its own window (one decision).
  AdmissionOutcome topology(std::vector<topology::Mutation> batch) {
    const std::uint64_t request = ++next_request_;
    const Clock::time_point start = Clock::now();
    AdmissionOutcome outcome;
    {
      const ScopedSpan span(tracer_, "service.apply_topology_delta", 0, request);
      tracer_.served(span.id(), request);
      outcome = controller_.apply_topology_delta(std::move(batch));
    }
    const double ms = seconds_between(start, Clock::now()) * 1e3;
    lap(run_);
    run_.latency_ms.push_back(ms);
    run_.window_ms[static_cast<std::size_t>(WindowKind::topology)].push_back(ms);
    ++run_.decisions;
    fp_.mix(static_cast<std::uint64_t>(outcome.status));
    for (const service::ContractVerdict& verdict : outcome.reverified) {
      fp_.mix(verdict.contract);
      fp_.mix(static_cast<std::uint64_t>(verdict.kind));
      fp_.mix(milli_gbps(verdict.fraction));
    }
    if (outcome.status == AdmissionStatus::failed) ++run_.failed;
    return outcome;
  }

  spec::Resolution resolve(const AdmissionOutcome& outcome, const InFlight& flight,
                           Tenant& tenant, std::size_t round) {
    spec::Resolution resolution;
    {
      const ScopedSpan span(tracer_, "policy.resolve", 0, flight.request);
      resolution = policy_.resolve(outcome.proposals, tenant.spec.policy, tenant.negotiation);
    }
    fp_.mix(round);
    fp_.mix(tenant.id);
    fp_.mix(100 + static_cast<std::uint64_t>(resolution.kind));
    fp_.mix(static_cast<std::uint64_t>(resolution.strategy));
    return resolution;
  }

  void audit() {
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan span(tracer_, "service.audit_fastpath");
      (void)controller_.audit_fastpath();
    }
    run_.audit_s += seconds_between(start, Clock::now());
  }

 private:
  void record(std::size_t round, const InFlight& flight, const AdmissionOutcome& outcome) {
    ++run_.decisions;
    fp_.mix(round);
    fp_.mix(flight.tenant);
    fp_.mix(static_cast<std::uint64_t>(flight.action));
    fp_.mix(static_cast<std::uint64_t>(outcome.status));
    fp_.mix(outcome.contract);
    double approved = 0.0;
    for (const approval::HoseApprovalResult& approval : outcome.approvals) {
      fp_.mix(milli_gbps(approval.approved.value()));
      approved += approval.approved.value();
    }
    if (outcome.status == AdmissionStatus::failed) ++run_.failed;
    if (flight.action == spec::SpecAction::admit) {
      ++run_.admit_decisions;
      run_.requested_gbps += flight.requested_gbps;
      if (outcome.status == AdmissionStatus::admitted) {
        ++run_.admitted;
        run_.granted_gbps += approved;
      }
    }
  }

  service::AdmissionController& controller_;
  std::size_t regions_;
  Tracer& tracer_;
  ConfigRun& run_;
  Fingerprint& fp_;
  spec::PolicyEngine policy_;
  std::uint64_t next_request_ = 0;
};

/// Records the episode whose decisions start at latency_ms[first]; its last
/// lap is the work after its last window.
void record_episode(ConfigRun& run, std::size_t input, std::size_t first, const Fingerprint& fp) {
  lap(run);
  double seconds = 0.0;
  for (const double lap_s : run.laps_s) seconds += lap_s;
  const std::vector<double> latencies(run.latency_ms.begin() + static_cast<std::ptrdiff_t>(first),
                                      run.latency_ms.end());
  double requested = run.requested_gbps;
  double granted = run.granted_gbps;
  for (const Episode& earlier : run.episodes) {
    requested -= earlier.requested_gbps;
    granted -= earlier.granted_gbps;
  }
  run.episodes.push_back(
      {input, fp.hash, requested, granted, latencies, run.laps_s});
  run.timed_s += seconds;
}

/// The gated figures of one config. Repetitions of one input make the same
/// decisions in the same windows, so decision k (and window k) of every
/// repetition is the same work. Per input, each decision's latency and each
/// window's lap is taken from its fastest repetition, the one other tenants
/// of the machine slowed least; the figures are then scaled to reference
/// speed (bench.h) by the fastest calibration pass.
struct Gated {
  double rate = 0.0;     ///< decisions over the summed fastest laps
  double mean_ms = 0.0;  ///< mean of the fastest latencies
};

void keep_fastest(std::vector<double>& best, const std::vector<double>& values) {
  for (std::size_t k = 0; k < std::min(best.size(), values.size()); ++k) {
    best[k] = std::min(best[k], values[k]);
  }
}

Gated gated(const ConfigRun& run, bool calibrated = true) {
  std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>> best;
  for (const Episode& episode : run.episodes) {
    const auto [it, fresh] =
        best.try_emplace(episode.input, episode.latency_ms, episode.laps_s);
    if (fresh) continue;
    keep_fastest(it->second.first, episode.latency_ms);
    keep_fastest(it->second.second, episode.laps_s);
  }
  double decisions = 0.0;
  double seconds = 0.0;
  double latency_ms = 0.0;
  for (const auto& [input, fastest] : best) {
    decisions += static_cast<double>(fastest.first.size());
    for (const double ms : fastest.first) latency_ms += ms;
    for (const double lap_s : fastest.second) seconds += lap_s;
  }
  const double kernel = calibrated ? *std::min_element(run.kernel_s.begin(), run.kernel_s.end())
                                   : kReferenceKernelSeconds;
  return {at_reference_rate(ratio(decisions, seconds), kernel),
          at_reference_time(ratio(latency_ms, decisions), kernel)};
}

/// Runs episodes of `inputs` distinct inputs in turn, each at least once,
/// until `budget_s` has passed; each round runs one episode of each of
/// `configs` configs, so a slow spell of the machine falls on all of them.
template <typename EpisodeFn>
void run_episodes(double budget_s, std::size_t inputs, std::size_t configs, EpisodeFn&& episode) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < inputs || seconds_between(start, Clock::now()) < budget_s; ++i) {
    for (std::size_t c = 0; c < configs; ++c) episode(c, i % inputs);
  }
}

/// Applies a resubmit / wait / give-up resolution to the tenant.
void apply_resolution(const spec::Resolution& resolution, Tenant& tenant, std::size_t now,
                      std::size_t give_up_wait) {
  switch (resolution.kind) {
    case spec::ResolutionKind::resubmit:
      tenant.spec.hoses.clear();
      for (const hose::HoseRequest& hose : resolution.hoses) {
        tenant.spec.hoses.push_back({hose.region, hose.direction, hose.rate, hose.qos});
      }
      break;
    case spec::ResolutionKind::wait:
      tenant.wait_until = now + 1 + resolution.wait_rounds;
      break;
    case spec::ResolutionKind::give_up:
      if (give_up_wait == 0) {
        tenant.dormant = true;
      } else {
        tenant.wait_until = now + give_up_wait;
        tenant.negotiation = spec::NegotiationState{};
      }
      break;
  }
}

/// The end-of-phase checks: residual state equals a from-scratch rebuild,
/// and the fast-path audit queue drains with no violation.
void check_controller(service::AdmissionController& controller, ConfigRun& run) {
  (void)controller.audit_fastpath();
  run.audit_ok = run.audit_ok && controller.audit_fastpath() == 0;
  run.violations += controller.fastpath_stats().violations;
  run.residual_ok =
      run.residual_ok && controller.residual_snapshot() == controller.rebuild_residuals_from_scratch();
}

// --- fleet_admit -------------------------------------------------------------

constexpr std::size_t kAdmitTenants = 2400;
constexpr std::size_t kAdmitRounds = 3;
constexpr std::size_t kAdmitsPerWindow = 32;
constexpr std::size_t kAdmitInputs = 12;
constexpr double kAdmitRelease = 0.002;
constexpr double kAdmitResize = 0.003;

/// One episode: a fresh controller and tenant population, kAdmitRounds
/// rounds of churn window + admit windows + negotiation (TenantFleet's loop).
void admit_episode(const ExecChoice& exec, std::uint64_t seed, std::size_t input,
                   Tracer& tracer, ConfigRun& run) {
  Fingerprint fp;
  const Clock::time_point setup_start = Clock::now();
  const topology::Topology topo = fleet_topology();
  service::AdmissionController controller(topo, controller_config(exec));
  std::vector<Tenant> tenants = make_tenants(kAdmitTenants, seed, topo.region_count());
  run.setups.add(seconds_between(setup_start, Clock::now()));

  Driver driver(controller, topo.region_count(), tracer, run, fp);
  run.obs.begin();
  const std::size_t first = run.latency_ms.size();
  start_laps(run);
  for (std::size_t round = 0; round < kAdmitRounds; ++round) {
    std::vector<InFlight> window;
    std::vector<std::vector<spec::SpecHose>> resized(tenants.size());
    for (Tenant& tenant : tenants) {
      if (tenant.contract == 0) continue;
      const double draw = tenant.rng.uniform();
      if (draw < kAdmitRelease) {
        spec::EntitlementSpec release = tenant.spec;
        release.action = spec::SpecAction::release;
        release.contract = tenant.contract;
        release.hoses.clear();
        driver.submit(release, tenant.id, window);
      } else if (draw < kAdmitRelease + kAdmitResize) {
        spec::EntitlementSpec resize = tenant.spec;
        resize.action = spec::SpecAction::resize;
        resize.contract = tenant.contract;
        const double scale = tenant.rng.uniform(0.6, 1.4);
        for (spec::SpecHose& hose : resize.hoses) hose.rate = hose.rate * scale;
        resized[tenant.id] = resize.hoses;
        driver.submit(resize, tenant.id, window);
      }
    }
    driver.flush(round, WindowKind::churn, window, [&](const InFlight& f, const AdmissionOutcome& o) {
      Tenant& tenant = tenants[f.tenant];
      if (o.status == AdmissionStatus::released) {
        tenant.contract = 0;
        tenant.negotiation = spec::NegotiationState{};
      } else if (o.status == AdmissionStatus::resized) {
        tenant.spec.hoses = std::move(resized[f.tenant]);
      }
    });

    const auto handle_admit = [&](const InFlight& f, const AdmissionOutcome& o) {
      Tenant& tenant = tenants[f.tenant];
      if (o.status == AdmissionStatus::admitted) {
        tenant.contract = o.contract;
        tenant.negotiation = spec::NegotiationState{};
      } else if (o.status == AdmissionStatus::rejected) {
        apply_resolution(driver.resolve(o, f, tenant, round), tenant, round, 0);
      } else {
        tenant.dormant = true;
      }
    };
    for (Tenant& tenant : tenants) {
      if (tenant.contract != 0 || tenant.dormant || tenant.wait_until > round) continue;
      driver.submit(tenant.spec, tenant.id, window);
      if (window.size() >= kAdmitsPerWindow) {
        driver.flush(round, WindowKind::admit, window, handle_admit);
      }
    }
    driver.flush(round, WindowKind::admit, window, handle_admit);
    driver.audit();
  }
  record_episode(run, input, first, fp);
  run.obs.end();
  check_controller(controller, run);
}

// --- fleet_churn -------------------------------------------------------------

constexpr std::size_t kChurnTenants = 1000;
constexpr std::size_t kPrefillWindow = 128;
constexpr std::size_t kChurnWindow = 8;
constexpr double kChurnShare = 0.3;
constexpr std::size_t kTopologyEvery = 16;
constexpr std::size_t kAuditEvery = 16;
constexpr std::size_t kGiveUpWait = 64;
constexpr std::size_t kChurnEpisodeWindows = 4 * kTopologyEvery;
constexpr std::size_t kChurnInputs = 2;
constexpr std::size_t kChurnExtraSetups = 2;
constexpr std::size_t kChurnSetupPopulations = 16;

/// The topology batch cycle: capacity loss on one fiber plus an SRLG cut,
/// their repair, a maintenance drain of the least-connected region, the
/// undrain. Every cycle hits the same targets, so repetitions cost alike.
std::vector<topology::Mutation> topology_batch(std::size_t index, const topology::Topology& topo,
                                               Gbps fiber_capacity) {
  using topology::Mutation;
  using topology::MutationKind;
  const LinkId fiber(0);
  const SrlgId srlg(static_cast<std::uint32_t>(topo.srlg_count() / 2));
  RegionId region(0);
  for (std::uint32_t r = 1; r < topo.region_count(); ++r) {
    if (topo.out_links(RegionId(r)).size() < topo.out_links(region).size()) region = RegionId(r);
  }
  std::vector<Mutation> batch(1);
  Mutation& first = batch.front();
  switch (index % 4) {
    case 0: {
      first.kind = MutationKind::resize_fiber;
      first.link = fiber;
      first.capacity = fiber_capacity * 0.7;
      Mutation strike;
      strike.kind = MutationKind::strike_srlgs;
      strike.srlgs = {srlg};
      batch.push_back(strike);
      break;
    }
    case 1: {
      first.kind = MutationKind::resize_fiber;
      first.link = fiber;
      first.capacity = fiber_capacity;
      Mutation repair;
      repair.kind = MutationKind::repair_srlgs;
      repair.srlgs = {srlg};
      batch.push_back(repair);
      break;
    }
    case 2:
      first.kind = MutationKind::drain_region;
      first.region_a = region;
      break;
    default:
      first.kind = MutationKind::undrain_region;
      first.region_a = region;
      break;
  }
  return batch;
}

/// A churn controller after its untimed prefill.
struct ChurnState {
  topology::Topology topo = fleet_topology();
  std::unique_ptr<service::AdmissionController> controller;
  std::vector<Tenant> tenants;
  std::unordered_map<ContractId, std::size_t> owner;
};

/// Set-up: topology, controller, and a prefill that admits every tenant once
/// in large pure-admit windows, leaving a long committed history.
std::unique_ptr<ChurnState> churn_setup(const ExecChoice& exec, std::uint64_t seed,
                                        ConfigRun& run, Fingerprint& fp) {
  const Clock::time_point start = Clock::now();
  auto state = std::make_unique<ChurnState>();
  state->controller =
      std::make_unique<service::AdmissionController>(state->topo, controller_config(exec));
  state->tenants = make_tenants(kChurnTenants, seed, state->topo.region_count());
  Tracer untraced(false);
  ConfigRun prefill;
  Driver driver(*state->controller, state->topo.region_count(), untraced, prefill, fp);
  std::vector<InFlight> window;
  const auto handle = [&](const InFlight& f, const AdmissionOutcome& o) {
    if (o.status == AdmissionStatus::admitted) {
      state->tenants[f.tenant].contract = o.contract;
      state->owner[o.contract] = f.tenant;
    }
  };
  for (const Tenant& tenant : state->tenants) {
    driver.submit(tenant.spec, tenant.id, window);
    if (window.size() >= kPrefillWindow) driver.flush(0, WindowKind::admit, window, handle);
  }
  driver.flush(0, WindowKind::admit, window, handle);
  (void)state->controller->audit_fastpath();
  run.setups.add(seconds_between(start, Clock::now()));
  return state;
}

/// One churn episode: set-up, then kChurnEpisodeWindows windows — one full
/// cycle of the four topology batch kinds.
void churn_episode(const ExecChoice& exec, std::uint64_t seed, std::size_t input,
                   Tracer& tracer, ConfigRun& run) {
  // Prefill work varies more with the tenant population than between runs,
  // so each episode also times the set-up of kChurnExtraSetups other
  // populations, in turn through kChurnSetupPopulations of them; setup_s is
  // the median over every set-up.
  for (std::size_t i = 0; i < kChurnExtraSetups; ++i) {
    Fingerprint discarded;
    const std::uint64_t population =
        kChurnInputs + run.setups.raw_s.size() % kChurnSetupPopulations;
    (void)churn_setup(exec, seed - input + population, run, discarded);
  }
  Fingerprint fp;
  std::unique_ptr<ChurnState> state = churn_setup(exec, seed, run, fp);
  service::AdmissionController& controller = *state->controller;
  std::vector<Tenant>& tenants = state->tenants;
  Driver driver(controller, state->topo.region_count(), tracer, run, fp);
  Rng rng(seed ^ 0xc4u);
  const Gbps fiber_capacity = state->topo.link(LinkId(0)).capacity;
  std::vector<char> in_window(tenants.size(), 0);
  std::vector<std::vector<spec::SpecHose>> resized(tenants.size());

  run.obs.begin();
  const std::size_t first_decision = run.latency_ms.size();
  start_laps(run);
  for (std::size_t w = 1; w <= kChurnEpisodeWindows; ++w) {
    if (w % kTopologyEvery == 0) {
      const AdmissionOutcome outcome =
          driver.topology(topology_batch(w / kTopologyEvery - 1, state->topo, fiber_capacity));
      for (const service::ContractVerdict& verdict : outcome.reverified) {
        if (verdict.kind != service::VerdictKind::revoked) continue;
        Tenant& tenant = tenants[state->owner.at(verdict.contract)];
        tenant.contract = 0;
        tenant.negotiation = spec::NegotiationState{};
        state->owner.erase(verdict.contract);
      }
      continue;
    }
    std::vector<InFlight> window;
    for (std::size_t j = 0; j < kChurnWindow; ++j) {
      const bool churn = rng.uniform() < kChurnShare;
      // Probe from a random start for a tenant in the wanted state.
      const std::size_t first = rng.uniform_int(tenants.size());
      for (std::size_t k = 0; k < tenants.size(); ++k) {
        Tenant& tenant = tenants[(first + k) % tenants.size()];
        if (in_window[tenant.id] != 0) continue;
        if (churn && tenant.contract != 0) {
          spec::EntitlementSpec next = tenant.spec;
          next.contract = tenant.contract;
          if (tenant.rng.uniform() < 0.5) {
            next.action = spec::SpecAction::release;
            next.hoses.clear();
          } else {
            next.action = spec::SpecAction::resize;
            const double scale = tenant.rng.uniform(0.6, 1.4);
            for (spec::SpecHose& hose : next.hoses) hose.rate = hose.rate * scale;
            resized[tenant.id] = next.hoses;
          }
          driver.submit(next, tenant.id, window);
        } else if (!churn && tenant.contract == 0 && tenant.wait_until <= w) {
          driver.submit(tenant.spec, tenant.id, window);
        } else {
          continue;
        }
        in_window[tenant.id] = 1;
        break;
      }
    }
    driver.flush(w, WindowKind::churn, window, [&](const InFlight& f, const AdmissionOutcome& o) {
      Tenant& tenant = tenants[f.tenant];
      in_window[f.tenant] = 0;
      switch (o.status) {
        case AdmissionStatus::admitted:
          tenant.contract = o.contract;
          tenant.negotiation = spec::NegotiationState{};
          state->owner[o.contract] = f.tenant;
          break;
        case AdmissionStatus::released:
          state->owner.erase(tenant.contract);
          tenant.contract = 0;
          tenant.negotiation = spec::NegotiationState{};
          tenant.spec = make_admit_spec(tenant, state->topo.region_count());
          break;
        case AdmissionStatus::resized:
          tenant.spec.hoses = std::move(resized[f.tenant]);
          break;
        case AdmissionStatus::rejected:
          if (f.action == spec::SpecAction::admit) {
            // A tenant that gives up comes back later with a fresh spec, so
            // the tenant pool (and the admitted set) stays stationary.
            const spec::Resolution resolution = driver.resolve(o, f, tenant, w);
            apply_resolution(resolution, tenant, w, kGiveUpWait);
            if (resolution.kind == spec::ResolutionKind::give_up) {
              tenant.spec = make_admit_spec(tenant, state->topo.region_count());
            }
          }
          break;
        default:
          break;
      }
    });
    if (w % kAuditEvery == 0) driver.audit();
  }
  driver.audit();
  record_episode(run, input, first_decision, fp);
  run.obs.end();
  check_controller(controller, run);
}

// --- reporting ---------------------------------------------------------------

void report_config(Report& report, const std::string& prefix, const ConfigRun& run,
                   const Tracer& tracer) {
  const auto p = [&](const char* name) { return prefix + name; };
  report_admission_obs(report, prefix, run.obs);
  report.layer(p("spec.calls"), static_cast<double>(run.spec_calls), "count");
  report.layer(p("spec.errors"), static_cast<double>(run.spec_errors), "count");
  report.layer(p("approval.admit_ratio"),
               ratio(static_cast<double>(run.admitted), static_cast<double>(run.admit_decisions)),
               "ratio",
               std::to_string(run.admitted) + "/" + std::to_string(run.admit_decisions) +
                   " admit requests");
  report.layer(p("service.audit_s"), run.audit_s, "s");
  const char* kinds[] = {"admit", "churn", "topology"};
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string base = std::to_string(run.window_ms[k].size()) + " windows";
    report.layer(prefix + "service." + kinds[k] + "_window_ms_p50",
                 quantile(run.window_ms[k], 0.5), "ms", base);
    report.layer(prefix + "service." + kinds[k] + "_window_ms_p99",
                 quantile(run.window_ms[k], 0.99), "ms", base);
  }
  report.layer(p("service.queue_wait_ms_mean"), mean(run.queue_wait_ms), "ms",
               "submit to window start, " + std::to_string(run.queue_wait_ms.size()) + " requests");
  report.layer(p("spec.busy_s"), tracer.self_seconds("spec."), "s");
  report.layer(p("spec.parse_us_p50"), median(tracer.durations_us("spec.parse")), "us");
  report.layer(p("spec.compile_us_p50"), median(tracer.durations_us("spec.compile")), "us");
  report.layer(p("policy.busy_s"), tracer.self_seconds("policy."), "s");
  report.layer(p("trace.spans"), static_cast<double>(tracer.span_count()), "count");
  report.layer(p("trace.self_s.spec"), tracer.self_seconds("spec."), "s");
  report.layer(p("trace.self_s.policy"), tracer.self_seconds("policy."), "s");
  report.layer(p("trace.self_s.service"), tracer.self_seconds("service."), "s");
}

/// Transcript of the first episode of every input.
std::map<std::size_t, std::uint64_t> transcripts(const ConfigRun& run) {
  std::map<std::size_t, std::uint64_t> out;
  for (const Episode& episode : run.episodes) out.emplace(episode.input, episode.fingerprint);
  return out;
}

/// Repetitions of one input must decide identically.
bool repeats_agree(const ConfigRun& run) {
  const std::map<std::size_t, std::uint64_t> first = transcripts(run);
  return std::all_of(run.episodes.begin(), run.episodes.end(), [&](const Episode& episode) {
    return first.at(episode.input) == episode.fingerprint;
  });
}

/// Failed outcomes seen by the driver must equal the service's own count.
void check_failed_counted(Report& report, const std::string& name, const ConfigRun& run) {
  report.check(name + " failed outcomes counted",
               static_cast<double>(run.failed - run.spec_errors) ==
                   run.obs.counter("service.admission.failed"),
               std::to_string(run.failed) + " failed");
}

/// Runs the serial and parallel configs, alternating episode by episode,
/// for --seconds untraced; in a traced run, half of that, and then a traced
/// pass of each config for a quarter gives the per-layer metrics.
template <typename EpisodeFn>
std::array<ConfigRun, 2> run_configs(const Args& args, std::size_t inputs, Report& report,
                                     EpisodeFn&& episode) {
  const ExecChoice configs[2] = {kSerial, kParallel};
  std::array<ConfigRun, 2> runs;
  Tracer off(false);
  run_episodes(args.trace ? args.seconds / 2.0 : args.seconds, inputs, 2,
               [&](std::size_t c, std::size_t input) {
                 episode(configs[c], input, off, runs[c]);
                 runs[c].kernel_s.push_back(calibrate());
               });
  for (int c = 0; c < 2; ++c) check_failed_counted(report, configs[c].name, runs[c]);
  if (!args.trace) return runs;

  for (int c = 0; c < 2; ++c) {
    const ExecChoice& exec = configs[c];
    const std::string prefix = is_serial(exec) ? "" : "parallel.";
    ConfigRun traced;
    Tracer tracer(true);
    run_episodes(args.seconds / 4.0, inputs, 1, [&](std::size_t, std::size_t input) {
      episode(exec, input, tracer, traced);
      traced.kernel_s.push_back(calibrate());
    });
    const double untraced_rate = gated(runs[c]).rate;
    const double traced_rate = gated(traced).rate;
    report.layer(prefix + "trace.overhead_pct",
                 100.0 * ratio(untraced_rate - traced_rate, untraced_rate), "%",
                 "untraced " + std::to_string(untraced_rate) + " vs traced " +
                     std::to_string(traced_rate) + " decisions/s at reference speed");
    report_config(report, prefix, traced, tracer);
    tracer.write(".bench_build/perfbench-trace-" + args.workload + "-" + exec.name + ".tsv");
    report.check(std::string(exec.name) + " traced transcript == untraced",
                 transcripts(traced) == transcripts(runs[c]));
    report.check(std::string(exec.name) + " traced residual == rebuild", traced.residual_ok);
  }
  return runs;
}

void report_fleet(Report& report, const ConfigRun& serial, const ConfigRun& parallel,
                  double granted_fraction) {
  const auto base = [](const ConfigRun& run) {
    std::size_t windows = 0;
    for (const auto& per_kind : run.window_ms) windows += per_kind.size();
    return std::to_string(run.latency_ms.size()) + " decisions in " + std::to_string(windows) +
           " windows, " + std::to_string(run.episodes.size()) + " episodes";
  };
  const auto rate = [](const ConfigRun& run) {
    return ratio(static_cast<double>(run.decisions), run.timed_s);
  };
  report.metric("setup_s", median(serial.setups.raw_s), "s",
                "median of " + std::to_string(serial.setups.raw_s.size()) + " serial set-ups");
  report.metric("decision_p50_ms", quantile(serial.latency_ms, 0.5), "ms", base(serial));
  report.metric("decision_p99_ms", quantile(serial.latency_ms, 0.99), "ms", base(serial));
  report.metric("decisions_per_s", rate(serial), "1/s");
  report.metric("parallel_decision_p50_ms", quantile(parallel.latency_ms, 0.5), "ms",
                base(parallel));
  report.metric("parallel_decision_p99_ms", quantile(parallel.latency_ms, 0.99), "ms",
                base(parallel));
  report.metric("parallel_decisions_per_s", rate(parallel), "1/s");
  report.metric("granted_fraction", granted_fraction, "ratio", "first episode of each input");
  const std::uint64_t attempted = serial.decisions + parallel.decisions;
  const std::uint64_t failed = serial.failed + parallel.failed;
  report.metric("failed_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio", std::to_string(failed) + "/" + std::to_string(attempted));
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("parallel_setup_s", median(parallel.setups.raw_s), "s");
  report.attempted(attempted);
  report.failed(failed);

  const std::map<std::size_t, std::uint64_t> serial_fp = transcripts(serial);
  const std::map<std::size_t, std::uint64_t> parallel_fp = transcripts(parallel);
  report.check("serial transcript == parallel transcript", serial_fp == parallel_fp,
               std::to_string(serial_fp.size()) + " inputs");
  for (const ConfigRun* run : {&serial, &parallel}) {
    const std::string name = run == &serial ? "serial" : "parallel";
    report.check(name + " repeated episodes decide identically", repeats_agree(*run));
    report.check(name + " residual == rebuild", run->residual_ok);
    report.check(name + " fast-path audit drained", run->audit_ok);
    report.check(name + " fast-path violations == 0", run->violations == 0,
                 std::to_string(run->violations));
  }

  const Gated s = gated(serial);
  const Gated p = gated(parallel);
  report.metric("gated.serial_rate", s.rate, "1/s",
                "fastest kernel " +
                    std::to_string(*std::min_element(serial.kernel_s.begin(),
                                                     serial.kernel_s.end()) * 1e3) + " ms");
  report.metric("gated.parallel_rate", p.rate, "1/s");
  report.metric("gated.serial_mean_ms", s.mean_ms, "ms");
  report.metric("gated.parallel_mean_ms", p.mean_ms, "ms");
  // The same figures unscaled, so A/A runs can compare the two.
  const Gated rs = gated(serial, false);
  const Gated rp = gated(parallel, false);
  report.metric("raw.serial_rate", rs.rate, "1/s");
  report.metric("raw.parallel_rate", rp.rate, "1/s");
  report.metric("raw.serial_mean_ms", rs.mean_ms, "ms");
  report.metric("raw.parallel_mean_ms", rp.mean_ms, "ms");
  report.metric("gated.setup_s", median(serial.setups.reference_s), "s");
  report.gate("setup_s", median(serial.setups.reference_s));
  report.gate("peak_rss_mb", peak_rss_mb());
  report.gate("serial_rate", s.rate);
  report.gate("parallel_rate", p.rate);
  report.gate("serial_mean_ms", s.mean_ms);
  report.gate("parallel_mean_ms", p.mean_ms);
}

/// Approved / requested Gbps over the admit decisions of the first episode of
/// every input (deterministic for a seed, whatever the speed).
double granted_fraction(const ConfigRun& run) {
  std::map<std::size_t, const Episode*> first;
  for (const Episode& episode : run.episodes) first.emplace(episode.input, &episode);
  double requested = 0.0;
  double granted = 0.0;
  for (const auto& [input, episode] : first) {
    requested += episode->requested_gbps;
    granted += episode->granted_gbps;
  }
  return ratio(granted, requested);
}

}  // namespace

void run_fleet_admit(const Args& args, Report& report) {
  std::cout << "workload fleet_admit: closed loop, 1 driver thread, episodes of " << kAdmitTenants
            << " tenants x " << kAdmitRounds << " rounds over " << kAdmitInputs
            << " inputs, windows of " << kAdmitsPerWindow << " admits\n";
  const auto episode = [&](const ExecChoice& exec, std::size_t input, Tracer& tracer,
                           ConfigRun& run) {
    admit_episode(exec, args.seed * 1000003ULL + input, input, tracer, run);
  };
  const std::array<ConfigRun, 2> runs = run_configs(args, kAdmitInputs, report, episode);
  report_fleet(report, runs[0], runs[1], granted_fraction(runs[0]));
}

void run_fleet_churn(const Args& args, Report& report) {
  std::cout << "workload fleet_churn: closed loop, 1 driver thread, episodes of " << kChurnTenants
            << " prefilled tenants then " << kChurnEpisodeWindows << " windows of " << kChurnWindow
            << " (" << kChurnShare * 100 << "% release/resize) with a topology batch every "
            << kTopologyEvery << " windows, over " << kChurnInputs << " inputs\n";
  const auto episode = [&](const ExecChoice& exec, std::size_t input, Tracer& tracer,
                           ConfigRun& run) {
    churn_episode(exec, args.seed * 1000003ULL + input, input, tracer, run);
  };
  const std::array<ConfigRun, 2> runs = run_configs(args, kChurnInputs, report, episode);
  report_fleet(report, runs[0], runs[1], granted_fraction(runs[0]));
}

}  // namespace perfbench
