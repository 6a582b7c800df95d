// Decision-equivalence torture tests for the sharded admission plane
// (AdmissionController with exec.shards > 1: each window's realizations are
// assessed that many at a time on the controller's thread pool): the SAME
// request stream replayed at 1/2/4/8 shards and 1/4 risk threads must
// produce bit-identical verdicts, approved rates, residual state and
// contract databases — the determinism contract the ascending-realization
// merge guarantees. Also: adversarial partition shapes (one realization at
// width 8, realizations not divisible by the width, one burst window
// fanning out at once), shutdown under load (no request dropped, none
// double-committed) and flush() as a barrier against the background worker.
#include "service/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/contract_db.h"
#include "topology/generator.h"

namespace netent::service {
namespace {

using hose::Direction;
using hose::HoseRequest;

HoseRequest make_hose(std::uint32_t npg, QosClass qos, std::uint32_t region, double gbps,
                      Direction direction = Direction::egress) {
  HoseRequest hose;
  hose.npg = NpgId(npg);
  hose.qos = qos;
  hose.region = RegionId(region);
  hose.direction = direction;
  hose.rate = Gbps(gbps);
  return hose;
}

std::vector<HoseRequest> hose_pair(std::uint32_t npg, QosClass qos, std::uint32_t src,
                                   std::uint32_t dst, double gbps) {
  return {make_hose(npg, qos, src, gbps, Direction::egress),
          make_hose(npg, qos, dst, gbps, Direction::ingress)};
}

AdmissionRequest admit_request(std::uint32_t npg, std::vector<HoseRequest> hoses) {
  AdmissionRequest request;
  request.kind = RequestKind::admit;
  request.npg = NpgId(npg);
  request.npg_name = "npg" + std::to_string(npg);
  request.hoses = std::move(hoses);
  return request;
}

std::vector<AdmissionOutcome> run_window(AdmissionController& controller,
                                         std::vector<AdmissionRequest> requests) {
  std::vector<std::future<AdmissionOutcome>> futures;
  futures.reserve(requests.size());
  for (AdmissionRequest& request : requests) {
    futures.push_back(controller.submit(std::move(request)));
  }
  controller.flush();
  std::vector<AdmissionOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (auto& future : futures) outcomes.push_back(future.get());
  return outcomes;
}

/// Field-wise fingerprint of the final contract database, full precision:
/// two runs agree iff every contract (id, NPG, name, SLO) and every
/// entitlement row (all fields, exact rates) agree in order.
std::string fingerprint(const core::ContractDb& db) {
  std::ostringstream out;
  out.precision(17);
  for (const core::EntitlementContract& contract : db.contracts()) {
    out << contract.id << '|' << contract.npg.value() << '|' << contract.npg_name << '|'
        << contract.slo_availability << '\n';
    for (const core::Entitlement& e : contract.entitlements) {
      out << ' ' << e.npg.value() << ',' << static_cast<int>(e.qos) << ',' << e.region.value()
          << ',' << static_cast<int>(e.direction) << ',' << e.entitled_rate.value() << ','
          << e.period.start_seconds << ',' << e.period.end_seconds << '\n';
    }
  }
  return out.str();
}

/// Everything a churn replay decided, for cross-shard-count equality.
struct ShardChurnResult {
  AdmissionController::ResidualState residuals;
  std::vector<AdmissionStatus> statuses;
  std::vector<double> approved;
  std::string contracts;
  AdmissionController::FastPathStats fast;

  bool operator==(const ShardChurnResult& other) const {
    return residuals == other.residuals && statuses == other.statuses &&
           approved == other.approved && contracts == other.contracts;
  }
};

struct ChurnParams {
  std::size_t shards = 1;
  std::size_t threads = 1;
  bool fastpath = false;
  std::size_t total_requests = 200;
  std::size_t realizations = 3;
};

/// Randomized churn driver: mixed admit / resize / release in multi-request
/// windows, same deterministic stream for every parameterization (driver
/// randomness depends on outcomes only through `live`, and outcomes are
/// identical across the configurations under comparison). Checks the
/// incremental-vs-rebuilt residual invariant periodically along the way.
ShardChurnResult sharded_churn(const topology::Topology& topo, const ChurnParams& params) {
  AdmissionConfig config;
  config.approval.realizations = params.realizations;
  // Clearable by the analytical fast tier on figure6 (see
  // test_admission.cpp); the same SLO for every config keeps fastpath-on
  // and fastpath-off streams comparable at each shard count.
  config.approval.slo_availability = 0.995;
  config.approval.scenarios.max_simultaneous = 1;
  config.approval.fastpath.enabled = params.fastpath;
  config.exec.threads = params.threads;
  config.exec.shards = params.shards;
  config.seed = 77;
  config.background = false;  // deterministic windows driven by flush()
  config.attach_counter_proposals = false;
  AdmissionController controller(topo, config);

  const auto regions = static_cast<std::uint32_t>(topo.region_count());
  ShardChurnResult result;
  Rng driver(4242);
  std::vector<ContractId> live;
  std::uint32_t next_npg = 1;
  std::size_t submitted = 0;
  std::size_t window_index = 0;
  while (submitted < params.total_requests) {
    std::vector<AdmissionRequest> window;
    std::vector<ContractId> touched;  // one request per contract per window
    const std::size_t requests = 1 + driver.uniform_int(4);
    for (std::size_t r = 0; r < requests; ++r) {
      const double coin = driver.uniform(0.0, 1.0);
      if (live.size() < 6 || touched.size() >= live.size() || coin < 0.45) {
        const std::uint32_t npg = next_npg++;
        const auto src = static_cast<std::uint32_t>(driver.uniform_int(regions));
        const auto dst =
            (src + 1 + static_cast<std::uint32_t>(driver.uniform_int(regions - 1))) % regions;
        window.push_back(admit_request(
            npg, hose_pair(npg, static_cast<QosClass>(driver.uniform_int(kQosClassCount)), src,
                           dst, driver.uniform(20.0, 120.0))));
        continue;
      }
      ContractId target = 0;
      do {
        target = live[driver.uniform_int(live.size())];
      } while (std::find(touched.begin(), touched.end(), target) != touched.end());
      touched.push_back(target);
      AdmissionRequest request;
      request.contract = target;
      if (coin < 0.8) {
        request.kind = RequestKind::release;
      } else {
        request.kind = RequestKind::resize;
        const core::ContractDb db = controller.contracts_snapshot();
        const auto* entry = db.find_by_id(target);
        EXPECT_NE(entry, nullptr);
        if (entry == nullptr) continue;
        const auto src = static_cast<std::uint32_t>(driver.uniform_int(regions));
        request.hoses = hose_pair(entry->npg.value(), QosClass::c2_low, src,
                                  (src + 2) % regions, driver.uniform(10.0, 80.0));
      }
      window.push_back(std::move(request));
    }
    submitted += window.size();
    for (const AdmissionOutcome& outcome : run_window(controller, std::move(window))) {
      if (outcome.status == AdmissionStatus::admitted) live.push_back(outcome.contract);
      if (outcome.status == AdmissionStatus::released) std::erase(live, outcome.contract);
      result.statuses.push_back(outcome.status);
      for (const auto& approval : outcome.approvals) {
        result.approved.push_back(approval.approved.value());
      }
    }
    if (++window_index % 8 == 0) {
      EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch())
          << "delta-replay divergence after window " << window_index << " at "
          << params.shards << " shards";
    }
  }
  (void)controller.audit_fastpath();
  result.fast = controller.fastpath_stats();
  result.residuals = controller.residual_snapshot();
  result.contracts = fingerprint(controller.contracts_snapshot());
  return result;
}

// The tentpole invariant: a long mixed churn stream decides bit-identically
// at every shard count x thread count, down to residual state and the full
// contract database.
TEST(ShardedAdmission, ChurnTortureEquivalenceAcrossShardsAndThreads) {
  const topology::Topology topo = topology::figure6_topology();
  ChurnParams base;
  base.total_requests = 1024;
  const ShardChurnResult reference = sharded_churn(topo, base);
  ASSERT_FALSE(reference.statuses.empty());
  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 4u}) {
      ChurnParams params = base;
      params.shards = shards;
      params.threads = threads;
      EXPECT_EQ(sharded_churn(topo, params), reference)
          << "divergence at " << shards << " shards, " << threads << " threads";
    }
  }
}

// Same equivalence with the two-tier fast path engaged: realization jobs
// probe their realization's FastEstimator concurrently, fast-hit accounting and
// the deferred exact audit must not depend on the shard count, and the
// audit must find zero bound violations at every shard count.
TEST(ShardedAdmission, FastPathChurnEquivalenceAcrossShardCounts) {
  const topology::Topology topo = topology::figure6_topology();
  ChurnParams base;
  base.fastpath = true;
  base.total_requests = 192;
  const ShardChurnResult reference = sharded_churn(topo, base);
  EXPECT_GT(reference.fast.hits, 0u);  // the tier is actually exercised
  EXPECT_EQ(reference.fast.violations, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 4u}) {
      ChurnParams params = base;
      params.shards = shards;
      params.threads = threads;
      const ShardChurnResult run = sharded_churn(topo, params);
      EXPECT_EQ(run, reference)
          << "divergence at " << shards << " shards, " << threads << " threads";
      EXPECT_EQ(run.fast.hits, reference.fast.hits);
      EXPECT_EQ(run.fast.fallbacks, reference.fast.fallbacks);
      EXPECT_EQ(run.fast.audited, reference.fast.audited);
      EXPECT_EQ(run.fast.violations, 0u);
    }
  }
}

// Adversarial partition: ONE realization at width eight — a single job
// while seven workers starve. Starved workers must neither block the merge
// nor perturb the decisions.
TEST(ShardedAdmission, AllRealizationsOnOneShardStarvesTheRest) {
  const topology::Topology topo = topology::figure6_topology();
  ChurnParams base;
  base.realizations = 1;
  base.total_requests = 96;
  const ShardChurnResult reference = sharded_churn(topo, base);
  ChurnParams skewed = base;
  skewed.shards = 8;
  EXPECT_EQ(sharded_churn(topo, skewed), reference);
}

// Adversarial partition: realizations not divisible by the shard count, so
// some threads assess two realizations per window while others assess one.
// The staggered completion order must still merge into the 1-shard
// decisions.
TEST(ShardedAdmission, NonDivisibleRoundRobinWrap) {
  const topology::Topology topo = topology::figure6_topology();
  ChurnParams base;
  base.realizations = 5;
  base.total_requests = 96;
  const ShardChurnResult reference = sharded_churn(topo, base);
  ChurnParams wrapped = base;
  wrapped.shards = 3;
  EXPECT_EQ(sharded_churn(topo, wrapped), reference);
}

// One 32-admit burst window: every realization fans out simultaneously, the
// whole width is busy at once, and the joint approval's cross-request coupling
// (later admits see earlier ones' placements within the window) must be
// preserved by the merge at every shard count.
TEST(ShardedAdmission, BurstWindowEquivalence) {
  const topology::Topology topo = topology::figure6_topology();
  const auto regions = static_cast<std::uint32_t>(topo.region_count());
  const auto burst_run = [&](std::size_t shards) {
    AdmissionConfig config;
    config.approval.realizations = 4;
    config.approval.slo_availability = 0.995;
    config.approval.scenarios.max_simultaneous = 1;
    config.exec.shards = shards;
    config.seed = 9;
    config.background = false;
    config.attach_counter_proposals = false;
    AdmissionController controller(topo, config);
    std::vector<AdmissionRequest> window;
    for (std::uint32_t i = 0; i < 32; ++i) {
      const std::uint32_t src = i % regions;
      const std::uint32_t dst = (i + 2) % regions;
      window.push_back(admit_request(
          i + 1, hose_pair(i + 1, static_cast<QosClass>(i % kQosClassCount), src, dst,
                           15.0 + static_cast<double>(i))));
    }
    ShardChurnResult result;
    for (const AdmissionOutcome& outcome : run_window(controller, std::move(window))) {
      result.statuses.push_back(outcome.status);
      for (const auto& approval : outcome.approvals) {
        result.approved.push_back(approval.approved.value());
      }
    }
    result.residuals = controller.residual_snapshot();
    result.contracts = fingerprint(controller.contracts_snapshot());
    EXPECT_EQ(result.residuals, controller.rebuild_residuals_from_scratch());
    return result;
  };
  const ShardChurnResult reference = burst_run(1);
  ASSERT_EQ(reference.statuses.size(), 32u);
  EXPECT_EQ(burst_run(4), reference);
  EXPECT_EQ(burst_run(8), reference);
}

// Shutdown under load: concurrent submitters race flush() and then the
// destructor. Every submitted request's future must resolve (processed or
// failed-at-shutdown), no contract id may be handed out twice, and the
// committed state must still equal its from-scratch rebuild — i.e. nothing
// was dropped or double-committed by the teardown racing the pool workers.
TEST(ShardedAdmission, ShutdownUnderLoadDropsAndDuplicatesNothing) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config;
  config.approval.realizations = 3;
  config.approval.slo_availability = 0.995;
  config.approval.scenarios.max_simultaneous = 1;
  config.exec.shards = 4;
  config.seed = 5;
  config.background = true;  // the worker coalesces + processes concurrently
  config.batch_window_seconds = 0.0005;
  config.attach_counter_proposals = false;
  auto controller = std::make_unique<AdmissionController>(topo, config);

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerSubmitter = 16;
  std::mutex futures_mutex;
  std::vector<std::future<AdmissionOutcome>> futures;
  std::atomic<std::uint32_t> next_npg{1};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        const std::uint32_t npg = next_npg.fetch_add(1);
        auto future = controller->submit(
            admit_request(npg, hose_pair(npg, QosClass::c2_low, npg % 4, (npg + 2) % 4, 30.0)));
        const std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(future));
      }
    });
  }
  // flush() races the background worker and the submitters — both drain the
  // same queue; every request must land in exactly one window.
  for (int i = 0; i < 8; ++i) controller->flush();
  for (std::thread& submitter : submitters) submitter.join();
  controller->flush();

  // Settled state before teardown: delta-replay invariant holds, ids unique.
  EXPECT_EQ(controller->residual_snapshot(), controller->rebuild_residuals_from_scratch());
  const core::ContractDb db = controller->contracts_snapshot();
  std::vector<std::uint64_t> db_ids;
  for (const auto& contract : db.contracts()) db_ids.push_back(contract.id);
  std::sort(db_ids.begin(), db_ids.end());
  EXPECT_EQ(std::adjacent_find(db_ids.begin(), db_ids.end()), db_ids.end());

  // A final burst races the destructor: these futures must ALSO resolve —
  // either processed by the draining worker or failed at shutdown.
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::uint32_t npg = next_npg.fetch_add(1);
    futures.push_back(controller->submit(
        admit_request(npg, hose_pair(npg, QosClass::c3_low, npg % 4, (npg + 1) % 4, 10.0))));
  }
  controller.reset();  // teardown with work possibly still queued

  ASSERT_EQ(futures.size(), kSubmitters * kPerSubmitter + 8);
  std::vector<std::uint64_t> admitted_ids;
  for (auto& future : futures) {
    const AdmissionOutcome outcome = future.get();  // throws if a promise was dropped
    if (outcome.status == AdmissionStatus::admitted) admitted_ids.push_back(outcome.contract);
  }
  std::sort(admitted_ids.begin(), admitted_ids.end());
  EXPECT_EQ(std::adjacent_find(admitted_ids.begin(), admitted_ids.end()), admitted_ids.end())
      << "a contract id was handed out twice";
  // Everything in the final database was reported admitted to some caller.
  for (const std::uint64_t id : db_ids) {
    EXPECT_TRUE(std::binary_search(admitted_ids.begin(), admitted_ids.end(), id));
  }
}

// flush() is a barrier: it returns only once every request submitted before
// the call has its outcome, including requests the background worker took
// into its own window first. With no coalescing delay, a short pause before
// flush() in three rounds of four lets the worker win that race.
TEST(ShardedAdmission, FlushWaitsForTheWindowTheWorkerTook) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config;
  config.approval.realizations = 3;
  config.approval.slo_availability = 0.995;
  config.approval.scenarios.max_simultaneous = 1;
  config.exec.shards = 2;
  config.seed = 11;
  config.background = true;
  config.batch_window_seconds = 0.0;
  config.attach_counter_proposals = false;
  AdmissionController controller(topo, config);

  std::size_t not_ready = 0;
  for (std::uint32_t round = 0; round < 200; ++round) {
    const std::uint32_t npg = round + 1;
    auto future = controller.submit(
        admit_request(npg, hose_pair(npg, QosClass::c2_low, npg % 4, (npg + 2) % 4, 2.0)));
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 4)));
    controller.flush();
    if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) ++not_ready;
    future.wait();
  }
  EXPECT_EQ(not_ready, 0u) << "flush() returned before the worker's window finished";
}

// The resolved shard count is reflected in config(), mirroring the thread
// resolution, so operators can read back what the service actually runs.
TEST(ShardedAdmission, ConfigReflectsShardResolution) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config;
  config.approval.realizations = 2;
  config.approval.scenarios.max_simultaneous = 1;
  config.background = false;
  config.attach_counter_proposals = false;
  {
    AdmissionController controller(topo, config);
    EXPECT_EQ(controller.config().exec.resolve_shards(), 1u);  // default: unsharded
  }
  config.exec.shards = 4;
  {
    AdmissionController controller(topo, config);
    EXPECT_EQ(controller.config().exec.resolve_shards(), 4u);
  }
}

}  // namespace
}  // namespace netent::service
