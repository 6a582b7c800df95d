// Topology-lifecycle equivalence tests: the versioned mutation log and the
// incremental re-verification stack built on it.
//
//  * link_unavailability degenerate-input convention (mtbf/mttr <= 0).
//  * add_fiber_in_conduit: >= 3 fibers sharing one conduit SRLG, SrlgIndex
//    grouping, and a single storm / failure scenario cutting all of them.
//  * MutationLog epoch bookkeeping (consecutive epochs, O(1) since()).
//  * Router::resync_topology == fresh Router after randomized structural +
//    capacity churn, for every compiled pair, bit-identically.
//  * ScenarioSweeper::replay_with_overrides == fresh sweeper built on the
//    overridden base capacities, bit-identically.
//  * SrlgIndex::resync == fresh index after fiber adds.
//  * The mutation-churn TORTURE: one interleaved stream of topology deltas
//    (resize / drain / storm / add / retire) and admit / resize / release
//    requests replayed at 1/4 shards x 1/4 threads, fastpath on and off.
//    After every mutation window the maintained residuals, fast-path
//    summaries and (mirror-router) PathStore contents must equal from-
//    scratch rebuilds, and the full decision transcript (statuses, approved
//    rates, verdicts, contract-db fingerprints) must be bit-identical
//    across all eight configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "approval/approval.h"
#include "approval/negotiation.h"
#include "common/rng.h"
#include "core/contract_db.h"
#include "obs/metrics.h"
#include "risk/failure.h"
#include "risk/fast_estimator.h"
#include "risk/simulator.h"
#include "service/admission.h"
#include "topology/replay.h"
#include "topology/routing.h"
#include "topology/srlg_index.h"
#include "topology/topology.h"

namespace netent {
namespace {

using hose::Direction;
using hose::HoseRequest;
using service::AdmissionConfig;
using service::AdmissionController;
using service::AdmissionOutcome;
using service::AdmissionStatus;
using service::ContractId;
using service::ContractVerdict;
using service::VerdictKind;
using topology::Demand;
using topology::Link;
using topology::Mutation;
using topology::MutationKind;
using topology::MutationRecord;
using topology::PathList;
using topology::PathStore;
using topology::Router;
using topology::Topology;

constexpr std::size_t kRouterPaths = 3;

/// 8-region ring + chords seed backbone, deterministic.
Topology seed_topology() {
  Topology topo;
  for (int r = 0; r < 8; ++r) {
    topo.add_region("r" + std::to_string(r),
                    r % 2 == 0 ? topology::RegionKind::data_center : topology::RegionKind::pop);
  }
  Rng rng(7);
  const auto fiber = [&](std::uint32_t a, std::uint32_t b) {
    (void)topo.add_fiber(RegionId(a), RegionId(b), Gbps(rng.uniform(120.0, 220.0)),
                         rng.uniform(80000.0, 300000.0), rng.uniform(4.0, 12.0));
  };
  for (std::uint32_t r = 0; r < 8; ++r) fiber(r, (r + 1) % 8);
  fiber(0, 3);
  fiber(1, 5);
  fiber(2, 6);
  fiber(4, 7);
  return topo;
}

void expect_same_paths(const PathList& got, const PathList& want, const std::string& where) {
  ASSERT_TRUE(got.valid()) << where;
  ASSERT_TRUE(want.valid()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t p = 0; p < got.size(); ++p) {
    const topology::PathView a = got[p];
    const topology::PathView b = want[p];
    EXPECT_EQ(a.cost, b.cost) << where << " path " << p;
    ASSERT_EQ(a.links.size(), b.links.size()) << where << " path " << p;
    for (std::size_t l = 0; l < a.links.size(); ++l) {
      EXPECT_EQ(a.links[l], b.links[l]) << where << " path " << p << " hop " << l;
    }
  }
}

/// Every compiled pair of `mirror` must hold exactly the path set a Router
/// built fresh on the current topology would compile.
void expect_store_matches_fresh(const Router& mirror, const Topology& topo,
                                const std::string& where) {
  Router fresh(topo, kRouterPaths);
  for (const PathStore::PairKey& pair : mirror.path_store().pairs()) {
    std::ostringstream label;
    label << where << " pair (" << pair.src.value() << "," << pair.dst.value() << ")";
    expect_same_paths(mirror.cached_paths(pair.src, pair.dst), fresh.paths(pair.src, pair.dst),
                      label.str());
  }
  const std::span<const double> caps = mirror.full_capacities();
  ASSERT_EQ(caps.size(), topo.link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    EXPECT_EQ(caps[l], topo.effective_capacity(LinkId(static_cast<std::uint32_t>(l))).value())
        << where << " link " << l;
  }
}

// --- link_unavailability degenerate convention --------------------------

Link reliability_link(double mtbf, double mttr) {
  Link link;
  link.mtbf_hours = mtbf;
  link.mttr_hours = mttr;
  return link;
}

TEST(TopologyLifecycle, LinkUnavailabilityDegenerateConvention) {
  // Sane inputs: the textbook stationary unavailability.
  EXPECT_DOUBLE_EQ(topology::link_unavailability(reliability_link(8760.0, 12.0)),
                   12.0 / (8760.0 + 12.0));
  // mttr <= 0: instant (or absent) repair — never observed down. This rule
  // wins when both are degenerate.
  EXPECT_EQ(topology::link_unavailability(reliability_link(8760.0, 0.0)), 0.0);
  EXPECT_EQ(topology::link_unavailability(reliability_link(0.0, 0.0)), 0.0);
  // mtbf <= 0 with repair time: fails immediately, always down.
  EXPECT_EQ(topology::link_unavailability(reliability_link(0.0, 12.0)), 1.0);
  // Never NaN/inf, whatever the inputs.
  for (const double mtbf : {0.0, 1.0, 8760.0}) {
    for (const double mttr : {0.0, 1.0, 12.0}) {
      const double u = topology::link_unavailability(reliability_link(mtbf, mttr));
      EXPECT_TRUE(u >= 0.0 && u <= 1.0) << "mtbf=" << mtbf << " mttr=" << mttr;
    }
  }
}

// --- conduit sharing -----------------------------------------------------

TEST(TopologyLifecycle, ConduitSharedByThreeFibersFailsAsOne) {
  Topology topo;
  (void)topo.add_region("a", topology::RegionKind::data_center);
  (void)topo.add_region("b", topology::RegionKind::data_center);
  (void)topo.add_region("c", topology::RegionKind::pop);
  const LinkId spare = topo.add_fiber(RegionId(1), RegionId(2), Gbps(50), 100000.0, 8.0);
  const LinkId first = topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 200000.0, 6.0);
  const LinkId second = topo.add_fiber_in_conduit(RegionId(0), RegionId(1), Gbps(80), first);
  const LinkId third = topo.add_fiber_in_conduit(RegionId(0), RegionId(1), Gbps(60), second);

  // All three fibers (six directed links) share the first fiber's SRLG and
  // reliability; the unrelated fiber does not.
  const SrlgId conduit = topo.link(first).srlg;
  const std::vector<LinkId> conduit_links = {first,  topo.link(first).reverse,
                                             second, topo.link(second).reverse,
                                             third,  topo.link(third).reverse};
  for (const LinkId id : conduit_links) {
    EXPECT_EQ(topo.link(id).srlg, conduit);
    EXPECT_EQ(topo.link(id).mtbf_hours, 200000.0);
    EXPECT_EQ(topo.link(id).mttr_hours, 6.0);
  }
  EXPECT_NE(topo.link(spare).srlg, conduit);

  // The SRLG index groups all six under the one group.
  topology::SrlgIndex index(topo);
  EXPECT_EQ(index.links_of(conduit).size(), 6u);
  for (const LinkId id : index.links_of(conduit)) {
    EXPECT_EQ(topo.link(id).srlg, conduit);
  }

  // One storm strike zeroes every co-conduit link and nothing else.
  topo.strike_srlgs({conduit});
  for (const LinkId id : conduit_links) {
    EXPECT_EQ(topo.effective_capacity(id).value(), 0.0);
  }
  EXPECT_GT(topo.effective_capacity(spare).value(), 0.0);
  topo.repair_srlgs({conduit});

  // And one enumerated failure scenario takes all of them out together.
  const std::vector<risk::FailureScenario> scenarios =
      risk::enumerate_scenarios(topo, risk::ScenarioConfig{});
  const auto hit = std::find_if(scenarios.begin(), scenarios.end(), [&](const auto& s) {
    return s.down.size() == 1 && s.down[0] == conduit;
  });
  ASSERT_NE(hit, scenarios.end());
  std::vector<double> base;
  for (const Link& link : topo.links()) base.push_back(link.capacity.value());
  const std::vector<double> failed = risk::scenario_capacities(index, base, *hit);
  for (const LinkId id : conduit_links) EXPECT_EQ(failed[id.value()], 0.0);
  EXPECT_GT(failed[spare.value()], 0.0);
}

// --- mutation log --------------------------------------------------------

TEST(TopologyLifecycle, MutationLogEpochsAreConsecutive) {
  Topology topo = seed_topology();
  const std::uint64_t built = topo.epoch();
  EXPECT_EQ(built, topo.mutation_log().size());  // build-phase adds are logged

  const LinkId added = topo.add_fiber(RegionId(0), RegionId(4), Gbps(90), 120000.0, 6.0);
  topo.resize_fiber(added, Gbps(140));
  topo.drain_region(RegionId(2));
  topo.undrain_region(RegionId(2));
  topo.strike_srlgs({topo.link(added).srlg});
  topo.repair_srlgs({topo.link(added).srlg});
  topo.retire_fiber(added);
  EXPECT_EQ(topo.epoch(), built + 7);

  const auto records = topo.mutation_log().records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].epoch, i + 1);  // consecutive from 1
  }
  const auto tail = topo.mutation_log().since(built);
  ASSERT_EQ(tail.size(), 7u);
  EXPECT_EQ(tail[0].kind, MutationKind::add_fiber);
  EXPECT_EQ(tail[0].link, added);
  EXPECT_EQ(tail[6].kind, MutationKind::retire_fiber);
  EXPECT_TRUE(topo.mutation_log().since(topo.epoch()).empty());
}

// --- srlg index resync ---------------------------------------------------

TEST(TopologyLifecycle, SrlgIndexResyncMatchesFreshIndex) {
  Topology topo = seed_topology();
  topology::SrlgIndex index(topo);
  const LinkId a = topo.add_fiber(RegionId(0), RegionId(5), Gbps(70), 90000.0, 5.0);
  (void)topo.add_fiber_in_conduit(RegionId(0), RegionId(5), Gbps(70), a);
  (void)topo.add_fiber(RegionId(3), RegionId(6), Gbps(80), 110000.0, 7.0);
  index.resync(topo);

  const topology::SrlgIndex fresh(topo);
  for (std::size_t g = 0; g < topo.srlg_count(); ++g) {
    const SrlgId srlg(static_cast<std::uint32_t>(g));
    const auto got = index.links_of(srlg);
    const auto want = fresh.links_of(srlg);
    ASSERT_EQ(got.size(), want.size()) << "srlg " << g;
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << "srlg " << g;
  }
}

// --- router resync -------------------------------------------------------

TEST(TopologyLifecycle, RouterResyncMatchesFreshRouterUnderChurn) {
  Topology topo = seed_topology();
  Router router(topo, kRouterPaths);
  const std::size_t regions = topo.region_count();
  for (std::uint32_t s = 0; s < regions; ++s) {
    for (std::uint32_t d = 0; d < regions; ++d) {
      if (s != d) (void)router.paths(RegionId(s), RegionId(d));
    }
  }

  Rng rng(31);
  std::vector<LinkId> added;
  for (int step = 0; step < 40; ++step) {
    const std::uint64_t roll = rng.uniform_int(4);
    if (roll == 0) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_int(regions));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_int(regions));
      if (a == b) continue;
      added.push_back(topo.add_fiber(RegionId(a), RegionId(b), Gbps(rng.uniform(50.0, 150.0)),
                                     rng.uniform(60000.0, 250000.0), rng.uniform(3.0, 10.0)));
    } else if (roll == 1 && !added.empty()) {
      const std::size_t i = rng.uniform_int(added.size());
      topo.retire_fiber(added[i]);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::uint32_t l = static_cast<std::uint32_t>(rng.uniform_int(topo.link_count()));
      if (topo.link_retired(LinkId(l))) continue;
      topo.resize_fiber(LinkId(l), Gbps(topo.link(LinkId(l)).capacity.value() *
                                            rng.uniform(0.6, 1.5) +
                                        1.0));
    }
    topology::TopologyResyncStats stats;
    router.resync_topology(&stats);
    EXPECT_EQ(stats.to_epoch, topo.epoch());
    EXPECT_EQ(router.synced_epoch(), topo.epoch());
    EXPECT_LE(stats.pairs_changed, stats.pairs_dirty);
    EXPECT_LE(stats.pairs_dirty, stats.pairs_checked);
    expect_store_matches_fresh(router, topo, "step " + std::to_string(step));
  }
}

// --- replay overrides ----------------------------------------------------

TEST(TopologyLifecycle, ReplayWithOverridesMatchesFreshSweeper) {
  const Topology topo = seed_topology();
  Router router(topo, kRouterPaths);
  Rng rng(17);
  std::vector<Demand> demands;
  for (int i = 0; i < 24; ++i) {
    const std::uint32_t s = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    const std::uint32_t d = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    if (s == d) continue;
    demands.push_back({RegionId(s), RegionId(d), Gbps(rng.uniform(5.0, 40.0))});
  }
  router.warm(demands);
  const Router::SweepGuard guard(router);

  std::vector<double> base;
  for (const Link& link : topo.links()) base.push_back(link.capacity.value());

  // Capacity-only delta: two resizes and one drain-like zeroing.
  using LinkOverride = topology::ScenarioSweeper::LinkOverride;
  std::vector<LinkOverride> overrides = {
      {LinkId(3), base[3] * 0.4}, {LinkId(10), base[10] * 1.8}, {LinkId(17), 0.0}};
  std::vector<double> overridden = base;
  for (const LinkOverride& o : overrides) overridden[o.link.value()] = o.capacity_gbps;

  const topology::ScenarioSweeper warmed(router, demands, base);
  const topology::ScenarioSweeper fresh(router, demands, overridden);
  topology::ScenarioSweeper::Workspace ws_a;
  topology::ScenarioSweeper::Workspace ws_b;
  std::vector<double> got(demands.size());
  std::vector<double> want(demands.size());

  std::vector<std::vector<SrlgId>> scenarios = {{}};
  for (std::size_t g = 0; g < topo.srlg_count(); ++g) {
    scenarios.push_back({SrlgId(static_cast<std::uint32_t>(g))});
  }
  scenarios.push_back({SrlgId(0), SrlgId(5)});
  scenarios.push_back({SrlgId(2), SrlgId(8)});

  for (const std::vector<SrlgId>& down : scenarios) {
    warmed.replay_with_overrides(down, overrides, ws_a, got);
    fresh.replay(down, ws_b, want);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "scenario size " << down.size() << " demand " << i;
    }
  }
}

// --- admission-plane topology windows ------------------------------------

HoseRequest make_hose(std::uint32_t npg, std::uint32_t region, double gbps,
                      Direction direction) {
  HoseRequest hose;
  hose.npg = NpgId(npg);
  hose.qos = QosClass::c4_high;
  hose.region = RegionId(region);
  hose.direction = direction;
  hose.rate = Gbps(gbps);
  return hose;
}

std::vector<HoseRequest> hose_pair(std::uint32_t npg, std::uint32_t src, std::uint32_t dst,
                                   double gbps) {
  return {make_hose(npg, src, gbps, Direction::egress),
          make_hose(npg, dst, gbps, Direction::ingress)};
}

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

AdmissionConfig lifecycle_config(std::size_t shards, std::size_t threads, bool fastpath) {
  AdmissionConfig config;
  config.background = false;
  config.attach_counter_proposals = false;
  config.router_paths = kRouterPaths;
  config.seed = 99;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.max_simultaneous = 1;
  config.exec.threads = threads;
  config.exec.shards = shards;
  config.approval.fastpath.enabled = fastpath;
  config.approval.fastpath.audit = fastpath;
  return config;
}

TEST(TopologyLifecycle, TopologyWindowRequiresMutableTopologyAndValidBatch) {
  const Topology immutable = seed_topology();
  {
    AdmissionController controller(immutable, lifecycle_config(1, 1, false));
    Mutation resize;
    resize.kind = MutationKind::resize_fiber;
    resize.link = LinkId(0);
    resize.capacity = Gbps(10);
    const AdmissionOutcome outcome = controller.apply_topology_delta({resize});
    EXPECT_EQ(outcome.status, AdmissionStatus::failed);
  }

  Topology topo = seed_topology();
  AdmissionController controller(topo, lifecycle_config(1, 1, false));
  const std::uint64_t before = topo.epoch();

  // One invalid mutation fails the whole batch without applying anything —
  // including the valid resize in front of it.
  Mutation good;
  good.kind = MutationKind::resize_fiber;
  good.link = LinkId(0);
  good.capacity = Gbps(500);
  Mutation bad;
  bad.kind = MutationKind::resize_fiber;
  bad.link = LinkId(9999);
  bad.capacity = Gbps(10);
  const AdmissionOutcome outcome = controller.apply_topology_delta({good, bad});
  EXPECT_EQ(outcome.status, AdmissionStatus::failed);
  EXPECT_EQ(topo.epoch(), before);
  EXPECT_NE(topo.link(LinkId(0)).capacity.value(), 500.0);

  // The same valid mutation alone applies.
  const AdmissionOutcome applied = controller.apply_topology_delta({good});
  EXPECT_EQ(applied.status, AdmissionStatus::topology_applied);
  EXPECT_EQ(topo.epoch(), before + 1);
  EXPECT_EQ(topo.link(LinkId(0)).capacity.value(), 500.0);
}

// --- counter-proposals after a topology window ---------------------------

/// Every field of every proposal at full precision, options in order.
std::string describe(const std::vector<approval::CounterProposal>& proposals) {
  std::ostringstream out;
  out.precision(17);
  for (const approval::CounterProposal& p : proposals) {
    out << p.original.npg.value() << ',' << static_cast<int>(p.original.qos) << ','
        << p.original.region.value() << ',' << static_cast<int>(p.original.direction) << ','
        << p.original.rate.value() << " -> " << p.guaranteed.value() << " + "
        << p.residual.value() << " | regions";
    for (const approval::RegionAlternative& option : p.region_options) {
      out << ' ' << option.region.value() << ':' << option.guaranteed.value();
    }
    out << " | qos";
    for (const approval::QosAlternative& option : p.qos_options) {
      out << ' ' << static_cast<int>(option.qos) << ':' << option.guaranteed.value();
    }
    out << '\n';
  }
  return out.str();
}

/// The proposals an approval engine built fresh on `topo` makes for
/// `approvals`, probing with the stream the controller derives for window
/// `window_seq` (seed ^ (0x9e3779b97f4a7c15 + window sequence number)).
std::vector<approval::CounterProposal> fresh_engine_proposals(
    const Topology& topo, const AdmissionConfig& config,
    std::span<const approval::HoseApprovalResult> approvals, std::uint64_t window_seq) {
  Router router(topo, config.router_paths);
  const approval::ApprovalEngine engine(router, config.approval);
  Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL + window_seq));
  return approval::negotiate(engine, config.negotiation, approvals, rng);
}

// A rejection after a topology window is negotiated on the controller's own
// approval engine, which that window resynced: its proposals equal those of
// an engine built fresh on the mutated topology, and differ from those of
// one built on the topology before the window.
TEST(TopologyLifecycle, CounterProposalsAfterTopologyWindowMatchFreshEngine) {
  for (const bool fastpath : {false, true}) {
    const std::string label = fastpath ? "fastpath" : "exact";
    Topology topo = seed_topology();
    const Topology before = topo;
    AdmissionConfig config = lifecycle_config(1, 1, fastpath);
    config.attach_counter_proposals = true;
    config.admit_min_fraction = 1.0;  // shortfalls become rejections
    AdmissionController controller(topo, config);

    // Window 1: retire the 0-3 chord and drain region 5.
    Mutation retire;
    retire.kind = MutationKind::retire_fiber;
    retire.link = LinkId(16);
    Mutation drain;
    drain.kind = MutationKind::drain_region;
    drain.region_a = RegionId(5);
    const AdmissionOutcome applied = controller.apply_topology_delta({retire, drain});
    ASSERT_EQ(applied.status, AdmissionStatus::topology_applied) << label;

    // Window 2: an admit the mutated backbone cannot carry in full.
    const AdmissionOutcome rejected = controller.admit(NpgId(1), "big", hose_pair(1, 0, 3, 400.0));
    ASSERT_EQ(rejected.status, AdmissionStatus::rejected) << label;
    ASSERT_FALSE(rejected.proposals.empty()) << label;
    const std::string got = describe(rejected.proposals);
    EXPECT_NE(got.find("| regions "), std::string::npos) << label << ": no region option\n"
                                                          << got;

    EXPECT_EQ(got, describe(fresh_engine_proposals(topo, controller.config(),
                                                   rejected.approvals, 2)))
        << label;
    EXPECT_NE(got, describe(fresh_engine_proposals(before, controller.config(),
                                                   rejected.approvals, 2)))
        << label << ": the topology window did not change the proposals";
  }
}

// --- the torture ---------------------------------------------------------

struct LifecycleParams {
  std::size_t shards = 1;
  std::size_t threads = 1;
  bool fastpath = false;
  bool check_paths = false;  ///< mirror-router PathStore verification
};

struct LifecycleResult {
  std::string log;  ///< full-precision transcript of every decision
  AdmissionController::ResidualState final_residuals;
  std::string final_contracts;
};

/// One valid-by-construction mutation against the CURRENT topology state.
/// Decisions depend only on (rng, topo, added), all of which evolve
/// identically across configurations.
Mutation next_mutation(Rng& rng, const Topology& topo, std::vector<LinkId>& added) {
  const std::size_t regions = topo.region_count();
  for (;;) {
    const std::uint64_t roll = rng.uniform_int(100);
    Mutation mut;
    if (roll < 40) {
      const auto id = LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
      if (topo.link_retired(id)) continue;
      mut.kind = MutationKind::resize_fiber;
      mut.link = id;
      // Mostly mild capacity churn, occasionally a severe degradation that
      // turns the link into a bottleneck (the shrunk-verdict territory).
      const double factor =
          rng.uniform_int(4) == 0 ? rng.uniform(0.05, 0.25) : rng.uniform(0.7, 1.4);
      mut.capacity = Gbps(topo.link(id).capacity.value() * factor + 1.0);
      return mut;
    }
    if (roll < 55) {
      // Outages are transient: undrain any drained region before draining a
      // new one, so at most one region is down at a time and the network
      // recovers (a 50/50 toggle would leave half the regions dead forever).
      std::optional<RegionId> drained;
      for (std::uint32_t r = 0; r < regions; ++r) {
        if (topo.region_drained(RegionId(r))) {
          drained = RegionId(r);
          break;
        }
      }
      if (drained.has_value()) {
        mut.kind = MutationKind::undrain_region;
        mut.region_a = *drained;
      } else {
        mut.kind = MutationKind::drain_region;
        mut.region_a = RegionId(static_cast<std::uint32_t>(rng.uniform_int(regions)));
      }
      return mut;
    }
    if (roll < 70) {
      // Same transience for storms: repair every struck SRLG before striking
      // again.
      std::vector<SrlgId> struck;
      for (std::uint32_t g = 0; g < topo.srlg_count(); ++g) {
        if (topo.srlg_struck(SrlgId(g))) struck.push_back(SrlgId(g));
      }
      if (!struck.empty()) {
        mut.kind = MutationKind::repair_srlgs;
        mut.srlgs = std::move(struck);
        return mut;
      }
      const auto srlg = SrlgId(static_cast<std::uint32_t>(rng.uniform_int(topo.srlg_count())));
      mut.kind = MutationKind::strike_srlgs;
      mut.srlgs = {srlg};
      if (rng.uniform_int(4) == 0) {
        // Correlated multi-SRLG storm.
        const auto other =
            SrlgId(static_cast<std::uint32_t>(rng.uniform_int(topo.srlg_count())));
        if (other != srlg) mut.srlgs.push_back(other);
      }
      return mut;
    }
    if (roll < 85) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_int(regions));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_int(regions));
      if (a == b) continue;
      mut.kind = MutationKind::add_fiber;
      mut.region_a = RegionId(a);
      mut.region_b = RegionId(b);
      mut.capacity = Gbps(rng.uniform(60.0, 160.0));
      mut.mtbf_hours = rng.uniform(50000.0, 300000.0);
      mut.mttr_hours = rng.uniform(2.0, 12.0);
      if (rng.uniform_int(3) == 0) {
        const auto conduit =
            LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
        if (!topo.link_retired(conduit)) mut.conduit = conduit;
      }
      return mut;
    }
    if (added.empty()) continue;  // only churn-added fibers get retired
    const std::size_t i = rng.uniform_int(added.size());
    mut.kind = MutationKind::retire_fiber;
    mut.link = added[i];
    added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    return mut;
  }
}

LifecycleResult run_lifecycle_churn(const LifecycleParams& params) {
  constexpr std::size_t kTargetMutations = 204;
  Topology topo = seed_topology();
  AdmissionController controller(topo, lifecycle_config(params.shards, params.threads,
                                                        params.fastpath));
  std::optional<Router> mirror;
  if (params.check_paths) {
    mirror.emplace(topo, kRouterPaths);
    for (std::uint32_t s = 0; s < topo.region_count(); ++s) {
      for (std::uint32_t d = 0; d < topo.region_count(); ++d) {
        if (s != d) (void)mirror->paths(RegionId(s), RegionId(d));
      }
    }
  }

  Rng rng(20260808);
  std::vector<LinkId> added;
  std::vector<std::pair<ContractId, std::uint32_t>> live;  // (contract, npg)
  std::uint32_t next_npg = 0;
  std::ostringstream log;
  log.precision(17);

  const auto total_approved = [](const AdmissionOutcome& outcome) {
    double total = 0.0;
    for (const auto& approval : outcome.approvals) total += approval.approved.value();
    return total;
  };
  const auto check_invariants = [&](const std::string& where) {
    const auto snapshot = controller.residual_snapshot();
    ASSERT_TRUE(snapshot == controller.rebuild_residuals_from_scratch())
        << where << ": maintained residuals diverged from a from-scratch rebuild";
    if (params.fastpath) {
      const auto headroom = controller.fastpath_headroom_snapshot();
      ASSERT_EQ(headroom.size(), snapshot.size()) << where;
      for (std::size_t k = 0; k < snapshot.size(); ++k) {
        risk::FastEstimator fresh(topo, controller.scenarios());
        fresh.rebuild(snapshot[k]);
        ASSERT_EQ(headroom[k].size(), fresh.headroom().size()) << where;
        for (std::size_t l = 0; l < headroom[k].size(); ++l) {
          ASSERT_EQ(headroom[k][l], fresh.headroom()[l])
              << where << ": fastpath summary realization " << k << " link " << l;
        }
      }
    }
  };

  std::size_t mutations_applied = 0;
  std::size_t step = 0;
  while (mutations_applied < kTargetMutations) {
    ++step;
    if (step % 4 == 0) {
      // --- contract op: admit / resize / release -------------------------
      const std::uint64_t pick = rng.uniform_int(3);
      if (pick == 0 || live.empty()) {
        const std::uint32_t npg = next_npg++;
        const std::uint32_t src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        std::uint32_t dst = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        if (dst == src) dst = (dst + 1) % static_cast<std::uint32_t>(topo.region_count());
        const double rate = rng.uniform(4.0, 16.0);
        const AdmissionOutcome outcome = controller.admit(
            NpgId(npg), "npg" + std::to_string(npg), hose_pair(npg, src, dst, rate));
        log << "admit " << npg << " -> " << static_cast<int>(outcome.status) << ' '
            << total_approved(outcome) << '\n';
        if (outcome.status == AdmissionStatus::admitted) {
          live.emplace_back(outcome.contract, npg);
        }
      } else if (pick == 1) {
        const auto& [id, npg] = live[rng.uniform_int(live.size())];
        const std::uint32_t src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        std::uint32_t dst = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        if (dst == src) dst = (dst + 1) % static_cast<std::uint32_t>(topo.region_count());
        const AdmissionOutcome outcome =
            controller.resize(id, hose_pair(npg, src, dst, rng.uniform(4.0, 16.0)));
        log << "resize " << id << " -> " << static_cast<int>(outcome.status) << ' '
            << total_approved(outcome) << '\n';
      } else {
        const std::size_t i = rng.uniform_int(live.size());
        const ContractId id = live[i].first;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        const AdmissionOutcome outcome = controller.release(id);
        log << "release " << id << " -> " << static_cast<int>(outcome.status) << '\n';
      }
      check_invariants("step " + std::to_string(step));
      if (testing::Test::HasFatalFailure()) return {};
      continue;
    }

    // --- topology window -------------------------------------------------
    std::vector<Mutation> batch;
    batch.push_back(next_mutation(rng, topo, added));
    const bool double_batch = rng.uniform_int(8) == 0;
    if (double_batch &&
        (batch[0].kind == MutationKind::resize_fiber || batch[0].kind == MutationKind::add_fiber)) {
      // A second, conflict-free capacity mutation in the same window.
      for (;;) {
        const auto id = LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
        if (topo.link_retired(id)) continue;
        Mutation extra;
        extra.kind = MutationKind::resize_fiber;
        extra.link = id;
        extra.capacity = Gbps(topo.link(id).capacity.value() * rng.uniform(0.8, 1.25) + 1.0);
        batch.push_back(extra);
        break;
      }
    }
    const std::uint64_t pre_epoch = topo.epoch();
    const AdmissionOutcome outcome = controller.apply_topology_delta(batch);
    EXPECT_EQ(outcome.status, AdmissionStatus::topology_applied)
        << "step " << step << ": " << (outcome.error ? outcome.error->message : "");
    if (outcome.status != AdmissionStatus::topology_applied) return {};
    mutations_applied += batch.size();
    for (const MutationRecord& rec : topo.mutation_log().since(pre_epoch)) {
      if (rec.kind == MutationKind::add_fiber) added.push_back(rec.link);
    }
    log << "topo " << batch.size();
    for (const ContractVerdict& verdict : outcome.reverified) {
      log << " [" << verdict.contract << ':' << static_cast<int>(verdict.kind) << ':'
          << verdict.fraction << ']';
      if (verdict.kind == VerdictKind::revoked) {
        std::erase_if(live, [&](const auto& entry) { return entry.first == verdict.contract; });
      }
    }
    log << '\n';
    log << "db " << std::hash<std::string>{}(fingerprint(controller.contracts_snapshot()))
        << '\n';

    check_invariants("step " + std::to_string(step));
    if (testing::Test::HasFatalFailure()) return {};
    if (mirror.has_value()) {
      mirror->resync_topology();
      expect_store_matches_fresh(*mirror, topo, "step " + std::to_string(step));
      if (testing::Test::HasFatalFailure()) return {};
    }
  }

  if (params.fastpath) {
    (void)controller.audit_fastpath();
    EXPECT_EQ(controller.fastpath_stats().violations, 0u);
  }
  LifecycleResult result;
  result.log = log.str();
  result.final_residuals = controller.residual_snapshot();
  result.final_contracts = fingerprint(controller.contracts_snapshot());
  return result;
}

/// FNV-1a 64 over a transcript, for goldens recorded from earlier builds.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t counter_value(const std::string& name) {
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// --- checkpointed history replay -------------------------------------------

/// Every checkpointed replay a removal window could ask for right now — the
/// history without nothing, without each live contract (descending ids, so
/// later queries land before earlier ones), without a pair, without all of
/// them — must equal the from-scratch replay of the pruned history bit for
/// bit.
void expect_replays_match(AdmissionController& controller, Rng& rng,
                          const std::vector<std::pair<ContractId, std::uint32_t>>& live,
                          const std::string& where) {
  std::vector<std::vector<ContractId>> subsets{{}};
  std::vector<ContractId> all;
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    subsets.push_back({it->first});
    all.push_back(it->first);
  }
  if (live.size() >= 2) {
    subsets.push_back({live[rng.uniform_int(live.size())].first,
                       live[rng.uniform_int(live.size())].first});
  }
  all.push_back(0);  // names no contract: ignored
  subsets.push_back(all);
  for (const std::vector<ContractId>& without : subsets) {
    std::string label = where + ": without {";
    for (const ContractId id : without) label += ' ' + std::to_string(id);
    ASSERT_TRUE(controller.replay_residuals_without(without) ==
                controller.rebuild_residuals_from_scratch(without))
        << label << " }";
  }
}

struct ReplayChurnResult {
  std::string log;  ///< statuses, approved rates and verdicts, full precision
  AdmissionController::ResidualState final_residuals;
  std::uint64_t demands_placed = 0;  ///< service.admission.replay.* deltas
  std::uint64_t demands_reused = 0;
};

/// Drives the windows the checkpointed replay has to get right: an empty
/// history, a one-contract history, an early-id contract resized to the end
/// of the history (ids and positions out of order), a release plus a
/// rejected resize in one window (the committed removals a proper subset of
/// the evaluated ones), topology windows that shrink and revoke contracts in
/// the middle of the re-verification loop, and randomized multi-request
/// churn with mutations. After every window the maintained residuals are
/// checked against a from-scratch rebuild and, with `check_replays`, so is
/// every checkpointed replay. Those checks run replays of their own, which
/// extend the checkpoints; without them only the windows' own replays do.
ReplayChurnResult run_replay_churn(std::size_t shards, std::size_t threads, bool fastpath,
                                   bool check_replays) {
  Topology topo = seed_topology();
  AdmissionConfig config = lifecycle_config(shards, threads, fastpath);
  config.admit_min_fraction = 1.0;  // shortfalls reject, so a resize can fail
  AdmissionController controller(topo, config);
  const std::uint64_t placed_before = counter_value("service.admission.replay.demands_placed");
  const std::uint64_t reused_before = counter_value("service.admission.replay.demands_reused");

  Rng rng(20261018);
  Rng check_rng(5);
  std::vector<std::pair<ContractId, std::uint32_t>> live;  // (contract, npg), ascending ids
  std::uint32_t next_npg = 0;
  std::ostringstream log;
  log.precision(17);

  const auto check = [&](const std::string& where) {
    ASSERT_TRUE(controller.residual_snapshot() == controller.rebuild_residuals_from_scratch())
        << where << ": maintained residuals diverged from a from-scratch rebuild";
    if (check_replays) expect_replays_match(controller, check_rng, live, where);
  };
  const auto total_approved = [](const AdmissionOutcome& outcome) {
    double total = 0.0;
    for (const auto& approval : outcome.approvals) total += approval.approved.value();
    return total;
  };
  const auto admit_request = [&](std::uint32_t src, std::uint32_t dst, double gbps) {
    service::AdmissionRequest request;
    request.kind = service::RequestKind::admit;
    request.npg = NpgId(next_npg);
    request.npg_name = "npg" + std::to_string(next_npg);
    request.hoses = hose_pair(next_npg, src, dst, gbps);
    ++next_npg;
    return request;
  };
  const auto resize_request = [&](std::size_t i, std::uint32_t src, std::uint32_t dst,
                                  double gbps) {
    service::AdmissionRequest request;
    request.kind = service::RequestKind::resize;
    request.contract = live[i].first;
    request.hoses = hose_pair(live[i].second, src, dst, gbps);
    return request;
  };
  const auto release_request = [&](std::size_t i) {
    service::AdmissionRequest request;
    request.kind = service::RequestKind::release;
    request.contract = live[i].first;
    return request;
  };
  const auto random_pair = [&] {
    const auto regions = static_cast<std::uint32_t>(topo.region_count());
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(regions));
    auto dst = static_cast<std::uint32_t>(rng.uniform_int(regions));
    if (dst == src) dst = (dst + 1) % regions;
    return std::pair{src, dst};
  };
  // One window of requests; logs each outcome and keeps `live` current.
  const auto window = [&](std::vector<service::AdmissionRequest> requests) {
    std::vector<std::future<AdmissionOutcome>> futures;
    std::vector<std::uint32_t> npgs;
    for (service::AdmissionRequest& request : requests) {
      npgs.push_back(request.npg.value());
      futures.push_back(controller.submit(std::move(request)));
    }
    controller.flush();
    std::vector<AdmissionOutcome> outcomes;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      outcomes.push_back(futures[i].get());
      const AdmissionOutcome& outcome = outcomes.back();
      log << "req " << outcome.contract << " -> " << static_cast<int>(outcome.status) << ' '
          << total_approved(outcome) << '\n';
      if (outcome.status == AdmissionStatus::admitted) live.emplace_back(outcome.contract, npgs[i]);
      if (outcome.status == AdmissionStatus::released) {
        std::erase_if(live, [&](const auto& entry) { return entry.first == outcome.contract; });
      }
    }
    return outcomes;
  };
  const auto mutate = [&](std::vector<Mutation> batch) {
    const AdmissionOutcome outcome = controller.apply_topology_delta(std::move(batch));
    EXPECT_EQ(outcome.status, AdmissionStatus::topology_applied);
    log << "topo";
    for (const ContractVerdict& verdict : outcome.reverified) {
      log << " [" << verdict.contract << ':' << static_cast<int>(verdict.kind) << ':'
          << verdict.fraction << ']';
      if (verdict.kind == VerdictKind::revoked) {
        std::erase_if(live, [&](const auto& entry) { return entry.first == verdict.contract; });
      }
    }
    log << '\n';
    return outcome;
  };
  const auto resize_fiber = [&](std::uint32_t link, double gbps) {
    Mutation mut;
    mut.kind = MutationKind::resize_fiber;
    mut.link = LinkId(link);
    mut.capacity = Gbps(gbps);
    return mut;
  };
  const auto region_mutation = [](MutationKind kind, std::uint32_t region) {
    Mutation mut;
    mut.kind = kind;
    mut.region_a = RegionId(region);
    return mut;
  };

  // --- an empty history, then a one-contract history ---------------------
  check("empty");
  (void)mutate({resize_fiber(0, 150.0)});
  check("empty topology window");
  (void)window({admit_request(0, 3, 10.0)});
  check("one contract");
  (void)mutate({resize_fiber(0, 140.0)});
  check("one-contract topology window");
  if (testing::Test::HasFatalFailure()) return {};

  // --- a history several checkpoint strides long --------------------------
  for (int round = 0; round < 8; ++round) {
    std::vector<service::AdmissionRequest> requests;
    for (int i = 0; i < 6; ++i) {
      const auto [src, dst] = random_pair();
      requests.push_back(admit_request(src, dst, rng.uniform(2.0, 8.0)));
    }
    (void)window(std::move(requests));
    check("grow round " + std::to_string(round));
    if (testing::Test::HasFatalFailure()) return {};
  }

  // --- the earliest contract resized: its demands move to the end of the
  // history while its id stays the smallest.
  {
    const auto [src, dst] = random_pair();
    const std::vector<AdmissionOutcome> out = window({resize_request(0, src, dst, 3.0)});
    EXPECT_EQ(out[0].status, AdmissionStatus::resized);
    check("early-id resize");
  }
  // --- a release plus a rejected resize in one window ---------------------
  {
    const std::vector<AdmissionOutcome> out =
        window({release_request(1), resize_request(2, 0, 4, 5000.0)});
    EXPECT_EQ(out[0].status, AdmissionStatus::released);
    EXPECT_EQ(out[1].status, AdmissionStatus::rejected);
    check("release + rejected resize");
  }
  // --- a release, an accepted resize and an admit in one window ----------
  {
    const auto [src, dst] = random_pair();
    const std::vector<AdmissionOutcome> out =
        window({release_request(3), resize_request(4, src, dst, 2.5), admit_request(1, 6, 3.0)});
    EXPECT_EQ(out[0].status, AdmissionStatus::released);
    EXPECT_EQ(out[1].status, AdmissionStatus::resized);
    check("release + resize + admit");
  }
  if (testing::Test::HasFatalFailure()) return {};

  // --- topology windows that shrink and revoke mid-loop --------------------
  (void)mutate({region_mutation(MutationKind::drain_region, 5), resize_fiber(6, 6.0),
                resize_fiber(2, 9.0)});
  check("drain + cuts");
  (void)mutate({region_mutation(MutationKind::undrain_region, 5), resize_fiber(6, 170.0),
                resize_fiber(2, 170.0)});
  check("undrain + restore");
  // Region 2's three fibers squeezed: its contracts, judged in id order
  // against everything else, are revoked until enough is freed, then shrunk.
  (void)mutate({resize_fiber(2, 7.0), resize_fiber(4, 7.0), resize_fiber(20, 7.0)});
  check("region 2 squeezed");
  (void)mutate({resize_fiber(2, 160.0), resize_fiber(4, 160.0), resize_fiber(20, 160.0)});
  check("region 2 restored");
  if (testing::Test::HasFatalFailure()) return {};

  // --- randomized churn with mutations ------------------------------------
  std::vector<LinkId> added;
  for (int step = 0; step < 48; ++step) {
    if (step % 3 == 2) {
      const std::uint64_t pre_epoch = topo.epoch();
      (void)mutate({next_mutation(rng, topo, added)});
      for (const MutationRecord& rec : topo.mutation_log().since(pre_epoch)) {
        if (rec.kind == MutationKind::add_fiber) added.push_back(rec.link);
      }
    } else {
      std::vector<service::AdmissionRequest> requests;
      std::vector<std::size_t> targeted;  // live indices already in this window
      const std::size_t count = 1 + rng.uniform_int(4);
      for (std::size_t r = 0; r < count; ++r) {
        const std::uint64_t pick = rng.uniform_int(4);
        if (pick == 0 || live.empty()) {
          const auto [src, dst] = random_pair();
          requests.push_back(admit_request(src, dst, rng.uniform(2.0, 8.0)));
          continue;
        }
        const std::size_t i = rng.uniform_int(live.size());
        if (std::find(targeted.begin(), targeted.end(), i) != targeted.end()) continue;
        targeted.push_back(i);
        if (pick == 1) {
          requests.push_back(release_request(i));
        } else {
          // One resize in four asks for more than the network has: rejected.
          const auto [src, dst] = random_pair();
          const double gbps = rng.uniform_int(4) == 0 ? 5000.0 : rng.uniform(2.0, 8.0);
          requests.push_back(resize_request(i, src, dst, gbps));
        }
      }
      (void)window(std::move(requests));
    }
    check("churn step " + std::to_string(step));
    if (testing::Test::HasFatalFailure()) return {};
  }

  ReplayChurnResult result;
  result.log = log.str();
  result.final_residuals = controller.residual_snapshot();
  result.demands_placed =
      counter_value("service.admission.replay.demands_placed") - placed_before;
  result.demands_reused =
      counter_value("service.admission.replay.demands_reused") - reused_before;
  return result;
}

TEST(TopologyLifecycle, CheckpointedReplayMatchesFromScratchUnderChurn) {
  const ReplayChurnResult base = run_replay_churn(1, 1, false, true);
  if (testing::Test::HasFatalFailure()) return;
  // The scripted windows must reach the cases they are there for: shrunk
  // and revoked verdicts, and rejected resizes.
  EXPECT_NE(base.log.find(":1:"), std::string::npos) << "no shrunk verdict";
  EXPECT_NE(base.log.find(":2:"), std::string::npos) << "no revoked verdict";
  EXPECT_NE(base.log.find("-> 3 "), std::string::npos) << "no rejection";
  // The same windows decided by the full-history replay, before checkpoints
  // existed.
  EXPECT_EQ(fnv1a(base.log), 0x1162b9ef4f7bc4a1ULL) << base.log;
  if (obs::kEnabled) {
    EXPECT_GT(base.demands_placed, 0u);
    EXPECT_GT(base.demands_reused, 0u) << "no replay restored a checkpoint";
  }
  const struct {
    std::size_t shards, threads;
    bool fastpath;
  } configs[] = {{4, 4, false}, {1, 4, true}, {2, 1, true}};
  for (const auto& params : configs) {
    const ReplayChurnResult result =
        run_replay_churn(params.shards, params.threads, params.fastpath, true);
    if (testing::Test::HasFatalFailure()) return;
    const std::string label = "shards=" + std::to_string(params.shards) +
                              " threads=" + std::to_string(params.threads) +
                              " fastpath=" + std::to_string(params.fastpath);
    EXPECT_EQ(result.log, base.log) << label;
    EXPECT_TRUE(result.final_residuals == base.final_residuals) << label;
    EXPECT_EQ(result.demands_placed, base.demands_placed) << label;
    EXPECT_EQ(result.demands_reused, base.demands_reused) << label;
  }

  // The same windows with only the windows' own replays advancing the
  // checkpoints (the sparse catch-up path a service runs): same decisions,
  // same residuals.
  const ReplayChurnResult plain = run_replay_churn(1, 1, false, false);
  if (testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(plain.log, base.log);
  EXPECT_TRUE(plain.final_residuals == base.final_residuals);
  if (obs::kEnabled) {
    EXPECT_GT(plain.demands_reused, 0u) << "no window's replay restored a checkpoint";
  }
  const ReplayChurnResult plain_sharded = run_replay_churn(4, 4, true, false);
  if (testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(plain_sharded.log, base.log);
  EXPECT_TRUE(plain_sharded.final_residuals == base.final_residuals);
  EXPECT_EQ(plain_sharded.demands_placed, plain.demands_placed);
  EXPECT_EQ(plain_sharded.demands_reused, plain.demands_reused);
}

// A history longer than the snapshot cap allows at the base stride: the
// checkpoints taken early must survive the stride doubling (every other one
// kept) and still restore bit-exact prefixes.
TEST(TopologyLifecycle, CheckpointsSurviveStrideDoublingAsHistoryGrows) {
  Topology topo = seed_topology();
  AdmissionController controller(topo, lifecycle_config(1, 1, false));
  Rng rng(77);
  Rng check_rng(78);
  std::vector<std::pair<ContractId, std::uint32_t>> live;
  std::uint32_t next_npg = 0;
  const auto admit_batch = [&](std::size_t count) {
    std::vector<std::future<AdmissionOutcome>> futures;
    std::vector<std::uint32_t> npgs;
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
      const auto dst = static_cast<std::uint32_t>((src + 1 + rng.uniform_int(7)) % 8);
      service::AdmissionRequest request;
      request.kind = service::RequestKind::admit;
      request.npg = NpgId(next_npg);
      request.npg_name = "npg" + std::to_string(next_npg);
      request.hoses = hose_pair(next_npg, src, dst, 0.02);
      npgs.push_back(next_npg++);
      futures.push_back(controller.submit(std::move(request)));
    }
    controller.flush();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const AdmissionOutcome outcome = futures[i].get();
      ASSERT_EQ(outcome.status, AdmissionStatus::admitted);
      live.emplace_back(outcome.contract, npgs[i]);
    }
  };
  // A sample of the live contracts (always the first and the last).
  const auto check = [&](const std::string& where) {
    ASSERT_TRUE(controller.residual_snapshot() == controller.rebuild_residuals_from_scratch())
        << where;
    std::vector<std::pair<ContractId, std::uint32_t>> sample{live.front(), live.back()};
    for (int i = 0; i < 8; ++i) sample.push_back(live[check_rng.uniform_int(live.size())]);
    expect_replays_match(controller, check_rng, sample, where);
  };

  for (int round = 0; round < 6; ++round) admit_batch(100);
  if (testing::Test::HasFatalFailure()) return;
  check("600 contracts");
  for (int round = 0; round < 6; ++round) admit_batch(100);
  if (testing::Test::HasFatalFailure()) return;
  check("1200 contracts");
  {
    std::vector<std::future<AdmissionOutcome>> futures;
    for (int i = 0; i < 3; ++i) {
      const std::size_t at = check_rng.uniform_int(live.size());
      service::AdmissionRequest release;
      release.kind = service::RequestKind::release;
      release.contract = live[at].first;
      futures.push_back(controller.submit(std::move(release)));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    controller.flush();
    for (auto& future : futures) EXPECT_EQ(future.get().status, AdmissionStatus::released);
  }
  check("after releases");
  Mutation cut;
  cut.kind = MutationKind::resize_fiber;
  cut.link = LinkId(0);
  cut.capacity = Gbps(60.0);
  EXPECT_EQ(controller.apply_topology_delta({cut}).status, AdmissionStatus::topology_applied);
  check("after a topology window");
}

TEST(TopologyLifecycle, MutationChurnTortureBitIdenticalAcrossConfigs) {
  // Baseline: serial, exact-only, with per-mutation PathStore verification.
  const LifecycleResult base = run_lifecycle_churn({1, 1, false, true});
  ASSERT_FALSE(base.log.empty());
  if (const char* dump = std::getenv("NETENT_LIFECYCLE_DUMP")) {
    std::ofstream(dump) << base.log;
  }
  // The churn must exercise the interesting machinery, not degenerate into
  // rejections and no-op windows: contracts get admitted (status 0 with a
  // positive approved rate), topology windows re-verify in-force contracts
  // (bracketed verdicts), multi-mutation batches occur, and contracts
  // survive to the end.
  EXPECT_NE(base.log.find("-> 0 "), std::string::npos) << "no admitted contract";
  EXPECT_NE(base.log.find(":0:"), std::string::npos) << "no reaffirmed verdict";
  EXPECT_NE(base.log.find(":1:"), std::string::npos) << "no shrunk verdict";
  EXPECT_NE(base.log.find(":2:"), std::string::npos) << "no revoked verdict";
  EXPECT_NE(base.log.find("topo 2"), std::string::npos) << "no multi-mutation batch";
  EXPECT_FALSE(base.final_contracts.empty()) << "no contract survived the churn";
  // The transcript the full-history replay produced before checkpointed
  // replay existed: every verdict, grant and database state unchanged.
  EXPECT_EQ(fnv1a(base.log), 0xcdb9f9b4407806eeULL);

  const LifecycleParams configs[] = {
      {1, 4, false, false}, {4, 1, false, false}, {4, 4, false, false},
      {1, 1, true, true},   {1, 4, true, false},  {4, 1, true, false},
      {4, 4, true, false},
  };
  for (const LifecycleParams& params : configs) {
    const LifecycleResult result = run_lifecycle_churn(params);
    if (testing::Test::HasFatalFailure()) return;
    const std::string label = "shards=" + std::to_string(params.shards) +
                              " threads=" + std::to_string(params.threads) +
                              " fastpath=" + std::to_string(params.fastpath);
    EXPECT_EQ(result.log, base.log) << label;
    EXPECT_TRUE(result.final_residuals == base.final_residuals) << label;
    EXPECT_EQ(result.final_contracts, base.final_contracts) << label;
  }
}

}  // namespace
}  // namespace netent
