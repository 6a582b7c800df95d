#include "topology/topology.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "topology/paths.h"

namespace netent::topology {
namespace {

Topology two_region_topo() {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  const RegionId b = topo.add_region("b", RegionKind::pop);
  topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);
  return topo;
}

TEST(Topology, RegionsAndNames) {
  const Topology topo = two_region_topo();
  EXPECT_EQ(topo.region_count(), 2u);
  EXPECT_EQ(topo.region(RegionId(0)).name, "a");
  EXPECT_EQ(topo.region(RegionId(1)).kind, RegionKind::pop);
  EXPECT_EQ(topo.find_region("b"), RegionId(1));
  EXPECT_EQ(topo.find_region("missing"), std::nullopt);
}

TEST(Topology, FiberCreatesTwoDirectedLinksSharingSrlg) {
  const Topology topo = two_region_topo();
  ASSERT_EQ(topo.link_count(), 2u);
  const Link& fwd = topo.link(LinkId(0));
  const Link& rev = topo.link(LinkId(1));
  EXPECT_EQ(fwd.src, RegionId(0));
  EXPECT_EQ(fwd.dst, RegionId(1));
  EXPECT_EQ(rev.src, RegionId(1));
  EXPECT_EQ(rev.dst, RegionId(0));
  EXPECT_EQ(fwd.srlg, rev.srlg);
  EXPECT_EQ(fwd.reverse, rev.id);
  EXPECT_EQ(rev.reverse, fwd.id);
  EXPECT_EQ(topo.srlg_count(), 1u);
}

TEST(Topology, OutLinks) {
  const Topology topo = two_region_topo();
  ASSERT_EQ(topo.out_links(RegionId(0)).size(), 1u);
  EXPECT_EQ(topo.out_links(RegionId(0))[0], LinkId(0));
  ASSERT_EQ(topo.out_links(RegionId(1)).size(), 1u);
  EXPECT_EQ(topo.out_links(RegionId(1))[0], LinkId(1));
}

TEST(Topology, TotalCapacityCountsBothDirections) {
  const Topology topo = two_region_topo();
  EXPECT_EQ(topo.total_capacity(), Gbps(200));
}

TEST(Topology, LinkUnavailabilityFormula) {
  const Topology topo = two_region_topo();
  // MTTR / (MTBF + MTTR) = 10 / 1010.
  EXPECT_NEAR(link_unavailability(topo.link(LinkId(0))), 10.0 / 1010.0, 1e-12);
}

TEST(Topology, SelfLoopRejected) {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  EXPECT_THROW(topo.add_fiber(a, a, Gbps(1), 1.0, 1.0), ContractViolation);
}

TEST(Topology, InvalidRegionRejected) {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  EXPECT_THROW(topo.add_fiber(a, RegionId(5), Gbps(1), 1.0, 1.0), ContractViolation);
}

TEST(Topology, NonPositiveCapacityRejected) {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  const RegionId b = topo.add_region("b", RegionKind::data_center);
  EXPECT_THROW(topo.add_fiber(a, b, Gbps(0), 1.0, 1.0), ContractViolation);
}

TEST(Topology, ConduitFibersShareSrlgAndReliability) {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  const RegionId b = topo.add_region("b", RegionKind::data_center);
  const LinkId first = topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);
  const LinkId second = topo.add_fiber_in_conduit(a, b, Gbps(50), first);
  EXPECT_EQ(topo.link(first).srlg, topo.link(second).srlg);
  EXPECT_EQ(topo.srlg_count(), 1u);  // one conduit, one risk group
  EXPECT_DOUBLE_EQ(topo.link(second).mtbf_hours, 1000.0);
  EXPECT_DOUBLE_EQ(topo.link(second).mttr_hours, 10.0);
  EXPECT_EQ(topo.link(second).capacity, Gbps(50));
}

TEST(Topology, ConduitCutTakesOutBothFibers) {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  const RegionId b = topo.add_region("b", RegionKind::data_center);
  const LinkId first = topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);
  topo.add_fiber_in_conduit(a, b, Gbps(100), first);
  const auto filter = exclude_srlgs({topo.link(first).srlg});
  for (const Link& link : topo.links()) {
    EXPECT_FALSE(filter(link)) << "every fiber in the conduit must be down";
  }
}

TEST(Topology, ParallelFibersGetDistinctSrlgs) {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  const RegionId b = topo.add_region("b", RegionKind::data_center);
  topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);
  topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);
  EXPECT_EQ(topo.srlg_count(), 2u);
  EXPECT_NE(topo.link(LinkId(0)).srlg, topo.link(LinkId(2)).srlg);
}

/// Three regions, fibers a-b (links 0/1, SRLG 0), b-c (2/3, SRLG 1) and
/// a-c (4/5, SRLG 2); the a-c fiber is retired, region c drained and SRLG 1
/// struck before any batch is checked.
Topology validation_topo() {
  Topology topo;
  const RegionId a = topo.add_region("a", RegionKind::data_center);
  const RegionId b = topo.add_region("b", RegionKind::data_center);
  const RegionId c = topo.add_region("c", RegionKind::pop);
  topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);
  topo.add_fiber(b, c, Gbps(100), 1000.0, 10.0);
  topo.add_fiber(a, c, Gbps(100), 1000.0, 10.0);
  topo.retire_fiber(LinkId(4));
  topo.drain_region(c);
  topo.strike_srlgs({SrlgId(1)});
  return topo;
}

Mutation add(std::uint32_t a, std::uint32_t b, double capacity = 50.0) {
  Mutation m;
  m.kind = MutationKind::add_fiber;
  m.region_a = RegionId(a);
  m.region_b = RegionId(b);
  m.capacity = Gbps(capacity);
  return m;
}

Mutation on_link(MutationKind kind, std::uint32_t link, double capacity = 50.0) {
  Mutation m;
  m.kind = kind;
  m.link = LinkId(link);
  m.capacity = Gbps(capacity);
  return m;
}

Mutation on_region(MutationKind kind, std::uint32_t region) {
  Mutation m;
  m.kind = kind;
  m.region_a = RegionId(region);
  return m;
}

Mutation on_srlgs(MutationKind kind, std::vector<SrlgId> srlgs) {
  Mutation m;
  m.kind = kind;
  m.srlgs = std::move(srlgs);
  return m;
}

// One invalid batch per rejection rule. Each must fail with a typed
// invalid_argument naming the rule and leave the topology untouched.
TEST(Topology, ValidateRejectsEveryBrokenRuleWithoutMutating) {
  using K = MutationKind;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Mutation in_conduit = add(0, 1);
  in_conduit.conduit = LinkId(99);
  Mutation in_new_conduit = add(0, 1);
  in_new_conduit.conduit = LinkId(6);  // the link the batch's first add creates
  Mutation in_retired_conduit = add(0, 1);
  in_retired_conduit.conduit = LinkId(5);
  Mutation unreliable = add(0, 1);
  unreliable.mtbf_hours = -1.0;
  Mutation unknown;
  unknown.kind = static_cast<K>(99);

  struct Case {
    std::vector<Mutation> batch;
    std::string message;
  };
  const std::vector<Case> cases = {
      {{add(0, 7)}, "add_fiber: region out of range"},
      {{add(1, 1)}, "add_fiber: fiber endpoints equal"},
      {{add(0, 1, 0.0)}, "add_fiber: capacity must be > 0"},
      {{add(0, 1, nan)}, "add_fiber: capacity must be > 0"},
      {{in_conduit}, "add_fiber: conduit link must predate the batch"},
      {{add(0, 1), in_new_conduit}, "add_fiber: conduit link must predate the batch"},
      {{in_retired_conduit}, "add_fiber: conduit link is retired"},
      {{unreliable}, "add_fiber: negative reliability"},
      {{on_link(K::retire_fiber, 99)}, "retire_fiber: link must predate the batch"},
      {{on_link(K::retire_fiber, 5)}, "retire_fiber: already retired"},
      {{on_link(K::retire_fiber, 0), on_link(K::retire_fiber, 1)},
       "retire_fiber: already retired"},
      {{on_link(K::resize_fiber, 99)}, "resize_fiber: link must predate the batch"},
      {{on_link(K::retire_fiber, 0), on_link(K::resize_fiber, 0)},
       "resize_fiber: link is retired"},
      {{on_link(K::resize_fiber, 0, -5.0)}, "resize_fiber: capacity must be > 0"},
      {{on_region(K::drain_region, 9)}, "drain_region: out of range"},
      {{on_region(K::drain_region, 2)}, "drain_region: already drained"},
      {{on_region(K::drain_region, 0), on_region(K::drain_region, 0)},
       "drain_region: already drained"},
      {{on_region(K::undrain_region, 9)}, "undrain_region: out of range"},
      {{on_region(K::undrain_region, 0)}, "undrain_region: not drained"},
      {{on_srlgs(K::strike_srlgs, {})}, "strike/repair: empty SRLG list"},
      {{on_srlgs(K::repair_srlgs, {})}, "strike/repair: empty SRLG list"},
      {{on_srlgs(K::strike_srlgs, {SrlgId(99)})}, "strike/repair: SRLG must predate the batch"},
      {{on_srlgs(K::repair_srlgs, {SrlgId(99)})}, "strike/repair: SRLG must predate the batch"},
      {{on_srlgs(K::strike_srlgs, {SrlgId(1)})}, "strike_srlgs: already struck"},
      {{on_srlgs(K::strike_srlgs, {SrlgId(0)}), on_srlgs(K::strike_srlgs, {SrlgId(0)})},
       "strike_srlgs: already struck"},
      {{on_srlgs(K::repair_srlgs, {SrlgId(0)})}, "repair_srlgs: not struck"},
      {{unknown}, "unknown mutation kind"},
  };
  Topology topo = validation_topo();
  const std::uint64_t epoch = topo.epoch();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Expected<void> result = topo.validate(cases[i].batch);
    ASSERT_FALSE(result.has_value()) << "case " << i << ": " << cases[i].message;
    EXPECT_EQ(result.error().code, ErrorCode::invalid_argument) << "case " << i;
    EXPECT_EQ(result.error().message, cases[i].message) << "case " << i;
    EXPECT_EQ(topo.epoch(), epoch) << "case " << i;
  }
}

TEST(Topology, ValidatedBatchAppliesInOrder) {
  using K = MutationKind;
  Mutation in_conduit = add(0, 1);
  in_conduit.conduit = LinkId(0);
  const std::vector<Mutation> batch = {
      add(1, 2),
      in_conduit,
      on_link(K::resize_fiber, 1, 80.0),
      on_link(K::retire_fiber, 0),
      on_region(K::undrain_region, 2),
      on_region(K::drain_region, 2),
      on_srlgs(K::repair_srlgs, {SrlgId(1), SrlgId(1)}),
      on_srlgs(K::strike_srlgs, {SrlgId(2), SrlgId(1)}),
  };
  Topology topo = validation_topo();
  ASSERT_TRUE(topo.validate(batch).has_value());
  const std::uint64_t epoch = topo.epoch();
  for (const Mutation& m : batch) (void)topo.apply(m);
  EXPECT_EQ(topo.epoch(), epoch + batch.size());
  EXPECT_TRUE(topo.link_retired(LinkId(1)));
  EXPECT_TRUE(topo.region_drained(RegionId(2)));
  EXPECT_TRUE(topo.srlg_struck(SrlgId(1)));
}

}  // namespace
}  // namespace netent::topology
