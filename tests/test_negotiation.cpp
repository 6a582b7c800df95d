#include "approval/negotiation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/check.h"
#include "topology/generator.h"

namespace netent::approval {
namespace {

using hose::Direction;
using hose::HoseRequest;
using topology::RegionKind;
using topology::Router;
using topology::Topology;

/// Three regions: a<->b is thin (50), a<->c and b<->c are fat (500). A big
/// egress request at a toward b is under-approved; c is the viable
/// alternative.
Topology asymmetric_topo() {
  Topology topo;
  topo.add_region("a", RegionKind::data_center);
  topo.add_region("b", RegionKind::data_center);
  topo.add_region("c", RegionKind::data_center);
  topo.add_fiber(RegionId(0), RegionId(1), Gbps(50), 5000.0, 10.0);
  topo.add_fiber(RegionId(0), RegionId(2), Gbps(500), 5000.0, 10.0);
  topo.add_fiber(RegionId(1), RegionId(2), Gbps(500), 5000.0, 10.0);
  return topo;
}

ApprovalConfig relaxed_config() {
  ApprovalConfig config;
  config.slo_availability = 0.95;
  config.realizations = 4;
  return config;
}

TEST(Negotiation, FullyApprovedGetsTrivialProposal) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  const ApprovalEngine engine(router, relaxed_config());
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(0), Direction::egress, Gbps(40)}, Gbps(40)}};
  Rng rng(1);
  const auto proposals = negotiate(engine, NegotiationConfig{}, results, rng);
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_TRUE(proposals[0].fully_approved());
  EXPECT_TRUE(proposals[0].region_options.empty());
  EXPECT_TRUE(proposals[0].qos_options.empty());
}

TEST(Negotiation, UnderApprovalProducesResidualAndOptions) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  const ApprovalEngine engine(router, relaxed_config());
  // Requested 400 egress at region b; only 300 approved.
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(300)}};
  Rng rng(2);
  const auto proposals = negotiate(engine, NegotiationConfig{}, results, rng);
  ASSERT_EQ(proposals.size(), 1u);
  const CounterProposal& proposal = proposals[0];
  EXPECT_FALSE(proposal.fully_approved());
  EXPECT_EQ(proposal.guaranteed, Gbps(300));
  EXPECT_EQ(proposal.residual, Gbps(100));
  // Some alternative region must be able to carry the 100 residual.
  ASSERT_FALSE(proposal.region_options.empty());
  EXPECT_GE(proposal.region_options.front().guaranteed.value(), 50.0);
}

TEST(Negotiation, RegionOptionsSortedByGuarantee) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  const ApprovalEngine engine(router, relaxed_config());
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(600)}, Gbps(200)}};
  Rng rng(3);
  const auto proposals = negotiate(engine, NegotiationConfig{}, results, rng);
  const auto& options = proposals[0].region_options;
  for (std::size_t i = 1; i < options.size(); ++i) {
    EXPECT_GE(options[i - 1].guaranteed.value(), options[i].guaranteed.value());
  }
}

TEST(Negotiation, QosOptionsOnlyLowerClasses) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig config;
  config.min_useful_fraction = 0.1;
  const ApprovalEngine engine(router, relaxed_config());
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c2_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(250)}};
  Rng rng(4);
  const auto proposals = negotiate(engine, config, results, rng);
  for (const QosAlternative& option : proposals[0].qos_options) {
    EXPECT_TRUE(higher_priority(QosClass::c2_low, option.qos))
        << "counter-proposal must demote, not promote";
  }
}

TEST(Negotiation, MinUsefulFractionFiltersWeakOptions) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig strict;
  strict.min_useful_fraction = 0.999;  // only near-complete alternatives
  const ApprovalEngine engine(router, relaxed_config());
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(2000)}, Gbps(500)}};
  Rng rng(5);
  const auto proposals = negotiate(engine, strict, results, rng);
  // Residual 1500 cannot be fully guaranteed anywhere on this topology.
  EXPECT_TRUE(proposals[0].region_options.empty());
}

TEST(Negotiation, OptionCountsCapped) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig config;
  config.max_region_options = 1;
  config.min_useful_fraction = 0.1;
  const ApprovalEngine engine(router, relaxed_config());
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(200)}};
  Rng rng(6);
  const auto proposals = negotiate(engine, config, results, rng);
  EXPECT_LE(proposals[0].region_options.size(), 1u);
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFF;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t hash_request(std::uint64_t hash, const HoseRequest& request) {
  hash = fnv1a(hash, request.npg.value());
  hash = fnv1a(hash, static_cast<std::uint64_t>(request.qos));
  hash = fnv1a(hash, request.region.value());
  hash = fnv1a(hash, static_cast<std::uint64_t>(request.direction));
  return fnv1a(hash, std::bit_cast<std::uint64_t>(request.rate.value()));
}

/// FNV-1a over every field of every proposal, options in returned order.
std::uint64_t hash_proposals(const std::vector<CounterProposal>& proposals) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const CounterProposal& p : proposals) {
    hash = hash_request(hash, p.original);
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(p.guaranteed.value()));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(p.residual.value()));
    hash = fnv1a(hash, p.region_options.size());
    for (const RegionAlternative& option : p.region_options) {
      hash = fnv1a(hash, option.region.value());
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(option.guaranteed.value()));
    }
    hash = fnv1a(hash, p.qos_options.size());
    for (const QosAlternative& option : p.qos_options) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(option.qos));
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(option.guaranteed.value()));
    }
  }
  return hash;
}

/// A mixed batch on the asymmetric fixture: one fully approved hose, egress
/// and ingress shortfalls, and shortfalls at premium and low classes.
std::vector<HoseApprovalResult> mixed_results() {
  return {
      {{NpgId(1), QosClass::c1_low, RegionId(0), Direction::egress, Gbps(40)}, Gbps(40)},
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(300)},
      {{NpgId(2), QosClass::c2_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(250)},
      {{NpgId(3), QosClass::c1_low, RegionId(2), Direction::ingress, Gbps(600)}, Gbps(200)},
      {{NpgId(4), QosClass::c4_high, RegionId(0), Direction::ingress, Gbps(900)}, Gbps(0)},
  };
}

/// `exec` is lent to the engine the probes sweep on.
std::uint64_t pinned_proposals_hash(bool fastpath, Executor exec = {}) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  ApprovalConfig approval = relaxed_config();
  approval.fastpath.enabled = fastpath;
  NegotiationConfig config;
  config.min_useful_fraction = 0.1;
  const ApprovalEngine engine(router, approval, exec);
  Rng rng(11);
  const std::vector<CounterProposal> proposals = negotiate(engine, config, mixed_results(), rng);
  std::size_t region_options = 0;
  std::size_t qos_options = 0;
  for (const CounterProposal& p : proposals) {
    region_options += p.region_options.size();
    qos_options += p.qos_options.size();
  }
  EXPECT_GT(region_options, 0u);
  EXPECT_GT(qos_options, 0u);
  return hash_proposals(proposals);
}

// Pinned before negotiation moved onto a caller-owned ApprovalEngine: every
// proposal field must stay bit-identical on this fixture, exact-only and
// with the fast tier on, serially and with every probe's scenario sweep
// fanned out on a lent 4-wide pool.
TEST(Negotiation, ProposalsMatchPinnedFingerprintExactOnly) {
  EXPECT_EQ(pinned_proposals_hash(false), 1657705824329442337ULL);
  ThreadPool pool(3);
  EXPECT_EQ(pinned_proposals_hash(false, {&pool, 4}), 1657705824329442337ULL);
}

TEST(Negotiation, ProposalsMatchPinnedFingerprintWithFastPath) {
  EXPECT_EQ(pinned_proposals_hash(true), 1657705824329442337ULL);
  ThreadPool pool(3);
  EXPECT_EQ(pinned_proposals_hash(true, {&pool, 4}), 1657705824329442337ULL);
}

TEST(Negotiation, InvalidConfigRejected) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig bad;
  bad.min_useful_fraction = 0.0;
  const ApprovalEngine engine(router, relaxed_config());
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(200)}};
  Rng rng(7);
  EXPECT_THROW((void)negotiate(engine, bad, results, rng), ContractViolation);
}

}  // namespace
}  // namespace netent::approval
