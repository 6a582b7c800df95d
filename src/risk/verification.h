// SLO attainment verification: did the granting system keep its promise?
//
// The availability SLO of §3.2 measures "uptime percentage per class of
// service, where uptime requires all traffic in that class of service to be
// admitted in the network". The verifier replays the failure-scenario
// distribution against the APPROVED pipes (approved rates, priority order
// preserved) and measures, per pipe and per class, the probability-weighted
// fraction of scenarios in which the approved traffic is fully admitted.
// The granting invariant: achieved availability >= the contract SLO target
// (the tests pin this property).
#pragma once

#include <span>
#include <vector>

#include "approval/approval.h"
#include "common/thread_pool.h"
#include "risk/simulator.h"

namespace netent::risk {

struct PipeAttainment {
  hose::PipeRequest request;
  Gbps approved;
  /// Probability mass of scenarios fully admitting the approved rate.
  double achieved_availability = 0.0;
};

struct ClassAttainment {
  QosClass qos = QosClass::c4_high;
  std::size_t pipes = 0;
  double worst_availability = 1.0;  ///< min over the class's pipes
  double mean_availability = 1.0;
};

class SloVerifier {
 public:
  /// `low_touch` must match the predicate the approval engine used, so that
  /// the replay order equals the approval's placement order.
  SloVerifier(topology::Router& router, std::vector<FailureScenario> scenarios,
              approval::LowTouchPredicate low_touch = [](NpgId) { return false; });

  /// Replays every scenario with the approved pipes placed in the approval
  /// order (classes premium-first, then input order). Pipes approved at zero
  /// are skipped (nothing was promised). The scenario replay fans out on
  /// the lent executor (the default runs serially) through the same
  /// SRLG-indexed sweep driver the risk simulator uses (incremental by
  /// default); attainments are merged in scenario order and are
  /// bit-identical for every executor and sweep mode.
  [[nodiscard]] std::vector<PipeAttainment> verify(
      std::span<const approval::PipeApprovalResult> approvals, const Executor& exec = {},
      SweepMode mode = SweepMode::kIncremental) const;

  /// Aggregates pipe attainments per QoS class.
  [[nodiscard]] static std::vector<ClassAttainment> per_class(
      std::span<const PipeAttainment> attainments);

 private:
  topology::Router& router_;
  std::vector<FailureScenario> scenarios_;
  approval::LowTouchPredicate low_touch_;
  topology::SrlgIndex index_;
};

}  // namespace netent::risk
