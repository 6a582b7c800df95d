#include "risk/verification.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace netent::risk {

namespace {

struct VerifyMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& verifications = reg.counter("risk.slo.verifications");
  obs::Counter& pipes_verified = reg.counter("risk.slo.pipes_verified");
  obs::Counter& scenarios_replayed = reg.counter("risk.slo.scenarios_replayed");
  /// (scenario, pipe) pairs where the approved pipe was fully admitted —
  /// the integer numerator behind the attainment fractions.
  obs::Counter& admitted_outcomes = reg.counter("risk.slo.admitted_outcomes");
  obs::Histogram& replay_seconds = reg.timer_histogram("risk.slo.scenario_replay_seconds");
};

VerifyMetrics& metrics() {
  static VerifyMetrics instance;
  return instance;
}

}  // namespace

SloVerifier::SloVerifier(topology::Router& router, std::vector<FailureScenario> scenarios,
                         approval::LowTouchPredicate low_touch)
    : router_(router),
      scenarios_(std::move(scenarios)),
      low_touch_(std::move(low_touch)),
      index_(router.topo()) {
  NETENT_EXPECTS(!scenarios_.empty());
  NETENT_EXPECTS(low_touch_ != nullptr);
}

std::vector<PipeAttainment> SloVerifier::verify(
    std::span<const approval::PipeApprovalResult> approvals, const Executor& exec,
    SweepMode mode) const {
  // Order pipes as the approval engine placed them: premium classes first,
  // then input order within a class.
  std::vector<std::size_t> order;
  for (const QosClass qos : qos_priority_order()) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < approvals.size(); ++i) {
      if (approvals[i].request.qos == qos && approvals[i].approved > Gbps(0)) {
        indices.push_back(i);
      }
    }
    std::stable_sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      return low_touch_(approvals[a].request.npg) && !low_touch_(approvals[b].request.npg);
    });
    order.insert(order.end(), indices.begin(), indices.end());
  }

  std::vector<topology::Demand> demands;
  demands.reserve(order.size());
  for (const std::size_t i : order) {
    demands.push_back(
        {approvals[i].request.src, approvals[i].request.dst, approvals[i].approved});
  }

  // Fan the scenario replay out through the shared SRLG-indexed sweep
  // driver (the same codepath the risk simulator uses); the probability
  // masses are then accumulated serially in scenario order, so the
  // attainments are bit-identical to the serial replay for every executor
  // and sweep mode.
  VerifyMetrics& m = metrics();
  m.verifications.add();
  m.pipes_verified.add(order.size());
  m.scenarios_replayed.add(scenarios_.size());

  const std::span<const double> base_capacity = router_.full_capacities();
  const auto placed = sweep_scenario_placements(router_, demands, base_capacity, index_,
                                                scenarios_, exec, mode,
                                                &m.replay_seconds, /*timer_stride=*/1);

  std::vector<double> admitted_mass(order.size(), 0.0);
  std::uint64_t admitted_count = 0;
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (placed[s][k] >= demands[k].amount.value() - 1e-6) {
        admitted_mass[k] += scenarios_[s].probability;
        ++admitted_count;
      }
    }
  }
  if (admitted_count != 0) m.admitted_outcomes.add(admitted_count);

  std::vector<PipeAttainment> attainments;
  attainments.reserve(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    attainments.push_back(
        {approvals[i].request, approvals[i].approved, admitted_mass[k]});
  }
  return attainments;
}

std::vector<ClassAttainment> SloVerifier::per_class(
    std::span<const PipeAttainment> attainments) {
  std::vector<ClassAttainment> classes;
  for (const QosClass qos : qos_priority_order()) {
    ClassAttainment entry;
    entry.qos = qos;
    double sum = 0.0;
    for (const PipeAttainment& attainment : attainments) {
      if (attainment.request.qos != qos) continue;
      ++entry.pipes;
      sum += attainment.achieved_availability;
      entry.worst_availability =
          std::min(entry.worst_availability, attainment.achieved_availability);
    }
    if (entry.pipes == 0) continue;
    entry.mean_availability = sum / static_cast<double>(entry.pipes);
    classes.push_back(entry);
  }
  return classes;
}

}  // namespace netent::risk
