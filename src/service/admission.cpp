#include "service/admission.h"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "risk/simulator.h"

namespace netent::service {

using approval::HoseApprovalResult;
using approval::PipeApprovalResult;
using hose::HoseRequest;
using hose::PipeRequest;
using topology::Demand;

namespace {

/// The shared approval-plane rate epsilon (approval/approval.h): the service
/// must agree with the engine and the negotiation layer on what counts as
/// "zero bandwidth".
constexpr double kEps = approval::kRateEpsGbps;

/// Checkpoint spacing of the history replay: a snapshot every
/// kCheckpointStride demands, the stride doubling while a realization's
/// history would need more than kMaxCheckpoints snapshots.
constexpr std::size_t kCheckpointStride = 16;
constexpr std::size_t kMaxCheckpoints = 64;
constexpr std::size_t kNoPosition = std::numeric_limits<std::size_t>::max();

struct ServiceMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& requests = reg.counter("service.admission.requests");
  obs::Counter& admitted = reg.counter("service.admission.admitted");
  obs::Counter& resized = reg.counter("service.admission.resized");
  obs::Counter& released = reg.counter("service.admission.released");
  obs::Counter& rejected = reg.counter("service.admission.rejected");
  obs::Counter& failed = reg.counter("service.admission.failed");
  /// Topology-lifecycle windows: mutation batches applied, and the verdict
  /// split over the in-force contracts each delta re-verified.
  obs::Counter& topology_applied = reg.counter("service.admission.topology_applied");
  obs::Counter& mutations_applied = reg.counter("service.admission.mutations_applied");
  obs::Counter& contracts_reverified = reg.counter("service.admission.contracts_reverified");
  obs::Counter& contracts_shrunk = reg.counter("service.admission.contracts_shrunk");
  obs::Counter& contracts_revoked = reg.counter("service.admission.contracts_revoked");
  obs::Counter& windows = reg.counter("service.admission.windows");
  obs::Counter& rebuilds = reg.counter("service.admission.rebuilds");
  obs::Counter& counter_proposals = reg.counter("service.admission.counter_proposals");
  obs::Counter& committed_demands = reg.counter("service.admission.committed_demands");
  /// Checkpointed history replays (removal and topology windows), counted
  /// per (realization, scenario) cell: demands water-filled, and prefix
  /// demands served from a snapshot instead.
  obs::Counter& replay_demands_placed = reg.counter("service.admission.replay.demands_placed");
  obs::Counter& replay_demands_reused = reg.counter("service.admission.replay.demands_reused");
  obs::Counter& fastpath_audited = reg.counter("risk.fastpath.audited");
  obs::Counter& fastpath_audit_violations = reg.counter("risk.fastpath.audit_violations");
  /// Realization jobs handed to the pool (exec.shards > 1 only).
  obs::Counter& shard_jobs = reg.counter("service.admission.shard.jobs");
  obs::Histogram& window_size = reg.histogram("service.admission.window_size",
                                              std::array{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::Histogram& latency_seconds = reg.timer_histogram("service.admission.latency_seconds");
  obs::Histogram& window_seconds = reg.timer_histogram("service.admission.window_seconds");
};

ServiceMetrics& metrics() {
  static ServiceMetrics instance;
  return instance;
}

AdmissionOutcome failed_outcome(ErrorCode code, std::string message) {
  AdmissionOutcome outcome;
  outcome.status = AdmissionStatus::failed;
  outcome.error = Error{code, std::move(message)};
  return outcome;
}

}  // namespace

AdmissionController::AdmissionController(const topology::Topology& topo, AdmissionConfig config)
    : config_(std::move(config)),
      threads_(config_.exec.resolve()),
      shards_(config_.exec.resolve_shards()),
      router_(topo, config_.router_paths),
      // The calling thread drains beside the workers, so max(threads, shards)
      // - 1 workers give every loop its full width.
      pool_(std::max(threads_, shards_) > 1
                ? std::make_unique<ThreadPool>(std::max(threads_, shards_) - 1)
                : nullptr),
      // Not lent the pool: the engine's only sweeps are counter-proposal
      // probes over tens of scenarios, which run faster inline than fanned out.
      engine_(router_, config_.approval),
      base_capacity_(router_.full_capacities()),  // view into router_; outlived by it
      rng_(config_.seed) {
  NETENT_EXPECTS(config_.batch_window_seconds >= 0.0);
  NETENT_EXPECTS(config_.admit_min_fraction >= 0.0 && config_.admit_min_fraction <= 1.0);
  NETENT_EXPECTS(config_.negotiation.min_useful_fraction > 0.0 &&
                 config_.negotiation.min_useful_fraction <= 1.0);
  config_.exec.threads = threads_;  // config() reflects the resolution
  config_.exec.shards = shards_;
  tracks_.resize(config_.approval.realizations);
  residual_ = residuals_of({});
  reset_checkpoints();
  if (config_.approval.fastpath.enabled) {
    fast_.reserve(config_.approval.realizations);
    for (std::size_t k = 0; k < config_.approval.realizations; ++k) {
      fast_.emplace_back(router_.topo(), engine_.scenarios());
      fast_.back().rebuild(residual_[k]);
    }
  }
  if (config_.background) {
    worker_ = std::thread(&AdmissionController::worker_loop, this);
  }
}

AdmissionController::AdmissionController(topology::Topology& topo, AdmissionConfig config)
    : AdmissionController(static_cast<const topology::Topology&>(topo), std::move(config)) {
  // The delegated constructor may already have started the worker; publish
  // the mutable handle under the state lock it will read it under.
  const std::lock_guard<std::mutex> lock(state_mutex_);
  mutable_topo_ = &topo;
}

AdmissionController::~AdmissionController() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Every fast admit gets its exact audit before the controller dies, so
  // the violation counters are final.
  (void)audit_fastpath();
  // Manual-mode leftovers (or submissions that raced shutdown) must not
  // leave dangling futures.
  std::vector<Pending> leftover;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(pending_);
  }
  for (Pending& pending : leftover) {
    pending.promise.set_value(
        failed_outcome(ErrorCode::invalid_argument, "admission controller shut down"));
  }
}

std::future<AdmissionOutcome> AdmissionController::submit(AdmissionRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<AdmissionOutcome> future = pending.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    pending_.push_back(std::move(pending));
  }
  queue_cv_.notify_all();
  metrics().requests.add();
  return future;
}

AdmissionOutcome AdmissionController::admit(NpgId npg, std::string npg_name,
                                            std::vector<HoseRequest> hoses) {
  AdmissionRequest request;
  request.kind = RequestKind::admit;
  request.npg = npg;
  request.npg_name = std::move(npg_name);
  request.hoses = std::move(hoses);
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

AdmissionOutcome AdmissionController::resize(ContractId contract,
                                             std::vector<HoseRequest> hoses) {
  AdmissionRequest request;
  request.kind = RequestKind::resize;
  request.contract = contract;
  request.hoses = std::move(hoses);
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

AdmissionOutcome AdmissionController::release(ContractId contract) {
  AdmissionRequest request;
  request.kind = RequestKind::release;
  request.contract = contract;
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

AdmissionOutcome AdmissionController::apply_topology_delta(
    std::vector<topology::Mutation> mutations) {
  AdmissionRequest request;
  request.kind = RequestKind::topology;
  request.mutations = std::move(mutations);
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

void AdmissionController::flush() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  // A window already taken may hold requests submitted before this call.
  queue_cv_.wait(lock, [&] { return windows_in_flight_ == 0; });
  process_queued(lock);
}

void AdmissionController::process_queued(std::unique_lock<std::mutex>& lock) {
  std::vector<Pending> window;
  window.swap(pending_);
  ++windows_in_flight_;
  lock.unlock();
  process_window(std::move(window));
  lock.lock();
  --windows_in_flight_;
  queue_cv_.notify_all();
}

void AdmissionController::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    // Idle time pays the audit debt: fast admits queued for exact
    // verification drain while no request is waiting.
    while (!stopping_ && pending_.empty()) {
      bool audits_pending = false;
      {
        const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
        audits_pending = !audit_queue_.empty();
      }
      if (!audits_pending) {
        queue_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
        break;
      }
      // One record per iteration, so an arriving request is never stuck
      // behind a long audit backlog.
      lock.unlock();
      (void)audit_one();
      lock.lock();
    }
    if (pending_.empty()) {
      if (stopping_) return;
      continue;
    }
    if (!stopping_ && config_.batch_window_seconds > 0.0) {
      // Coalesce: requests arriving within the window of the first queued
      // one join the same joint approval.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(config_.batch_window_seconds));
      while (!stopping_ && std::chrono::steady_clock::now() < deadline) {
        queue_cv_.wait_until(lock, deadline);
      }
    }
    process_queued(lock);
  }
}

void AdmissionController::process_window(std::vector<Pending> window) {
  if (window.empty()) return;
  ServiceMetrics& m = metrics();
  std::vector<AdmissionOutcome> outcomes;
  {
    const obs::ScopedTimer span(m.window_seconds);
    const std::lock_guard<std::mutex> lock(state_mutex_);
    try {
      outcomes = evaluate_window(window);
    } catch (const std::exception& e) {
      // State mutations happen after evaluation succeeds, so a throwing
      // window leaves the admitted set untouched; fail the whole window.
      outcomes.clear();
      for (std::size_t i = 0; i < window.size(); ++i) {
        outcomes.push_back(failed_outcome(ErrorCode::invalid_argument,
                                          std::string("window processing failed: ") + e.what()));
      }
    }
  }
  NETENT_ENSURES(outcomes.size() == window.size());
  m.windows.add();
  m.window_size.record(static_cast<double>(window.size()));
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < window.size(); ++i) {
    switch (outcomes[i].status) {
      case AdmissionStatus::admitted: m.admitted.add(); break;
      case AdmissionStatus::resized: m.resized.add(); break;
      case AdmissionStatus::released: m.released.add(); break;
      case AdmissionStatus::rejected: m.rejected.add(); break;
      case AdmissionStatus::failed: m.failed.add(); break;
      case AdmissionStatus::topology_applied: m.topology_applied.add(); break;
    }
    m.latency_seconds.record(std::chrono::duration<double>(now - window[i].enqueued).count());
    window[i].promise.set_value(std::move(outcomes[i]));
  }
}

std::vector<AdmissionOutcome> AdmissionController::evaluate_window(std::vector<Pending>& window) {
  ++window_seq_;
  ServiceMetrics& m = metrics();
  const std::size_t realizations = config_.approval.realizations;
  const std::size_t region_count = router_.topo().region_count();
  std::vector<AdmissionOutcome> outcomes(window.size());

  // --- Phase 0: topology windows. Mutation batches are serialized ahead of
  // the window's contract requests (in submission order among themselves),
  // so the admits / resizes below evaluate against the evolved network.
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (window[i].request.kind == RequestKind::topology) {
      outcomes[i] = evaluate_topology_window(window[i].request);
    }
  }

  // --- Phase 1: validate and classify, in submission order. ---------------
  struct EvalEntry {
    std::size_t index = 0;  ///< window position
    bool is_resize = false;
    ContractId id = 0;  ///< resize: the existing contract
    NpgId npg;
    std::string name;
    const std::vector<HoseRequest>* hoses = nullptr;
    std::size_t hose_begin = 0;  ///< offset into the joint window hose list
    bool accepted = false;
  };
  std::vector<EvalEntry> entries;
  std::set<ContractId> released_ids;
  std::set<ContractId> touched_ids;     ///< resize/release targets seen this window
  std::set<std::uint32_t> window_npgs;  ///< NPGs claimed by this window's admits

  const auto fail = [&](std::size_t i, ErrorCode code, std::string message) {
    outcomes[i] = failed_outcome(code, std::move(message));
  };
  const auto find_admitted = [&](ContractId id) -> const AdmittedEntry* {
    for (const AdmittedEntry& entry : admitted_) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
  };
  // Request-shape validation, Expected-style (common/expected.h taxonomy):
  // every failure is invalid_argument with the offending hose index in the
  // message, so a spec-compiled or hand-built request fails identically.
  const auto validate_hoses = [&](const AdmissionRequest& request,
                                  NpgId npg) -> Expected<void> {
    if (request.hoses.empty()) {
      return Error{ErrorCode::invalid_argument, "request has no hoses"};
    }
    double total = 0.0;
    for (std::size_t h = 0; h < request.hoses.size(); ++h) {
      const HoseRequest& hose = request.hoses[h];
      const std::string field = "hoses[" + std::to_string(h) + "]";
      if (hose.npg != npg) {
        return Error{ErrorCode::invalid_argument,
                     field + ".npg: differs from the request's NPG"};
      }
      if (hose.region.value() >= region_count) {
        return Error{ErrorCode::invalid_argument,
                     field + ".region: region " + std::to_string(hose.region.value()) +
                         " out of range (topology has " + std::to_string(region_count) +
                         " regions)"};
      }
      if (hose.rate < Gbps(0)) {
        return Error{ErrorCode::invalid_argument, field + ".rate: must be >= 0"};
      }
      total += hose.rate.value();
    }
    if (total <= kEps) {
      return Error{ErrorCode::invalid_argument, "request asks for zero bandwidth"};
    }
    return {};
  };

  for (std::size_t i = 0; i < window.size(); ++i) {
    const AdmissionRequest& request = window[i].request;
    switch (request.kind) {
      case RequestKind::admit: {
        const bool live = std::any_of(
            admitted_.begin(), admitted_.end(), [&](const AdmittedEntry& entry) {
              return entry.npg == request.npg && released_ids.count(entry.id) == 0;
            });
        if (live || window_npgs.count(request.npg.value()) != 0) {
          fail(i, ErrorCode::invalid_argument, "NPG already holds a live contract (use resize)");
          break;
        }
        if (auto ok = validate_hoses(request, request.npg); !ok) {
          fail(i, ok.error().code, ok.error().message);
          break;
        }
        window_npgs.insert(request.npg.value());
        EvalEntry entry;
        entry.index = i;
        entry.npg = request.npg;
        entry.name = request.npg_name;
        entry.hoses = &request.hoses;
        entries.push_back(std::move(entry));
        break;
      }
      case RequestKind::resize: {
        const AdmittedEntry* existing = find_admitted(request.contract);
        if (existing == nullptr) {
          fail(i, ErrorCode::not_found,
               "unknown contract id " + std::to_string(request.contract));
          break;
        }
        if (!touched_ids.insert(request.contract).second) {
          fail(i, ErrorCode::invalid_argument,
               "contract already targeted by an earlier request in this window");
          break;
        }
        if (auto ok = validate_hoses(request, existing->npg); !ok) {
          fail(i, ok.error().code, ok.error().message);
          break;
        }
        EvalEntry entry;
        entry.index = i;
        entry.is_resize = true;
        entry.id = request.contract;
        entry.npg = existing->npg;
        entry.name = existing->name;
        entry.hoses = &request.hoses;
        entries.push_back(std::move(entry));
        break;
      }
      case RequestKind::release: {
        const AdmittedEntry* existing = find_admitted(request.contract);
        if (existing == nullptr) {
          fail(i, ErrorCode::not_found,
               "unknown contract id " + std::to_string(request.contract));
          break;
        }
        if (!touched_ids.insert(request.contract).second) {
          fail(i, ErrorCode::invalid_argument,
               "contract already targeted by an earlier request in this window");
          break;
        }
        released_ids.insert(request.contract);
        break;  // outcome finalized in phase 4
      }
      case RequestKind::topology:
        break;  // handled in phase 0
    }
  }

  // --- Phase 2: joint approval of the window against residual capacity. ---
  // Releases (and resize targets) free their reservations for the
  // evaluation: the residuals are replayed from the commit history without
  // their demands. A rejected resize keeps its old grant (restored in
  // phase 4), so the evaluation is optimistic about resizes that end up
  // rejected — the trade for keeping the window joint.
  std::set<ContractId> eval_removed = released_ids;
  for (const EvalEntry& entry : entries) {
    if (entry.is_resize) eval_removed.insert(entry.id);
  }
  ResidualState eval_scratch;
  const ResidualState* eval_residual = &residual_;
  if (!eval_removed.empty()) {
    index_owners(false);
    const std::vector<ContractId> removed(eval_removed.begin(), eval_removed.end());
    replay_without(removed, false, eval_scratch);
    eval_residual = &eval_scratch;
  }

  std::vector<HoseRequest> window_hoses;
  for (EvalEntry& entry : entries) {
    entry.hose_begin = window_hoses.size();
    window_hoses.insert(window_hoses.end(), entry.hoses->begin(), entry.hoses->end());
  }

  // Per-realization demands in the exact placement order the evaluation
  // used, NPG-tagged; accepted entries' demands become the committed batch.
  struct DrawnDemand {
    Demand demand;
    std::uint32_t npg = 0;
  };
  std::vector<std::vector<DrawnDemand>> drawn(realizations);
  std::vector<HoseApprovalResult> results;
  if (!window_hoses.empty()) {
    // Tier selection for the window: the fast summaries describe the
    // COMMITTED residual state, so the analytical tier only applies when
    // the window evaluates against exactly that state — pure-admit windows,
    // the streaming hot path. Windows with releases/resizes evaluate
    // against a rebuilt scratch state and always go exact.
    const bool fast_eligible = !fast_.empty() && eval_residual == &residual_;

    // GEN_DEMAND on the coordinator: the single RNG consumer, so the stream
    // is identical at every shard count.
    const approval::ApprovalEngine::RealizationPipes drawn_pipes =
        engine_.draw_realizations(window_hoses, {}, rng_);

    // Everything one realization's assessment produces, confined to its
    // job until the ascending-order merge below.
    struct RealizationOutcome {
      std::vector<PipeApprovalResult> approvals;
      approval::ApprovalEngine::FastPassResult fast_pass;
      std::vector<LinkId> audit_links;
      std::vector<double> audit_residuals;
    };
    std::vector<RealizationOutcome> sub(realizations);

    const auto assess_realization = [&](std::size_t k) {
      const std::span<const PipeRequest> pipes = drawn_pipes[k];
      if (pipes.empty()) return;
      const std::vector<std::size_t> order = engine_.placement_order(pipes);
      std::vector<DrawnDemand>& record = drawn[k];
      record.clear();
      record.reserve(order.size());
      for (const std::size_t p : order) {
        record.push_back({Demand{pipes[p].src, pipes[p].dst, pipes[p].rate}, pipes[p].npg.value()});
      }
      const risk::FastEstimator* fast = fast_eligible ? &fast_[k] : nullptr;
      RealizationOutcome& out = sub[k];
      out.approvals = engine_.pipe_approval_with(
          pipes,
          [&](std::span<const Demand> demands) {
            return curves_against_residuals(*eval_residual, k, demands);
          },
          fast, &out.fast_pass);
      if (out.fast_pass.hit && config_.approval.fastpath.audit) {
        // Snapshot the state the bounds summarize — but only the links the
        // audit replay's water-fill can read: the demands' candidate paths.
        for (const DrawnDemand& d : record) {
          const topology::PathList paths = router_.cached_paths(d.demand.src, d.demand.dst);
          NETENT_EXPECTS(paths.valid());
          for (const topology::PathView path : paths) {
            out.audit_links.insert(out.audit_links.end(), path.links.begin(), path.links.end());
          }
        }
        std::sort(out.audit_links.begin(), out.audit_links.end());
        out.audit_links.erase(std::unique(out.audit_links.begin(), out.audit_links.end()),
                              out.audit_links.end());
        out.audit_residuals.reserve(residual_[k].size() * out.audit_links.size());
        for (const std::vector<double>& scenario_residual : residual_[k]) {
          for (const LinkId link : out.audit_links) {
            out.audit_residuals.push_back(scenario_residual[link.value()]);
          }
        }
      }
    };

    // Realization jobs share router_: warm it for every drawn pair first,
    // so the jobs only read its path cache. Under the SweepGuard a missed
    // pair throws instead of racing a cache insert. Each realization's
    // mutable state — drawn[k], sub[k] — is touched by exactly one job;
    // residual_, eval_scratch and fast_ are read-only during assessment.
    // A throwing job fails the whole window (process_window).
    for (const std::vector<PipeRequest>& pipes : drawn_pipes) {
      for (const PipeRequest& pipe : pipes) (void)router_.paths(pipe.src, pipe.dst);
    }
    {
      const topology::Router::SweepGuard guard(router_);
      const Executor realization_jobs{pool_.get(), shards_};
      realization_jobs.for_each(realizations,
                                [&](std::size_t, std::size_t k) { assess_realization(k); });
    }
    if (shards_ > 1) m.shard_jobs.add(realizations);

    // Deterministic merge, ascending realization order: the fast-path
    // stats, the audit queue and the hose aggregation all fold exactly as
    // the serial loop would.
    std::vector<std::vector<PipeApprovalResult>> assessed(realizations);
    for (std::size_t k = 0; k < realizations; ++k) {
      RealizationOutcome& out = sub[k];
      assessed[k] = std::move(out.approvals);
      if (out.fast_pass.hit) {
        ++fast_stats_.hits;
        if (config_.approval.fastpath.audit) {
          AuditRecord audit;
          audit.demands.reserve(drawn[k].size());
          for (const DrawnDemand& d : drawn[k]) audit.demands.push_back(d.demand);
          audit.bounds = std::move(out.fast_pass.bounds);
          audit.links = std::move(out.audit_links);
          audit.residuals = std::move(out.audit_residuals);
          const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
          audit_queue_.push_back(std::move(audit));
        }
      } else if (out.fast_pass.attempted) {
        ++fast_stats_.fallbacks;
      }
    }
    results = engine_.aggregate_realizations(window_hoses, drawn_pipes, assessed);
  }

  // --- Phase 3: accept/reject each entry. ---------------------------------
  std::map<std::uint32_t, ContractId> accepted_ids;  // npg -> contract
  for (EvalEntry& entry : entries) {
    const std::span<const HoseApprovalResult> slice =
        std::span<const HoseApprovalResult>(results).subspan(entry.hose_begin,
                                                             entry.hoses->size());
    double requested = 0.0;
    double approved = 0.0;
    for (const HoseApprovalResult& result : slice) {
      requested += result.request.rate.value();
      approved += result.approved.value();
    }
    const double fraction = requested > 0.0 ? approved / requested : 0.0;
    AdmissionOutcome& outcome = outcomes[entry.index];
    outcome.approvals.assign(slice.begin(), slice.end());
    if (approved > kEps && fraction + 1e-12 >= config_.admit_min_fraction) {
      entry.accepted = true;
      if (!entry.is_resize) entry.id = next_contract_id_++;
      accepted_ids[entry.npg.value()] = entry.id;
      outcome.status = entry.is_resize ? AdmissionStatus::resized : AdmissionStatus::admitted;
      outcome.contract = entry.id;
    } else {
      outcome.status = AdmissionStatus::rejected;
      outcome.contract = entry.is_resize ? entry.id : 0;
      if (config_.attach_counter_proposals) {
        // Negotiation probes run on engine_ (pristine base capacities, not
        // the residuals) and draw their own realizations; a window-derived
        // stream keeps the admission RNG (and so request outcomes)
        // independent of whether proposals are enabled.
        Rng nego_rng(config_.seed ^ (0x9e3779b97f4a7c15ULL + window_seq_));
        outcome.proposals =
            approval::negotiate(engine_, config_.negotiation, slice, nego_rng);
        m.counter_proposals.add(outcome.proposals.size());
      }
    }
  }

  // --- Phase 4: commit. ----------------------------------------------------
  Batch batch;
  batch.demands.resize(realizations);
  std::size_t committed = 0;
  for (std::size_t k = 0; k < realizations; ++k) {
    for (const DrawnDemand& d : drawn[k]) {
      const auto it = accepted_ids.find(d.npg);
      if (it == accepted_ids.end()) continue;
      batch.demands[k].push_back({d.demand, it->second});
      ++committed;
    }
  }

  std::set<ContractId> final_removed = released_ids;
  for (const EvalEntry& entry : entries) {
    if (entry.is_resize && entry.accepted) final_removed.insert(entry.id);
  }
  if (!final_removed.empty()) {
    // Releases / accepted resizes remove demands from the middle of the
    // placement history, which water-filling's order sensitivity allows no
    // in-place delta for. The evaluation already replayed the history
    // without eval_removed; when every removal it assumed went through,
    // that IS the pruned history's residual state, and the new batch
    // commits on top of it exactly as after a pure-admit window. A rejected
    // resize keeps its grant, so the replay runs once more without
    // final_removed (from the checkpoint before its first demand).
    const std::vector<ContractId> removed(final_removed.begin(), final_removed.end());
    if (final_removed != eval_removed) replay_without(removed, false, eval_scratch);
    residual_ = std::move(eval_scratch);
    erase_owners(removed);
    if (committed > 0) commit_batch(batch);
    m.rebuilds.add();
    refresh_fastpath(nullptr);  // full summary rebuild with the residuals
  } else if (committed > 0) {
    // Pure-admit hot path: append-only, so the residuals advance with the
    // same water_fill_demand sequence a from-scratch replay would run.
    commit_batch(batch);
    refresh_fastpath(&batch);  // only the batch's links moved
  }
  m.committed_demands.add(committed);

  // Contract database + registry updates.
  for (const ContractId id : released_ids) {
    db_.remove(id);
    std::erase_if(admitted_, [&](const AdmittedEntry& entry) { return entry.id == id; });
  }
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (window[i].request.kind == RequestKind::release &&
        released_ids.count(window[i].request.contract) != 0) {
      outcomes[i].status = AdmissionStatus::released;
      outcomes[i].contract = window[i].request.contract;
    }
  }
  for (EvalEntry& entry : entries) {
    if (!entry.accepted) continue;
    core::EntitlementContract contract;
    contract.npg = entry.npg;
    contract.npg_name = entry.name;
    contract.slo_availability = config_.approval.slo_availability;
    contract.id = entry.id;
    for (const HoseApprovalResult& result : outcomes[entry.index].approvals) {
      contract.entitlements.push_back(core::Entitlement{
          result.request.npg, result.request.qos, result.request.region,
          result.request.direction, result.approved, config_.period});
    }
    if (entry.is_resize) {
      db_.remove(entry.id);
      for (AdmittedEntry& existing : admitted_) {
        if (existing.id == entry.id) existing.hoses = *entry.hoses;
      }
    } else {
      AdmittedEntry registered;
      registered.id = entry.id;
      registered.npg = entry.npg;
      registered.name = entry.name;
      registered.hoses = *entry.hoses;
      admitted_.push_back(std::move(registered));
    }
    db_.add(std::move(contract));
  }
  return outcomes;
}

AdmissionOutcome AdmissionController::evaluate_topology_window(const AdmissionRequest& request) {
  if (mutable_topo_ == nullptr) {
    return failed_outcome(ErrorCode::invalid_argument,
                          "topology windows need the mutable-topology constructor");
  }
  if (request.mutations.empty()) {
    return failed_outcome(ErrorCode::invalid_argument, "topology request has no mutations");
  }
  topology::Topology& topo = *mutable_topo_;
  ServiceMetrics& m = metrics();

  // --- Validate the WHOLE batch before touching anything: one invalid
  // mutation fails the request with the topology (and every derived cache)
  // intact.
  if (const Expected<void> valid = topo.validate(request.mutations); !valid) {
    return failed_outcome(ErrorCode::invalid_argument,
                          "topology mutation rejected: " + valid.error().message);
  }

  // --- Settle the deferred fast-path audits first: the queued records
  // snapshot PRE-mutation residuals over the pre-mutation scenario set, so
  // they must replay against the network they were decided on.
  {
    std::vector<AuditRecord> audits;
    {
      const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
      audits.swap(audit_queue_);
    }
    for (const AuditRecord& record : audits) audit_record_locked(record);
  }

  // --- Apply, then resync every topology-derived cache in dependency
  // order: main router (path store + effective capacities), approval engine
  // (scenarios + simulator + pristine fast summaries), and finally this
  // controller's base-capacity view.
  const std::uint64_t from_epoch = topo.epoch();
  for (const topology::Mutation& mut : request.mutations) (void)topo.apply(mut);
  m.mutations_applied.add(request.mutations.size());

  topology::TopologyResyncStats resync_stats;
  std::vector<std::pair<RegionId, RegionId>> changed_pairs;
  router_.resync_topology(&resync_stats, &changed_pairs);
  const bool scenarios_changed = engine_.resync_topology();
  base_capacity_ = router_.full_capacities();  // may have grown / moved
  // Every checkpoint holds pre-mutation scenario capacities, and the
  // resync may have replaced any pair's candidate paths.
  reset_checkpoints();
  for (ReplayTrack& track : tracks_) {
    for (HistoryEntry& entry : track.history) {
      entry.paths = router_.cached_paths(entry.demand.src, entry.demand.dst);
      NETENT_EXPECTS(entry.paths.valid());
    }
  }
  index_owners(true);

  // --- The links whose effective capacity (or existence) the delta moved,
  // both directions; with `changed_pairs` these bound which contracts the
  // delta can possibly affect.
  std::vector<char> link_changed(topo.link_count(), 0);
  const auto mark_fiber = [&](LinkId id) {
    link_changed[id.value()] = 1;
    link_changed[topo.link(id).reverse.value()] = 1;
  };
  for (const topology::MutationRecord& rec : topo.mutation_log().since(from_epoch)) {
    switch (rec.kind) {
      case topology::MutationKind::add_fiber:
      case topology::MutationKind::retire_fiber:
      case topology::MutationKind::resize_fiber:
        mark_fiber(rec.link);
        break;
      case topology::MutationKind::drain_region:
      case topology::MutationKind::undrain_region:
        for (const LinkId out : topo.out_links(rec.region)) mark_fiber(out);
        break;
      case topology::MutationKind::strike_srlgs:
      case topology::MutationKind::repair_srlgs:
        for (const topology::Link& link : topo.links()) {
          // rec.srlgs is sorted+deduped by Topology::strike/repair_srlgs.
          if (std::binary_search(rec.srlgs.begin(), rec.srlgs.end(), link.srlg)) {
            link_changed[link.id.value()] = 1;
          }
        }
        break;
    }
  }

  // A contract needs re-verification when the scenario set itself changed
  // (every availability curve's probability masses move) or any committed
  // demand routes over a changed pair / touches a changed link. Each
  // distinct pair is judged once; the owner index lists each contract's
  // pairs.
  const std::size_t regions = topo.region_count();
  std::vector<signed char> pair_hit(regions * regions, -1);  // -1: not judged yet
  for (const auto& [src, dst] : changed_pairs) pair_hit[src.value() * regions + dst.value()] = 1;
  const auto pair_affected = [&](std::uint32_t code) {
    signed char& hit = pair_hit[code];
    if (hit < 0) {
      hit = 0;
      const topology::PathList paths =
          router_.cached_paths(RegionId(static_cast<std::uint32_t>(code / regions)),
                               RegionId(static_cast<std::uint32_t>(code % regions)));
      NETENT_EXPECTS(paths.valid());
      for (const topology::PathView path : paths) {
        for (const LinkId link : path.links) {
          if (link_changed[link.value()] != 0) hit = 1;
        }
      }
    }
    return hit != 0;
  };
  std::vector<ContractId> affected;  // ascending, like owners_.ids
  for (std::size_t slot = 0; slot < owners_.ids.size(); ++slot) {
    bool hit = scenarios_changed;
    for (std::size_t i = owners_.pair_begin[slot]; !hit && i < owners_.pair_begin[slot + 1]; ++i) {
      hit = pair_affected(owners_.pairs[i]);
    }
    if (hit) affected.push_back(owners_.ids[slot]);
  }

  // --- Re-verify each affected contract in ascending id order, applying
  // each verdict before judging the next (deterministic: no RNG, and every
  // step below is bit-identical at any shard x thread count). A contract is
  // judged by re-placing its committed demands LAST: against residuals with
  // every other in-force grant placed, the fraction of each demand that
  // still clears the SLO target bounds what the evolved network supports.
  // The minus-self residuals come from the checkpointed replay, only for
  // the realizations the contract has demands in. A revoked contract stays
  // in the history (flagged out of every replay) until the loop ends, so
  // the history positions the checkpoints refer to hold throughout.
  const std::size_t realizations = config_.approval.realizations;
  const double slo = config_.approval.slo_availability;
  std::vector<ContractVerdict> verdicts;
  std::vector<ContractId> revoked;  // ascending, like `affected`
  ResidualState minus_c;
  for (const ContractId id : affected) {
    const std::size_t slot = owner_slot(id);
    replay_without(std::span<const ContractId>(&id, 1), true, minus_c);
    double worst = 1.0;
    for (std::size_t k = 0; k < realizations; ++k) {
      const std::size_t first = owners_.first[slot * realizations + k];
      if (first == kNoPosition) continue;
      std::vector<Demand> demands;
      const std::vector<HistoryEntry>& history = tracks_[k].history;
      for (std::size_t i = first; i < history.size(); ++i) {
        if (history[i].slot == slot) demands.push_back(history[i].demand);
      }
      const std::vector<risk::AvailabilityCurve> curves =
          curves_against_residuals(minus_c, k, demands);
      for (std::size_t i = 0; i < demands.size(); ++i) {
        const double amount = demands[i].amount.value();
        if (amount <= kEps) continue;
        const double supported = curves[i].bandwidth_at(slo).value();
        worst = std::min(worst, supported + 1e-9 >= amount ? 1.0 : supported / amount);
      }
    }
    ContractVerdict verdict;
    verdict.contract = id;
    m.contracts_reverified.add();
    if (worst >= 1.0) {
      verdict.kind = VerdictKind::reaffirmed;
      verdict.fraction = 1.0;
    } else if (worst <= kEps) {
      verdict.kind = VerdictKind::revoked;
      verdict.fraction = 0.0;
      drop_checkpoints_after(std::span<const ContractId>(&id, 1));
      owners_.skip[slot] = 1;
      revoked.push_back(id);
      db_.remove(id);
      std::erase_if(admitted_, [&](const AdmittedEntry& entry) { return entry.id == id; });
      m.contracts_revoked.add();
    } else {
      verdict.kind = VerdictKind::shrunk;
      verdict.fraction = worst;
      drop_checkpoints_after(std::span<const ContractId>(&id, 1));
      for (ReplayTrack& track : tracks_) {
        for (HistoryEntry& entry : track.history) {
          if (entry.slot == slot) entry.demand.amount = Gbps(entry.demand.amount.value() * worst);
        }
      }
      const core::EntitlementContract* existing = db_.find_by_id(id);
      NETENT_EXPECTS(existing != nullptr);
      core::EntitlementContract updated = *existing;
      for (core::Entitlement& entitlement : updated.entitlements) {
        entitlement.entitled_rate = Gbps(entitlement.entitled_rate.value() * worst);
      }
      db_.remove(id);
      db_.add(std::move(updated));
      m.contracts_shrunk.add();
    }
    verdicts.push_back(verdict);
  }

  // --- The maintained residual state on the resynced engine (the scenario
  // set and link count may both have changed shape): the same replay with
  // nothing more removed, extending the checkpoints to the end of the
  // history. Then the revoked demands leave the history for good.
  replay_without({}, false, residual_);
  m.rebuilds.add();
  if (!revoked.empty()) erase_owners(revoked);
  if (config_.approval.fastpath.enabled) {
    fast_.clear();
    fast_.reserve(realizations);
    for (std::size_t k = 0; k < realizations; ++k) {
      fast_.emplace_back(router_.topo(), engine_.scenarios());
      fast_.back().rebuild(residual_[k]);
    }
  }

  AdmissionOutcome outcome;
  outcome.status = AdmissionStatus::topology_applied;
  outcome.reverified = std::move(verdicts);
  return outcome;
}

std::vector<risk::AvailabilityCurve> AdmissionController::curves_against_residuals(
    const ResidualState& residuals, std::size_t k, std::span<const Demand> demands) {
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  std::vector<std::vector<double>> placed(scenario_count);
  {
    const topology::Router::SweepGuard guard(router_);
    // Per-worker RouteResult scratch (reused across scenarios) keeps the
    // fan-out's steady state allocation-free apart from the per-scenario
    // output vectors.
    std::vector<topology::RouteResult> scratch(threads_);
    executor().for_each(scenario_count, [&](std::size_t worker, std::size_t s) {
      topology::RouteResult& result = scratch[worker];
      router_.route_warmed_into(demands, residuals[k][s], result);
      placed[s].assign(result.placed_per_demand.begin(), result.placed_per_demand.end());
    });
  }
  // The simulator's merge, so curves over pristine residuals are
  // bit-identical to its own.
  return risk::curves_from_placements(placed, scenarios);
}

void AdmissionController::place_demand(const Demand& demand,
                                       std::vector<double>& residual) const {
  const topology::PathList paths = router_.cached_paths(demand.src, demand.dst);
  NETENT_EXPECTS(paths.valid());
  (void)topology::water_fill_demand(demand.amount.value(), paths, residual, {});
}

AdmissionController::ResidualState AdmissionController::residuals_of(
    std::span<const ContractId> without) const {
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  const std::size_t realizations = config_.approval.realizations;
  const topology::SrlgIndex& index = engine_.simulator().srlg_index();
  ResidualState state(realizations);
  for (auto& per_scenario : state) per_scenario.resize(scenario_count);
  executor().for_each(realizations * scenario_count, [&](std::size_t, std::size_t c) {
    const std::size_t k = c / scenario_count;
    const std::size_t s = c % scenario_count;
    std::vector<double>& residual = state[k][s];
    residual = risk::scenario_capacities(index, base_capacity_, scenarios[s]);
    for (const HistoryEntry& entry : tracks_[k].history) {
      if (std::find(without.begin(), without.end(), entry.owner) == without.end()) {
        place_demand(entry.demand, residual);
      }
    }
  });
  return state;
}

void AdmissionController::index_owners(bool with_pairs) {
  const std::size_t realizations = config_.approval.realizations;
  const std::size_t regions = router_.topo().region_count();
  OwnerIndex& index = owners_;
  index.ids.clear();
  for (const AdmittedEntry& entry : admitted_) index.ids.push_back(entry.id);
  std::sort(index.ids.begin(), index.ids.end());
  index.first.assign(index.ids.size() * realizations, kNoPosition);
  index.skip.assign(index.ids.size(), 0);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> slot_pairs;  // (slot, pair code)
  for (std::size_t k = 0; k < realizations; ++k) {
    std::vector<HistoryEntry>& history = tracks_[k].history;
    ContractId last_owner = 0;  // ids start at 1; consecutive demands often share an owner
    std::uint32_t slot = 0;
    for (std::size_t i = 0; i < history.size(); ++i) {
      HistoryEntry& entry = history[i];
      if (entry.owner != last_owner) {
        slot = static_cast<std::uint32_t>(owner_slot(entry.owner));
        last_owner = entry.owner;
      }
      entry.slot = slot;
      std::size_t& first = index.first[slot * realizations + k];
      if (first == kNoPosition) first = i;
      if (with_pairs) {
        slot_pairs.emplace_back(slot, static_cast<std::uint32_t>(entry.demand.src.value() * regions +
                                                                 entry.demand.dst.value()));
      }
    }
  }
  index.pair_begin.assign(index.ids.size() + 1, 0);
  index.pairs.clear();
  if (with_pairs) {
    std::sort(slot_pairs.begin(), slot_pairs.end());
    slot_pairs.erase(std::unique(slot_pairs.begin(), slot_pairs.end()), slot_pairs.end());
    for (const auto& [owner, code] : slot_pairs) {
      ++index.pair_begin[owner + 1];
      index.pairs.push_back(code);
    }
    for (std::size_t i = 1; i < index.pair_begin.size(); ++i) {
      index.pair_begin[i] += index.pair_begin[i - 1];
    }
  }
  index.current = true;

  // Keep at most kMaxCheckpoints snapshots past the pristine one: a track
  // whose history outgrew them doubles its stride, keeping the even ones.
  for (ReplayTrack& track : tracks_) {
    if (track.valid <= 1) track.stride = kCheckpointStride;
    while (track.history.size() > kMaxCheckpoints * track.stride) {
      track.stride *= 2;
      const std::size_t kept = (track.valid + 1) / 2;
      for (std::vector<double>& snaps : track.snapshots) {
        for (std::size_t j = 1; j < kept; ++j) {
          std::copy_n(snaps.begin() + static_cast<std::ptrdiff_t>(2 * j * checkpoint_links_),
                      checkpoint_links_,
                      snaps.begin() + static_cast<std::ptrdiff_t>(j * checkpoint_links_));
        }
      }
      track.valid = kept;
    }
  }
}

void AdmissionController::reset_checkpoints() {
  checkpoint_links_ = base_capacity_.size();
  for (ReplayTrack& track : tracks_) {
    track.valid = 0;
    track.snapshots.resize(engine_.scenarios().size());
  }
}

std::size_t AdmissionController::owner_slot(ContractId id) const {
  const auto it = std::lower_bound(owners_.ids.begin(), owners_.ids.end(), id);
  NETENT_EXPECTS(it != owners_.ids.end() && *it == id);
  return static_cast<std::size_t>(it - owners_.ids.begin());
}

void AdmissionController::replay_without(std::span<const ContractId> removed, bool owning_only,
                                         ResidualState& out) {
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  const std::size_t realizations = config_.approval.realizations;
  const std::size_t links = checkpoint_links_;
  const topology::SrlgIndex& srlg_index = engine_.simulator().srlg_index();
  NETENT_EXPECTS(owners_.current);

  // Per realization: the position the suffix replay must start at or
  // before — the first removed demand (the history's end when none).
  std::vector<std::size_t> from(realizations, kNoPosition);
  std::vector<std::size_t> selected;
  for (std::size_t k = 0; k < realizations; ++k) {
    for (const ContractId id : removed) {
      from[k] = std::min(from[k], owners_.first[owner_slot(id) * realizations + k]);
    }
    if (from[k] == kNoPosition) {
      if (owning_only) continue;
      from[k] = tracks_[k].history.size();
    }
    selected.push_back(k);
  }
  for (const ContractId id : removed) owners_.skip[owner_slot(id)] = 1;

  out.resize(realizations);
  for (const std::size_t k : selected) out[k].resize(scenario_count);
  const std::size_t cells = selected.size() * scenario_count;
  std::vector<std::size_t> placed(cells, 0);
  std::vector<std::size_t> reused(cells, 0);
  const auto place_range = [&](std::span<const HistoryEntry> entries,
                               std::vector<double>& residual) {
    std::size_t count = 0;
    for (const HistoryEntry& entry : entries) {
      if (owners_.skip[entry.slot] != 0) continue;
      // place_demand's call, with the path lookup it would make done at commit.
      (void)topology::water_fill_demand(entry.demand.amount.value(), entry.paths, residual, {});
      ++count;
    }
    return count;
  };
  executor().for_each(cells, [&](std::size_t, std::size_t c) {
    const std::size_t k = selected[c / scenario_count];
    const std::size_t s = c % scenario_count;
    const ReplayTrack& track = tracks_[k];
    const std::span<const HistoryEntry> history = track.history;
    std::vector<double>& snaps = tracks_[k].snapshots[s];
    std::vector<double>& residual = out[k][s];
    const std::size_t target = from[k] / track.stride;  // the suffix starts at snapshot `target`
    std::size_t j = 0;
    if (track.valid == 0) {
      residual = risk::scenario_capacities(srlg_index, base_capacity_, scenarios[s]);
      snaps.assign(residual.begin(), residual.end());
    } else {
      j = std::min(track.valid - 1, target);
      const auto at = snaps.begin() + static_cast<std::ptrdiff_t>(j * links);
      residual.assign(at, at + static_cast<std::ptrdiff_t>(links));
    }
    reused[c] = j * track.stride;
    // Catch the checkpoints up to `target` (no removed demand lies before
    // it), then re-run the suffix.
    for (; j < target; ++j) {
      placed[c] += place_range(history.subspan(j * track.stride, track.stride), residual);
      if (snaps.size() < (j + 2) * links) snaps.resize((j + 2) * links);
      std::copy(residual.begin(), residual.end(),
                snaps.begin() + static_cast<std::ptrdiff_t>((j + 1) * links));
    }
    placed[c] += place_range(history.subspan(target * track.stride), residual);
  });

  for (const ContractId id : removed) owners_.skip[owner_slot(id)] = 0;
  for (const std::size_t k : selected) {
    ReplayTrack& track = tracks_[k];
    track.valid = std::max(track.valid, from[k] / track.stride + 1);
  }
  std::size_t placed_total = 0;
  std::size_t reused_total = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    placed_total += placed[c];
    reused_total += reused[c];
  }
  ServiceMetrics& m = metrics();
  m.replay_demands_placed.add(placed_total);
  m.replay_demands_reused.add(reused_total);
}

void AdmissionController::drop_checkpoints_after(std::span<const ContractId> changed) {
  const std::size_t realizations = config_.approval.realizations;
  NETENT_EXPECTS(owners_.current);
  for (std::size_t k = 0; k < realizations; ++k) {
    ReplayTrack& track = tracks_[k];
    for (const ContractId id : changed) {
      const std::size_t first = owners_.first[owner_slot(id) * realizations + k];
      if (first != kNoPosition) track.valid = std::min(track.valid, first / track.stride + 1);
    }
  }
}

void AdmissionController::erase_owners(std::span<const ContractId> owners) {
  drop_checkpoints_after(owners);
  for (const ContractId id : owners) owners_.skip[owner_slot(id)] = 1;
  for (ReplayTrack& track : tracks_) {
    std::erase_if(track.history,
                  [&](const HistoryEntry& entry) { return owners_.skip[entry.slot] != 0; });
  }
  owners_.current = false;
}

void AdmissionController::commit_batch(const Batch& batch) {
  const std::size_t scenario_count = engine_.scenarios().size();
  const std::size_t realizations = config_.approval.realizations;
  executor().for_each(realizations * scenario_count, [&](std::size_t, std::size_t c) {
    const std::size_t k = c / scenario_count;
    const std::size_t s = c % scenario_count;
    for (const TaggedDemand& tagged : batch.demands[k]) place_demand(tagged.demand, residual_[k][s]);
  });
  for (std::size_t k = 0; k < realizations; ++k) {
    for (const TaggedDemand& tagged : batch.demands[k]) {
      tracks_[k].history.push_back(
          {tagged.demand, tagged.owner, router_.cached_paths(tagged.demand.src, tagged.demand.dst)});
    }
  }
  owners_.current = false;
}

std::size_t AdmissionController::admitted_count() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return admitted_.size();
}

core::ContractDb AdmissionController::contracts_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return db_;
}

AdmissionController::ResidualState AdmissionController::residual_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residual_;
}

AdmissionController::ResidualState AdmissionController::rebuild_residuals_from_scratch() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residuals_of({});
}

AdmissionController::ResidualState AdmissionController::replay_residuals_without(
    std::span<const ContractId> owners) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  index_owners(false);
  std::vector<ContractId> known;
  for (const ContractId id : owners) {
    if (std::binary_search(owners_.ids.begin(), owners_.ids.end(), id)) known.push_back(id);
  }
  ResidualState state;
  replay_without(known, false, state);
  return state;
}

AdmissionController::ResidualState AdmissionController::rebuild_residuals_from_scratch(
    std::span<const ContractId> owners) const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residuals_of(owners);
}

void AdmissionController::refresh_fastpath(const Batch* dirty_batch) {
  if (fast_.empty()) return;
  if (dirty_batch == nullptr) {
    for (std::size_t k = 0; k < fast_.size(); ++k) fast_[k].rebuild(residual_[k]);
    return;
  }
  // A commit only subtracts capacity, and only on links of the committed
  // demands' candidate paths — re-summarize exactly those links per
  // realization (realizations draw different demand sets).
  std::vector<LinkId> dirty;
  for (std::size_t k = 0; k < fast_.size(); ++k) {
    dirty.clear();
    for (const TaggedDemand& tagged : dirty_batch->demands[k]) {
      const topology::PathList paths =
          router_.cached_paths(tagged.demand.src, tagged.demand.dst);
      NETENT_EXPECTS(paths.valid());
      for (const topology::PathView path : paths) {
        dirty.insert(dirty.end(), path.links.begin(), path.links.end());
      }
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    fast_[k].refresh_links(dirty, residual_[k]);
  }
}

bool AdmissionController::audit_one() {
  AuditRecord record;
  {
    const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
    if (audit_queue_.empty()) return false;
    record = std::move(audit_queue_.front());
    audit_queue_.erase(audit_queue_.begin());
  }
  // state_mutex_ excludes concurrent path-cache warms; the replay itself is
  // the read-only warmed sweep.
  const std::lock_guard<std::mutex> lock(state_mutex_);
  audit_record_locked(record);
  return true;
}

void AdmissionController::audit_record_locked(const AuditRecord& record) {
  ServiceMetrics& m = metrics();
  const std::span<const risk::FailureScenario> scenario_set = engine_.scenarios();
  // The window that queued the record warmed router_ for its demand pairs.
  std::vector<double> exact(record.demands.size(), 0.0);
  {
    const topology::Router::SweepGuard guard(router_);
    // Scatter the snapshotted candidate-path residuals into a full-size
    // scratch vector per scenario; links off the candidate paths are never
    // read by the fill, so their value (0) is irrelevant.
    std::vector<double> scratch(base_capacity_.size(), 0.0);
    topology::RouteResult result;  // reused across scenarios
    for (std::size_t s = 0; s < scenario_set.size(); ++s) {
      for (std::size_t i = 0; i < record.links.size(); ++i) {
        scratch[record.links[i].value()] = record.residuals[s * record.links.size() + i];
      }
      router_.route_warmed_into(record.demands, scratch, result);
      const std::vector<double>& placed = result.placed_per_demand;
      for (std::size_t i = 0; i < record.demands.size(); ++i) {
        if (placed[i] + 1e-9 >= record.demands[i].amount.value()) {
          exact[i] += scenario_set[s].probability;
        }
      }
    }
  }
  for (std::size_t i = 0; i < record.demands.size(); ++i) {
    ++fast_stats_.audited;
    m.fastpath_audited.add();
    if (record.bounds[i] > exact[i] + 1e-9) {
      ++fast_stats_.violations;
      m.fastpath_audit_violations.add();
    }
  }
}

std::size_t AdmissionController::audit_fastpath() {
  std::size_t drained = 0;
  while (audit_one()) ++drained;
  return drained;
}

AdmissionController::FastPathStats AdmissionController::fastpath_stats() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return fast_stats_;
}

std::span<const risk::FailureScenario> AdmissionController::scenarios() const {
  return engine_.scenarios();
}

std::vector<std::vector<double>> AdmissionController::fastpath_headroom_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<std::vector<double>> snapshot;
  snapshot.reserve(fast_.size());
  for (const risk::FastEstimator& estimator : fast_) {
    snapshot.emplace_back(estimator.headroom().begin(), estimator.headroom().end());
  }
  return snapshot;
}

}  // namespace netent::service
