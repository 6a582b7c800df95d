#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics (BENCHMARK.json "end_to_end"). Each is
/// defined for every workload; main.cpp's usage text and README.md give the
/// per-workload meaning.
constexpr MetricDef kGated[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},      {"serial_rate", "1/s"},
    {"parallel_rate", "1/s"}, {"serial_mean_ms", "ms"},   {"parallel_mean_ms", "ms"},
};

/// The per-layer metrics (BENCHMARK.json "per_layer"). A layer a workload
/// does not run reads 0 there.
constexpr MetricDef kLayers[] = {
    {"spec.calls", "count"},
    {"spec.busy_s", "s"},
    {"spec.parse_us_p50", "us"},
    {"spec.compile_us_p50", "us"},
    {"spec.errors", "count"},
    {"policy.resolutions", "count"},
    {"policy.busy_s", "s"},
    {"policy.give_ups", "count"},
    {"service.windows", "count"},
    {"service.window_size_mean", "count"},
    {"service.admit_window_ms_p50", "ms"},
    {"service.admit_window_ms_p99", "ms"},
    {"service.churn_window_ms_p50", "ms"},
    {"service.churn_window_ms_p99", "ms"},
    {"service.topology_window_ms_p50", "ms"},
    {"service.topology_window_ms_p99", "ms"},
    {"service.busy_s", "s"},
    {"service.rebuilds", "count"},
    {"service.committed_demands", "count"},
    {"service.queue_wait_ms_mean", "ms"},
    {"service.audit_s", "s"},
    {"service.audited", "count"},
    {"service.shard.jobs", "count"},
    {"service.contracts_reverified", "count"},
    {"service.contracts_shrunk", "count"},
    {"service.contracts_revoked", "count"},
    {"approval.admit_ratio", "ratio"},
    {"approval.counter_proposals", "count"},
    {"risk.sweeps", "count"},
    {"risk.scenarios_swept", "count"},
    {"risk.scenario_place_s", "s"},
    {"risk.sweep.threads", "count"},
    {"risk.sweep.utilization_pct", "%"},
    {"risk.fastpath.hit_ratio", "ratio"},
    {"risk.fastpath.audit_violations", "count"},
    {"risk.replay.skip_ratio", "ratio"},
    {"topology.mutations_applied", "count"},
    {"sim.events_executed", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.per_host_tick_ns", "ns"},
    {"sim.flows_classified", "count"},
    {"enforce.ratestore.publishes", "count"},
    {"enforce.ratestore.reads", "count"},
    {"enforce.ratestore.empty_read_ratio", "ratio"},
    {"enforce.ratestore.read_staleness_s_mean", "s"},
    {"open.generator_late_ms_max", "ms"},
    {"open.backlog_end", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.self_s.spec", "s"},
    {"trace.self_s.policy", "s"},
    {"trace.self_s.service", "s"},
    {"trace.self_s.sim", "s"},
    {"parallel.service.windows", "count"},
    {"parallel.service.busy_s", "s"},
    {"parallel.service.rebuilds", "count"},
    {"parallel.service.shard.jobs", "count"},
    {"parallel.service.admit_window_ms_p50", "ms"},
    {"parallel.service.admit_window_ms_p99", "ms"},
    {"parallel.service.churn_window_ms_p99", "ms"},
    {"parallel.service.topology_window_ms_p99", "ms"},
    {"parallel.risk.sweep.threads", "count"},
    {"parallel.risk.sweep.utilization_pct", "%"},
    {"parallel.risk.fastpath.hit_ratio", "ratio"},
    {"parallel.trace.overhead_pct", "%"},
    {"parallel.trace.self_s.service", "s"},
    {"parallel.sim.events_per_s", "1/s"},
    {"parallel.sim.per_host_tick_ns", "ns"},
};

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out << std::setprecision(10) << value;
  return out.str();
}

template <typename Entry>
const Entry* find_named(const std::vector<Entry>& entries, std::string_view name) {
  for (const Entry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double calibrate() {
  constexpr std::size_t kWords = std::size_t{1} << 20;  // 8 MiB
  static std::vector<std::uint64_t> cells(kWords, 1);
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& cell = cells[x & (kWords - 1)];
    cell = cell * 6364136223846793005ULL + (x >> 3);
    sum += cell >> 17;
  }
  const double seconds = seconds_between(start, Clock::now());
  static volatile std::uint64_t sink = 0;
  sink = sink + sum;
  return seconds;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  span.end_us = -1.0;
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

void Tracer::served(std::uint32_t id, std::uint64_t request) {
  if (id != 0) served_.emplace_back(id, request);
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_us >= 0.0 && name == span.name) out.push_back(span.end_us - span.start_us);
  }
  return out;
}

double Tracer::self_seconds(std::string_view prefix) const {
  // Children are recorded after their parent and lie inside it, so the
  // covered time of a parent is the sum of its direct children.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0 && span.end_us >= 0.0) {
      child_us[span.parent - 1] += span.end_us - span.start_us;
    }
  }
  double total_us = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_us < 0.0 || std::string_view(span.name).substr(0, prefix.size()) != prefix) {
      continue;
    }
    total_us += std::max(0.0, span.end_us - span.start_us - child_us[i]);
  }
  return total_us * 1e-6;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# id\tname\tstart_us\tend_us\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i + 1) << '\t' << span.name << '\t' << std::fixed << std::setprecision(1)
        << span.start_us << '\t' << span.end_us << '\t' << span.parent << '\t'
        << span.request << '\n';
  }
  out << "# served: window span id -> request id\n";
  for (const auto& [id, request] : served_) out << "served\t" << id << '\t' << request << '\n';
}

// --- ObsDelta ----------------------------------------------------------------

ObsDelta::ObsDelta() {
  netent::obs::Registry& registry = netent::obs::Registry::global();
  for (const netent::obs::GaugeSnapshot& gauge : registry.snapshot().gauges) {
    registry.gauge(gauge.name, gauge.timing).reset();
  }
}

void ObsDelta::begin() { before_ = netent::obs::Registry::global().snapshot(); }

void ObsDelta::end() {
  const netent::obs::Snapshot after = netent::obs::Registry::global().snapshot();
  for (const auto& counter : after.counters) {
    const auto* before = find_named(before_.counters, counter.name);
    counters_[counter.name] +=
        static_cast<double>(counter.value - (before != nullptr ? before->value : 0));
  }
  for (const auto& hist : after.histograms) {
    const auto* before = find_named(before_.histograms, hist.name);
    hist_counts_[hist.name] +=
        static_cast<double>(hist.total_count - (before != nullptr ? before->total_count : 0));
    hist_sums_[hist.name] += hist.sum - (before != nullptr ? before->sum : 0.0);
  }
  for (const auto& gauge : after.gauges) gauges_[gauge.name] = gauge.value;
}

double ObsDelta::lookup(const Sums& sums, std::string_view name) {
  const auto it = sums.find(name);
  return it != sums.end() ? it->second : 0.0;
}

double ObsDelta::counter(std::string_view name) const { return lookup(counters_, name); }
double ObsDelta::hist_count(std::string_view name) const { return lookup(hist_counts_, name); }
double ObsDelta::hist_sum(std::string_view name) const { return lookup(hist_sums_, name); }
double ObsDelta::gauge(std::string_view name) const { return lookup(gauges_, name); }

// --- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  std::cout << "metric " << name << " = " << format_number(value) << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

void Report::layer(const std::string& name, double value, const std::string& unit,
                   const std::string& base) {
  layers_[name] = value;
  std::cout << "layer " << name << " = " << format_number(value) << ' ' << unit;
  if (!base.empty()) std::cout << "  [" << base << ']';
  std::cout << '\n';
}

void Report::gate(const std::string& name, double value) { gated_[name] = value; }

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  std::cout << "check " << name << ": " << (ok ? "ok" : "FAILED");
  if (!detail.empty()) std::cout << " (" << detail << ')';
  std::cout << '\n';
  correct_ = correct_ && ok;
}

void Report::print_result(bool trace) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": "
      << std::max<std::uint64_t>(attempted_, 1) << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& def, const std::map<std::string, double>& values) {
    const auto it = values.find(def.name);
    out << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": "
        << format_number(it != values.end() ? it->second : 0.0) << ", \"unit\": \"" << def.unit
        << "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& def : kLayers) emit(def, layers_);
  } else {
    for (const MetricDef& def : kGated) emit(def, gated_);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

netent::Expected<netent::service::AdmissionRequest> spec_pipeline(
    const netent::spec::EntitlementSpec& spec, std::size_t regions, Tracer& tracer,
    std::uint32_t parent, std::uint64_t request) {
  using netent::ErrorCode;
  std::string text;
  {
    const ScopedSpan span(tracer, "spec.to_json", parent, request);
    text = netent::spec::spec_to_json(spec);
  }
  netent::Expected<netent::spec::EntitlementSpec> parsed =
      netent::Error{ErrorCode::invalid_argument, "unparsed"};
  {
    const ScopedSpan span(tracer, "spec.parse", parent, request);
    parsed = netent::spec::parse_spec(text);
  }
  if (!parsed.has_value()) return parsed.error();
  if (!(*parsed == spec)) return netent::Error{ErrorCode::parse_error, "spec round trip differs"};
  const ScopedSpan span(tracer, "spec.compile", parent, request);
  return netent::spec::compile_spec(*parsed, regions);
}

void print_environment(const Args& args) {
  const std::string flags = NETENT_BENCH_CXX_FLAGS;
  const std::size_t march = flags.find("-march=");
  std::cout << "env {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << NETENT_BENCH_COMPILER << "\", \"build_type\": \""
            << NETENT_BENCH_BUILD_TYPE << "\", \"cxx_flags\": \"" << flags
            << "\", \"march\": \""
            << (march == std::string::npos ? "none"
                                           : flags.substr(march, flags.find(' ', march) - march))
            << "\", \"netent_obs\": \"" << (netent::obs::kEnabled ? "ON" : "OFF")
            << "\", \"serial\": {\"threads\": " << kSerial.threads
            << ", \"shards\": " << kSerial.shards
            << "}, \"parallel\": {\"threads\": " << kParallel.threads
            << ", \"shards\": " << kParallel.shards
            << "}, \"drill\": {\"serial_threads\": 1, \"parallel_threads\": "
            << kDrillParallelThreads << "}, \"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";
}

void report_admission_obs(Report& report, const std::string& prefix, const ObsDelta& obs) {
  const auto fmt = [](double a, double b) {
    return format_number(a) + "/" + format_number(b);
  };
  const double windows = obs.counter("service.admission.windows");
  report.layer(prefix + "service.windows", windows, "count");
  report.layer(prefix + "service.window_size_mean",
               ratio(obs.hist_sum("service.admission.window_size"),
                     obs.hist_count("service.admission.window_size")),
               "count");
  report.layer(prefix + "service.busy_s", obs.hist_sum("service.admission.window_seconds"), "s");
  report.layer(prefix + "service.rebuilds", obs.counter("service.admission.rebuilds"), "count");
  report.layer(prefix + "service.committed_demands",
               obs.counter("service.admission.committed_demands"), "count");
  report.layer(prefix + "service.audited", obs.counter("risk.fastpath.audited"), "count");
  report.layer(prefix + "service.shard.jobs", obs.counter("service.admission.shard.jobs"),
               "count");
  report.layer(prefix + "service.contracts_reverified",
               obs.counter("service.admission.contracts_reverified"), "count");
  report.layer(prefix + "service.contracts_shrunk",
               obs.counter("service.admission.contracts_shrunk"), "count");
  report.layer(prefix + "service.contracts_revoked",
               obs.counter("service.admission.contracts_revoked"), "count");
  report.layer(prefix + "approval.counter_proposals",
               obs.counter("service.admission.counter_proposals"), "count");
  report.layer(prefix + "policy.resolutions", obs.counter("spec.policy.resolutions"), "count");
  report.layer(prefix + "policy.give_ups", obs.counter("spec.policy.give_up"), "count");
  report.layer(prefix + "risk.sweeps", obs.counter("risk.sweeps"), "count");
  report.layer(prefix + "risk.scenarios_swept", obs.counter("risk.scenarios_swept"), "count");
  report.layer(prefix + "risk.scenario_place_s", obs.hist_sum("risk.scenario_place_seconds"),
               "s");
  report.layer(prefix + "risk.sweep.threads", obs.gauge("risk.sweep.threads"), "count");
  report.layer(prefix + "risk.sweep.utilization_pct", obs.gauge("risk.sweep.utilization_pct"),
               "%");
  const double hits = obs.counter("risk.fastpath.hits");
  const double fallbacks = obs.counter("risk.fastpath.fallbacks");
  report.layer(prefix + "risk.fastpath.hit_ratio", ratio(hits, hits + fallbacks), "ratio",
               fmt(hits, hits + fallbacks) + " realizations");
  report.layer(prefix + "risk.fastpath.audit_violations",
               obs.counter("risk.fastpath.audit_violations"), "count");
  const double skipped = obs.counter("risk.replay.demands_skipped");
  const double replayed = obs.counter("risk.replay.demands_replayed");
  report.layer(prefix + "risk.replay.skip_ratio", ratio(skipped, skipped + replayed), "ratio",
               fmt(skipped, skipped + replayed) + " demands");
  report.layer(prefix + "topology.mutations_applied",
               obs.counter("service.admission.mutations_applied"), "count");
}

}  // namespace perfbench
