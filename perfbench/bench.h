// Shared pieces of the repo benchmark: clocks and quantiles, the in-memory
// span tracer, per-config deltas of the global obs registry, and the result
// sink that prints every metric with its unit and the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "netent.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Machine-speed calibration. The benchmark shares its machine, and the
/// machine's speed drifts by tens of percent between runs. Every episode,
/// drill, reference ladder step or burst is followed by one pass of a fixed
/// kernel (random reads and writes over 8 MiB plus integer arithmetic), and
/// the gated rates and latencies are expressed at reference speed: the speed
/// at which the kernel takes kReferenceKernelSeconds. Returns the kernel's
/// seconds.
double calibrate();
inline constexpr double kReferenceKernelSeconds = 0.005;

/// A figure at reference speed, given the kernel time measured with it: a
/// time multiplied by kReferenceKernelSeconds / kernel_s, a rate by the
/// inverse.
[[nodiscard]] inline double at_reference_time(double value, double kernel_s) {
  return value * kReferenceKernelSeconds / kernel_s;
}
[[nodiscard]] inline double at_reference_rate(double value, double kernel_s) {
  return value * kernel_s / kReferenceKernelSeconds;
}

/// Set-up times, unscaled and at reference speed. A set-up is short and runs
/// once per repetition, so each is scaled by a calibration pass taken right
/// after it; setup_s is the median of the scaled times.
struct Setups {
  std::vector<double> raw_s;
  std::vector<double> reference_s;
  void add(double seconds) {
    raw_s.push_back(seconds);
    reference_s.push_back(at_reference_time(seconds, calibrate()));
  }
};

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// The two exec configs every admission workload runs, in this order.
struct ExecChoice {
  const char* name;
  std::size_t threads;
  std::size_t shards;
};
inline constexpr ExecChoice kSerial{"serial", 1, 1};
/// Two long-lived shard workers, each sweeping on its own thread. With more
/// than one thread per shard every sweep, commit and rebuild fan-out builds
/// and joins a fresh thread pool, and while other tenants loaded the shared
/// machine those hand-offs made {2 threads, 2 shards} on fleet_churn run 2-3
/// times slower in some runs (A/A spread 0.77 against 0.11 in a quiet set).
inline constexpr ExecChoice kParallel{"parallel", 1, 2};
/// Per-host loop threads of the parallel drill config.
inline constexpr std::size_t kDrillParallelThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory at the public-call boundaries the
// benchmark drives, written out once when the run ends. Disabled tracers
// record nothing and never read the clock.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not tied to one request
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (ids start at 1; 0 when disabled).
  std::uint32_t open(const char* name, std::uint32_t parent = 0, std::uint64_t request = 0);
  void close(std::uint32_t id);
  /// Records that window span `id` served `request`.
  void served(std::uint32_t id, std::uint64_t request);

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  /// Durations (us) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  /// Sum over spans whose name starts with `prefix` of their self time:
  /// duration minus the time their child spans cover.
  [[nodiscard]] double self_seconds(std::string_view prefix) const;
  /// Writes every span as one tab-separated line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> served_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent = 0,
             std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Obs deltas: the global registry is snapshotted when a timed part begins
// and again when it ends, and the differences are summed over the timed parts
// of one config's run (set-ups excluded), so counts of different configs and
// of traced vs untraced passes never mix. Gauges are last-value metrics:
// they are reset when a delta is created, and read at the last end().
// ---------------------------------------------------------------------------

class ObsDelta {
 public:
  ObsDelta();
  void begin();
  void end();

  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double hist_count(std::string_view name) const;
  [[nodiscard]] double hist_sum(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;

 private:
  using Sums = std::map<std::string, double, std::less<>>;
  [[nodiscard]] static double lookup(const Sums& sums, std::string_view name);

  netent::obs::Snapshot before_;
  Sums counters_;
  Sums hist_counts_;
  Sums hist_sums_;
  Sums gauges_;
};

/// ratio = part / whole, 0 when whole is 0.
[[nodiscard]] inline double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

class Report {
 public:
  /// A named end-to-end metric as the issue tracker names it (printed).
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A per-layer metric (printed; emitted in the JSON line when tracing).
  /// `base` is printed beside ratios.
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& base = "");
  /// One of the gated end-to-end metrics listed in BENCHMARK.json.
  void gate(const std::string& name, double value);
  /// Records a correctness check; a failed one fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return correct_; }
  /// Prints the JSON result line (gated metrics, or per-layer ones when
  /// `trace`). Every listed name is emitted; a layer the workload does not
  /// exercise reads 0.
  void print_result(bool trace) const;

 private:
  std::map<std::string, double> gated_;
  std::map<std::string, double> layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// spec_to_json -> parse_spec -> compile_spec, each under a span (children
/// of `parent`). A spec that does not round-trip exactly is an error.
[[nodiscard]] netent::Expected<netent::service::AdmissionRequest> spec_pipeline(
    const netent::spec::EntitlementSpec& spec, std::size_t regions, Tracer& tracer,
    std::uint32_t parent, std::uint64_t request);

/// Prints the environment stamp line.
void print_environment(const Args& args);

/// Fills the per-layer metrics every admission config reports from an obs
/// delta, under `prefix` ("" for serial, "parallel." for parallel).
void report_admission_obs(Report& report, const std::string& prefix, const ObsDelta& obs);

// Workloads. Each returns after filling `report`.
void run_fleet_admit(const Args& args, Report& report);
void run_fleet_churn(const Args& args, Report& report);
void run_open_arrivals(const Args& args, Report& report);
void run_enforce_drill(const Args& args, Report& report);

}  // namespace perfbench
