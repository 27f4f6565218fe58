// Platform benchmark: shared types for the three workloads.
//
// Each workload turns a seed into inputs, runs one repetition of its timed
// phase against the libraries' public API and reports what it saw: host
// set-up and wall time, attempted/failed operations, output checks, the
// simulated (sim-clock) results with their fingerprint, per-layer counts
// read from public accessors and -- on traced repetitions -- spans the
// benchmark records around its own calls into each layer. main.cpp repeats
// a workload for the requested time and reduces the repetitions to medians.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Host nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// FNV-1a over 64-bit words, for input and outcome fingerprints.
class Fnv {
 public:
  Fnv& add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
    return *this;
  }
  Fnv& add(double value);
  Fnv& add(std::string_view text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
    return add(static_cast<std::uint64_t>(text.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t value);

// --- Spans --------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";  ///< static layer-call name, e.g. "model.parse"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same log, -1 = group root
};

/// The spans of one group (a scenario, an iteration, a strategy run) in the
/// order they opened. Single-threaded: each scenario owns its own log.
class SpanLog {
 public:
  SpanLog() = default;
  explicit SpanLog(std::string group) : group_(std::move(group)) {}

  std::size_t open(const char* name);
  void close(std::size_t index);

  const std::string& group() const { return group_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Summed duration (s) of every span with this name.
  double total_s(std::string_view name) const;

 private:
  std::string group_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// Scoped span. A null log (the untraced path) records nothing and reads
/// no clock.
class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : 0) {}
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Summed duration (s) of every span with this name across logs.
double total_s(const std::vector<SpanLog>& logs, std::string_view name);

// --- One repetition -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::uint64_t seed = 1;
  /// Threads doing the work, the calling thread included (pools get
  /// workers - 1 helpers).
  std::size_t workers = 1;
  bool traced = false;
  /// Measurement round, 0 for the warm-up. A traced repetition runs the
  /// same round, and so the same inputs, as the untraced one before it.
  std::size_t iteration = 0;
};

struct Iteration {
  double setup_s = 0.0;  ///< host: building the system before the timed phase
  double wall_s = 0.0;   ///< host: the timed phase
  std::uint64_t attempted = 0;
  /// Operations that did not complete (fleet: requests ending with no
  /// schedule at all; dse: results that fail re-verification).
  std::uint64_t failed = 0;
  /// Operations that completed but whose simulated outcome the workload
  /// judges a failure (vehicle_chaos: scenarios whose E13 invariant report
  /// FAILs). Exact for a fixed input block, like every simulated result;
  /// counted in the report's error_rate, not in `failed`.
  std::uint64_t outcome_failures = 0;
  /// Which slice of the seed's inputs this repetition ran; repetitions of
  /// one block must agree on every simulated result.
  std::size_t block = 0;
  /// Output checks that failed; any entry fails the benchmark run.
  std::vector<std::string> check_errors;
  /// Outcome fingerprint: a pure function of the seed and block.
  std::uint64_t fingerprint = 0;
  /// Sim-clock results (exact for a fixed seed) and their report notes.
  std::vector<Metric> simulated;
  std::vector<std::string> notes;
  /// Per-layer counts and ratios; span-derived times only when traced.
  std::vector<Metric> layers;
  std::vector<SpanLog> spans;
  /// Work of the timed phase for the headline rate (sessions, scenarios,
  /// candidates) and the rate's unit.
  double work = 0.0;
  const char* work_unit = "";
};

void set_metric(std::vector<Metric>& metrics, std::string name, double value,
                std::string unit);

/// Ratio that reads 0 when the base is 0.
inline double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

/// Highest percentile of the ladder p50, p90, p99, p99.9, ... that still has
/// at least ten samples beyond it, as nearest rank over `count` samples.
struct TailRank {
  double quantile = 0.5;
  std::uint64_t beyond = 0;
};
TailRank tail_rank(std::uint64_t count);
/// Nearest-rank quantile of already sorted samples (0 when empty).
double nearest_rank(const std::vector<double>& sorted, double quantile);
std::string tail_note(const char* what, const TailRank& tail,
                      std::uint64_t count, double value_ms);

struct Workload {
  const char* name;
  const char* why;
  /// Worker count unless --workers says otherwise (capped at the hardware
  /// threads).
  std::size_t default_workers;
  /// Fingerprint of the inputs the seed generates.
  std::uint64_t (*input_fingerprint)(std::uint64_t seed);
  Iteration (*run)(const Options& options);
};

const Workload& fleet_outage();
const Workload& vehicle_chaos();
const Workload& dse_explore();

}  // namespace perfbench
