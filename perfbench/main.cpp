// Platform benchmark: command-line entry point.
//
//   perfbench --workload fleet_outage|vehicle_chaos|dse_explore|all
//             --seed N --seconds S --trace 0|1 [--workers W] [--out-dir D]
//             [--commit C]
//
// Runs one untimed warm-up repetition, then repeats the workload for S
// seconds. --trace 0 prints the end-to-end metrics (setup_s, wall_s,
// peak_rss_mb), each the lowest over the repetitions; --trace 1 alternates
// untraced and traced repetitions and prints the per-layer metrics taken
// from the traced ones, plus obs.trace_overhead_s. Every repetition's output
// checks must pass and its simulated outcome must equal that of the first
// repetition of the same input block. The last stdout line is one JSON object {correct, attempted,
// failed, metrics}; the exit status is nonzero when a check failed. With
// --out-dir, a full report (provenance, simulated results, fingerprints,
// samples) and, when traced, a Chrome trace of the spans are written there.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "bench/common.hpp"
#include "perfbench.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

namespace bench = dynaplat::bench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics, reported by every workload; a layer a workload does
// not call reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.slab_events", "count"},
    {"sim.run_s", "s"},
    {"backend.build_s", "s"},
    {"backend.run_s", "s"},
    {"backend.requests", "count"},
    {"backend.dequeues", "count"},
    {"backend.mean_batch", "req/dequeue"},
    {"backend.cache_hit_rate", "ratio"},
    {"backend.synthesis_runs", "count"},
    {"backend.shed", "count"},
    {"backend.backpressured", "count"},
    {"backend.max_queue_depth", "count"},
    {"backend.lost_unreachable", "count"},
    {"backend.client.attempts", "count"},
    {"backend.client.timeouts", "count"},
    {"backend.client.breaker_opens", "count"},
    {"backend.client.fast_fails", "count"},
    {"backend.client.fallback_cache", "count"},
    {"backend.client.fallback_none", "count"},
    {"backend.client.useful_ratio", "ratio"},
    {"model.parse_s", "s"},
    {"os.ecu_build_s", "s"},
    {"platform.install_s", "s"},
    {"platform.engage_s", "s"},
    {"fault.arm_s", "s"},
    {"fault.invariants_s", "s"},
    {"fault.injected", "count"},
    {"fault.invariant_failures", "count"},
    {"platform.failovers", "count"},
    {"net.frames_delivered", "count"},
    {"net.frames_dropped", "count"},
    {"middleware.messages_sent", "count"},
    {"middleware.messages_received", "count"},
    {"middleware.delivered_ratio", "ratio"},
    {"concurrency.workers", "count"},
    {"concurrency.efficiency", "ratio"},
    {"dse.explorer_new_s", "s"},
    {"dse.greedy_s", "s"},
    {"dse.annealing_s", "s"},
    {"dse.genetic_s", "s"},
    {"dse.candidates", "count"},
    {"dse.cache_hit_rate", "ratio"},
    {"dse.ns_per_candidate", "ns"},
    {"obs.trace_overhead_s", "s"},
};

/// Repetitions below this count keep going past the time budget.
constexpr std::size_t kMinRepetitions = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 0;  ///< 0: each workload's default
  std::string out_dir;
  std::string commit = "unknown";
};

struct Result {
  const Workload* workload = nullptr;
  Options options;
  Iteration warmup;
  /// First repetition of each input block: the reference later ones match.
  std::map<std::size_t, Iteration> first_of_block;
  std::vector<double> setup_s, wall_s, traced_wall_s, peak_rss_mb;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t outcome_failures = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;  ///< end-to-end or per-layer, by --trace
  std::vector<SpanLog> spans;   ///< every traced repetition's spans
  bool correct() const { return errors.empty(); }
  double error_rate() const {
    return ratio(static_cast<double>(failed + outcome_failures),
                 static_cast<double>(attempted));
  }
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Lowest value over the repetitions. On a shared VM a vCPU runs up to
/// 1.8x slower for seconds at a time as neighbours come and go, and that
/// noise only ever adds time: a run's median lands in whichever state held
/// the run longer, while its fastest repetition follows the code. Peak RSS
/// on vehicle_chaos likewise rises when memory-heavy campaigns happen to
/// overlap on the workers, which host timing decides.
double lowest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

double find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

/// Output checks of one repetition, and equality with the first repetition
/// of the same block: the simulated outcome is a pure function of the inputs.
void check(const Iteration& it, Result& result) {
  result.attempted += it.attempted;
  result.failed += it.failed;
  result.outcome_failures += it.outcome_failures;
  for (const std::string& error : it.check_errors) {
    if (std::find(result.errors.begin(), result.errors.end(), error) ==
        result.errors.end()) {
      result.errors.push_back(error);
    }
  }
  const auto [first, inserted] = result.first_of_block.try_emplace(it.block);
  if (inserted) {
    first->second.fingerprint = it.fingerprint;
    first->second.simulated = it.simulated;
    return;
  }
  const Iteration& ref = first->second;
  bool same = it.fingerprint == ref.fingerprint &&
              it.simulated.size() == ref.simulated.size();
  for (std::size_t i = 0; same && i < it.simulated.size(); ++i) {
    same = it.simulated[i].value == ref.simulated[i].value;
  }
  if (!same) {
    result.errors.push_back(
        "simulated outcome changed between repetitions of block " +
        std::to_string(it.block) + " (fingerprint " + hex64(it.fingerprint) +
        " vs " + hex64(ref.fingerprint) + ")");
  }
}

/// Returns freed heap to the kernel and resets VmHWM, so the next read of
/// bench::peak_rss_kb() is the peak of what runs in between.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  return static_cast<double>(bench::peak_rss_kb()) / 1024.0;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

/// Confines the calling thread, and so the pool threads the next repetition
/// starts, to `workers` consecutive CPUs of `cpus` beginning at `turn`.
/// Successive repetitions thus visit every CPU. On a shared VM one vCPU can
/// run 1.5x slower than the others for tens of seconds while a neighbour
/// holds its core; a run that stayed where the scheduler first put it would
/// read that vCPU's speed. A workload with a worker per CPU gets them all.
void place(const std::vector<int>& cpus, std::size_t workers,
           std::size_t turn) {
#if defined(__linux__)
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < std::min(workers, cpus.size()); ++i) {
    CPU_SET(cpus[(turn + i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
#else
  (void)cpus, (void)workers, (void)turn;
#endif
}

Result measure(const Workload& workload, const Args& args) {
  Result result;
  result.workload = &workload;
  result.options.seed = args.seed;
  result.options.workers =
      args.workers != 0
          ? args.workers
          : std::min(workload.default_workers,
                     std::max<std::size_t>(
                         std::thread::hardware_concurrency(), 1));

  // Read once: after the first workload the mask is a placement's.
  static const std::vector<int> cpus = allowed_cpus();
  std::size_t turn = 0;
  const auto repeat = [&](bool traced, std::size_t round) {
    Options options = result.options;
    options.traced = traced;
    options.iteration = round;
    place(cpus, options.workers, turn++);
    reset_peak_rss();
    Iteration it = workload.run(options);
    if (!traced) result.peak_rss_mb.push_back(peak_rss_mb());
    check(it, result);
    return it;
  };

  place(cpus, result.options.workers, turn++);
  result.warmup = workload.run(result.options);
  check(result.warmup, result);

  std::vector<std::vector<Metric>> layer_samples;
  const std::int64_t start = now_ns();
  const auto more = [&](std::size_t done) {
    return done < kMinRepetitions || seconds_since(start) < args.seconds;
  };
  while (more(args.trace ? layer_samples.size() : result.wall_s.size())) {
    const std::size_t round = result.wall_s.size() + 1;
    Iteration it = repeat(false, round);
    result.setup_s.push_back(it.setup_s);
    result.wall_s.push_back(it.wall_s);
    if (!args.trace) continue;
    Iteration traced = repeat(true, round);
    result.traced_wall_s.push_back(traced.wall_s);
    layer_samples.push_back(std::move(traced.layers));
    for (SpanLog& log : traced.spans) result.spans.push_back(std::move(log));
  }

  if (!args.trace) {
    result.metrics = {
        {"setup_s", lowest(result.setup_s), "s"},
        {"wall_s", lowest(result.wall_s), "s"},
        {"peak_rss_mb", lowest(result.peak_rss_mb), "MB"},
    };
    return result;
  }
  for (const MetricDef& def : kPerLayer) {
    std::vector<double> values;
    for (const std::vector<Metric>& sample : layer_samples) {
      values.push_back(find(sample, def.name));
    }
    result.metrics.push_back({def.name, median(values), def.unit});
  }
  set_metric(result.metrics, "obs.trace_overhead_s",
             lowest(result.traced_wall_s) - lowest(result.wall_s), "s");
  return result;
}

// --- Reporting -------------------------------------------------------------------

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void provenance_json(JsonWriter& json, const Args& args,
                     std::size_t workers) {
  const bench::HostInfo host = bench::host_info();
  json.key("provenance").begin_object();
  json.key("hardware_threads").value(std::uint64_t{host.hardware_threads});
  json.key("cpu_model").value(host.cpu_model);
  json.key("os").value(host.os);
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("compiler").value(compiler());
  json.key("commit").value(args.commit);
  json.key("seed").value(args.seed);
  json.key("workers").value(std::uint64_t{workers});
  json.key("seconds").value(args.seconds);
  json.key("trace").value(args.trace);
  json.end_object();
}

void metrics_json(JsonWriter& json, const std::vector<Metric>& metrics,
                  const std::string& prefix = "") {
  for (const Metric& metric : metrics) {
    json.key(prefix + metric.name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
}

void samples_json(JsonWriter& json, const char* name,
                  const std::vector<double>& values) {
  json.key(name).begin_array();
  for (const double v : values) json.value(v);
  json.end_array();
}

std::string report_json(const Result& r, const Args& args) {
  const Iteration& w = r.warmup;
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(r.workload->name);
  json.key("why").value(r.workload->why);
  provenance_json(json, args, r.options.workers);
  json.key("correct").value(r.correct());
  json.key("attempted").value(r.attempted);
  json.key("failed").value(r.failed);
  json.key("outcome_failures").value(r.outcome_failures);
  json.key("error_rate").value(r.error_rate());
  json.key("checks").begin_array();
  for (const std::string& error : r.errors) json.value(error);
  json.end_array();
  json.key("input_fingerprint")
      .value(hex64(r.workload->input_fingerprint(args.seed)));
  json.key("outcome_fingerprint").value(hex64(w.fingerprint));
  json.key("block_fingerprints").begin_object();
  for (const auto& [block, first] : r.first_of_block) {
    json.key(std::to_string(block)).value(hex64(first.fingerprint));
  }
  json.end_object();
  json.key("simulated").begin_object();
  metrics_json(json, w.simulated);
  json.end_object();
  json.key("notes").begin_array();
  for (const std::string& note : w.notes) json.value(note);
  json.end_array();
  json.key("metrics").begin_object();
  metrics_json(json, r.metrics);
  json.end_object();
  json.key("headline").begin_object();
  json.key("value").value(ratio(w.work, lowest(r.wall_s)));
  json.key("unit").value(w.work_unit);
  json.end_object();
  json.key("samples").begin_object();
  samples_json(json, "setup_s", r.setup_s);
  samples_json(json, "wall_s", r.wall_s);
  samples_json(json, "traced_wall_s", r.traced_wall_s);
  samples_json(json, "peak_rss_mb", r.peak_rss_mb);
  json.end_object();
  json.end_object();
  return json.str();
}

void print_report(const Result& r, const Args& args) {
  const Iteration& w = r.warmup;
  const bench::HostInfo host = bench::host_info();
  std::printf("### %s -- %s\n", r.workload->name, r.workload->why);
  std::printf(
      "provenance: hardware_threads=%u cpu=\"%s\" os=\"%s\" build=%s "
      "compiler=\"%s\" commit=%s seed=%llu workers=%zu\n",
      host.hardware_threads, host.cpu_model.c_str(), host.os.c_str(),
      PERFBENCH_BUILD_TYPE, compiler().c_str(), args.commit.c_str(),
      static_cast<unsigned long long>(args.seed), r.options.workers);
  std::printf("repetitions: %zu untraced, %zu traced (+1 warm-up)\n",
              r.wall_s.size(), r.traced_wall_s.size());
  std::printf("input fingerprint %s, outcome fingerprint %s\n",
              hex64(r.workload->input_fingerprint(args.seed)).c_str(),
              hex64(w.fingerprint).c_str());
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : r.metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    std::printf("%-34s %16.6g  %s\n", "wall_s (untraced fastest)",
                lowest(r.wall_s), "s");
  }
  std::printf("%-34s %16.6g  %s\n", "error_rate", r.error_rate(),
              "(failed + outcome failures)/attempted");
  for (const Metric& m : w.simulated) {
    std::printf("%-34s %16.6g  %s (sim)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%-34s %16.6g  %s (from wall_s)\n", "headline",
              ratio(w.work, lowest(r.wall_s)), w.work_unit);
  for (const std::string& note : w.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& error : r.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("verdict: %s\n\n", r.correct() ? "PASS" : "FAIL");
}

void write_outputs(const Result& r, const Args& args, std::int64_t origin_ns) {
  if (args.out_dir.empty()) return;
  std::error_code ignored;
  std::filesystem::create_directories(args.out_dir, ignored);
  const std::string base = args.out_dir + "/" + r.workload->name;
  if (!write_text_file(base + ".report.json", report_json(r, args) + "\n")) {
    std::fprintf(stderr, "cannot write %s.report.json\n", base.c_str());
  }
  if (args.trace &&
      !write_span_trace(r.spans, origin_ns, base + ".trace.json")) {
    std::fprintf(stderr, "cannot write %s.trace.json\n", base.c_str());
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_outage|vehicle_chaos|dse_explore|all --seed N "
               "--seconds S --trace 0|1 [--workers W] [--out-dir D] "
               "[--commit C]\n",
               why);
  return 2;
}

bool parse_uint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

int run_main(int argc, char** argv) {
  Args args;
  std::uint64_t trace = 0, workers = 0, seconds = 0;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, &args.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_uint(value, &seconds) || seconds == 0) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_uint(value, &trace) || trace > 1) return usage("bad --trace");
    } else if (flag == "--workers") {
      if (!parse_uint(value, &workers) || workers == 0) {
        return usage("bad --workers");
      }
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (have_seconds) args.seconds = static_cast<double>(seconds);
  args.trace = trace == 1;
  args.workers = static_cast<std::size_t>(workers);

  std::vector<const Workload*> selected;
  for (const Workload* w : {&fleet_outage(), &vehicle_chaos(), &dse_explore()}) {
    if (args.workload == w->name || args.workload == "all") {
      selected.push_back(w);
    }
  }
  if (selected.empty()) return usage("unknown or missing --workload");

  const std::int64_t origin_ns = now_ns();
  std::vector<Result> results;
  for (const Workload* workload : selected) {
    results.push_back(measure(*workload, args));
    print_report(results.back(), args);
    write_outputs(results.back(), args, origin_ns);
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const Result& r : results) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
  }
  JsonWriter json;
  json.begin_object();
  json.key("correct").value(correct);
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("metrics").begin_object();
  for (const Result& r : results) {
    metrics_json(json, r.metrics,
                 results.size() > 1 ? std::string(r.workload->name) + "." : "");
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
