// fleet_outage: E22's fleet, at 25k sessions, through a fault wave and a
// full backend crash (bench/bench_fleet.cpp scale_config/
// scale_service_config). 25k rather than E22's 100k tier keeps one
// repetition near 0.2 s, so a run holds over a hundred of them and its
// fastest is a steady figure on a noisy shared host.
//
// The kernel and timer wheel carry a deep queue of same-instant cohorts
// while the service's admission, batching, memo cache and the driver's
// breaker/fallback ladder do the rest; dse sees only the cached syntheses
// and middleware/net see nothing.
#include <algorithm>
#include <memory>

#include "backend/fleet.hpp"
#include "fault/invariants.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace dynaplat;

constexpr std::size_t kSessions = 25'000;
constexpr int kSetupRepeats = 101;
// E22's invariant bounds.
constexpr sim::Duration kUnsafeBound = 2 * sim::kSecond;
constexpr sim::Duration kRecoveryBound = 4 * sim::kSecond;

/// scale_config(25'000, seed): staggered OTA on a 10 ms phase grid, a 50%
/// fault wave at 2 s on top of a full backend crash at 1.5..2.5 s.
backend::FleetConfig fleet_config(std::uint64_t seed) {
  backend::FleetConfig config;
  config.sessions = kSessions;
  config.topology_classes = 32;
  config.seed = seed;
  config.horizon = 6 * sim::kSecond;
  config.ota_period = 2 * sim::kSecond;
  config.ota_phase_grid = 10 * sim::kMillisecond;
  config.wave_at = 2 * sim::kSecond;
  config.wave_fraction = 0.5;
  config.wave_stagger = 500 * sim::kMillisecond;
  config.recovery_retry = 250 * sim::kMillisecond;
  config.outage_at = 1'500 * sim::kMillisecond;
  config.outage_duration = 1 * sim::kSecond;
  config.record_latencies = false;
  return config;
}

/// scale_service_config(25'000, /*batching=*/true).
backend::ServiceConfig service_config() {
  backend::ServiceConfig config;
  config.batching = true;
  config.workers = kSessions / 2'000;
  config.min_service_time = 500 * sim::kMicrosecond;
  config.queue_capacity = 256;
  config.backpressure_watermark = 192;
  config.recovery_reserve = 32;
  return config;
}

std::uint64_t input_fingerprint(std::uint64_t seed) {
  const backend::FleetConfig c = fleet_config(seed);
  const backend::ServiceConfig s = service_config();
  Fnv fnv;
  fnv.add(std::uint64_t{c.sessions})
      .add(std::uint64_t{c.topology_classes})
      .add(c.seed)
      .add(static_cast<std::uint64_t>(c.horizon))
      .add(static_cast<std::uint64_t>(c.ota_period))
      .add(static_cast<std::uint64_t>(c.ota_phase_grid))
      .add(static_cast<std::uint64_t>(c.wave_at))
      .add(c.wave_fraction)
      .add(static_cast<std::uint64_t>(c.wave_stagger))
      .add(static_cast<std::uint64_t>(c.recovery_retry))
      .add(static_cast<std::uint64_t>(c.outage_at))
      .add(static_cast<std::uint64_t>(c.outage_duration))
      .add(std::uint64_t{s.workers})
      .add(static_cast<std::uint64_t>(s.min_service_time))
      .add(std::uint64_t{s.queue_capacity})
      .add(std::uint64_t{s.backpressure_watermark})
      .add(std::uint64_t{s.recovery_reserve});
  return fnv.value();
}

Iteration run(const Options& options) {
  Iteration it;
  it.spans.emplace_back("fleet_outage/iteration " +
                        std::to_string(options.iteration));
  SpanLog* trace = options.traced ? &it.spans.back() : nullptr;

  sim::Simulator simulator;
  std::unique_ptr<backend::FleetScheduleService> service;
  std::unique_ptr<backend::FleetDriver> driver;
  // Construction takes microseconds, so it is repeated and the median
  // kept; the last build is the one that runs.
  std::vector<double> builds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    driver.reset();
    service.reset();
    const std::int64_t setup_start = now_ns();
    Span span(i + 1 == kSetupRepeats ? trace : nullptr, "backend.build");
    service = std::make_unique<backend::FleetScheduleService>(
        simulator, service_config());
    driver = std::make_unique<backend::FleetDriver>(
        simulator, *service, fleet_config(options.seed));
    builds.push_back(seconds_since(setup_start));
  }
  std::sort(builds.begin(), builds.end());
  it.setup_s = builds[builds.size() / 2];

  const std::int64_t run_start = now_ns();
  {
    Span span(trace, "backend.run");
    driver->run();
  }
  it.wall_s = seconds_since(run_start);

  fault::InvariantReport report;
  {
    Span span(trace, "fault.invariants");
    fault::InvariantChecker checker;
    checker.require_backend_drained(*service);
    checker.require_no_stranded_vehicles(*driver, kUnsafeBound);
    checker.require_fleet_recovery_bounded(*driver, kRecoveryBound);
    report = checker.run();
  }

  const backend::FleetDriver& d = *driver;
  const backend::FleetScheduleService& s = *service;
  // Every request the vehicles issued ends in exactly one of these.
  it.attempted = d.ota_completed() + d.ota_deferred() +
                 d.recoveries_completed() + d.fallback_cache() +
                 d.fallback_local() + d.fallback_none();
  it.failed = d.fallback_none() + (report.passed ? 0 : 1);
  if (!report.passed) {
    it.check_errors.push_back("fleet invariants failed:\n" + report.summary());
  }
  it.fingerprint = d.fingerprint();

  const std::uint64_t samples = d.latency_count();
  const TailRank tail = tail_rank(samples);
  const double tail_ms = d.latency_quantile_ms(tail.quantile);
  set_metric(it.simulated, "latency_p50_ms", d.latency_quantile_ms(0.5), "ms");
  set_metric(it.simulated, "latency_tail_ms", tail_ms, "ms");
  set_metric(it.simulated, "max_unsafe_ms",
             static_cast<double>(d.max_unsafe_duration()) / 1e6, "ms");
  it.notes.push_back(
      tail_note("per-request latency (log-bucket histogram)", tail, samples,
                tail_ms));
  it.work = static_cast<double>(kSessions);
  it.work_unit = "sessions/s";

  auto& l = it.layers;
  const double run_s = total_s(it.spans, "backend.run");
  set_metric(l, "sim.events", static_cast<double>(simulator.events_executed()),
             "count");
  set_metric(l, "sim.ns_per_event",
             ratio(run_s * 1e9, static_cast<double>(simulator.events_executed())),
             "ns");
  set_metric(l, "sim.slab_events", static_cast<double>(simulator.slab_capacity()),
             "count");
  set_metric(l, "backend.build_s", total_s(it.spans, "backend.build"), "s");
  set_metric(l, "backend.run_s", run_s, "s");
  set_metric(l, "fault.invariants_s", total_s(it.spans, "fault.invariants"),
             "s");
  set_metric(l, "backend.requests", static_cast<double>(s.requests_total()),
             "count");
  set_metric(l, "backend.dequeues", static_cast<double>(s.dequeues()), "count");
  set_metric(l, "backend.mean_batch",
             ratio(static_cast<double>(s.completed()),
                   static_cast<double>(s.dequeues())),
             "req/dequeue");
  set_metric(l, "backend.cache_hit_rate",
             ratio(static_cast<double>(s.cache_hits()),
                   static_cast<double>(s.cache_hits() + s.cache_misses())),
             "ratio");
  set_metric(l, "backend.synthesis_runs", static_cast<double>(s.synthesis_runs()),
             "count");
  set_metric(l, "backend.shed", static_cast<double>(s.shed_total()), "count");
  set_metric(l, "backend.backpressured", static_cast<double>(s.backpressured()),
             "count");
  set_metric(l, "backend.max_queue_depth",
             static_cast<double>(s.max_queue_depth()), "count");
  set_metric(l, "backend.lost_unreachable",
             static_cast<double>(s.lost_unreachable()), "count");
  set_metric(l, "backend.client.attempts", static_cast<double>(d.attempts()),
             "count");
  set_metric(l, "backend.client.timeouts",
             static_cast<double>(d.client_timeouts()), "count");
  set_metric(l, "backend.client.breaker_opens",
             static_cast<double>(d.client_breaker_opens()), "count");
  set_metric(l, "backend.client.fast_fails",
             static_cast<double>(d.breaker_fast_fails()), "count");
  set_metric(l, "backend.client.fallback_cache",
             static_cast<double>(d.fallback_cache()), "count");
  set_metric(l, "backend.client.fallback_none",
             static_cast<double>(d.fallback_none()), "count");
  set_metric(l, "backend.client.useful_ratio",
             ratio(static_cast<double>(d.ota_completed() +
                                       d.recoveries_completed()),
                   static_cast<double>(d.attempts())),
             "ratio");
  return it;
}

}  // namespace

const Workload& fleet_outage() {
  static const Workload workload{
      "fleet_outage",
      "25k-session fleet through a fault wave and a backend crash: sim kernel, "
      "timer wheel and backend do the work",
      1, input_fingerprint, run};
  return workload;
}

}  // namespace perfbench
