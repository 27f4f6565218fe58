// Fleet backend robustness (ISSUE 9): FleetScheduleService admission /
// shedding / backpressure / cross-vehicle cache / failure modes, the
// vehicle-side BackendClient circuit breaker + fallback ladder, the
// jittered reliable-transport retransmit backoff, the bounded diagnostics
// uplink queue, and fleet-scale outage survival under ScenarioSweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "backend/client.hpp"
#include "backend/fleet.hpp"
#include "backend/service.hpp"
#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "net/ethernet.hpp"
#include "platform/diagnostics.hpp"
#include "platform/platform.hpp"
#include "platform/recovery.hpp"
#include "sim/sweep.hpp"

namespace dynaplat {
namespace {

using backend::BackendClient;
using backend::BackendOutcome;
using backend::BreakerState;
using backend::ClientConfig;
using backend::Criticality;
using backend::FleetConfig;
using backend::FleetDriver;
using backend::FleetScheduleService;
using backend::ResponseStatus;
using backend::ServiceConfig;
using backend::SynthesisRequest;
using backend::SynthesisResponse;

dse::AnalysisTask analysis_task(const std::string& name, sim::Duration period,
                                sim::Duration wcet, int priority) {
  dse::AnalysisTask t;
  t.name = name;
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.priority = priority;
  t.deterministic = true;
  return t;
}

std::vector<dse::AnalysisTask> feasible_set() {
  return {analysis_task("a", 10 * sim::kMillisecond, sim::kMillisecond, 1),
          analysis_task("b", 20 * sim::kMillisecond, 2 * sim::kMillisecond, 2)};
}

std::vector<dse::AnalysisTask> infeasible_set() {
  return {analysis_task("x", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 1),
          analysis_task("y", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 2)};
}

/// A request's shared, immutable task-set handle.
backend::TaskSetHandle share(std::vector<dse::AnalysisTask> tasks) {
  return std::make_shared<const backend::TaskSet>(std::move(tasks));
}

/// Field-by-field artifact equality (the artifact has no operator==).
void expect_same_artifact(const dse::ScheduleServer::Artifact& a,
                          const dse::ScheduleServer::Artifact& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.validated, b.validated);
  EXPECT_EQ(a.synthesis_instructions, b.synthesis_instructions);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.table.cycle, b.table.cycle);
  ASSERT_EQ(a.table.windows.size(), b.table.windows.size());
  for (std::size_t i = 0; i < a.table.windows.size(); ++i) {
    EXPECT_EQ(a.table.windows[i].offset, b.table.windows[i].offset);
    EXPECT_EQ(a.table.windows[i].length, b.table.windows[i].length);
    EXPECT_EQ(a.table.windows[i].task, b.table.windows[i].task);
  }
}

// --- FleetScheduleService -----------------------------------------------------

TEST(FleetBackend, SubmitDeliversFeasibleArtifactAfterSimLatency) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.tasks = share(feasible_set());
  SynthesisResponse seen;
  sim::Time delivered_at = 0;
  service.submit(request, [&](const SynthesisResponse& response) {
    seen = response;
    delivered_at = simulator.now();
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(seen.status, ResponseStatus::kOk);
  EXPECT_TRUE(seen.artifact().feasible);
  EXPECT_TRUE(seen.artifact().validated);
  EXPECT_FALSE(seen.cache_hit);
  // At least the round trip plus the service-time floor elapsed.
  EXPECT_GE(delivered_at, service.config().uplink_rtt +
                              service.config().min_service_time);
  EXPECT_EQ(service.completed(), 1u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(FleetBackend, CrossVehicleCacheSharesOneSynthesis) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.tasks = share(feasible_set());
  int ok = 0;
  int hits = 0;
  for (std::uint32_t session = 0; session < 5; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kOk) ++ok;
      if (response.cache_hit) ++hits;
    });
  }
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(hits, 4);  // one miss synthesizes, four sessions share it
  EXPECT_EQ(service.synthesis_runs(), 1u);
  EXPECT_EQ(service.cache_entries(), 1u);
}

TEST(FleetBackend, SaturatedQueueShedsRoutineAndPreemptsForRecovery) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.queue_capacity = 2;
  config.backpressure_watermark = 2;  // never backpressure below full
  config.recovery_reserve = 0;        // force the preemption path
  config.workers = 1;
  config.min_service_time = 10 * sim::kMillisecond;
  FleetScheduleService service(simulator, config);

  std::vector<ResponseStatus> ota_status(3, ResponseStatus::kUnreachable);
  SynthesisRequest ota;
  ota.criticality = Criticality::kOta;
  ota.tasks = share(feasible_set());
  for (int i = 0; i < 3; ++i) {
    service.submit(ota, [&ota_status, i](const SynthesisResponse& response) {
      ota_status[static_cast<std::size_t>(i)] = response.status;
    });
  }
  SynthesisRequest recovery;
  recovery.criticality = Criticality::kRecovery;
  recovery.tasks = share(feasible_set());
  ResponseStatus recovery_status = ResponseStatus::kUnreachable;
  service.submit(recovery, [&](const SynthesisResponse& response) {
    recovery_status = response.status;
  });
  simulator.run_until(sim::seconds(2));

  // OTA 1 ran, OTA 3 was shed at the full queue, OTA 2 was preempted (its
  // worker reservation reclaimed) so the recovery remap got its slot.
  EXPECT_EQ(ota_status[0], ResponseStatus::kOk);
  EXPECT_EQ(ota_status[2], ResponseStatus::kShed);
  EXPECT_EQ(ota_status[1], ResponseStatus::kShed);
  EXPECT_EQ(recovery_status, ResponseStatus::kOk);
  EXPECT_EQ(service.preempted(), 1u);
  EXPECT_GE(service.shed(Criticality::kOta), 2u);
  EXPECT_EQ(service.shed(Criticality::kRecovery), 0u);
}

// Regression: shed/backpressure verdicts ride the downlink for uplink_rtt
// before the vehicle sees them. Those in-flight rejection notices must not
// count toward admission depth, or a saturated backend rejects new work on
// the strength of its own reject traffic — a self-sustaining congestion
// state the fleet bench used to collapse into at 10k sessions.
TEST(FleetBackend, RejectTrafficCarriesNoAdmissionWeight) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.queue_capacity = 1;
  config.backpressure_watermark = 1;
  config.recovery_reserve = 1;
  config.workers = 1;
  config.min_service_time = 100 * sim::kMillisecond;
  config.uplink_rtt = 10 * sim::kMillisecond;
  FleetScheduleService service(simulator, config);

  // A recovery occupies the single real queue slot (not preemptible).
  SynthesisRequest recovery;
  recovery.criticality = Criticality::kRecovery;
  recovery.tasks = share(feasible_set());
  ResponseStatus first_status = ResponseStatus::kUnreachable;
  service.submit(recovery, [&](const SynthesisResponse& response) {
    first_status = response.status;
  });

  // Flood with routine work: every request is rejected and each verdict
  // is now in flight on the downlink for 10 ms.
  SynthesisRequest ota;
  ota.criticality = Criticality::kOta;
  ota.tasks = share(feasible_set());
  for (int i = 0; i < 8; ++i) {
    service.submit(ota, [](const SynthesisResponse&) {});
  }
  EXPECT_EQ(service.shed(Criticality::kOta), 8u);
  EXPECT_EQ(service.queue_depth(), 1u);  // rejects carry no weight

  // While those 8 verdicts are still undelivered, a second recovery must
  // still find the reserve slot.
  ResponseStatus second_status = ResponseStatus::kUnreachable;
  service.submit(recovery, [&](const SynthesisResponse& response) {
    second_status = response.status;
  });
  simulator.run_until(sim::seconds(1));

  EXPECT_EQ(first_status, ResponseStatus::kOk);
  EXPECT_EQ(second_status, ResponseStatus::kOk);
  EXPECT_EQ(service.shed(Criticality::kRecovery), 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(FleetBackend, BackpressureDefersRoutineWithGrowingHint) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.queue_capacity = 16;
  config.backpressure_watermark = 2;
  config.workers = 1;
  config.min_service_time = 10 * sim::kMillisecond;
  FleetScheduleService service(simulator, config);

  SynthesisRequest ota;
  ota.criticality = Criticality::kOta;
  ota.tasks = share(feasible_set());
  std::vector<SynthesisResponse> rejected;
  for (int i = 0; i < 2; ++i) {
    service.submit(ota, [](const SynthesisResponse&) {});
  }
  SynthesisRequest resync = ota;
  resync.criticality = Criticality::kResync;
  ResponseStatus resync_status = ResponseStatus::kUnreachable;
  service.submit(resync, [&](const SynthesisResponse& response) {
    resync_status = response.status;
  });
  // Above the watermark: routine work is deferred, not queued.
  for (int i = 0; i < 2; ++i) {
    service.submit(ota, [&](const SynthesisResponse& response) {
      rejected.push_back(response);
    });
  }
  simulator.run_until(sim::seconds(2));

  ASSERT_EQ(rejected.size(), 2u);
  EXPECT_EQ(rejected[0].status, ResponseStatus::kRetryAfter);
  EXPECT_EQ(rejected[1].status, ResponseStatus::kRetryAfter);
  EXPECT_GT(rejected[0].retry_after, 0);
  EXPECT_GE(rejected[1].retry_after, rejected[0].retry_after);
  EXPECT_GE(service.backpressured(), 2u);
  // The watermark only gates kOta: the resync took a normal slot.
  EXPECT_EQ(resync_status, ResponseStatus::kOk);
}

TEST(FleetBackend, CrashLosesOutstandingAndPartitionDropsResponses) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.tasks = share(feasible_set());

  int callbacks = 0;
  service.submit(request, [&](const SynthesisResponse&) { ++callbacks; });
  simulator.schedule_at(sim::kMillisecond, [&] { service.crash(); });
  simulator.run_until(sim::seconds(1));
  // Crash cancelled the outstanding completion: the client's timeout is
  // the only signal, exactly like a dead backend in the field.
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.crashes(), 1u);

  // While crashed, submissions are silently lost.
  service.submit(request, [&](const SynthesisResponse&) { ++callbacks; });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(callbacks, 0);
  EXPECT_GE(service.lost_unreachable(), 1u);

  // Partition: the request is accepted-side invisible; an in-flight
  // response is dropped at delivery time.
  service.restart();
  service.submit(request, [&](const SynthesisResponse&) { ++callbacks; });
  simulator.schedule_at(simulator.now() + sim::kMillisecond,
                        [&] { service.set_partitioned(true); });
  simulator.run_until(sim::seconds(3));
  EXPECT_EQ(callbacks, 0);
  EXPECT_GE(service.responses_dropped(), 1u);
  service.set_partitioned(false);
}

// --- ScheduleServer error paths ----------------------------------------------

TEST(ScheduleServerErrors, InfeasibleUnderConcurrentCallers) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.tasks = share(infeasible_set());
  int infeasible = 0;
  std::set<std::string> reasons;
  for (std::uint32_t session = 0; session < 8; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kInfeasible) ++infeasible;
      EXPECT_FALSE(response.artifact().feasible);
      reasons.insert(response.artifact().reason);
    });
  }
  simulator.run_until(sim::seconds(2));
  // Every concurrent caller gets the same deterministic verdict, and the
  // negative result is memoized like any other artifact.
  EXPECT_EQ(infeasible, 8);
  EXPECT_EQ(reasons.size(), 1u);
  EXPECT_EQ(service.synthesis_runs(), 1u);
}

TEST(ScheduleServerErrors, CacheHitMatchesFreshRecompute) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.tasks = share(feasible_set());
  const SynthesisResponse first = service.query(request);
  const SynthesisResponse second = service.query(request);
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);

  const dse::ScheduleServer reference;
  const auto fresh = reference.synthesize(*request.tasks, request.ecu_mips);
  for (const auto* artifact : {&first.artifact(), &second.artifact()}) {
    EXPECT_EQ(artifact->feasible, fresh.feasible);
    EXPECT_EQ(artifact->validated, fresh.validated);
    EXPECT_EQ(artifact->synthesis_instructions, fresh.synthesis_instructions);
    ASSERT_EQ(artifact->table.windows.size(), fresh.table.windows.size());
    for (std::size_t i = 0; i < fresh.table.windows.size(); ++i) {
      EXPECT_EQ(artifact->table.windows[i].offset,
                fresh.table.windows[i].offset);
      EXPECT_EQ(artifact->table.windows[i].length,
                fresh.table.windows[i].length);
      EXPECT_EQ(artifact->table.windows[i].task, fresh.table.windows[i].task);
    }
  }
}

// Recovery keeps working when the backend vanishes mid-flight: the DA
// placement check in RecoveryOrchestrator::try_place falls through the
// client's fallback ladder (ECU-local admission) instead of stranding the
// displaced apps.
TEST(ScheduleServerErrors, RecoveryProceedsWhenBackendVanishesMidFlight) {
  sim::Simulator simulator;
  auto parsed = model::parse_system(R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
app Brake class=deterministic asil=D memory=4M
  task ctl period=10ms wcet=200K priority=1
app Maps class=nondeterministic asil=QM memory=4M
  task tiles period=50ms wcet=250K priority=9
deploy Brake -> A
deploy Maps -> A
)");
  net::EthernetSwitch backbone(simulator, "eth", {});
  std::vector<std::unique_ptr<os::Ecu>> ecus;
  net::NodeId next_node = 1;
  for (const auto& ecu_def : parsed.model.ecus()) {
    os::EcuConfig config;
    config.name = ecu_def.name;
    config.cpu.mips = ecu_def.mips;
    config.memory_bytes = ecu_def.memory_bytes;
    ecus.push_back(std::make_unique<os::Ecu>(simulator, config, &backbone,
                                             next_node++));
  }
  platform::DynamicPlatform dp(simulator, parsed.model, parsed.deployment);
  for (auto& ecu : ecus) dp.add_node(*ecu);
  for (const auto& app : parsed.model.apps()) {
    dp.register_app(app.name,
                    [] { return std::make_unique<platform::Application>(); });
  }
  ASSERT_TRUE(dp.install_all());

  FleetScheduleService service(simulator);
  BackendClient& client = dp.connect_backend(service);
  platform::RecoveryConfig recovery_config;
  recovery_config.check_period = 50 * sim::kMillisecond;
  recovery_config.commit_soak = 100 * sim::kMillisecond;
  platform::RecoveryOrchestrator orchestrator(dp, recovery_config);
  orchestrator.engage();

  fault::FaultCampaign campaign(simulator);
  campaign.add_ecu(*ecus[0]);
  fault::FaultEvent crash;
  crash.at = 300 * sim::kMillisecond;
  crash.kind = fault::FaultKind::kEcuCrash;
  crash.target = "A";
  campaign.schedule(crash);
  campaign.arm();
  // The backend dies just before the vehicle needs it most.
  simulator.schedule_at(250 * sim::kMillisecond, [&] { service.crash(); });
  simulator.run_until(sim::seconds(3));

  ASSERT_FALSE(orchestrator.plans().empty());
  EXPECT_EQ(orchestrator.plans().front().status,
            platform::PlanStatus::kCommitted)
      << orchestrator.plans().front().reason;
  EXPECT_TRUE(orchestrator.stranded().empty());
  // The plan went through the degraded rung, not a fresh backend artifact.
  EXPECT_GE(client.local_admissions() + client.stale_served(), 1u);
}

// --- BackendClient circuit breaker -------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresThenFastFails) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  service.crash();
  ClientConfig config;
  config.breaker_threshold = 3;
  config.local_fallback = true;
  BackendClient client(simulator, config);
  client.connect(&service);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.breaker(), BreakerState::kClosed);
    const BackendOutcome outcome =
        client.synthesize(feasible_set(), 1'000, Criticality::kResync);
    // Dead backend, empty cache: the ECU-local fast path keeps us safe.
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.locally_admitted);
    EXPECT_EQ(outcome.source, BackendOutcome::Source::kLocalFallback);
  }
  EXPECT_EQ(client.breaker(), BreakerState::kOpen);
  EXPECT_EQ(client.breaker_opens(), 1u);

  const std::uint64_t before = service.lost_unreachable();
  (void)client.synthesize(feasible_set(), 1'000, Criticality::kResync);
  // OPEN short-circuits: no query even reached the (dead) service.
  EXPECT_EQ(service.lost_unreachable(), before);
  EXPECT_GE(client.breaker_fast_fails(), 1u);
}

TEST(CircuitBreaker, ReconnectRevalidatesStaleArtifactsBeforeClosing) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  ClientConfig config;
  config.breaker_threshold = 2;
  config.breaker_open_for = 100 * sim::kMillisecond;
  BackendClient client(simulator, config);
  client.connect(&service);

  std::vector<std::pair<BreakerState, BreakerState>> transitions;
  client.add_listener([&](BreakerState prev, BreakerState next) {
    transitions.emplace_back(prev, next);
  });

  // Warm the vehicle-local cache while the backend is up.
  const BackendOutcome warm =
      client.synthesize(feasible_set(), 1'000, Criticality::kResync);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.source, BackendOutcome::Source::kBackend);
  EXPECT_EQ(client.cached_artifacts(), 1u);

  service.crash();
  for (int i = 0; i < 2; ++i) {
    const BackendOutcome outcome =
        client.synthesize(feasible_set(), 1'000, Criticality::kResync);
    // Same topology: served stale from the local cache, still safe.
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.stale);
    EXPECT_EQ(outcome.source, BackendOutcome::Source::kCache);
  }
  EXPECT_EQ(client.breaker(), BreakerState::kOpen);
  EXPECT_GE(client.stale_served(), 2u);

  // Heal, wait out the open window, probe: HALF_OPEN -> CLOSED with the
  // stale-served entry re-validated against the live backend first.
  service.restart();
  bool probed = false;
  simulator.schedule_at(simulator.now() + 200 * sim::kMillisecond, [&] {
    const BackendOutcome outcome =
        client.synthesize(feasible_set(), 1'000, Criticality::kResync);
    probed = outcome.ok;
  });
  simulator.run_until(simulator.now() + sim::seconds(1));
  EXPECT_TRUE(probed);
  EXPECT_EQ(client.breaker(), BreakerState::kClosed);
  EXPECT_GE(client.revalidated(), 1u);
  ASSERT_GE(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].second, BreakerState::kOpen);
  EXPECT_EQ(transitions[1].second, BreakerState::kHalfOpen);
  EXPECT_EQ(transitions.back().second, BreakerState::kClosed);
}

TEST(CircuitBreaker, FallbackLadderEndsAtExplicitNone) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  service.crash();
  ClientConfig config;
  config.local_fallback = false;  // ablation: no last rung
  BackendClient client(simulator, config);
  client.connect(&service);
  const BackendOutcome outcome =
      client.synthesize(feasible_set(), 1'000, Criticality::kRecovery);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.source, BackendOutcome::Source::kNone);
  EXPECT_GE(client.exhausted(), 1u);
}

TEST(CircuitBreaker, AsyncRetriesAreCappedJitteredAndDeterministic) {
  // FleetDriver is the async retry engine: one wave-hit session whose
  // recovery request meets a dead backend.
  struct Run {
    sim::Duration unsafe_window = 0;
    std::uint64_t fingerprint = 0;
  };
  const auto run_once = [](std::uint64_t jitter_seed) {
    sim::Simulator simulator;
    FleetScheduleService service(simulator);
    service.crash();
    FleetConfig config;
    config.sessions = 1;
    config.topology_classes = 1;
    config.seed = 5;
    config.horizon = 1 * sim::kSecond;
    config.ota_period = 0;
    config.wave_at = 100 * sim::kMillisecond;
    config.wave_fraction = 1.0;
    config.recovery_retry = 10 * sim::kSecond;  // one request in the run
    config.drain_grace = 0;
    config.client.request_timeout = 20 * sim::kMillisecond;
    config.client.max_attempts = 3;
    config.client.backoff_base = 10 * sim::kMillisecond;
    config.client.breaker_threshold = 63;  // keep the breaker out of this test
    config.client.jitter_seed = jitter_seed;
    FleetDriver driver(simulator, service, config);
    driver.run();
    EXPECT_EQ(driver.attempts(), 3u);  // capped at max_attempts
    EXPECT_EQ(driver.client_timeouts(), 3u);  // one timeout per attempt
    EXPECT_EQ(driver.breaker_fast_fails(), 0u);
    // The request ended on the fallback ladder: local admission, safe but
    // degraded.
    EXPECT_EQ(driver.fallback_local(), 1u);
    EXPECT_EQ(driver.unsafe_now(), 0u);
    EXPECT_EQ(driver.recoveries_outstanding(), 1u);
    return Run{driver.max_unsafe_duration(), driver.fingerprint()};
  };
  const Run a = run_once(7);
  const Run b = run_once(7);
  const Run c = run_once(8);
  // Three 20 ms timeouts plus two jittered backoffs near 10 and 20 ms.
  EXPECT_GT(a.unsafe_window, 80 * sim::kMillisecond);
  EXPECT_LT(a.unsafe_window, 100 * sim::kMillisecond);
  EXPECT_EQ(a.unsafe_window, b.unsafe_window);  // same seed: bit-identical
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.unsafe_window, c.unsafe_window);  // the jitter moves fallback
}

// --- Breaker transition table -------------------------------------------------

enum class BreakerEvent {
  kGateHoldOver,
  kGateHolding,
  kReplyOk,
  kReplyInfeasible,
  kReplyShed,
  kReplyRetryAfter,
  kReplyUnreachable,
  kTimeout,
};

struct BreakerStep {
  BreakerState state;
  int failures;
  backend::Breaker::Edge edge;
};

/// DESIGN.md §14, written out: CLOSED -> OPEN once consecutive failures
/// reach the threshold; OPEN -> HALF_OPEN when the hold window is over;
/// HALF_OPEN -> CLOSED on a successful probe, back to OPEN on a failed
/// one. Every verdict the backend sent is a comms success; unreachable and
/// timeouts are failures, counted up to 63.
BreakerStep expected_step(BreakerState state, int failures, int threshold,
                          BreakerEvent event) {
  using Edge = backend::Breaker::Edge;
  switch (event) {
    case BreakerEvent::kGateHoldOver:
      if (state == BreakerState::kOpen) {
        return {BreakerState::kHalfOpen, failures, Edge::kHalfOpened};
      }
      return {state, failures, Edge::kNone};
    case BreakerEvent::kGateHolding:
      return {state, failures, Edge::kNone};
    case BreakerEvent::kReplyOk:
    case BreakerEvent::kReplyInfeasible:
    case BreakerEvent::kReplyShed:
    case BreakerEvent::kReplyRetryAfter:
      return {BreakerState::kClosed, 0,
              state == BreakerState::kClosed ? Edge::kNone : Edge::kClosed};
    case BreakerEvent::kReplyUnreachable:
    case BreakerEvent::kTimeout: {
      const int streak = std::min(failures + 1, 63);
      if (state == BreakerState::kHalfOpen ||
          (state == BreakerState::kClosed && streak >= threshold)) {
        return {BreakerState::kOpen, streak, Edge::kOpened};
      }
      return {state, streak, Edge::kNone};
    }
  }
  return {state, failures, Edge::kNone};
}

TEST(Breaker, TransitionTableFollowsTheDesignDiagram) {
  using backend::Breaker;
  const BreakerEvent events[] = {
      BreakerEvent::kGateHoldOver,     BreakerEvent::kGateHolding,
      BreakerEvent::kReplyOk,          BreakerEvent::kReplyInfeasible,
      BreakerEvent::kReplyShed,        BreakerEvent::kReplyRetryAfter,
      BreakerEvent::kReplyUnreachable, BreakerEvent::kTimeout};
  int rows = 0;
  for (const int threshold : {3, 63}) {
    for (const BreakerState state : {BreakerState::kClosed,
                                     BreakerState::kOpen,
                                     BreakerState::kHalfOpen}) {
      for (const int failures : {0, threshold - 1, threshold, 63}) {
        for (const BreakerEvent event : events) {
          Breaker breaker(state, failures);
          ASSERT_EQ(breaker.state(), state);
          ASSERT_EQ(breaker.failures(), failures);
          Breaker::Edge edge = Breaker::Edge::kNone;
          switch (event) {
            case BreakerEvent::kGateHoldOver: edge = breaker.gate(true); break;
            case BreakerEvent::kGateHolding: edge = breaker.gate(false); break;
            case BreakerEvent::kReplyOk:
              edge = breaker.reply(ResponseStatus::kOk, threshold);
              break;
            case BreakerEvent::kReplyInfeasible:
              edge = breaker.reply(ResponseStatus::kInfeasible, threshold);
              break;
            case BreakerEvent::kReplyShed:
              edge = breaker.reply(ResponseStatus::kShed, threshold);
              break;
            case BreakerEvent::kReplyRetryAfter:
              edge = breaker.reply(ResponseStatus::kRetryAfter, threshold);
              break;
            case BreakerEvent::kReplyUnreachable:
              edge = breaker.reply(ResponseStatus::kUnreachable, threshold);
              break;
            case BreakerEvent::kTimeout: edge = breaker.fail(threshold); break;
          }
          const BreakerStep want =
              expected_step(state, failures, threshold, event);
          const std::string row = std::string(backend::to_string(state)) +
                                  " f=" + std::to_string(failures) + " T=" +
                                  std::to_string(threshold) + " event " +
                                  std::to_string(static_cast<int>(event));
          EXPECT_EQ(breaker.state(), want.state) << row;
          EXPECT_EQ(breaker.failures(), want.failures) << row;
          EXPECT_EQ(edge, want.edge) << row;
          // Only OPEN refuses an attempt.
          EXPECT_EQ(breaker.blocks(), want.state == BreakerState::kOpen) << row;
          // The packing: low 2 bits state, high 6 bits failures.
          EXPECT_EQ(breaker.bits(),
                    static_cast<int>(want.state) | want.failures << 2)
              << row;
          ++rows;
        }
      }
    }
  }
  EXPECT_EQ(rows, 2 * 3 * 4 * 8);
}

// --- Transport retransmit jitter ----------------------------------------------

// Records every frame-send instant of a reliable transport aimed at a black
// hole (no receiver, no acks): index 0 is the original send, the rest are
// retransmissions at the (jittered) backoff schedule.
std::vector<sim::Time> retransmit_times(sim::Simulator& simulator,
                                        middleware::TransportConfig config) {
  auto times = std::make_shared<std::vector<sim::Time>>();
  auto transport = std::make_shared<middleware::Transport>(
      [times, &simulator](net::Frame) { times->push_back(simulator.now()); },
      64, &simulator, config);
  std::vector<std::uint8_t> message(16, 0xAB);
  transport->send(2, 1, 0, message);
  simulator.run_until(simulator.now() + sim::seconds(10));
  return *times;
}

TEST(TransportJitter, RetransmitsDesynchronizeAcrossPeers) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 20 * sim::kMillisecond;
  config.max_retries = 4;
  config.retry_jitter = 0.1;

  sim::Simulator sim_a;
  config.jitter_stream = 1;
  const std::vector<sim::Time> peer_a = retransmit_times(sim_a, config);
  sim::Simulator sim_b;
  config.jitter_stream = 2;
  const std::vector<sim::Time> peer_b = retransmit_times(sim_b, config);
  sim::Simulator sim_a2;
  config.jitter_stream = 1;
  const std::vector<sim::Time> peer_a2 = retransmit_times(sim_a2, config);

  ASSERT_EQ(peer_a.size(), 5u);  // original + 4 retries
  ASSERT_EQ(peer_b.size(), 5u);
  // Same stream: bit-reproducible. Distinct streams: every retransmit
  // lands at a different instant — the lockstep retry storm is gone.
  EXPECT_EQ(peer_a, peer_a2);
  for (std::size_t i = 1; i < peer_a.size(); ++i) {
    EXPECT_NE(peer_a[i], peer_b[i]) << "retry " << i << " still in lockstep";
  }
}

TEST(TransportJitter, ZeroJitterPreservesExactLegacyTiming) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 20 * sim::kMillisecond;
  config.backoff_factor = 2.0;
  config.max_backoff = 200 * sim::kMillisecond;
  config.max_retries = 3;
  config.retry_jitter = 0.0;
  sim::Simulator simulator;
  const std::vector<sim::Time> times = retransmit_times(simulator, config);
  ASSERT_EQ(times.size(), 4u);
  // Pure exponential off ack_timeout: 20ms, +40ms, +80ms.
  EXPECT_EQ(times[1] - times[0], 20 * sim::kMillisecond);
  EXPECT_EQ(times[2] - times[1], 40 * sim::kMillisecond);
  EXPECT_EQ(times[3] - times[2], 80 * sim::kMillisecond);
}

TEST(TransportJitter, JitterStaysWithinConfiguredBand) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 20 * sim::kMillisecond;
  config.max_retries = 5;
  config.retry_jitter = 0.25;
  config.max_backoff = 1000 * sim::kMillisecond;
  sim::Simulator simulator;
  const std::vector<sim::Time> times = retransmit_times(simulator, config);
  ASSERT_EQ(times.size(), 6u);
  sim::Duration base = config.ack_timeout;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const sim::Duration gap = times[i] - times[i - 1];
    const auto lo = static_cast<sim::Duration>(
        static_cast<double>(base) * (1.0 - config.retry_jitter));
    const auto hi = static_cast<sim::Duration>(
        static_cast<double>(base) * (1.0 + config.retry_jitter));
    EXPECT_GE(gap, lo) << "retry " << i;
    EXPECT_LE(gap, hi + 1) << "retry " << i;
    base = std::min<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(base) *
                                   config.backoff_factor),
        config.max_backoff);
  }
}

// --- Diagnostics uplink queue bound --------------------------------------------

TEST(DiagnosticsQueue, MultiHourOfflineBacklogIsBoundedDropOldest) {
  sim::Simulator simulator;
  net::EthernetSwitch backbone(simulator, "eth", {});
  auto parsed = model::parse_system(
      "network Net kind=ethernet\n"
      "ecu A mips=100 memory=64M asil=D network=Net\n"
      "app Over class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=900K priority=1\n"
      "deploy Over -> A\n");
  const_cast<model::AppDef*>(parsed.model.app("Over"))
      ->tasks[0]
      .execution_jitter = 0.5;
  os::EcuConfig config{.name = "A", .cpu = {.mips = 100}};
  os::Ecu ecu(simulator, config, &backbone, 1);
  platform::DynamicPlatform dp(simulator, parsed.model, parsed.deployment);
  platform::NodeConfig node_config;
  node_config.time_triggered = false;
  node_config.admission_control = false;
  auto& node = dp.add_node(ecu, node_config);
  dp.register_app("Over",
                  [] { return std::make_unique<platform::Application>(); });
  ASSERT_TRUE(dp.install_all());

  platform::DiagnosticsService diagnostics(dp);
  diagnostics.attach(node);
  diagnostics.set_uplink_queue_limit(4);
  int uplinked = 0;
  diagnostics.set_uplink([&](const monitor::FaultRecord&) { ++uplinked; });
  diagnostics.set_online(false);

  simulator.run_until(sim::seconds(5));
  ASSERT_GT(diagnostics.all_faults().size(), 4u);
  // The backlog is capped; everything beyond the cap was counted, not kept.
  EXPECT_EQ(diagnostics.queued_for_uplink(), 4u);
  EXPECT_EQ(diagnostics.dropped_uplink(),
            diagnostics.all_faults().size() - 4u);

  diagnostics.set_online(true);
  EXPECT_EQ(uplinked, 4);
  EXPECT_EQ(diagnostics.queued_for_uplink(), 0u);
}

// --- Fleet-scale outage survival ----------------------------------------------

FleetConfig small_fleet(std::uint64_t seed) {
  FleetConfig config;
  config.sessions = 96;
  config.topology_classes = 8;
  config.seed = seed;
  config.horizon = 8 * sim::kSecond;
  config.ota_period = 1 * sim::kSecond;
  config.wave_at = 1 * sim::kSecond;
  config.wave_fraction = 0.5;
  config.wave_stagger = 300 * sim::kMillisecond;
  config.recovery_retry = 200 * sim::kMillisecond;
  config.client.request_timeout = 50 * sim::kMillisecond;
  config.client.backoff_base = 25 * sim::kMillisecond;
  config.client.breaker_open_for = 250 * sim::kMillisecond;
  return config;
}

TEST(FleetBackend, FullOutageLeavesNoVehicleStrandedUnsafe) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  // The outage spans the fault wave: every recovery request of the wave
  // meets a dead backend first.
  FleetConfig config = small_fleet(11);
  config.outage_at = 900 * sim::kMillisecond;
  config.outage_duration = 2 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();

  // Vehicles degraded through the fallback ladder instead of stranding.
  EXPECT_GT(driver.fallback_cache() + driver.fallback_local(), 0u);
  EXPECT_EQ(driver.fallback_none(), 0u);
  EXPECT_GT(driver.client_breaker_opens(), 0u);
  EXPECT_GT(driver.recoveries_completed(), 0u);
  // Vehicles that served stale artifacts re-validated them when their
  // breaker closed after the heal.
  EXPECT_GT(driver.revalidated(), 0u);

  fault::InvariantChecker checker;
  checker.require_backend_drained(service);
  checker.require_no_stranded_vehicles(driver, 2 * sim::kSecond);
  checker.require_fleet_recovery_bounded(driver, 4 * sim::kSecond);
  const auto report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
}

TEST(FleetSweep, FleetRunsBitIdenticalAcrossThreadCounts) {
  const auto scenario = [](sim::ScenarioRun& run) {
    FleetConfig config = small_fleet(100 + run.index);
    config.sessions = 32;
    config.horizon = 4 * sim::kSecond;
    config.outage_at = 800 * sim::kMillisecond;
    config.outage_duration = 1 * sim::kSecond;
    config.outage_is_partition = (run.index % 2) == 1;
    FleetScheduleService service(run.simulator);
    FleetDriver driver(run.simulator, service, config);
    driver.run();
    return driver.fingerprint();
  };
  std::vector<std::uint64_t> serial;
  std::vector<std::uint64_t> parallel;
  {
    sim::ScenarioSweep sweep({.seed = 77, .threads = 0});
    serial = sweep.run<std::uint64_t>(6, scenario);
  }
  {
    sim::ScenarioSweep sweep({.seed = 77, .threads = 3});
    parallel = sweep.run<std::uint64_t>(6, scenario);
  }
  ASSERT_EQ(serial.size(), 6u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(sim::ScenarioSweep::merge_fingerprints(serial),
            sim::ScenarioSweep::merge_fingerprints(parallel));
}

// --- FaultCampaign backend targets ---------------------------------------------

TEST(FleetBackend, CampaignDrivesBackendFailureModes) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  service.set_name("backend");
  fault::FaultCampaign campaign(simulator);
  campaign.add_backend(service);

  fault::FaultEvent crash;
  crash.at = 10 * sim::kMillisecond;
  crash.kind = fault::FaultKind::kBackendCrash;
  crash.target = "backend";
  campaign.schedule(crash);
  fault::FaultEvent restart = crash;
  restart.at = 20 * sim::kMillisecond;
  restart.kind = fault::FaultKind::kBackendRestart;
  campaign.schedule(restart);
  fault::FaultEvent partition = crash;
  partition.at = 30 * sim::kMillisecond;
  partition.kind = fault::FaultKind::kUplinkPartition;
  campaign.schedule(partition);
  fault::FaultEvent heal = crash;
  heal.at = 40 * sim::kMillisecond;
  heal.kind = fault::FaultKind::kUplinkHeal;
  campaign.schedule(heal);
  fault::FaultEvent slow = crash;
  slow.at = 50 * sim::kMillisecond;
  slow.kind = fault::FaultKind::kBackendSlow;
  slow.magnitude = 4.0;
  campaign.schedule(slow);
  campaign.arm();

  simulator.schedule_at(15 * sim::kMillisecond,
                        [&] { EXPECT_TRUE(service.crashed()); });
  simulator.schedule_at(25 * sim::kMillisecond,
                        [&] { EXPECT_FALSE(service.crashed()); });
  simulator.schedule_at(35 * sim::kMillisecond,
                        [&] { EXPECT_TRUE(service.partitioned()); });
  simulator.schedule_at(45 * sim::kMillisecond,
                        [&] { EXPECT_FALSE(service.partitioned()); });
  simulator.run_until(100 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(service.slow_factor(), 4.0);
  EXPECT_EQ(campaign.injected().size(), 5u);
}

// --- Request batching / coalescing (ISSUE 10) ---------------------------------

TEST(FleetBatching, CohortSharesOneDequeueAndResponse) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.tasks = share(feasible_set());
  int ok = 0;
  for (std::uint32_t session = 0; session < 8; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kOk) ++ok;
    });
  }
  simulator.run_until(sim::seconds(2));
  // One worker dequeue answered the whole stampede cohort.
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(service.dequeues(), 1u);
  EXPECT_EQ(service.batches(), 1u);
  EXPECT_EQ(service.coalesced(), 7u);
  EXPECT_EQ(service.completed(), 8u);
  EXPECT_EQ(service.synthesis_runs(), 1u);
  // Cohort of 8 lands in log2 bucket 3: (4, 8].
  EXPECT_EQ(service.batch_size_histogram()[3], 1u);
}

TEST(FleetBatching, AdmissionChargesCohortsNotMembers) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  config.queue_capacity = 1;
  config.backpressure_watermark = 1;
  config.recovery_reserve = 0;
  config.workers = 1;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.tasks = share(feasible_set());
  int ok = 0;
  // Six identical requests ride one queue slot...
  for (std::uint32_t session = 0; session < 6; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kOk) ++ok;
    });
  }
  EXPECT_EQ(service.queue_depth(), 1u);
  // ...while a distinct topology needs a second slot and is shed.
  SynthesisRequest other;
  other.criticality = Criticality::kResync;
  other.tasks = share(infeasible_set());
  ResponseStatus other_status = ResponseStatus::kOk;
  service.submit(other, [&](const SynthesisResponse& response) {
    other_status = response.status;
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(service.coalesced(), 5u);
  EXPECT_EQ(other_status, ResponseStatus::kShed);
  EXPECT_EQ(service.shed_total(), 1u);
}

TEST(FleetBatching, RecoveryJoinerShieldsCohortFromPreemption) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  config.queue_capacity = 1;
  config.backpressure_watermark = 1;
  config.recovery_reserve = 0;
  config.workers = 1;
  FleetScheduleService service(simulator, config);
  // A routine leader whose cohort picks up a recovery joiner: the cohort's
  // criticality is the minimum (most critical) of its members, so the
  // preemption scan must no longer see it as a routine victim.
  SynthesisRequest leader;
  leader.criticality = Criticality::kOta;
  leader.tasks = share(feasible_set());
  int cohort_ok = 0;
  service.submit(leader, [&](const SynthesisResponse& response) {
    if (response.status == ResponseStatus::kOk) ++cohort_ok;
  });
  SynthesisRequest joiner;
  joiner.criticality = Criticality::kRecovery;
  joiner.tasks = share(feasible_set());
  service.submit(joiner, [&](const SynthesisResponse& response) {
    if (response.status == ResponseStatus::kOk) ++cohort_ok;
  });
  SynthesisRequest rival;
  rival.criticality = Criticality::kRecovery;
  rival.tasks = share(infeasible_set());
  ResponseStatus rival_status = ResponseStatus::kOk;
  service.submit(rival, [&](const SynthesisResponse& response) {
    rival_status = response.status;
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(cohort_ok, 2);
  EXPECT_EQ(service.preempted(), 0u);
  // The rival recovery found a full queue and no routine victim.
  EXPECT_EQ(rival_status, ResponseStatus::kShed);
}

TEST(FleetBatching, CrashLosesEveryCohortMember) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.tasks = share(feasible_set());
  int delivered = 0;
  for (std::uint32_t session = 0; session < 4; ++session) {
    request.session = session;
    service.submit(request,
                   [&](const SynthesisResponse&) { ++delivered; });
  }
  // Crash before service starts (start = submit + rtt/2 = 5 ms).
  simulator.schedule_at(sim::kMillisecond, [&] { service.crash(); });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(service.lost_unreachable(), 4u);
}

TEST(FleetBatching, ResubmitDuringFanOutLeavesOtherMembersIntact) {
  // respond() hands every cohort member the one response by reference. A
  // member that re-enters submit() from its callback opens a new cohort on
  // the same key; the members after it must still see the original
  // response, and the re-submission must be served on its own.
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.tasks = share(feasible_set());
  SynthesisRequest rival;
  rival.criticality = Criticality::kResync;
  rival.tasks = share(infeasible_set());

  std::vector<SynthesisResponse> members;
  std::vector<sim::Time> member_times;
  std::vector<ResponseStatus> resubmitted;
  for (int member = 0; member < 4; ++member) {
    service.submit(request, [&, member](const SynthesisResponse& response) {
      members.push_back(response);
      member_times.push_back(simulator.now());
      if (member != 1) return;
      const auto record = [&](const SynthesisResponse& again) {
        resubmitted.push_back(again.status);
      };
      service.submit(request, record);
      service.submit(rival, record);
    });
  }
  simulator.run_until(sim::seconds(2));

  ASSERT_EQ(members.size(), 4u);
  const dse::ScheduleServer::Artifact fresh =
      dse::ScheduleServer{}.synthesize(*request.tasks, request.ecu_mips);
  for (std::size_t i = 0; i < members.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(members[i].status, ResponseStatus::kOk);
    EXPECT_FALSE(members[i].cache_hit);
    EXPECT_EQ(member_times[i], member_times[0]);
    expect_same_artifact(members[i].artifact(), fresh);
  }
  // The re-submissions ran as two new cohorts: a cache hit and a miss.
  ASSERT_EQ(resubmitted.size(), 2u);
  EXPECT_EQ(resubmitted[0], ResponseStatus::kOk);
  EXPECT_EQ(resubmitted[1], ResponseStatus::kInfeasible);
  EXPECT_EQ(service.completed(), 6u);
  EXPECT_EQ(service.dequeues(), 3u);
  EXPECT_EQ(service.coalesced(), 3u);
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.synthesis_runs(), 2u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

// --- Memo-cache collision + eviction (ISSUE 10 satellites) --------------------

TEST(FleetCache, ForcedKeyCollisionResynthesizesInsteadOfWrongArtifact) {
  sim::Simulator simulator;
  ServiceConfig config;
  // Force every topology onto one key: only the exact check can tell the
  // cached artifact belongs to a different task set.
  config.key_fn = [](const std::vector<dse::AnalysisTask>&, std::uint64_t) {
    return std::uint64_t{42};
  };
  FleetScheduleService service(simulator, config);
  SynthesisRequest first;
  first.tasks = share(feasible_set());
  SynthesisRequest second;
  second.tasks = share(infeasible_set());

  EXPECT_EQ(service.query(first).status, ResponseStatus::kOk);
  EXPECT_EQ(service.cache_collisions(), 0u);
  // Same key, different topology: refused as a hit, re-synthesized, and
  // the verdict matches the actual task set (infeasible, not the cached
  // feasible artifact).
  EXPECT_EQ(service.query(second).status, ResponseStatus::kInfeasible);
  EXPECT_EQ(service.cache_collisions(), 1u);
  EXPECT_EQ(service.synthesis_runs(), 2u);
  // The overwrite is last-writer-wins in place: flipping back collides
  // again rather than serving the other topology's artifact.
  EXPECT_EQ(service.query(first).status, ResponseStatus::kOk);
  EXPECT_EQ(service.cache_collisions(), 2u);
  EXPECT_EQ(service.synthesis_runs(), 3u);
  EXPECT_EQ(service.cache_entries(), 1u);
}

TEST(FleetCache, EvictionUnderTopologyChurn) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.cache_shards = 1;
  config.cache_capacity = 2;
  FleetScheduleService service(simulator, config);
  const auto churn_set = [](int salt) {
    return std::vector<dse::AnalysisTask>{
        analysis_task("churn" + std::to_string(salt), 10 * sim::kMillisecond,
                      (500 + 100 * salt) * sim::kMicrosecond, 1)};
  };
  SynthesisRequest request;
  for (int salt = 0; salt < 4; ++salt) {
    request.tasks = share(churn_set(salt));
    EXPECT_EQ(service.query(request).status, ResponseStatus::kOk);
  }
  // Capacity 2, four distinct topologies: two drop-oldest evictions.
  EXPECT_EQ(service.cache_evictions(), 2u);
  EXPECT_EQ(service.cache_entries(), 2u);
  EXPECT_EQ(service.synthesis_runs(), 4u);
  // The evicted topology is a miss again.
  request.tasks = share(churn_set(0));
  EXPECT_EQ(service.query(request).status, ResponseStatus::kOk);
  EXPECT_EQ(service.synthesis_runs(), 5u);
}

std::uint64_t degenerate_key(const std::vector<dse::AnalysisTask>&,
                             std::uint64_t) {
  return 42;
}

TEST(FleetCache, ExactCheckCatchesEveryFieldMutation) {
  // Every topology shares one key, so a hit rests on the exact check
  // alone. Each mutation changes one AnalysisTask field (or the task
  // count, or the ECU speed on the very same handle) and must be caught as
  // a collision and re-synthesized for the mutated topology.
  using Mutation = void (*)(SynthesisRequest&, backend::TaskSet&);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"name",
       [](SynthesisRequest&, backend::TaskSet& t) { t[1].name += "'"; }},
      {"period",
       [](SynthesisRequest&, backend::TaskSet& t) {
         t[1].period += sim::kMillisecond;
       }},
      {"deadline",
       [](SynthesisRequest&, backend::TaskSet& t) {
         t[1].deadline -= sim::kMillisecond;
       }},
      {"wcet",
       [](SynthesisRequest&, backend::TaskSet& t) {
         t[1].wcet += sim::kMicrosecond;
       }},
      {"priority",
       [](SynthesisRequest&, backend::TaskSet& t) { t[1].priority += 10; }},
      {"deterministic",
       [](SynthesisRequest&, backend::TaskSet& t) {
         t[1].deterministic = !t[1].deterministic;
       }},
      {"task_count",
       [](SynthesisRequest&, backend::TaskSet& t) { t.pop_back(); }},
      {"ecu_mips",
       [](SynthesisRequest& r, backend::TaskSet&) { r.ecu_mips *= 2; }},
  };
  for (const auto& [field, mutate] : mutations) {
    SCOPED_TRACE(field);
    sim::Simulator simulator;
    ServiceConfig config;
    config.key_fn = degenerate_key;
    FleetScheduleService service(simulator, config);
    SynthesisRequest base;
    base.tasks = share(feasible_set());
    ASSERT_EQ(service.query(base).status, ResponseStatus::kOk);

    SynthesisRequest mutated = base;
    backend::TaskSet tasks = *base.tasks;
    mutate(mutated, tasks);
    // The ECU-speed mutation keeps the base handle: a pointer match alone
    // must not make a hit.
    if (tasks != *base.tasks) mutated.tasks = share(tasks);
    const SynthesisResponse response = service.query(mutated);
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(service.cache_collisions(), 1u);
    EXPECT_EQ(service.cache_hits(), 0u);
    EXPECT_EQ(service.synthesis_runs(), 2u);
    expect_same_artifact(response.artifact(),
                         dse::ScheduleServer{}.synthesize(*mutated.tasks,
                                                          mutated.ecu_mips));
    // The base topology now collides with the overwritten entry in turn.
    EXPECT_FALSE(service.query(base).cache_hit);
    EXPECT_EQ(service.cache_collisions(), 2u);
    EXPECT_EQ(service.cache_entries(), 1u);
  }
}

TEST(FleetCache, EqualContentsOnDistinctHandlesShareOneEntry) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.key_fn = degenerate_key;
  FleetScheduleService service(simulator, config);
  SynthesisRequest first;
  first.tasks = share(feasible_set());
  SynthesisRequest second;
  second.tasks = share(feasible_set());
  ASSERT_NE(first.tasks, second.tasks);

  const SynthesisResponse miss = service.query(first);
  const SynthesisResponse hit = service.query(second);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(service.synthesis_runs(), 1u);
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.cache_collisions(), 0u);
  EXPECT_EQ(service.cache_entries(), 1u);
  expect_same_artifact(hit.artifact(), miss.artifact());
}

TEST(FleetCache, NullHandleIsTheEmptyTaskSet) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  SynthesisRequest null_request;
  ASSERT_EQ(null_request.tasks, nullptr);
  SynthesisRequest empty_request;
  empty_request.tasks = share({});

  const SynthesisResponse from_null = service.query(null_request);
  const SynthesisResponse from_empty = service.query(empty_request);
  EXPECT_EQ(from_null.status, from_empty.status);
  EXPECT_TRUE(from_empty.cache_hit);
  EXPECT_EQ(service.synthesis_runs(), 1u);
  expect_same_artifact(from_null.artifact(),
                       dse::ScheduleServer{}.synthesize({}, 1'000));
  // The async path reads a null handle the same way.
  std::vector<ResponseStatus> delivered;
  service.submit(null_request, [&](const SynthesisResponse& response) {
    delivered.push_back(response.status);
  });
  simulator.run_until(sim::seconds(1));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], from_null.status);
  EXPECT_EQ(service.cache_hits(), 2u);
}

TEST(FleetCache, HitOutlivesTheCallersDroppedHandle) {
  // The caller lets go of its task set right after submit(). The entry
  // stored from that handle keeps the task set alive, so a later request
  // with equal contents on a fresh handle is checked against live memory
  // (ASan would flag a dangling compare) and served the right artifact.
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  std::weak_ptr<const backend::TaskSet> stored;
  std::vector<SynthesisResponse> responses;
  const auto record = [&](const SynthesisResponse& response) {
    responses.push_back(response);
  };
  {
    SynthesisRequest request;
    request.tasks = share(feasible_set());
    stored = request.tasks;
    service.submit(request, record);
  }
  simulator.run_until(sim::seconds(1));
  EXPECT_FALSE(stored.expired());

  SynthesisRequest later;
  later.tasks = share(feasible_set());
  service.submit(later, record);
  later.tasks.reset();
  simulator.run_until(sim::seconds(2));

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  expect_same_artifact(responses[1].artifact(),
                       dse::ScheduleServer{}.synthesize(feasible_set(), 1'000));
  EXPECT_EQ(service.synthesis_runs(), 1u);
}

// --- Compressed fleet driver (ISSUE 10) ---------------------------------------

TEST(FleetDriverScale, GoldenFleetFingerprint) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetConfig config = small_fleet(21);
  config.sessions = 48;
  config.horizon = 6 * sim::kSecond;
  config.wave_at = 1'500 * sim::kMillisecond;
  config.outage_at = 1'400 * sim::kMillisecond;
  config.outage_duration = 1 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();
  // Wave, outage, timeouts, backoff and retries all on one fleet: any change
  // to when a fleet timer fires, or in which order, moves this value.
  EXPECT_EQ(driver.fingerprint(), 0x4f6714e9870b5b9eull);
}

TEST(FleetDriverScale, DestroyedDriverLeavesNoEventBehind) {
  // The run ends mid-outage with the wave still arriving, recovery retries
  // armed and no drain: every event the driver scheduled is still queued
  // when it is destroyed, and each one captures the driver. The crashed
  // backend holds no response for it.
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetConfig config = small_fleet(61);
  config.sessions = 48;
  config.horizon = 3 * sim::kSecond;
  config.wave_at = 2'500 * sim::kMillisecond;
  config.wave_stagger = 1 * sim::kSecond;
  config.outage_at = 1'400 * sim::kMillisecond;
  config.outage_duration = 3 * sim::kSecond;
  config.drain_grace = 0;
  {
    FleetDriver driver(simulator, service, config);
    driver.run();
    EXPECT_TRUE(service.crashed());
    EXPECT_GT(simulator.pending(), 0u);
  }
  EXPECT_EQ(simulator.pending(), 0u);
  // Past the heal and any retry or wave instant; ASan guards the old
  // use-after-free. The outage belonged to the driver, so it never heals.
  simulator.run_until(simulator.now() + 10 * sim::kSecond);
  EXPECT_TRUE(service.crashed());
}

TEST(FleetDriverScale, RerunRebuildsSessionsWithoutDanglingTimers) {
  // Regression: the driver once captured raw Session pointers in wave and
  // retry lambdas; a second run() rebuilt the session vector and left the
  // old timers dangling. Index + epoch captures make re-running safe (ASan
  // guards the old failure mode).
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetConfig config = small_fleet(31);
  config.sessions = 48;
  config.horizon = 5 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();
  const std::uint64_t first_recoveries = driver.recoveries_completed();
  EXPECT_GT(first_recoveries, 0u);
  EXPECT_EQ(driver.unsafe_now(), 0u);
  driver.run();
  // The second run replays the same scenario shape later in sim time.
  EXPECT_GT(driver.recoveries_completed(), first_recoveries);
  EXPECT_EQ(driver.unsafe_now(), 0u);
  EXPECT_EQ(driver.recoveries_outstanding(), 0u);
}

TEST(FleetDriverScale, TwoRegionFailoverSurvivesRegionOutage) {
  sim::Simulator simulator;
  FleetScheduleService region0(simulator);
  FleetScheduleService region1(simulator);
  region0.set_name("region0");
  region1.set_name("region1");
  FleetConfig config = small_fleet(41);
  config.sessions = 60;
  // Region 0 dies across the wave; its sessions' breakers open and the
  // engine fails attempts over to region 1.
  config.outage_at = 900 * sim::kMillisecond;
  config.outage_duration = 2 * sim::kSecond;
  FleetDriver driver(simulator, {&region0, &region1}, config);
  driver.run();

  EXPECT_EQ(driver.regions(), 2u);
  EXPECT_GT(driver.failovers(), 0u);
  // The sibling's memo cache was cold for region-0 topologies: it had to
  // synthesize, not just serve hits.
  EXPECT_GT(region1.synthesis_runs(), 0u);
  // Failover recovers vehicles with *fresh* artifacts even mid-outage: no
  // vehicle was stranded and nothing fell through the ladder.
  EXPECT_EQ(driver.fallback_none(), 0u);
  EXPECT_GT(driver.recoveries_completed(), 0u);
  fault::InvariantChecker checker;
  checker.require_no_stranded_vehicles(driver, 2 * sim::kSecond);
  checker.require_fleet_recovery_bounded(driver, 4 * sim::kSecond);
  const auto report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
  // The failover branch of the retry engine: which attempts leave home,
  // when the probe returns them, and which breaker each result feeds.
  EXPECT_EQ(driver.fingerprint(), 0x5397ab59d56cf70dull);
}

TEST(FleetDriverScale, FleetOutageSeedOneGolden) {
  // perfbench fleet_outage, seed 1: 25k sessions on a 10 ms OTA phase grid,
  // a 50% fault wave at 2 s over a full backend crash at 1.5..2.5 s, and a
  // batching service provisioned one worker per 2k sessions.
  FleetConfig config;
  config.sessions = 25'000;
  config.topology_classes = 32;
  config.seed = 1;
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
  ServiceConfig service_config;
  service_config.batching = true;
  service_config.workers = 25'000 / 2'000;
  service_config.min_service_time = 500 * sim::kMicrosecond;
  service_config.queue_capacity = 256;
  service_config.backpressure_watermark = 192;
  service_config.recovery_reserve = 32;

  sim::Simulator simulator;
  FleetScheduleService service(simulator, service_config);
  FleetDriver driver(simulator, service, config);
  driver.run();
  EXPECT_EQ(driver.fingerprint(), 0xed1a6cff4bdf2866ull);
}

/// Every session is hit by the wave against a backend that is down for
/// the whole run, so each recovery request spends all its attempts.
FleetConfig dead_backend_fleet(int max_attempts, int breaker_threshold) {
  FleetConfig config;
  config.sessions = 20;
  config.topology_classes = 4;
  config.seed = 71;
  config.horizon = 3 * sim::kSecond;
  config.ota_period = 0;
  config.wave_at = 100 * sim::kMillisecond;
  config.wave_fraction = 1.0;
  config.wave_stagger = 100 * sim::kMillisecond;
  config.recovery_retry = 10 * sim::kMillisecond;
  config.drain_grace = 0;
  config.client.request_timeout = 1 * sim::kMillisecond;
  config.client.backoff_base = 1 * sim::kMillisecond;
  config.client.max_backoff = 1 * sim::kMillisecond;
  config.client.max_attempts = max_attempts;
  config.client.breaker_threshold = breaker_threshold;
  return config;
}

TEST(FleetDriverScale, ClientConfigIsClampedToThePackedRanges) {
  // The slab counts attempts in a byte and the breaker counts failures in
  // six bits: out-of-range settings are clamped, not wrapped or saturated
  // below the threshold.
  for (const int max_attempts : {255, 256, 300}) {
    sim::Simulator simulator;
    FleetScheduleService service(simulator);
    service.crash();
    FleetDriver driver(simulator, service,
                       dead_backend_fleet(max_attempts, 100));
    driver.run();
    EXPECT_EQ(driver.peak_unsafe(), 20u) << max_attempts;
    EXPECT_EQ(driver.unsafe_now(), 0u) << max_attempts;
    EXPECT_GE(driver.fallback_local(), 20u) << max_attempts;
  }
  for (const int threshold : {63, 64, 100}) {
    sim::Simulator simulator;
    FleetScheduleService service(simulator);
    service.crash();
    FleetDriver driver(simulator, service, dead_backend_fleet(4, threshold));
    driver.run();
    EXPECT_GT(driver.client_breaker_opens(), 0u) << threshold;
  }

  sim::Simulator simulator;
  ClientConfig config;
  config.max_attempts = 1'000;
  config.breaker_threshold = 1'000;
  EXPECT_EQ(BackendClient(simulator, config).config().max_attempts, 255);
  EXPECT_EQ(BackendClient(simulator, config).config().breaker_threshold, 63);
  config.max_attempts = 0;
  config.breaker_threshold = -5;
  EXPECT_EQ(BackendClient(simulator, config).config().max_attempts, 1);
  EXPECT_EQ(BackendClient(simulator, config).config().breaker_threshold, 1);
}

TEST(FleetDriverScale, TopologyDriftFragmentsKeySpace) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetConfig config = small_fleet(51);
  config.sessions = 40;
  config.topology_classes = 4;
  config.topology_drift_fraction = 0.5;
  config.wave_fraction = 0.0;  // routine load only
  config.horizon = 4 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();
  // Drifted vehicles became singleton classes beyond the 4 base classes,
  // and each distinct key cost its own synthesis.
  EXPECT_GT(driver.topology_class_count(), 4u);
  EXPECT_LE(driver.topology_class_count(), 44u);
  EXPECT_GT(service.synthesis_runs(), 4u);
  EXPECT_EQ(driver.unsafe_now(), 0u);
}

}  // namespace
}  // namespace dynaplat
