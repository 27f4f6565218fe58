// Vehicle-side backend client: the resilience half of the fleet backend.
//
// The paper puts synthesis off-vehicle (Sec. 2.3/4.1), which makes the
// backend a single point of failure for the whole fleet. BackendClient is
// what lets a vehicle *live without it*: every remote call gets a timeout,
// capped exponential backoff with seeded jitter (no fleet-wide lockstep
// retry storms), and a circuit breaker (CLOSED -> OPEN -> HALF_OPEN) so a
// dead backend costs one probe per open window instead of a timeout per
// call. On backend loss the client degrades gracefully instead of
// stranding its caller:
//
//   1. vehicle-local artifact cache — the last backend-synthesized table
//      for this topology, served stale;
//   2. ECU-local admission (dse::AdmissionController fast path) — cheap
//      utilization + RTA, good enough to *keep running safely* even though
//      it ships no fresh TT table;
//   3. explicit kNone — the caller enters DEGRADED and retries later.
//
// On reconnect (breaker closing) every stale-served cache entry is
// re-validated against the backend *before* state listeners fire, so
// degradation is only lifted once the vehicle is back on fresh artifacts.
//
// Determinism: jitter comes from sim::Random::stream(jitter_seed,
// jitter_stream) — give every client a distinct stream id (e.g. the
// session index) or healed fleets retry in lockstep again.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "backend/service.hpp"
#include "sim/random.hpp"

namespace dynaplat::backend {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state);

struct ClientConfig {
  /// Async request timeout (per attempt).
  sim::Duration request_timeout = 100 * sim::kMillisecond;
  /// Total attempts per request() (first try + retries).
  int max_attempts = 4;
  /// Exponential backoff between attempts: base, factor, cap.
  sim::Duration backoff_base = 50 * sim::kMillisecond;
  double backoff_factor = 2.0;
  sim::Duration max_backoff = 800 * sim::kMillisecond;
  /// Symmetric jitter fraction applied to every backoff delay (0.2 = +/-20%).
  double jitter = 0.2;
  std::uint64_t jitter_seed = 0x0DDB10C5ull;
  std::uint64_t jitter_stream = 0;
  /// Consecutive comms failures (timeout / unreachable) that trip the
  /// breaker CLOSED -> OPEN.
  int breaker_threshold = 3;
  /// OPEN hold time before a HALF_OPEN probe is allowed.
  sim::Duration breaker_open_for = 500 * sim::kMillisecond;
  /// Allow the ECU-local admission fast path as the last fallback rung.
  bool local_fallback = true;
  /// Vehicle-local artifact cache entries (drop-oldest).
  std::size_t artifact_cache_capacity = 64;
};

struct BackendOutcome {
  enum class Source : std::uint8_t {
    kBackend,        ///< fresh artifact from the backend
    kCache,          ///< vehicle-local cached artifact (stale while down)
    kLocalFallback,  ///< ECU-local admission fast path, no table
    kNone,           ///< nothing worked: caller must degrade and retry
  };
  Source source = Source::kNone;
  /// The caller can proceed safely (feasible artifact or local admission).
  bool ok = false;
  /// Served from the vehicle cache while the backend was unreachable.
  bool stale = false;
  /// ok via dse::AdmissionController, no synthesized table attached.
  bool locally_admitted = false;
  /// Backend-side memo-cache hit (reporting only).
  bool cache_hit = false;
  ResponseStatus status = ResponseStatus::kUnreachable;
  dse::ScheduleServer::Artifact artifact;
};

const char* to_string(BackendOutcome::Source source);

class BackendClient {
 public:
  using Callback = std::function<void(const BackendOutcome&)>;
  /// (previous, next) breaker transition, fired after any re-validation.
  using Listener = std::function<void(BreakerState, BreakerState)>;

  explicit BackendClient(sim::Simulator& simulator, ClientConfig config = {});
  ~BackendClient();
  BackendClient(const BackendClient&) = delete;
  BackendClient& operator=(const BackendClient&) = delete;

  /// Points the client at a fleet service. nullptr disconnects (every
  /// remote call fails fast — fallback rungs still apply).
  void connect(FleetScheduleService* service);
  /// Loopback mode: synthesize directly on an in-process engine with no
  /// failure surface. This is the compatibility default inside
  /// platform::DynamicPlatform, which owns its own dse::ScheduleServer.
  void set_loopback(dse::ScheduleServer* server);
  bool connected() const { return service_ != nullptr; }

  /// Synchronous facade for in-vehicle control flow (node resync, recovery
  /// planning): one control-plane query per call — shed/backpressure
  /// verdicts are not retried inline (the caller's own retry cadence
  /// handles that), comms failures feed the breaker, and the fallback
  /// ladder runs before returning.
  BackendOutcome synthesize(const std::vector<dse::AnalysisTask>& tasks,
                            std::uint64_t ecu_mips,
                            Criticality criticality = Criticality::kResync);

  /// Full async path with sim-time timeout, capped jittered backoff and
  /// breaker accounting. The callback fires exactly once with the final
  /// outcome (backend, cache, local fallback, or kNone).
  void request(SynthesisRequest request, Callback done);

  BreakerState breaker() const { return state_; }
  void add_listener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);
  void set_coverage(obs::CoverageMap* coverage);

  // --- Introspection --------------------------------------------------------
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t breaker_opens() const { return breaker_opens_; }
  std::uint64_t breaker_fast_fails() const { return breaker_fast_fails_; }
  std::uint64_t stale_served() const { return stale_served_; }
  std::uint64_t local_admissions() const { return local_admissions_; }
  std::uint64_t revalidated() const { return revalidated_; }
  std::uint64_t exhausted() const { return exhausted_; }
  std::size_t inflight() const { return pending_.size(); }
  std::size_t cached_artifacts() const { return cache_.size(); }

  std::uint64_t fingerprint() const;

  const ClientConfig& config() const { return config_; }

 private:
  struct CacheEntry {
    dse::ScheduleServer::Artifact artifact;
    TaskSetHandle tasks;  ///< the stored request's handle, for re-validation
    std::uint64_t ecu_mips = 0;
    bool stale_used = false;
    std::uint64_t order = 0;  ///< insertion order, drop-oldest
  };
  struct Pending {
    SynthesisRequest request;
    Callback done;
    int attempt = 0;
    sim::Duration backoff = 0;
    /// Bumped per attempt: a response from a timed-out attempt is ignored.
    std::uint64_t attempt_token = 0;
    sim::EventId timeout;
    sim::EventId resubmit;
  };

  // Breaker.
  bool allow_request();
  void record_success();
  void record_failure();
  void to_state(BreakerState next);
  void revalidate_stale();

  // Async plumbing.
  void start_attempt(std::uint64_t id);
  void on_response(std::uint64_t id, std::uint64_t token,
                   const SynthesisResponse& response);
  void on_timeout(std::uint64_t id);
  void retry_or_fail(std::uint64_t id, sim::Duration floor_delay);
  void finish(std::uint64_t id, const BackendOutcome& outcome);
  sim::Duration next_backoff(Pending& pending);

  BackendOutcome from_response(const SynthesisRequest& request,
                               const SynthesisResponse& response);
  BackendOutcome fallback(const std::vector<dse::AnalysisTask>& tasks,
                          std::uint64_t ecu_mips);
  /// `handle` is the request's handle on `tasks` when there is one; a new
  /// entry without one copies `tasks`, an updated entry copies nothing.
  void cache_store(const TaskSet& tasks, const TaskSetHandle& handle,
                   std::uint64_t ecu_mips,
                   const dse::ScheduleServer::Artifact& artifact);

  sim::Simulator& sim_;
  ClientConfig config_;
  FleetScheduleService* service_ = nullptr;
  dse::ScheduleServer* loopback_ = nullptr;
  dse::AdmissionController admission_;
  sim::Random rng_;

  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  sim::Time open_until_ = 0;

  std::map<std::uint64_t, CacheEntry> cache_;
  std::uint64_t next_order_ = 1;

  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;

  std::vector<Listener> listeners_;

  std::uint64_t attempts_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t breaker_fast_fails_ = 0;
  std::uint64_t stale_served_ = 0;
  std::uint64_t local_admissions_ = 0;
  std::uint64_t revalidated_ = 0;
  std::uint64_t exhausted_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* timeout_counter_ = nullptr;
  obs::Counter* fallback_counter_ = nullptr;
  obs::CoverageMap* coverage_ = nullptr;
  std::uint32_t cov_open_ = 0;
  std::uint32_t cov_half_open_ = 0;
  std::uint32_t cov_closed_ = 0;
  std::uint32_t cov_stale_ = 0;
  std::uint32_t cov_local_ = 0;
  std::uint32_t cov_exhausted_ = 0;
};

}  // namespace dynaplat::backend
