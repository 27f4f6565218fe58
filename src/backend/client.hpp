// Vehicle-side backend client: the resilience half of the fleet backend.
//
// The paper puts synthesis off-vehicle (Sec. 2.3/4.1), which makes the
// backend a single point of failure for the whole fleet. This header holds
// what lets a vehicle *live without it*, once for every user:
//
//   * ClientConfig — the resilience knobs, clamped by normalized();
//   * Breaker — the CLOSED -> OPEN -> HALF_OPEN circuit breaker in one
//     byte, with the one reply rule that decides what counts as a comms
//     failure, so a dead backend costs one probe per open window instead
//     of a timeout per call;
//   * BackendClient — the synchronous facade in-vehicle control flow (node
//     resync, recovery planning) calls: one query per call, the breaker
//     around it and the fallback ladder behind it.
//
// FleetDriver (fleet.hpp) is the one asynchronous engine: per-attempt
// timeout, capped exponential backoff with seeded jitter and retries, over
// the same Breaker and ClientConfig. On backend loss both degrade
// gracefully instead of stranding their caller:
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
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "backend/service.hpp"

namespace dynaplat::backend {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state);

struct ClientConfig {
  /// Per-attempt timeout of the fleet driver's retry engine.
  sim::Duration request_timeout = 100 * sim::kMillisecond;
  /// Total attempts per fleet request (first try + retries), 1..255: the
  /// driver's in-flight slab counts attempts in one byte.
  int max_attempts = 4;
  /// Exponential backoff between attempts: base, factor, cap.
  sim::Duration backoff_base = 50 * sim::kMillisecond;
  double backoff_factor = 2.0;
  sim::Duration max_backoff = 800 * sim::kMillisecond;
  /// Symmetric jitter fraction applied to every backoff delay (0.2 = +/-20%).
  double jitter = 0.2;
  /// Jitter draws come from sim::Random::stream(jitter_seed, ...) keyed by
  /// the session index, so sessions never retry in lockstep.
  std::uint64_t jitter_seed = 0x0DDB10C5ull;
  /// Consecutive comms failures (timeout / unreachable) that trip the
  /// breaker CLOSED -> OPEN, 1..63: Breaker counts failures in six bits.
  int breaker_threshold = 3;
  /// OPEN hold time before a HALF_OPEN probe is allowed.
  sim::Duration breaker_open_for = 500 * sim::kMillisecond;
  /// Allow the ECU-local admission fast path as the last fallback rung.
  bool local_fallback = true;
  /// Vehicle-local artifact cache entries (drop-oldest).
  std::size_t artifact_cache_capacity = 64;
};

/// Clamps max_attempts to [1, 255] and breaker_threshold to [1, 63], the
/// ranges the packed engine state can count. BackendClient and FleetDriver
/// both apply it to the config they are given.
ClientConfig normalized(ClientConfig config);

/// Circuit breaker state machine, packed in one byte: low 2 bits the
/// BreakerState, high 6 bits the consecutive comms-failure count
/// (saturating at 63). It only moves between states; the owner keeps the
/// OPEN hold deadline and acts on the returned Edge (listeners, counters,
/// revalidation, failover).
class Breaker {
 public:
  /// The transition an event took, if any.
  enum class Edge : std::uint8_t { kNone, kOpened, kHalfOpened, kClosed };

  static constexpr int kMaxFailures = 63;

  Breaker() = default;  ///< CLOSED, zero failures
  /// A breaker in `state` with `failures` (0..63) consecutive failures.
  Breaker(BreakerState state, int failures) { set(state, failures); }

  BreakerState state() const {
    return static_cast<BreakerState>(bits_ & kStateMask);
  }
  int failures() const { return bits_ >> 2; }
  std::uint8_t bits() const { return bits_; }

  /// Gate before an attempt. OPEN with its hold window over moves to
  /// HALF_OPEN (kHalfOpened) and the attempt goes out as the probe;
  /// otherwise nothing changes. blocks() then says whether the breaker
  /// still refuses the attempt.
  Edge gate(bool hold_over) {
    if (state() != BreakerState::kOpen || !hold_over) return Edge::kNone;
    set(BreakerState::kHalfOpen, failures());
    return Edge::kHalfOpened;
  }
  bool blocks() const { return state() == BreakerState::kOpen; }

  /// A comms failure: a failed HALF_OPEN probe reopens, and CLOSED opens
  /// once the streak reaches `threshold` (1..63, see normalized()).
  Edge fail(int threshold) {
    const BreakerState current = state();
    const int streak = std::min(failures() + 1, kMaxFailures);
    const bool open =
        current == BreakerState::kHalfOpen ||
        (current == BreakerState::kClosed && streak >= threshold);
    set(open ? BreakerState::kOpen : current, streak);
    return open ? Edge::kOpened : Edge::kNone;
  }

  /// The reply rule. Any verdict the backend sent — kOk, kInfeasible, and
  /// also kShed / kRetryAfter (alive, just refusing work) — is a comms
  /// success: CLOSED with no failures, kClosed when that ended an OPEN or
  /// HALF_OPEN spell. kUnreachable is a failure, as is a timeout (call
  /// fail()).
  Edge reply(ResponseStatus status, int threshold) {
    if (status == ResponseStatus::kUnreachable) return fail(threshold);
    const bool was_closed = state() == BreakerState::kClosed;
    bits_ = 0;
    return was_closed ? Edge::kNone : Edge::kClosed;
  }

 private:
  static constexpr std::uint8_t kStateMask = 0x03;

  void set(BreakerState state, int failures) {
    bits_ = static_cast<std::uint8_t>(static_cast<std::uint8_t>(state) |
                                      failures << 2);
  }

  std::uint8_t bits_ = 0;
};

static_assert(sizeof(Breaker) == 1,
              "the fleet driver stores one Breaker per session");

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
  /// (previous, next) breaker transition, fired after any re-validation.
  using Listener = std::function<void(BreakerState, BreakerState)>;

  explicit BackendClient(sim::Simulator& simulator, ClientConfig config = {});
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

  /// One control-plane query per call: shed/backpressure verdicts are not
  /// retried inline (the caller's own retry cadence handles that), the
  /// reply feeds the breaker, and the fallback ladder runs before
  /// returning whenever no fresh artifact came back.
  BackendOutcome synthesize(const std::vector<dse::AnalysisTask>& tasks,
                            std::uint64_t ecu_mips,
                            Criticality criticality = Criticality::kResync);

  BreakerState breaker() const { return breaker_.state(); }
  void add_listener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  // --- Introspection --------------------------------------------------------
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t breaker_opens() const { return breaker_opens_; }
  std::uint64_t breaker_fast_fails() const { return breaker_fast_fails_; }
  std::uint64_t stale_served() const { return stale_served_; }
  std::uint64_t local_admissions() const { return local_admissions_; }
  std::uint64_t revalidated() const { return revalidated_; }
  std::uint64_t exhausted() const { return exhausted_; }
  std::size_t cached_artifacts() const { return cache_.size(); }

  const ClientConfig& config() const { return config_; }

 private:
  struct CacheEntry {
    dse::ScheduleServer::Artifact artifact;
    TaskSetHandle tasks;  ///< the stored request's handle, for re-validation
    std::uint64_t ecu_mips = 0;
    bool stale_used = false;
    std::uint64_t order = 0;  ///< insertion order, drop-oldest
  };

  /// Acts on a breaker transition out of `prev`: arms the OPEN hold window,
  /// revalidates stale entries on close, then fires the listeners.
  void on_edge(BreakerState prev, Breaker::Edge edge);
  void revalidate_stale();

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

  Breaker breaker_;
  sim::Time open_until_ = 0;

  std::map<std::uint64_t, CacheEntry> cache_;
  std::uint64_t next_order_ = 1;

  std::vector<Listener> listeners_;

  std::uint64_t attempts_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t breaker_fast_fails_ = 0;
  std::uint64_t stale_served_ = 0;
  std::uint64_t local_admissions_ = 0;
  std::uint64_t revalidated_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace dynaplat::backend
