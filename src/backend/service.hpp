// Fleet-facing schedule backend (paper Sec. 2.3 / 4.1).
//
// The paper's central bet is that schedule synthesis, DSE and update
// mastering run *off-vehicle*. dse::ScheduleServer is the synthesis engine;
// this wrapper turns it into a *service*: N concurrent vehicle sessions talk
// to one backend over an explicit request/response queue modeled entirely in
// simulated time, so a fleet stampede is a reproducible scenario rather
// than a host-load artifact.
//
// Robustness machinery (ISSUE 9):
//   * Admission control and a bounded request queue. When the queue
//     saturates, requests are shed by criticality: routine OTA
//     resynthesis (kOta) goes first, schedule resyncs (kResync) second,
//     recovery remaps (kRecovery) last. A recovery request arriving at a
//     full queue preempts the most recently accepted, not-yet-started
//     routine request instead of being turned away.
//   * Backpressure: above the watermark, routine requests are deferred
//     with an explicit retry-after hint scaled by queue depth, so the
//     fleet's retries spread out instead of hammering a saturated queue.
//   * A sharded cross-vehicle memo cache keyed by (topology-hash,
//     app-set): two vehicles with the same task topology and ECU speed
//     share one synthesis. This is the PR 1 DSE memo-cache shape applied
//     fleet-wide — the cache is what turns 10k sessions into ~dozens of
//     real synthesis runs.
//   * Seed-deterministic failure modes injectable by fault::FaultCampaign:
//     backend crash/restart (outstanding work lost), uplink partition
//     (requests and responses silently dropped — vehicles see timeouts),
//     and slow-responder latency spikes (service-time multiplier).
//
// Everything is driven by the owning scenario's sim::Simulator, consumes no
// fresh randomness, and is therefore bit-reproducible under
// sim::ScenarioSweep at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dse/admission.hpp"
#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::backend {

/// Request priority classes, most critical first. Shedding walks the enum
/// from the back (routine OTA work is dropped before recovery remaps).
enum class Criticality : std::uint8_t {
  kRecovery = 0,  ///< recovery-remap synthesis (vehicle lost an ECU)
  kResync = 1,    ///< TT-table resynchronization (app start/stop)
  kOta = 2,       ///< routine OTA update mastering / resynthesis
};

const char* to_string(Criticality criticality);

enum class ResponseStatus : std::uint8_t {
  kOk,           ///< artifact attached (feasible or not is in the artifact)
  kInfeasible,   ///< synthesis ran and proved the task set unschedulable
  kShed,         ///< load-shed: queue full, request dropped by criticality
  kRetryAfter,   ///< backpressure: come back after retry_after
  kUnreachable,  ///< control-plane only: backend crashed / uplink down
};

const char* to_string(ResponseStatus status);

using TaskSet = std::vector<dse::AnalysisTask>;
/// Shared, immutable task set. A fleet topology class owns one handle and
/// every request of the class carries a copy of the pointer, so a request
/// costs the same whatever its task set weighs. Null is the empty set.
using TaskSetHandle = std::shared_ptr<const TaskSet>;

/// The task set behind `tasks`; a null handle reads as the empty set.
const TaskSet& task_set(const TaskSetHandle& tasks);

struct SynthesisRequest {
  Criticality criticality = Criticality::kResync;
  /// Null by default: an allocating default would cost every request
  /// built per attempt an allocation.
  TaskSetHandle tasks;
  std::uint64_t ecu_mips = 1'000;
  /// Vehicle session tag (metrics / tracing only, not part of the cache
  /// key — the whole point is cross-vehicle sharing).
  std::uint32_t session = 0;
  /// Precomputed topology_key(tasks, ecu_mips), 0 = compute on arrival. A
  /// fleet driver that already knows its topology-class key passes it so a
  /// million-session stampede doesn't re-hash the same task set per
  /// request. Ignored when ServiceConfig::key_fn is set.
  std::uint64_t key_hint = 0;
};

/// Shared, immutable synthesis artifact. The memo cache entry owns one
/// handle and every response served from it carries a copy of the pointer,
/// so a response costs the same whatever its schedule table weighs.
using ArtifactHandle = std::shared_ptr<const dse::ScheduleServer::Artifact>;

struct SynthesisResponse {
  ResponseStatus status = ResponseStatus::kUnreachable;
  /// Set on kOk / kInfeasible; null on replies that carry no artifact.
  ArtifactHandle artifact_handle;
  bool cache_hit = false;
  /// Backpressure hint: earliest useful re-submission delay (kShed /
  /// kRetryAfter).
  sim::Duration retry_after = 0;

  /// The attached artifact; a null handle reads as an empty (infeasible)
  /// artifact.
  const dse::ScheduleServer::Artifact& artifact() const;
};

struct ServiceConfig {
  /// Outstanding (accepted, not yet responded) request cap. Beyond it,
  /// requests are shed by criticality.
  std::size_t queue_capacity = 256;
  /// Above this depth routine (kOta) requests get kRetryAfter instead of
  /// queue slots.
  std::size_t backpressure_watermark = 192;
  /// Extra slots only recovery requests may use when the queue is full and
  /// no routine victim is preemptible.
  std::size_t recovery_reserve = 32;
  /// Parallel synthesis workers (queueing model: per-worker next-free
  /// time; a request is served by the earliest-free worker).
  std::size_t workers = 8;
  /// Backend compute speed, converts Artifact::synthesis_instructions into
  /// simulated service time.
  std::uint64_t backend_mips = 200'000;
  /// Service-time floor (cache hits, admission bookkeeping).
  sim::Duration min_service_time = 200 * sim::kMicrosecond;
  /// Round-trip vehicle <-> backend latency (half on submit, half on the
  /// response).
  sim::Duration uplink_rtt = 10 * sim::kMillisecond;
  /// Base backpressure hint; the actual hint scales with queue depth.
  sim::Duration retry_after_base = 50 * sim::kMillisecond;
  /// Cross-vehicle memo cache: shard count and total entry capacity
  /// (drop-oldest per shard beyond capacity / shards).
  std::size_t cache_shards = 16;
  std::size_t cache_capacity = 4'096;
  /// A backend crash also loses the memo cache (cold restart). Default
  /// keeps it: the cache models a persistent artifact store.
  bool crash_clears_cache = false;
  /// Coalesce same-topology requests into cohorts: a request whose
  /// topology key matches a cohort still waiting for service joins it —
  /// no extra admission weight, no extra worker dequeue — and every
  /// member shares the one response at delivery. Admission, queue depth
  /// and shedding are then accounted per cohort, not per request (a
  /// stampede of identical vehicles costs one queue slot).
  bool batching = false;
  /// Test seam: overrides the cache/batch key derivation so collision
  /// tests can force distinct topologies onto one key. Null uses
  /// topology_key().
  std::uint64_t (*key_fn)(const std::vector<dse::AnalysisTask>&,
                          std::uint64_t) = nullptr;
};

/// Stable hash of (task set, ECU speed): the cross-vehicle cache key. Two
/// vehicles whose app set compiles to the same analysis tasks on the same
/// ECU speed share one synthesis. Exposed so the vehicle-side client can
/// key its local artifact cache identically.
std::uint64_t topology_key(const std::vector<dse::AnalysisTask>& tasks,
                           std::uint64_t ecu_mips);

class FleetScheduleService {
 public:
  using Callback = std::function<void(const SynthesisResponse&)>;

  explicit FleetScheduleService(sim::Simulator& simulator,
                                ServiceConfig config = {});
  ~FleetScheduleService();
  FleetScheduleService(const FleetScheduleService&) = delete;
  FleetScheduleService& operator=(const FleetScheduleService&) = delete;

  /// Asynchronous request/response: the response is delivered through the
  /// simulator after queueing + service + uplink time. While the backend
  /// is crashed or the uplink partitioned the request is silently lost —
  /// the vehicle-side timeout is the only signal, as in the field.
  /// `request` is read only during the call; a cache entry it stores keeps
  /// a reference to the task-set handle.
  void submit(const SynthesisRequest& request, Callback done);

  /// Synchronous control-plane query used by in-vehicle callers that
  /// cannot park their control flow on a sim event (node resync, recovery
  /// planning). Runs the same admission / shedding / cache logic but
  /// charges no queueing latency; returns kUnreachable when the backend
  /// is down so the caller's circuit breaker can react.
  SynthesisResponse query(const SynthesisRequest& request);

  // --- Failure injection (fault::FaultCampaign backend events) --------------
  /// Backend process crash: every outstanding request is lost (clients
  /// time out), workers reset. Idempotent.
  void crash();
  /// Restart after a crash. The memo cache survives unless
  /// crash_clears_cache.
  void restart();
  bool crashed() const { return crashed_; }
  /// Uplink partition: submissions are lost and in-flight responses are
  /// dropped at delivery time.
  void set_partitioned(bool partitioned);
  bool partitioned() const { return partitioned_; }
  /// Slow-responder spike: multiplies the service time of requests
  /// accepted while active (1.0 = nominal).
  void set_slow_factor(double factor) {
    slow_factor_ = factor < 1.0 ? 1.0 : factor;
  }
  double slow_factor() const { return slow_factor_; }

  /// Campaign target name (FaultCampaign events address it by this).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- Observability --------------------------------------------------------
  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);
  void set_coverage(obs::CoverageMap* coverage);

  // --- Introspection (deterministic reads; test + invariant surface) --------
  /// Admitted work not yet responded. Rejection notices in flight on the
  /// downlink are excluded: they hold no worker reservation, and counting
  /// them toward admission depth would let an overload sustain itself on
  /// its own reject traffic.
  std::size_t queue_depth() const { return queued_; }
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  std::uint64_t requests_total() const { return requests_total_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t shed_total() const { return shed_total_; }
  std::uint64_t shed(Criticality criticality) const {
    return shed_[static_cast<std::size_t>(criticality)];
  }
  std::uint64_t backpressured() const { return backpressured_; }
  std::uint64_t preempted() const { return preempted_; }
  std::uint64_t lost_unreachable() const { return lost_unreachable_; }
  std::uint64_t responses_dropped() const { return responses_dropped_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  std::size_t cache_entries() const;
  std::uint64_t synthesis_runs() const { return synthesis_runs_; }
  std::uint64_t crashes() const { return crashes_; }
  /// Worker dequeues: service starts charged against the worker pool. In
  /// serial mode every admitted request is its own dequeue; with batching
  /// a whole cohort rides one. The batched-vs-serial efficiency gate in
  /// bench_fleet compares exactly this counter at equal served counts.
  std::uint64_t dequeues() const { return dequeues_; }
  /// Cohorts admitted in batched mode (== dequeues while batching).
  std::uint64_t batches() const { return batches_; }
  /// Requests that joined an existing cohort instead of taking a slot.
  std::uint64_t coalesced() const { return coalesced_; }
  /// Cohort sizes at close, log2-bucketed: bucket b counts cohorts of
  /// size in (2^(b-1), 2^b] (bucket 0 = singletons).
  const std::array<std::uint64_t, 16>& batch_size_histogram() const {
    return batch_hist_;
  }
  /// Cache-key collisions caught by the exact check: the cached artifact
  /// belonged to a *different* task set or ECU speed that hashed to the
  /// same key, so the hit was refused and synthesis re-ran.
  std::uint64_t cache_collisions() const { return cache_collisions_; }
  /// Memo-cache entries dropped by per-shard capacity (drop-oldest).
  std::uint64_t cache_evictions() const { return cache_evictions_; }

  /// FNV-1a over the service counters — folded into fleet fingerprints for
  /// the sweep determinism gates.
  std::uint64_t fingerprint() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Outstanding {
    Callback done;
    /// What every member hears at delivery: the verdict for a rejected
    /// entry, the served artifact for an admitted one.
    SynthesisResponse response;
    /// Cohort members coalesced onto this entry after the leader; they
    /// share the leader's slot, reservation and response.
    std::vector<Callback> extra;
    /// Most critical member of the cohort (joiners upgrade it, so a
    /// cohort carrying a recovery request is never a preemption victim).
    Criticality criticality = Criticality::kOta;
    std::uint64_t key = 0;
    std::size_t worker = 0;
    sim::Time start = 0;  ///< service start (preemptible while > now)
    sim::Time end = 0;
    sim::EventId completion;
    std::uint64_t last_on_worker_token = 0;
    /// true: holds a queue slot + worker reservation; false: a shed /
    /// backpressure verdict riding the downlink (no admission weight).
    bool admitted = false;
    /// true while registered in open_cohorts_ (batched, joinable).
    bool open = false;
  };
  using OutstandingMap = std::map<std::uint64_t, Outstanding>;
  struct CacheEntry {
    ArtifactHandle artifact;
    /// What the artifact was synthesized for. A key match is a hit only
    /// when the request names the same handle or an equal task set on the
    /// same ECU speed; anything else is a detected collision, served as a
    /// miss instead of a wrong artifact.
    TaskSetHandle tasks;
    std::uint64_t ecu_mips = 0;
  };
  struct CacheShard {
    std::map<std::uint64_t, CacheEntry> entries;
    std::deque<std::uint64_t> order;  ///< insertion order, drop-oldest
  };

  /// Admission decision shared by submit() and query(). Returns true when
  /// the request may take a queue slot; fills `reject` otherwise.
  bool admit(Criticality criticality, SynthesisResponse* reject);
  /// Sheds the most recently accepted, not-yet-started routine request
  /// that is still last on its worker (its reservation can be reclaimed
  /// exactly). Returns true when a slot was freed.
  bool preempt_routine();
  /// Cache/batch key for a request (key_fn seam or topology_key).
  std::uint64_t request_key(const SynthesisRequest& request) const;
  /// Cache lookup + synthesis on miss. Returns the cached artifact handle
  /// and whether it was a hit; accounts cache metrics and
  /// collision/eviction counters.
  ArtifactHandle resolve(std::uint64_t key, const SynthesisRequest& request,
                         bool* cache_hit);
  sim::Duration service_time(const dse::ScheduleServer::Artifact& artifact,
                             bool cache_hit) const;
  sim::Duration retry_hint() const;
  /// Completion event of entry `id`: drops an admitted entry's response
  /// while the uplink is partitioned, else delivers it.
  void deliver(std::uint64_t id);
  /// Closes the entry and hands its response to every cohort member.
  /// Returns the member count. Callbacks may re-enter submit().
  std::size_t respond(OutstandingMap::iterator it);
  /// Erases an entry, releasing its queue slot and cohort registration;
  /// delivers nothing.
  void close_entry(OutstandingMap::iterator it);
  void record_batch(std::size_t size);
  void update_depth_gauge();

  sim::Simulator& sim_;
  ServiceConfig config_;
  std::string name_ = "backend";
  dse::ScheduleServer server_;
  std::vector<CacheShard> cache_;
  std::vector<sim::Time> worker_free_;
  /// Monotonic token per worker identifying the *last* reservation made on
  /// it — only that reservation can be reclaimed exactly on preemption.
  std::vector<std::uint64_t> worker_last_token_;
  std::uint64_t next_token_ = 1;
  OutstandingMap outstanding_;
  /// Joinable cohort per topology key (batched mode): key -> outstanding
  /// id of the cohort leader entry.
  std::map<std::uint64_t, std::uint64_t> open_cohorts_;
  /// Admitted entries in outstanding_ (the admission-control depth; a
  /// whole cohort weighs one).
  std::size_t queued_ = 0;
  std::uint64_t next_id_ = 1;

  bool crashed_ = false;
  bool partitioned_ = false;
  double slow_factor_ = 1.0;

  std::size_t max_queue_depth_ = 0;
  std::uint64_t requests_total_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_total_ = 0;
  std::uint64_t shed_[3] = {0, 0, 0};
  std::uint64_t backpressured_ = 0;
  std::uint64_t preempted_ = 0;
  std::uint64_t lost_unreachable_ = 0;
  std::uint64_t responses_dropped_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t synthesis_runs_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t dequeues_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t cache_collisions_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::array<std::uint64_t, 16> batch_hist_{};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* backpressure_counter_ = nullptr;
  obs::Counter* cache_hit_counter_ = nullptr;
  obs::Counter* cache_miss_counter_ = nullptr;
  obs::CoverageMap* coverage_ = nullptr;
  std::uint32_t cov_shed_ = 0;
  std::uint32_t cov_backpressure_ = 0;
  std::uint32_t cov_preempt_ = 0;
  std::uint32_t cov_crash_ = 0;
  std::uint32_t cov_partition_ = 0;
};

}  // namespace dynaplat::backend
