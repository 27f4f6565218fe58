#include "backend/client.hpp"

#include <algorithm>
#include <memory>

#include "obs/fnv.hpp"

namespace dynaplat::backend {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

const char* to_string(BackendOutcome::Source source) {
  switch (source) {
    case BackendOutcome::Source::kBackend: return "backend";
    case BackendOutcome::Source::kCache: return "cache";
    case BackendOutcome::Source::kLocalFallback: return "local";
    case BackendOutcome::Source::kNone: return "none";
  }
  return "?";
}

BackendClient::BackendClient(sim::Simulator& simulator, ClientConfig config)
    : sim_(simulator),
      config_(config),
      rng_(sim::Random::stream(config.jitter_seed, config.jitter_stream)) {
  config_.max_attempts = std::max(config_.max_attempts, 1);
  config_.breaker_threshold = std::max(config_.breaker_threshold, 1);
}

BackendClient::~BackendClient() {
  for (auto& [id, pending] : pending_) {
    sim_.cancel(pending.timeout);
    sim_.cancel(pending.resubmit);
  }
}

void BackendClient::connect(FleetScheduleService* service) {
  service_ = service;
}

void BackendClient::set_loopback(dse::ScheduleServer* server) {
  loopback_ = server;
}

void BackendClient::set_metrics(obs::MetricsRegistry* metrics,
                                const std::string& prefix) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    state_gauge_ = nullptr;
    timeout_counter_ = fallback_counter_ = nullptr;
    return;
  }
  state_gauge_ = &metrics_->gauge(prefix + "breaker_state");
  timeout_counter_ = &metrics_->counter(prefix + "timeouts");
  fallback_counter_ = &metrics_->counter(prefix + "fallbacks");
}

void BackendClient::set_coverage(obs::CoverageMap* coverage) {
  coverage_ = coverage;
  if (coverage_ == nullptr) return;
  cov_open_ = coverage_->key("client.breaker.open");
  cov_half_open_ = coverage_->key("client.breaker.half_open");
  cov_closed_ = coverage_->key("client.breaker.closed_after_open");
  cov_stale_ = coverage_->key("client.fallback.stale_cache");
  cov_local_ = coverage_->key("client.fallback.local_admission");
  cov_exhausted_ = coverage_->key("client.fallback.exhausted");
}

// --- Breaker ----------------------------------------------------------------

bool BackendClient::allow_request() {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (sim_.now() >= open_until_) {
        to_state(BreakerState::kHalfOpen);
        return true;  // the probe
      }
      ++breaker_fast_fails_;
      return false;
    case BreakerState::kHalfOpen:
      return true;
  }
  return true;
}

void BackendClient::record_success() {
  consecutive_failures_ = 0;
  if (state_ != BreakerState::kClosed) to_state(BreakerState::kClosed);
}

void BackendClient::record_failure() {
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen) {
    // Probe failed: back to OPEN for a fresh hold window.
    to_state(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= config_.breaker_threshold) {
    to_state(BreakerState::kOpen);
  }
}

void BackendClient::to_state(BreakerState next) {
  const BreakerState prev = state_;
  state_ = next;
  if (next == BreakerState::kOpen) {
    open_until_ = sim_.now() + config_.breaker_open_for;
    ++breaker_opens_;
    if (coverage_ != nullptr) coverage_->hit(cov_open_);
  } else if (next == BreakerState::kHalfOpen) {
    if (coverage_ != nullptr) coverage_->hit(cov_half_open_);
  } else if (prev != BreakerState::kClosed) {
    if (coverage_ != nullptr) coverage_->hit(cov_closed_);
    // Back on the backend: refresh every artifact that was served stale
    // while disconnected *before* telling listeners the uplink is good —
    // degradation must only lift once the vehicle runs fresh artifacts.
    revalidate_stale();
  }
  if (state_gauge_ != nullptr) {
    state_gauge_->set(static_cast<double>(static_cast<int>(next)));
  }
  for (const Listener& listener : listeners_) listener(prev, next);
}

void BackendClient::revalidate_stale() {
  if (service_ == nullptr) return;
  for (auto& [key, entry] : cache_) {
    if (!entry.stale_used) continue;
    SynthesisRequest request;
    request.criticality = Criticality::kResync;
    request.tasks = entry.tasks;
    request.ecu_mips = entry.ecu_mips;
    const SynthesisResponse response = service_->query(request);
    if (response.status == ResponseStatus::kOk ||
        response.status == ResponseStatus::kInfeasible) {
      entry.artifact = response.artifact;
      entry.stale_used = false;
      ++revalidated_;
    }
    // Shed / unreachable: stay marked stale, the next close retries.
  }
}

// --- Artifact cache ---------------------------------------------------------

void BackendClient::cache_store(const TaskSet& tasks,
                                const TaskSetHandle& handle,
                                std::uint64_t ecu_mips,
                                const dse::ScheduleServer::Artifact& artifact) {
  if (config_.artifact_cache_capacity == 0) return;
  const std::uint64_t key = topology_key(tasks, ecu_mips);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.artifact = artifact;
    it->second.stale_used = false;
    return;
  }
  while (cache_.size() >= config_.artifact_cache_capacity) {
    auto oldest = cache_.begin();
    for (auto scan = cache_.begin(); scan != cache_.end(); ++scan) {
      if (scan->second.order < oldest->second.order) oldest = scan;
    }
    cache_.erase(oldest);
  }
  CacheEntry entry;
  entry.artifact = artifact;
  entry.tasks = handle != nullptr ? handle
                                  : std::make_shared<const TaskSet>(tasks);
  entry.ecu_mips = ecu_mips;
  entry.order = next_order_++;
  cache_.emplace(key, std::move(entry));
}

BackendOutcome BackendClient::fallback(
    const std::vector<dse::AnalysisTask>& tasks, std::uint64_t ecu_mips) {
  BackendOutcome outcome;
  const std::uint64_t key = topology_key(tasks, ecu_mips);
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.artifact.feasible) {
    it->second.stale_used = true;
    ++stale_served_;
    if (coverage_ != nullptr) coverage_->hit(cov_stale_);
    if (fallback_counter_ != nullptr) fallback_counter_->add();
    outcome.source = BackendOutcome::Source::kCache;
    outcome.ok = true;
    outcome.stale = true;
    outcome.status = ResponseStatus::kOk;
    outcome.artifact = it->second.artifact;
    return outcome;
  }
  if (config_.local_fallback) {
    const dse::AdmissionDecision decision = admission_.admit({}, tasks);
    if (decision.admitted) {
      ++local_admissions_;
      if (coverage_ != nullptr) coverage_->hit(cov_local_);
      if (fallback_counter_ != nullptr) fallback_counter_->add();
      outcome.source = BackendOutcome::Source::kLocalFallback;
      outcome.ok = true;
      outcome.locally_admitted = true;
      outcome.status = ResponseStatus::kOk;
      if (decision.table.has_value()) {
        outcome.artifact.feasible = true;
        outcome.artifact.table = *decision.table;
      }
      return outcome;
    }
  }
  ++exhausted_;
  if (coverage_ != nullptr) coverage_->hit(cov_exhausted_);
  if (fallback_counter_ != nullptr) fallback_counter_->add();
  outcome.source = BackendOutcome::Source::kNone;
  outcome.status = ResponseStatus::kUnreachable;
  return outcome;
}

BackendOutcome BackendClient::from_response(const SynthesisRequest& request,
                                            const SynthesisResponse& response) {
  BackendOutcome outcome;
  outcome.source = BackendOutcome::Source::kBackend;
  outcome.status = response.status;
  outcome.cache_hit = response.cache_hit;
  outcome.artifact = response.artifact;
  outcome.ok = response.status == ResponseStatus::kOk &&
               response.artifact.feasible;
  if (outcome.ok) {
    cache_store(task_set(request.tasks), request.tasks, request.ecu_mips,
                response.artifact);
  }
  return outcome;
}

// --- Synchronous facade -----------------------------------------------------

BackendOutcome BackendClient::synthesize(
    const std::vector<dse::AnalysisTask>& tasks, std::uint64_t ecu_mips,
    Criticality criticality) {
  if (service_ == nullptr) {
    if (loopback_ != nullptr) {
      ++attempts_;
      BackendOutcome outcome;
      outcome.source = BackendOutcome::Source::kBackend;
      outcome.artifact = loopback_->synthesize(tasks, ecu_mips);
      outcome.ok = outcome.artifact.feasible;
      outcome.status = outcome.ok ? ResponseStatus::kOk
                                  : ResponseStatus::kInfeasible;
      if (outcome.ok) cache_store(tasks, nullptr, ecu_mips, outcome.artifact);
      return outcome;
    }
    return fallback(tasks, ecu_mips);
  }
  if (!allow_request()) return fallback(tasks, ecu_mips);
  ++attempts_;
  SynthesisRequest request;
  request.criticality = criticality;
  request.tasks = std::make_shared<const TaskSet>(tasks);
  request.ecu_mips = ecu_mips;
  const SynthesisResponse response = service_->query(request);
  switch (response.status) {
    case ResponseStatus::kOk:
    case ResponseStatus::kInfeasible:
      record_success();
      return from_response(request, response);
    case ResponseStatus::kShed:
    case ResponseStatus::kRetryAfter:
      // The backend is alive, just refusing work: not a breaker failure.
      // The caller's own retry cadence (recovery queue, resync timer)
      // spaces the next attempt; meanwhile run the fallback ladder.
      record_success();
      return fallback(tasks, ecu_mips);
    case ResponseStatus::kUnreachable:
      record_failure();
      return fallback(tasks, ecu_mips);
  }
  return fallback(tasks, ecu_mips);
}

// --- Async path -------------------------------------------------------------

void BackendClient::request(SynthesisRequest request, Callback done) {
  const std::uint64_t id = next_id_++;
  Pending pending;
  pending.request = std::move(request);
  pending.done = std::move(done);
  pending_.emplace(id, std::move(pending));
  start_attempt(id);
}

sim::Duration BackendClient::next_backoff(Pending& pending) {
  if (pending.backoff == 0) {
    pending.backoff = config_.backoff_base;
  } else {
    const double scaled =
        static_cast<double>(pending.backoff) * config_.backoff_factor;
    pending.backoff = std::min(
        static_cast<sim::Duration>(scaled), config_.max_backoff);
  }
  const double jitter = config_.jitter;
  if (jitter <= 0.0) return pending.backoff;
  const double factor = 1.0 + jitter * (2.0 * rng_.uniform01() - 1.0);
  const auto jittered =
      static_cast<sim::Duration>(static_cast<double>(pending.backoff) * factor);
  return std::max<sim::Duration>(jittered, sim::kMicrosecond);
}

void BackendClient::start_attempt(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.resubmit = {};
  if (service_ == nullptr || !allow_request()) {
    // Fast-fail: breaker OPEN (or never connected). No wire traffic.
    finish(id, fallback(task_set(pending.request.tasks),
                        pending.request.ecu_mips));
    return;
  }
  ++attempts_;
  ++pending.attempt;
  const std::uint64_t token = ++pending.attempt_token;
  service_->submit(pending.request,
                   [this, id, token](const SynthesisResponse& response) {
                     on_response(id, token, response);
                   });
  pending.timeout = sim_.schedule_in(config_.request_timeout,
                                     [this, id] { on_timeout(id); });
}

void BackendClient::on_response(std::uint64_t id, std::uint64_t token,
                                const SynthesisResponse& response) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (pending.attempt_token != token) return;  // a timed-out attempt's ghost
  sim_.cancel(pending.timeout);
  pending.timeout = {};
  switch (response.status) {
    case ResponseStatus::kOk:
    case ResponseStatus::kInfeasible:
      record_success();
      finish(id, from_response(pending.request, response));
      return;
    case ResponseStatus::kShed:
    case ResponseStatus::kRetryAfter:
      record_success();  // alive, just saturated
      retry_or_fail(id, response.retry_after);
      return;
    case ResponseStatus::kUnreachable:
      record_failure();
      retry_or_fail(id, 0);
      return;
  }
}

void BackendClient::on_timeout(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  ++timeouts_;
  if (timeout_counter_ != nullptr) timeout_counter_->add();
  ++pending.attempt_token;  // invalidate the in-flight attempt's response
  pending.timeout = {};
  record_failure();
  retry_or_fail(id, 0);
}

void BackendClient::retry_or_fail(std::uint64_t id,
                                  sim::Duration floor_delay) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (pending.attempt >= config_.max_attempts ||
      state_ == BreakerState::kOpen) {
    // Exhausted (or the breaker just slammed shut): degrade now rather
    // than stack more timeouts — the caller's cadence retries later.
    finish(id, fallback(task_set(pending.request.tasks),
                        pending.request.ecu_mips));
    return;
  }
  const sim::Duration delay = std::max(next_backoff(pending), floor_delay);
  pending.resubmit = sim_.schedule_in(delay, [this, id] { start_attempt(id); });
}

void BackendClient::finish(std::uint64_t id, const BackendOutcome& outcome) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Callback done = std::move(it->second.done);
  sim_.cancel(it->second.timeout);
  sim_.cancel(it->second.resubmit);
  pending_.erase(it);
  if (done) done(outcome);
}

std::uint64_t BackendClient::fingerprint() const {
  std::uint64_t hash = obs::kFnvSeed;
  const std::uint64_t fields[] = {
      attempts_,      timeouts_,        breaker_opens_,
      breaker_fast_fails_, stale_served_, local_admissions_,
      revalidated_,   exhausted_,       static_cast<std::uint64_t>(state_),
      static_cast<std::uint64_t>(consecutive_failures_),
      static_cast<std::uint64_t>(cache_.size()),
      static_cast<std::uint64_t>(pending_.size())};
  for (const std::uint64_t field : fields) hash = obs::fnv1a_u64(hash, field);
  return hash;
}

}  // namespace dynaplat::backend
