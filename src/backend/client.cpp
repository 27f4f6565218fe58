#include "backend/client.hpp"

#include <algorithm>
#include <memory>

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

ClientConfig normalized(ClientConfig config) {
  config.max_attempts = std::clamp(config.max_attempts, 1, 255);
  config.breaker_threshold =
      std::clamp(config.breaker_threshold, 1, Breaker::kMaxFailures);
  return config;
}

BackendClient::BackendClient(sim::Simulator& simulator, ClientConfig config)
    : sim_(simulator), config_(normalized(config)) {}

void BackendClient::connect(FleetScheduleService* service) {
  service_ = service;
}

void BackendClient::set_loopback(dse::ScheduleServer* server) {
  loopback_ = server;
}

// --- Breaker ----------------------------------------------------------------

void BackendClient::on_edge(BreakerState prev, Breaker::Edge edge) {
  switch (edge) {
    case Breaker::Edge::kNone:
      return;
    case Breaker::Edge::kOpened:
      open_until_ = sim_.now() + config_.breaker_open_for;
      ++breaker_opens_;
      break;
    case Breaker::Edge::kHalfOpened:
      break;
    case Breaker::Edge::kClosed:
      // Back on the backend: refresh every artifact that was served stale
      // while disconnected *before* telling listeners the uplink is good —
      // degradation must only lift once the vehicle runs fresh artifacts.
      revalidate_stale();
      break;
  }
  const BreakerState next = breaker_.state();
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
      entry.artifact = response.artifact();
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
  outcome.artifact = response.artifact();
  outcome.ok = response.status == ResponseStatus::kOk &&
               outcome.artifact.feasible;
  if (outcome.ok) {
    cache_store(task_set(request.tasks), request.tasks, request.ecu_mips,
                outcome.artifact);
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
  // gate() only ever leaves OPEN.
  on_edge(BreakerState::kOpen, breaker_.gate(sim_.now() >= open_until_));
  if (breaker_.blocks()) {
    ++breaker_fast_fails_;
    return fallback(tasks, ecu_mips);
  }
  ++attempts_;
  SynthesisRequest request;
  request.criticality = criticality;
  request.tasks = std::make_shared<const TaskSet>(tasks);
  request.ecu_mips = ecu_mips;
  const SynthesisResponse response = service_->query(request);
  const BreakerState prev = breaker_.state();
  on_edge(prev, breaker_.reply(response.status, config_.breaker_threshold));
  if (response.status == ResponseStatus::kOk ||
      response.status == ResponseStatus::kInfeasible) {
    return from_response(request, response);
  }
  // Shed / retry-after: the backend is alive, just refusing work, and the
  // caller's own retry cadence (recovery queue, resync timer) spaces the
  // next attempt. Unreachable: the breaker took the failure. Either way
  // the fallback ladder answers now.
  return fallback(tasks, ecu_mips);
}

}  // namespace dynaplat::backend
