#include "dse/exploration.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "concurrency/thread_pool.hpp"
#include "dse/schedulability.hpp"

namespace dynaplat::dse {

Explorer::Explorer(const model::SystemModel& system_model,
                   CostWeights weights)
    : model_(system_model), weights_(weights) {
  // The verifier's schedulability test goes through the (ECU, app set)
  // memo; the test is a pure function of its arguments and the hook
  // receives apps in name order, the order memo_schedulable() rebuilds
  // from a memo key, so cached verdicts are exact. The fast path and
  // IncrementalState share the memo.
  sched_test_ = make_verifier_hook();
  verifier_.set_schedulability_hook(
      [this](const model::EcuDef& ecu,
             const std::vector<const model::AppDef*>& apps, std::string* why) {
        if (!cache_enabled_) return sched_test_(ecu, apps, why);
        // The verifier only ever passes this model's ECUs and apps, so
        // their addresses index model_.ecus() and model_.apps().
        std::vector<std::uint64_t> key(key_words_, 0);
        key[0] = static_cast<std::uint64_t>(&ecu - model_.ecus().data());
        for (const model::AppDef* app : apps) {
          const std::size_t rank =
              name_rank_[static_cast<std::size_t>(app - model_.apps().data())];
          key[1 + rank / 64] |= std::uint64_t{1} << (rank % 64);
        }
        return memo_schedulable(key.data(),
                                hash_words(key.data(), key.size()), why);
      });
  for (const auto& app : model_.apps()) apps_.push_back(&app);
  for (const auto& ecu : model_.ecus()) ecus_.push_back(&ecu);

  // Name-sorted app order mirrors Assignment::apps_on, whose std::map
  // iterates placements alphabetically; per-ECU utilization must be summed
  // in the same order to reproduce cost()'s arithmetic.
  apps_by_name_.resize(apps_.size());
  std::iota(apps_by_name_.begin(), apps_by_name_.end(), std::size_t{0});
  std::sort(apps_by_name_.begin(), apps_by_name_.end(),
            [&](std::size_t a, std::size_t b) {
              return apps_[a]->name < apps_[b]->name;
            });
  name_rank_.resize(apps_.size());
  rank_memory_.resize(apps_.size());
  rank_util_.resize(apps_.size() * ecus_.size());
  for (std::size_t rank = 0; rank < apps_.size(); ++rank) {
    const model::AppDef* app = apps_[apps_by_name_[rank]];
    name_rank_[apps_by_name_[rank]] = rank;
    rank_memory_[rank] = app->memory_bytes;
    for (std::size_t e = 0; e < ecus_.size(); ++e) {
      rank_util_[rank * ecus_.size() + e] = app->utilization_on(ecus_[e]->mips);
    }
  }
  key_words_ = 1 + (apps_.size() + 63) / 64;
  for (SchedShard& shard : sched_cache_) shard.keys = KeyIndex(key_words_);

  const auto index_of = [&](const model::AppDef* app) {
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (apps_[i] == app) return i;
    }
    return kNoApp;
  };
  app_interfaces_.resize(apps_.size());
  interface_info_.reserve(model_.interfaces().size());
  for (const auto& interface : model_.interfaces()) {
    InterfaceInfo info;
    info.def = &interface;
    const double period_ms =
        interface.period > 0 ? static_cast<double>(interface.period) / 1e6
                             : 100.0;
    info.pair_cost = weights_.cross_ecu_comm *
                     static_cast<double>(interface.payload_bytes) / period_ms;
    if (interface.paradigm == model::Paradigm::kStream &&
        interface.bandwidth_bps > 0) {
      info.stream_bw = interface.bandwidth_bps;
    }
    if (const model::AppDef* provider = model_.provider_of(interface.name)) {
      info.provider_app = index_of(provider);
    }
    for (const model::AppDef* consumer :
         model_.consumers_of(interface.name)) {
      info.consumer_apps.push_back(index_of(consumer));
    }
    const std::size_t index = interface_info_.size();
    const auto touch = [&](std::size_t app) {
      if (app == kNoApp) return;
      auto& list = app_interfaces_[app];
      if (list.empty() || list.back() != index) list.push_back(index);
    };
    touch(info.provider_app);
    for (const std::size_t consumer : info.consumer_apps) touch(consumer);
    interface_info_.push_back(std::move(info));
  }

  build_fast_model();
}

// --- Genome-native fast evaluation -------------------------------------------
//
// Compiles the verifier's ERROR-severity rules against the space of decoded
// genomes (every app deployed; replica runs on consecutive ECUs). Warnings
// never affect feasibility, so they are ignored. The fast path must return
// exactly feasible(decode(genome)) — DseFastPath.* in
// tests/concurrency_test.cpp cross-checks it rule by rule.

void Explorer::build_fast_model() {
  const std::size_t napps = apps_.size();
  const std::size_t necus = ecus_.size();
  FastModel fm;

  // (a) Model-only error rules: identical verdict for every decoded genome.
  // structure.unknown-app / unknown-ecu cannot fire (decode emits only
  // modeled names); structure.undeployed-app is a warning.
  for (const auto* ecu : ecus_) {
    if (!ecu->network.empty() && model_.network(ecu->network) == nullptr) {
      fm.static_error = true;  // structure.unknown-network
    }
  }
  for (const auto& interface : model_.interfaces()) {
    int providers = 0;
    for (const auto& app : model_.apps()) {
      providers += static_cast<int>(std::count(
          app.provides.begin(), app.provides.end(), interface.name));
    }
    if (providers > 1) fm.static_error = true;  // structure.multiple-owners
  }
  for (const auto& app : model_.apps()) {
    for (const auto& name : app.provides) {
      if (model_.interface(name) == nullptr) {
        fm.static_error = true;  // structure.unknown-interface
      }
    }
    for (const auto& name : app.consumes) {
      const model::InterfaceDef* interface = model_.interface(name);
      if (interface == nullptr) {
        fm.static_error = true;  // structure.unknown-interface
      } else if (model_.provider_of(name) == nullptr) {
        fm.static_error = true;  // structure.unprovided-interface
      } else {
        const auto pinned = app.min_versions.find(name);
        if (pinned != app.min_versions.end() &&
            interface->version < pinned->second) {
          fm.static_error = true;  // structure.version-mismatch
        }
      }
    }
    for (const model::AppDef* dep : model_.dependencies_of(app)) {
      if (dep->asil < app.asil) fm.static_error = true;  // asil.dependency
    }
    // redundancy.placement: decode places replicas on consecutive distinct
    // ECUs, so the distinct-host count is min(replicas, |ecus|) for every
    // genome — the rule fires iff the farm is too small.
    if (app.replicas > 1 && static_cast<std::size_t>(app.replicas) > necus) {
      fm.static_error = true;
    }
  }

  // (b) Host admissibility per (app, ECU): asil.ecu-certification and
  // cpu.rtos-required both depend only on the pair.
  fm.app_ecu_ok.assign(napps * necus, 1);
  for (std::size_t a = 0; a < napps; ++a) {
    for (std::size_t e = 0; e < necus; ++e) {
      const bool ok =
          apps_[a]->asil <= ecus_[e]->max_asil &&
          (apps_[a]->app_class != model::AppClass::kDeterministic ||
           ecus_[e]->rtos);
      fm.app_ecu_ok[a * necus + e] = ok ? 1 : 0;
    }
  }

  // (d) Network verdict per (interface, provider ECU, consumer ECU):
  // network.unreachable and network.latency-floor are pair-local; stream
  // interfaces record which network absorbs their bandwidth so
  // fast_feasible() can sum loads with the verifier's per-cross-pair
  // multiplicity.
  const auto network_index = [&](const model::NetworkDef* net) {
    const auto& networks = model_.networks();
    for (std::size_t k = 0; k < networks.size(); ++k) {
      if (&networks[k] == net) return static_cast<std::int32_t>(k);
    }
    return std::int32_t{-1};
  };
  fm.pairs.assign(interface_info_.size() * necus * necus, PairVerdict{});
  for (std::size_t i = 0; i < interface_info_.size(); ++i) {
    const model::InterfaceDef* def = interface_info_[i].def;
    for (std::size_t p = 0; p < necus; ++p) {
      for (std::size_t c = 0; c < necus; ++c) {
        if (p == c) continue;  // co-located: RTE-local, no network
        PairVerdict& verdict = fm.pairs[(i * necus + p) * necus + c];
        const model::EcuDef* pe = ecus_[p];
        const model::EcuDef* ce = ecus_[c];
        if (pe->network.empty() || pe->network != ce->network) {
          verdict.fatal = true;  // network.unreachable
          continue;
        }
        const model::NetworkDef* net = model_.network(pe->network);
        if (net == nullptr) continue;  // unknown-network: static error above
        if (def->max_latency > 0 &&
            def->max_latency < model::network_latency_floor(
                                   *net, def->payload_bytes)) {
          verdict.fatal = true;  // network.latency-floor
          continue;
        }
        if (interface_info_[i].stream_bw > 0) {
          verdict.bw_net = network_index(net);
        }
      }
    }
  }
  fm.net_budget.reserve(model_.networks().size());
  for (const auto& net : model_.networks()) {
    fm.net_budget.push_back(net.bitrate_bps * 3 / 4);
  }

  fast_ = std::move(fm);
}

template <typename Fn>
void Explorer::for_each_rank(const std::uint64_t* key, Fn&& fn) const {
  for (std::size_t w = 1; w < key_words_; ++w) {
    for (std::uint64_t bits = key[w]; bits != 0; bits &= bits - 1) {
      fn((w - 1) * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

Explorer::EcuLoad Explorer::load_of(const std::uint64_t* key) const {
  const std::size_t ecu = static_cast<std::size_t>(key[0]);
  const std::size_t necus = ecus_.size();
  EcuLoad load;
  for_each_rank(key, [&](std::size_t rank) {
    load.memory += rank_memory_[rank];
    load.utilization += rank_util_[rank * necus + ecu];
    ++load.apps;
  });
  return load;
}

Explorer::EcuLoad Explorer::gather_ecu(const Genome& genome, std::size_t ecu,
                                       std::uint64_t* key) const {
  std::fill(key, key + key_words_, std::uint64_t{0});
  key[0] = ecu;
  for (std::size_t rank = 0; rank < apps_by_name_.size(); ++rank) {
    const std::size_t a = apps_by_name_[rank];
    if (genome_hosted_on(a, genome[a], ecu)) {
      key[1 + rank / 64] |= std::uint64_t{1} << (rank % 64);
    }
  }
  return load_of(key);
}

bool Explorer::capacity_ok(std::size_t ecu, const EcuLoad& load) const {
  const model::EcuDef& def = *ecus_[ecu];
  if (load.memory > def.memory_bytes) return false;      // memory.capacity
  if (load.apps > 1 && !def.has_mmu) return false;       // mmu-required
  const double capacity = std::max(1, def.cores);
  return load.utilization <= capacity;                   // cpu.overload
}

bool Explorer::app_admissible(std::size_t app, std::size_t gene) const {
  const std::size_t necus = ecus_.size();
  const std::size_t replicas = std::min(replicas_of(app), necus);
  for (std::size_t r = 0; r < replicas; ++r) {
    if (fast_.app_ecu_ok[app * necus + (gene + r) % necus] == 0) return false;
  }
  return true;
}

template <typename Fn>
void Explorer::for_each_cross_pair(const InterfaceInfo& info,
                                   const Genome& genome, Fn&& fn) const {
  if (info.provider_app == kNoApp) return;
  const std::size_t n = ecus_.size();
  const std::size_t pg = genome[info.provider_app];
  const std::size_t preplicas = replicas_of(info.provider_app);
  for (const std::size_t consumer : info.consumer_apps) {
    if (consumer == kNoApp) continue;
    const std::size_t cg = genome[consumer];
    const std::size_t creplicas = replicas_of(consumer);
    for (std::size_t p = 0; p < preplicas; ++p) {
      const std::size_t pe = (pg + p) % n;
      for (std::size_t c = 0; c < creplicas; ++c) {
        const std::size_t ce = (cg + c) % n;
        if (pe != ce) fn(pe, ce);
      }
    }
  }
}

bool Explorer::fast_feasible(const Genome& genome) const {
  if (fast_.static_error) return false;
  const std::size_t necus = ecus_.size();

  for (std::size_t a = 0; a < genome.size(); ++a) {
    if (!app_admissible(a, genome[a])) return false;
  }

  // (c) Per-ECU capacity + schedulability.
  std::vector<std::uint64_t> key(key_words_);
  for (std::size_t e = 0; e < necus; ++e) {
    const EcuLoad load = gather_ecu(genome, e, key.data());
    if (load.apps == 0) continue;
    if (!capacity_ok(e, load) ||
        !memo_schedulable(key.data(), hash_words(key.data(), key.size()),
                          nullptr)) {
      return false;
    }
  }

  // Network pair verdicts + stream bandwidth budget.
  std::vector<std::uint64_t> load(model_.networks().size(), 0);
  for (std::size_t i = 0; i < interface_info_.size(); ++i) {
    const InterfaceInfo& info = interface_info_[i];
    bool fatal = false;
    for_each_cross_pair(info, genome, [&](std::size_t pe, std::size_t ce) {
      const PairVerdict& verdict = fast_.pairs[(i * necus + pe) * necus + ce];
      fatal = fatal || verdict.fatal;
      if (verdict.bw_net >= 0) {
        load[static_cast<std::size_t>(verdict.bw_net)] += info.stream_bw;
      }
    });
    if (fatal) return false;
  }
  for (std::size_t k = 0; k < load.size(); ++k) {
    if (load[k] > fast_.net_budget[k]) return false;  // network.bandwidth
  }
  return true;
}

double Explorer::genome_soft_cost(const Genome& genome) const {
  double total = 0.0;

  // Mirrors soft_cost() term by term; gather_ecu() walks apps in the order
  // Assignment::apps_on yields them, so the arithmetic is bit-equal.
  double max_util = 0.0;
  double min_util = std::numeric_limits<double>::infinity();
  std::size_t used = 0;
  std::vector<std::uint64_t> key(key_words_);
  for (std::size_t e = 0; e < ecus_.size(); ++e) {
    const EcuLoad load = gather_ecu(genome, e, key.data());
    if (load.apps > 0) {
      ++used;
      max_util = std::max(max_util, load.utilization);
      min_util = std::min(min_util, load.utilization);
    }
  }
  total += weights_.per_ecu * static_cast<double>(used);
  if (used > 1) total += weights_.load_imbalance * (max_util - min_util);

  for (const InterfaceInfo& info : interface_info_) {
    for_each_cross_pair(info, genome, [&](std::size_t, std::size_t) {
      total += info.pair_cost;
    });
  }
  return total;
}

double Explorer::evaluate_genome(const Genome& genome) const {
  if (!cache_enabled_) return genome_cost(genome);
  return fast_feasible(genome)
             ? genome_soft_cost(genome)
             : weights_.infeasible_penalty + genome_soft_cost(genome);
}

std::vector<std::string> Explorer::hosts_for(std::size_t app_index,
                                             std::size_t ecu_index) const {
  const int replicas = std::max(1, apps_[app_index]->replicas);
  std::vector<std::string> hosts;
  for (int r = 0; r < replicas; ++r) {
    hosts.push_back(
        ecus_[(ecu_index + static_cast<std::size_t>(r)) % ecus_.size()]
            ->name);
  }
  return hosts;
}

model::Assignment Explorer::decode(const Genome& genome) const {
  model::Assignment assignment;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    assignment.placement[apps_[i]->name] = hosts_for(i, genome[i]);
  }
  return assignment;
}

bool Explorer::feasible(const model::Assignment& assignment) const {
  return !model::Verifier::has_errors(
      verifier_.verify_assignment(model_, assignment));
}

double Explorer::soft_cost(const model::Assignment& assignment) const {
  double total = 0.0;

  // Powered ECUs and utilization spread.
  double max_util = 0.0;
  double min_util = std::numeric_limits<double>::infinity();
  std::size_t used = 0;
  for (const auto* ecu : ecus_) {
    const auto apps = assignment.apps_on(ecu->name);
    double util = 0.0;
    for (const auto& app_name : apps) {
      const model::AppDef* app = model_.app(app_name);
      if (app != nullptr) util += app->utilization_on(ecu->mips);
    }
    if (!apps.empty()) {
      ++used;
      max_util = std::max(max_util, util);
      min_util = std::min(min_util, util);
    }
  }
  total += weights_.per_ecu * static_cast<double>(used);
  if (used > 1) total += weights_.load_imbalance * (max_util - min_util);

  // Communication locality: payload/period rate for cross-ECU pairs.
  for (const auto& info : interface_info_) {
    if (info.provider_app == kNoApp) continue;
    auto provider_it =
        assignment.placement.find(apps_[info.provider_app]->name);
    if (provider_it == assignment.placement.end()) continue;
    for (const std::size_t consumer : info.consumer_apps) {
      auto consumer_it = assignment.placement.find(apps_[consumer]->name);
      if (consumer_it == assignment.placement.end()) continue;
      for (const auto& ph : provider_it->second) {
        for (const auto& ch : consumer_it->second) {
          if (ph == ch) continue;
          total += info.pair_cost;
        }
      }
    }
  }
  return total;
}

double Explorer::cost(const model::Assignment& assignment) const {
  double total = 0.0;
  if (!feasible(assignment)) total += weights_.infeasible_penalty;
  return total + soft_cost(assignment);
}

double Explorer::genome_cost(const Genome& genome) const {
  return cost(decode(genome));
}

double Explorer::cached_genome_cost(
    const Genome& genome, std::atomic<std::uint64_t>* hits) const {
  if (!cache_enabled_) return genome_cost(genome);
  CacheShard& shard = cache_[GenomeHash{}(genome) % kCacheShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.costs.find(genome);
    if (it != shard.costs.end()) {
      if (hits != nullptr) hits->fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compute outside the shard lock (evaluation dominates); a racing
  // duplicate computation stores the identical pure-function value. The
  // genome-native path yields the same bits as cost(decode(genome)).
  const double c = evaluate_genome(genome);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.costs[genome] = c;
  return c;
}

std::size_t Explorer::KeyIndex::probe(const std::uint64_t* key,
                                      std::uint32_t tag) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = home(tag);; slot = (slot + 1) & mask) {
    const Slot& s = slots_[slot];
    if (s.entry == 0) return slot;
    if (s.tag == tag &&
        std::equal(key, key + words_, keys_.begin() + (s.entry - 1) * words_)) {
      return slot;
    }
  }
}

std::size_t Explorer::KeyIndex::find(const std::uint64_t* key,
                                     std::uint64_t hash) const {
  if (slots_.empty()) return kAbsent;
  const std::uint32_t entry =
      slots_[probe(key, static_cast<std::uint32_t>(hash >> 32))].entry;
  return entry == 0 ? kAbsent : entry - 1;
}

void Explorer::KeyIndex::insert(const std::uint64_t* key,
                                std::uint64_t hash) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  keys_.insert(keys_.end(), key, key + words_);
  slots_[probe(key, tag)] = Slot{tag, static_cast<std::uint32_t>(++size_)};
}

void Explorer::KeyIndex::grow() {
  // 64 slots, then doubling; homes come from the tag, so at most 2^32 slots
  // (2^31 entries, far beyond any model's ECU x app-set count).
  const std::size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  shift_ = 32 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.entry == 0) continue;
    std::size_t slot = home(s.tag);
    while (slots_[slot].entry != 0) slot = (slot + 1) & mask;
    slots_[slot] = s;
  }
}

void Explorer::KeyIndex::clear() {
  slots_.clear();
  keys_.clear();
  size_ = 0;
}

bool Explorer::memo_schedulable(const std::uint64_t* key, std::uint64_t hash,
                                std::string* why) const {
  SchedShard& shard = sched_cache_[hash % kCacheShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::size_t entry = shard.keys.find(key, hash);
    if (entry != KeyIndex::kAbsent) {
      if (why != nullptr) *why = shard.entries[entry].why;
      return shard.entries[entry].ok;
    }
  }
  // The hosted apps in name order, in one buffer per thread: a miss
  // allocates nothing once it has grown (the hook runs on per-thread
  // scratch too).
  thread_local std::vector<const model::AppDef*> hosted;
  hosted.clear();
  for_each_rank(key, [&](std::size_t rank) {
    hosted.push_back(apps_[apps_by_name_[rank]]);
  });
  std::string reason;
  const bool ok =
      sched_test_(*ecus_[static_cast<std::size_t>(key[0])], hosted, &reason);
  if (why != nullptr) *why = reason;
  std::lock_guard<std::mutex> lock(shard.mutex);
  // A racing worker may have stored the same (pure) verdict meanwhile.
  if (shard.keys.find(key, hash) == KeyIndex::kAbsent) {
    shard.keys.insert(key, hash);
    shard.entries.push_back(SchedEntry{ok, std::move(reason)});
  }
  return ok;
}

void Explorer::clear_cache() {
  for (CacheShard& shard : cache_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.costs.clear();
  }
  for (SchedShard& shard : sched_cache_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.keys.clear();
    shard.entries.clear();
  }
}

std::size_t Explorer::cache_size() const {
  std::size_t total = 0;
  for (CacheShard& shard : cache_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.costs.size();
  }
  return total;
}

// --- Incremental annealing state ---------------------------------------------

Explorer::IncrementalState::IncrementalState(const Explorer& explorer,
                                             Genome genome, bool verdicts)
    : explorer_(explorer),
      verdicts_(verdicts),
      networks_(explorer.model_.networks().size()),
      genome_(std::move(genome)),
      keys_(explorer.ecus_.size() * explorer.key_words_, 0),
      util_(explorer.ecus_.size(), 0.0),
      app_count_(explorer.ecus_.size(), 0),
      ecu_ok_(explorer.ecus_.size(), 1),
      app_ok_(explorer.apps_.size(), 1),
      cross_pairs_(explorer.interface_info_.size(), 0),
      ifc_fatal_(explorer.interface_info_.size(), 0),
      ifc_load_(explorer.interface_info_.size() * networks_, 0),
      seen_(explorer.key_words_) {
  for (std::size_t e = 0; e < util_.size(); ++e) {
    explorer_.gather_ecu(genome_, e, keys_.data() + e * explorer_.key_words_);
    recompute_ecu(e);
  }
  for (std::size_t i = 0; i < cross_pairs_.size(); ++i) {
    recompute_interface(i);
  }
  if (verdicts_) {
    for (std::size_t a = 0; a < app_ok_.size(); ++a) {
      app_ok_[a] = explorer_.app_admissible(a, genome_[a]) ? 1 : 0;
    }
  }
}

void Explorer::IncrementalState::mark_run(std::size_t app, std::size_t gene,
                                          bool hosted) {
  const std::size_t n = util_.size();
  const std::size_t rank = explorer_.name_rank_[app];
  const std::size_t word = 1 + rank / 64;
  const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
  const std::size_t replicas = std::min(explorer_.replicas_of(app), n);
  for (std::size_t r = 0; r < replicas; ++r) {
    std::uint64_t& bits = keys_[((gene + r) % n) * explorer_.key_words_ + word];
    bits = hosted ? (bits | bit) : (bits & ~bit);
  }
}

bool Explorer::IncrementalState::move(std::size_t app, std::size_t gene) {
  // O(touched ECUs x hosted apps + touched interfaces x replica pairs)
  // instead of a full re-score.
  const std::size_t n = util_.size();
  const std::size_t old_gene = genome_[app];
  mark_run(app, old_gene, false);
  mark_run(app, gene, true);
  genome_[app] = gene;
  bool seen = true;
  const std::size_t replicas = std::min(explorer_.replicas_of(app), n);
  for (std::size_t r = 0; r < replicas; ++r) {
    seen = recompute_ecu((old_gene + r) % n) && seen;
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::size_t e = (gene + r) % n;
    if (!explorer_.genome_hosted_on(app, old_gene, e)) {
      seen = recompute_ecu(e) && seen;
    }
  }
  if (verdicts_) app_ok_[app] = explorer_.app_admissible(app, gene) ? 1 : 0;
  for (const std::size_t i : explorer_.app_interfaces_[app]) {
    recompute_interface(i);
  }
  return seen;
}

double Explorer::IncrementalState::total() const {
  std::size_t used = 0;
  double max_util = 0.0;
  double min_util = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < util_.size(); ++e) {
    if (app_count_[e] > 0) {
      ++used;
      max_util = std::max(max_util, util_[e]);
      min_util = std::min(min_util, util_[e]);
    }
  }
  const CostWeights& weights = explorer_.weights_;
  double total = weights.per_ecu * static_cast<double>(used);
  if (used > 1) total += weights.load_imbalance * (max_util - min_util);
  // One addition per cross pair in interface order, as genome_soft_cost()
  // does: a per-interface subtotal would round differently.
  for (std::size_t i = 0; i < cross_pairs_.size(); ++i) {
    const double pair_cost = explorer_.interface_info_[i].pair_cost;
    for (std::size_t k = 0; k < cross_pairs_[i]; ++k) total += pair_cost;
  }
  return total;
}

bool Explorer::IncrementalState::feasible() const {
  const auto all_set = [](const std::vector<char>& flags) {
    return std::find(flags.begin(), flags.end(), 0) == flags.end();
  };
  if (explorer_.fast_.static_error || !all_set(app_ok_) ||
      !all_set(ecu_ok_) ||
      std::find(ifc_fatal_.begin(), ifc_fatal_.end(), 1) != ifc_fatal_.end()) {
    return false;
  }
  for (std::size_t k = 0; k < networks_; ++k) {
    std::uint64_t load = 0;
    for (std::size_t i = 0; i < cross_pairs_.size(); ++i) {
      load += ifc_load_[i * networks_ + k];
    }
    if (load > explorer_.fast_.net_budget[k]) return false;
  }
  return true;
}

bool Explorer::IncrementalState::recompute_ecu(std::size_t ecu) {
  const std::uint64_t* key = keys_.data() + ecu * explorer_.key_words_;
  const EcuLoad load = explorer_.load_of(key);
  util_[ecu] = load.utilization;
  app_count_[ecu] = load.apps;
  if (!verdicts_) return true;
  if (load.apps == 0 || !explorer_.capacity_ok(ecu, load)) {
    ecu_ok_[ecu] = load.apps == 0 ? 1 : 0;
    return true;  // no schedulability test needed
  }
  const std::uint64_t hash = hash_words(key, explorer_.key_words_);
  const std::size_t entry = seen_.find(key, hash);
  if (entry != KeyIndex::kAbsent) {
    ecu_ok_[ecu] = seen_ok_[entry];
    return true;
  }
  const bool ok = explorer_.memo_schedulable(key, hash, nullptr);
  seen_.insert(key, hash);
  seen_ok_.push_back(ok ? 1 : 0);
  ecu_ok_[ecu] = ok ? 1 : 0;
  return false;
}

void Explorer::IncrementalState::recompute_interface(std::size_t index) {
  const InterfaceInfo& info = explorer_.interface_info_[index];
  const std::size_t n = util_.size();
  std::size_t pairs = 0;
  bool fatal = false;
  std::uint64_t* load = ifc_load_.data() + index * networks_;
  std::fill(load, load + networks_, std::uint64_t{0});
  explorer_.for_each_cross_pair(
      info, genome_, [&](std::size_t pe, std::size_t ce) {
        ++pairs;
        if (!verdicts_) return;
        const PairVerdict& verdict =
            explorer_.fast_.pairs[(index * n + pe) * n + ce];
        fatal = fatal || verdict.fatal;
        if (verdict.bw_net >= 0) {
          load[static_cast<std::size_t>(verdict.bw_net)] += info.stream_bw;
        }
      });
  cross_pairs_[index] = pairs;
  ifc_fatal_[index] = fatal ? 1 : 0;
}

namespace {

/// Wall-clock stopwatch for exploration throughput gauges.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void Explorer::publish_metrics(const ExplorationResult& result,
                               double wall_seconds) const {
  if (metrics_ == nullptr) return;
  const std::string prefix = "dse." + result.strategy + ".";
  metrics_->counter(prefix + "candidates").add(result.candidates_evaluated);
  metrics_->counter(prefix + "cache_hits").add(result.cache_hits);
  if (wall_seconds > 0.0) {
    metrics_->gauge(prefix + "candidates_per_sec")
        .set(static_cast<double>(result.candidates_evaluated) / wall_seconds);
  }
  if (result.candidates_evaluated > 0) {
    metrics_->gauge(prefix + "cache_hit_rate")
        .set(static_cast<double>(result.cache_hits) /
             static_cast<double>(result.candidates_evaluated));
  }
}

// --- Strategies --------------------------------------------------------------

ExplorationResult Explorer::exhaustive(std::uint64_t max_candidates,
                                       std::size_t threads) {
  ExplorationResult result;
  result.strategy = "exhaustive";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;

  const std::uint64_t necus = ecus_.size();
  const std::uint64_t cap = std::max<std::uint64_t>(1, max_candidates);
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < apps_.size() && total < cap; ++i) {
    total = (total > cap / necus) ? cap : total * necus;
  }
  total = std::min(total, cap);

  // Partitioned sweep: each chunk scans a contiguous index range and keeps
  // its earliest minimum; the merge walks chunks in index order, so the
  // winner ties-break exactly like the serial first-minimum-wins loop.
  struct ChunkBest {
    double cost = std::numeric_limits<double>::infinity();
    Genome genome;
  };
  const std::uint64_t grain = std::max<std::uint64_t>(
      64, total / (8 * std::max<std::size_t>(1, threads)));
  const std::uint64_t chunks = (total + grain - 1) / grain;
  std::vector<ChunkBest> bests(static_cast<std::size_t>(chunks));

  const auto sweep_chunk = [&](std::size_t chunk) {
    const std::uint64_t lo = static_cast<std::uint64_t>(chunk) * grain;
    const std::uint64_t hi = std::min(lo + grain, total);
    // Seed the odometer at index `lo` (genome[d] is digit d, base |ecus|).
    Genome genome(apps_.size(), 0);
    std::uint64_t rest = lo;
    for (std::size_t d = 0; d < genome.size() && rest > 0; ++d) {
      genome[d] = static_cast<std::size_t>(rest % necus);
      rest /= necus;
    }
    ChunkBest best;
    for (std::uint64_t k = lo; k < hi; ++k) {
      const double c = evaluate_genome(genome);
      if (c < best.cost) {
        best.cost = c;
        best.genome = genome;
      }
      std::size_t digit = 0;
      while (digit < genome.size()) {
        if (++genome[digit] < necus) break;
        genome[digit] = 0;
        ++digit;
      }
    }
    bests[chunk] = std::move(best);
  };

  std::optional<concurrency::ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  concurrency::parallel_for(pool ? &*pool : nullptr, 0,
                            static_cast<std::size_t>(chunks), 1, sweep_chunk);

  result.candidates_evaluated = total;
  const ChunkBest* winner = nullptr;
  for (const ChunkBest& best : bests) {
    if (!best.genome.empty() &&
        (winner == nullptr || best.cost < winner->cost)) {
      winner = &best;
    }
  }
  if (winner != nullptr) {
    result.assignment = decode(winner->genome);
    result.cost = winner->cost;
    result.feasible = winner->cost < weights_.infeasible_penalty;
  }
  publish_metrics(result, wall.seconds());
  return result;
}

Explorer::Genome Explorer::greedy_genome(std::uint64_t& candidates) const {
  // Apps by decreasing worst-case utilization (on the slowest ECU).
  std::uint64_t min_mips = ecus_[0]->mips;
  for (const auto* ecu : ecus_) min_mips = std::min(min_mips, ecu->mips);
  std::vector<std::size_t> order(apps_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return apps_[a]->utilization_on(min_mips) >
           apps_[b]->utilization_on(min_mips);
  });

  Genome genome(apps_.size(), 0);
  model::Assignment partial;
  for (std::size_t app_index : order) {
    // Trial placements rewrite this app's slot in place (map node stays
    // stable) instead of copying the whole partial assignment per ECU.
    auto& hosts = partial.placement[apps_[app_index]->name];
    bool placed = false;
    for (std::size_t e = 0; e < ecus_.size(); ++e) {
      hosts = hosts_for(app_index, e);
      ++candidates;
      if (feasible(partial)) {
        genome[app_index] = e;
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Leave it on ECU 0; the final cost carries the penalty.
      hosts = hosts_for(app_index, 0);
      genome[app_index] = 0;
    }
  }
  return genome;
}

ExplorationResult Explorer::greedy() {
  ExplorationResult result;
  result.strategy = "greedy";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;
  result.assignment = decode(greedy_genome(result.candidates_evaluated));
  result.cost = cost(result.assignment);
  result.feasible = result.cost < weights_.infeasible_penalty;
  publish_metrics(result, wall.seconds());
  return result;
}

ExplorationResult Explorer::simulated_annealing(std::uint64_t iterations,
                                                std::uint64_t seed,
                                                std::size_t chains,
                                                std::size_t threads) {
  ExplorationResult result;
  result.strategy = "annealing";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;
  chains = std::max<std::size_t>(1, chains);

  // The greedy seed's trial placements count as candidates of this run.
  const Genome start = greedy_genome(result.candidates_evaluated);

  struct ChainOutcome {
    Genome best;
    std::uint64_t evaluated = 0;
    std::uint64_t hits = 0;
  };
  std::vector<ChainOutcome> outcomes(chains);

  const auto run_chain = [&](std::size_t chain) {
    // Derived, non-overlapping stream per chain: the outcome depends only
    // on (iterations, seed, chain), never on which thread runs it.
    sim::Random rng = sim::Random::stream(seed, chain);
    ChainOutcome& out = outcomes[chain];

    // With the cache on, the state's own verdicts judge each move; with it
    // off, every candidate goes through the full decode-and-verify path.
    IncrementalState state(*this, start, cache_enabled_);
    const auto state_cost = [&] {
      const bool feas = cache_enabled_ ? state.feasible()
                                       : feasible(decode(state.genome()));
      return state.total() + (feas ? 0.0 : weights_.infeasible_penalty);
    };
    double current_cost = state_cost();
    out.best = start;
    double best_cost = current_cost;

    double temperature = std::max(1.0, current_cost * 0.1);
    const double cooling = std::pow(
        0.001 / temperature, 1.0 / static_cast<double>(iterations));
    for (std::uint64_t i = 0; i < iterations; ++i) {
      const auto app =
          static_cast<std::size_t>(rng.next_below(start.size()));
      const auto gene =
          static_cast<std::size_t>(rng.next_below(ecus_.size()));
      ++out.evaluated;
      const std::size_t old_gene = state.genome()[app];
      if (gene == old_gene) {
        // Identity move: delta == 0 accepts without consuming randomness,
        // matching the serial acceptance rule; nothing to recompute.
        ++out.hits;
        temperature *= cooling;
        continue;
      }
      const bool memo_only = state.move(app, gene);
      if (cache_enabled_ && memo_only) ++out.hits;
      const double candidate_cost = state_cost();
      const double delta = candidate_cost - current_cost;
      if (delta <= 0 || rng.chance(std::exp(-delta / temperature))) {
        current_cost = candidate_cost;
        if (candidate_cost < best_cost) {
          out.best = state.genome();
          best_cost = candidate_cost;
        }
      } else {
        state.move(app, old_gene);  // exact revert (terms recomputed)
      }
      temperature *= cooling;
    }
  };

  std::optional<concurrency::ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  concurrency::parallel_for(pool ? &*pool : nullptr, 0, chains, 1, run_chain);

  // Best-of-chains in chain index order (strict < keeps the lowest chain on
  // ties); the winner is re-scored with the full cost so the reported value
  // matches cost(assignment) bit-for-bit.
  Genome best = start;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const ChainOutcome& out : outcomes) {
    result.candidates_evaluated += out.evaluated;
    result.cache_hits += out.hits;
    const double full = cached_genome_cost(out.best, nullptr);
    if (full < best_cost) {
      best = out.best;
      best_cost = full;
    }
  }
  result.assignment = decode(best);
  result.cost = best_cost;
  result.feasible = best_cost < weights_.infeasible_penalty;
  publish_metrics(result, wall.seconds());
  return result;
}

void Explorer::batch_fitness(const std::vector<Genome>& batch,
                             std::vector<double>& fitness,
                             concurrency::ThreadPool* executor,
                             std::uint64_t& hits) const {
  if (!cache_enabled_) {  // the always-reverify baseline
    concurrency::parallel_for(executor, 0, batch.size(), 1,
                              [&](std::size_t i) {
                                fitness[i] = genome_cost(batch[i]);
                              });
    return;
  }
  // Serial dedupe first: the distinct genomes of one batch never race for
  // a cache entry, so each one's hit depends only on earlier batches.
  std::unordered_map<Genome, std::size_t, GenomeHash> first_of;
  std::vector<std::size_t> first(batch.size());
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [it, inserted] = first_of.try_emplace(batch[i], i);
    first[i] = it->second;
    if (inserted) distinct.push_back(i);
  }
  std::atomic<std::uint64_t> cache_hits{0};
  concurrency::parallel_for(
      executor, 0, distinct.size(), 1, [&](std::size_t k) {
        const std::size_t i = distinct[k];
        fitness[i] = cached_genome_cost(batch[i], &cache_hits);
      });
  hits += cache_hits.load();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (first[i] != i) {
      fitness[i] = fitness[first[i]];
      ++hits;
    }
  }
}

ExplorationResult Explorer::genetic(std::size_t population,
                                    std::size_t generations,
                                    std::uint64_t seed,
                                    std::size_t threads) {
  ExplorationResult result;
  result.strategy = "genetic";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;

  std::optional<concurrency::ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  concurrency::ThreadPool* executor = pool ? &*pool : nullptr;

  sim::Random rng(seed);
  std::vector<Genome> current(population, Genome(apps_.size(), 0));
  for (auto& genome : current) {
    for (auto& gene : genome) {
      gene = static_cast<std::size_t>(rng.next_below(ecus_.size()));
    }
  }
  std::vector<double> fitness(population);
  result.candidates_evaluated += population;
  batch_fitness(current, fitness, executor, result.cache_hits);

  Genome best = current[0];
  double best_cost = fitness[0];
  for (std::size_t i = 1; i < population; ++i) {
    if (fitness[i] < best_cost) {
      best = current[i];
      best_cost = fitness[i];
    }
  }

  for (std::size_t gen = 0; gen < generations; ++gen) {
    // Breeding is serial — tournament and mutation draw from the one seeded
    // generator and only read the previous generation's fitness — so the
    // genome sequence is identical for every thread count. Fitness, the
    // expensive verifier-bound part, then fans out with results landing in
    // index-addressed slots.
    std::vector<Genome> children;
    children.reserve(population > 0 ? population - 1 : 0);
    while (children.size() + 1 < population) {
      auto tournament = [&] {
        const auto a = static_cast<std::size_t>(rng.next_below(population));
        const auto b = static_cast<std::size_t>(rng.next_below(population));
        return fitness[a] <= fitness[b] ? a : b;
      };
      const Genome& parent_a = current[tournament()];
      const Genome& parent_b = current[tournament()];
      Genome child(apps_.size());
      for (std::size_t g = 0; g < child.size(); ++g) {
        child[g] = rng.chance(0.5) ? parent_a[g] : parent_b[g];
        if (rng.chance(0.05)) {
          child[g] = static_cast<std::size_t>(rng.next_below(ecus_.size()));
        }
      }
      children.push_back(std::move(child));
    }
    std::vector<double> child_fitness(children.size());
    result.candidates_evaluated += children.size();
    batch_fitness(children, child_fitness, executor, result.cache_hits);

    // Elitism: the champion as of the start of this generation leads the
    // next pool; the champion update scans children in index order.
    std::vector<Genome> next;
    std::vector<double> next_fitness;
    next.reserve(population);
    next_fitness.reserve(population);
    next.push_back(best);
    next_fitness.push_back(best_cost);
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (child_fitness[i] < best_cost) {
        best = children[i];
        best_cost = child_fitness[i];
      }
      next.push_back(std::move(children[i]));
      next_fitness.push_back(child_fitness[i]);
    }
    current = std::move(next);
    fitness = std::move(next_fitness);
  }
  result.assignment = decode(best);
  result.cost = best_cost;
  result.feasible = best_cost < weights_.infeasible_penalty;
  publish_metrics(result, wall.seconds());
  return result;
}

}  // namespace dynaplat::dse
