// Design space exploration over app-to-ECU mappings (paper Sec. 2.3; related
// work [9], [14]).
//
// The explorer searches concrete deployments of a modeled application set
// onto a modeled hardware architecture, scoring each candidate with the
// verification engine (hard feasibility) and a soft cost that rewards ECU
// consolidation, load balance and communication locality. Four strategies
// with very different cost/quality trade-offs are provided and compared in
// E5: exhaustive, greedy first-fit decreasing, simulated annealing, and a
// genetic algorithm.
//
// Hot-path machinery (DESIGN.md "DSE performance & threading model"):
//  * Exhaustive sweeps and genetic fitness evaluation fan out over a
//    concurrency::ThreadPool; partial results live in index-addressed slots
//    and are merged in index order, so any thread count (including 0 =
//    inline serial) reproduces the same best assignment for the same seed.
//  * Simulated annealing runs N independent chains on derived
//    sim::Random::stream(seed, chain) generators; the best-of-chains merge
//    walks chains in index order.
//  * A genome-keyed memoization cache (sharded, per-shard mutex) remembers
//    the cost of whole genomes for genetic fitness and the annealing
//    chain-winner re-score. Below it, an (ECU, hosted app set) memo keeps
//    schedulability verdicts, which recur far more often than genomes. Its
//    key is the ECU index followed by a bitset over apps in name order, so
//    a lookup hashes and compares a few words and a hit never allocates.
//  * Annealing's single-gene moves go through IncrementalState, which
//    keeps each ECU's hosted bitset and recomputes only the per-ECU,
//    per-app and per-interface soft-cost terms and feasibility verdicts the
//    moved app touches; annealing never looks up or fills the genome cache.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/system_model.hpp"
#include "model/verifier.hpp"
#include "obs/fnv.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace dynaplat::concurrency {
class ThreadPool;
}

namespace dynaplat::dse {

struct ExplorationResult {
  bool feasible = false;
  model::Assignment assignment;
  double cost = 0.0;
  std::uint64_t candidates_evaluated = 0;
  /// Candidates judged without running the verifier afresh; always <=
  /// candidates_evaluated, and like every other field independent of the
  /// thread count. Exhaustive and genetic: genomes whose cost came from the
  /// genome cache or from an equal genome earlier in the same generation.
  /// Annealing: identity moves, plus moves whose touched-ECU verdicts the
  /// chain had all looked up before.
  std::uint64_t cache_hits = 0;
  std::string strategy;
};

struct CostWeights {
  double per_ecu = 10.0;         ///< each powered ECU (consolidation pull)
  double load_imbalance = 5.0;   ///< max - min ECU utilization
  double cross_ecu_comm = 1.0;   ///< per cross-ECU interface byte/ms
  double infeasible_penalty = 1e6;
};

class Explorer {
 public:
  Explorer(const model::SystemModel& system_model, CostWeights weights = {});

  /// Soft cost of a concrete assignment (adds the penalty when the
  /// verification engine reports errors).
  double cost(const model::Assignment& assignment) const;
  bool feasible(const model::Assignment& assignment) const;

  /// Enumerates every mapping (|ecus|^|apps| candidates) — exact but only
  /// viable for small systems. `threads` > 0 partitions the sweep across a
  /// thread pool; the result is identical to the serial sweep.
  ExplorationResult exhaustive(std::uint64_t max_candidates = 2'000'000,
                               std::size_t threads = 0);

  /// Apps by decreasing utilization onto the first ECU where the partial
  /// assignment stays feasible.
  ExplorationResult greedy();

  /// Simulated annealing from the greedy seed. `chains` independent chains
  /// run on sim::Random::stream(seed, chain) generators (across `threads`
  /// pool workers when > 0) and the best result wins; the outcome depends
  /// only on (iterations, seed, chains), never on `threads`.
  ExplorationResult simulated_annealing(std::uint64_t iterations = 20'000,
                                        std::uint64_t seed = 1,
                                        std::size_t chains = 1,
                                        std::size_t threads = 0);

  /// Genetic algorithm: tournament selection, uniform crossover, point
  /// mutation. Offspring are bred serially from the seeded generator (so
  /// the genome sequence is reproducible) and their fitness is evaluated in
  /// parallel; results are merged in population order, making the outcome
  /// independent of `threads`.
  ExplorationResult genetic(std::size_t population = 32,
                            std::size_t generations = 200,
                            std::uint64_t seed = 1,
                            std::size_t threads = 0);

  /// Memoization controls (cache is on by default; disabling restores the
  /// legacy always-reverify behaviour, used as the bench baseline).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  void clear_cache();
  std::size_t cache_size() const;

  /// Publishes exploration throughput into a metrics registry: per run,
  /// counters "dse.<strategy>.candidates" / "dse.<strategy>.cache_hits" and
  /// gauges "dse.<strategy>.candidates_per_sec" /
  /// "dse.<strategy>.cache_hit_rate". Null (the default) disables publication.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  /// White-box access for the fast-path cross-validation tests
  /// (tests/concurrency_test.cpp), which compare fast_feasible() /
  /// genome_soft_cost() and IncrementalState against the full verifier
  /// genome by genome.
  friend class TestProbe;

  using Genome = std::vector<std::size_t>;  // app index -> ecu index

  /// FNV-1a over whole words (one multiply per word, not per byte) with a
  /// final avalanche; also picks the cache shard.
  template <typename Word>
  static std::uint64_t hash_words(const Word* words, std::size_t count) {
    std::uint64_t h = obs::kFnvSeed;
    for (std::size_t i = 0; i < count; ++i) {
      h ^= static_cast<std::uint64_t>(words[i]);
      h *= obs::kFnvPrime;
    }
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return h;
  }
  struct GenomeHash {
    std::size_t operator()(const Genome& genome) const noexcept {
      return static_cast<std::size_t>(
          hash_words(genome.data(), genome.size()));
    }
  };

  struct CacheShard {
    std::mutex mutex;
    std::unordered_map<Genome, double, GenomeHash> costs;
  };

  /// Open-addressing index from fixed-width word keys to dense entry
  /// numbers. Keys sit in one flat array and are compared in place, so a
  /// lookup never allocates.
  class KeyIndex {
   public:
    static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
    explicit KeyIndex(std::size_t words = 0) : words_(words) {}
    /// Entry number of `key` (whose hash_words() is `hash`), or kAbsent.
    std::size_t find(const std::uint64_t* key, std::uint64_t hash) const;
    /// Adds `key`, which must be absent, as the next entry: entries are
    /// numbered 0, 1, ... in insertion order, so callers keep values in a
    /// vector beside the index.
    void insert(const std::uint64_t* key, std::uint64_t hash);
    void clear();

   private:
    /// The hash's top 32 bits sit in the slot, so a probe past another key
    /// touches no key words, and grow() re-homes slots from them alone.
    struct Slot {
      std::uint32_t tag = 0;    ///< hash >> 32
      std::uint32_t entry = 0;  ///< entry number + 1; 0 = empty
    };
    std::size_t home(std::uint32_t tag) const { return tag >> shift_; }
    /// Linear probing from the home slot to `key`'s slot or the first
    /// empty one.
    std::size_t probe(const std::uint64_t* key, std::uint32_t tag) const;
    void grow();

    std::size_t words_;
    std::size_t size_ = 0;
    int shift_ = 0;  ///< 32 - log2(slots), set by grow()
    std::vector<Slot> slots_;          ///< load factor <= 1/2
    std::vector<std::uint64_t> keys_;  ///< [entry * words_ + w]
  };

  /// Second memoization level below the genome cache: the verifier's
  /// schedulability hook is a pure function of (ECU, hosted app set), and
  /// across candidates the same per-ECU app subsets recur far more often
  /// than whole genomes, so even a cache-miss genome usually verifies all
  /// its ECUs from this cache instead of re-running RTA/TT synthesis. Keys
  /// are memo keys (see key_words_).
  struct SchedEntry {
    bool ok = false;
    std::string why;
  };
  struct SchedShard {
    std::mutex mutex;
    KeyIndex keys;
    std::vector<SchedEntry> entries;  ///< by KeyIndex entry number
  };

  /// Interface topology resolved once at construction so per-candidate
  /// scoring does not re-scan the app list for providers/consumers.
  struct InterfaceInfo {
    const model::InterfaceDef* def = nullptr;
    std::size_t provider_app = kNoApp;       ///< index into apps_
    std::vector<std::size_t> consumer_apps;  ///< model order, as consumers_of
    double pair_cost = 0.0;  ///< weighted cost of one cross-ECU host pair
    /// Per cross-ECU pair stream bandwidth (0 unless stream paradigm).
    std::uint64_t stream_bw = 0;
  };

  /// Genome-native feasibility tables, compiled once per model. All decoded
  /// genomes deploy every app with replica runs on consecutive ECUs, so the
  /// verifier's rules factor into (a) model-only facts that hold for every
  /// genome, (b) per-(app, ECU) host admissibility, (c) per-(ECU, hosted
  /// set) capacity/schedulability (the latter memoized in sched_cache_) and
  /// (d) per-(interface, ECU pair) network verdicts plus a genome-summed
  /// stream bandwidth budget. fast_feasible() walks these tables instead of
  /// re-deriving them from strings; it must stay verdict-identical to
  /// feasible(decode(genome)) — tests/concurrency_test.cpp cross-checks it
  /// against the full verifier on randomized genomes.
  struct PairVerdict {
    bool fatal = false;    ///< unreachable or latency floor violated
    std::int32_t bw_net = -1;  ///< network index for stream load, -1 = none
  };
  struct FastModel {
    bool static_error = false;  ///< model-only error rule fired
    std::vector<char> app_ecu_ok;       ///< [app * necus + ecu]
    std::vector<PairVerdict> pairs;     ///< [(ifc * necus + pecu) * necus + cecu]
    std::vector<std::uint64_t> net_budget;  ///< 75% usable bitrate per network
  };

  static constexpr std::size_t kNoApp = static_cast<std::size_t>(-1);
  static constexpr std::size_t kCacheShards = 16;

  /// Annealing's incremental evaluator: holds one genome with its soft-cost
  /// terms and feasibility verdicts per ECU, per app and per interface, and
  /// each ECU's memo key (its hosted bitset). A single-gene move flips the
  /// moved app's bits and recomputes only the parts it touches, each from
  /// scratch (never as a +/- delta), so the state is a pure function of the
  /// current genome however many moves were applied or reverted. total()
  /// is bit-equal to genome_soft_cost() and feasible() verdict-equal to
  /// fast_feasible().
  class IncrementalState {
   public:
    /// `verdicts` = false keeps the soft cost only; the cache-off path
    /// judges feasibility with the full verifier instead.
    IncrementalState(const Explorer& explorer, Genome genome, bool verdicts);

    const Genome& genome() const { return genome_; }
    /// Re-hosts `app` on the ECU run starting at `gene`. Returns true iff
    /// every touched ECU's schedulability verdict is one this state had
    /// already looked up (or none was needed). The answer depends only on
    /// the sequence of moves, never on what other threads put in the
    /// shared memo.
    bool move(std::size_t app, std::size_t gene);
    /// Soft cost of the current genome (no infeasibility penalty).
    double total() const;
    /// Hard feasibility of the current genome; needs `verdicts`.
    bool feasible() const;

   private:
    /// Sets or clears app's bit in the keys of its run starting at `gene`.
    void mark_run(std::size_t app, std::size_t gene, bool hosted);
    bool recompute_ecu(std::size_t ecu);
    void recompute_interface(std::size_t index);

    const Explorer& explorer_;
    const bool verdicts_;
    const std::size_t networks_;
    Genome genome_;
    std::vector<std::uint64_t> keys_;       ///< [ecu * key_words_ + w]
    std::vector<double> util_;              ///< per ECU
    std::vector<std::size_t> app_count_;    ///< per ECU
    std::vector<char> ecu_ok_;              ///< per ECU
    std::vector<char> app_ok_;              ///< per app: host admissibility
    std::vector<std::size_t> cross_pairs_;  ///< per interface
    std::vector<char> ifc_fatal_;           ///< per interface
    std::vector<std::uint64_t> ifc_load_;   ///< [ifc * networks_ + net]
    /// Front memo: the schedulability verdicts this state has looked up.
    /// It answers repeats without the shared memo's lock and defines which
    /// moves move() reports as memo-served.
    KeyIndex seen_;
    std::vector<char> seen_ok_;  ///< by seen_ entry number
  };

  /// Per-ECU sums over the apps one ECU hosts.
  struct EcuLoad {
    double utilization = 0.0;
    std::size_t memory = 0;
    std::size_t apps = 0;
  };

  model::Assignment decode(const Genome& genome) const;
  double genome_cost(const Genome& genome) const;
  /// Soft terms only (no infeasibility penalty): powered ECUs, load
  /// imbalance, cross-ECU communication.
  double soft_cost(const model::Assignment& assignment) const;

  void build_fast_model();
  std::size_t replicas_of(std::size_t app) const {
    return static_cast<std::size_t>(std::max(1, apps_[app]->replicas));
  }
  /// True iff app's replica run starting at `gene` covers `ecu`.
  bool genome_hosted_on(std::size_t app, std::size_t gene,
                        std::size_t ecu) const {
    const std::size_t n = ecus_.size();
    const std::size_t offset = ecu >= gene ? ecu - gene : ecu + n - gene;
    return offset < replicas_of(app);
  }
  /// Calls fn(rank) for each app in memo key `key`, from low bit to high:
  /// name order, as Assignment::apps_on yields them.
  template <typename Fn>
  void for_each_rank(const std::uint64_t* key, Fn&& fn) const;
  /// Sums the load of the apps in memo key `key` in for_each_rank() order,
  /// so the floating-point sum is bit-equal to the verifier's.
  EcuLoad load_of(const std::uint64_t* key) const;
  /// Writes the memo key of the apps `genome` puts on `ecu` into `key`
  /// (key_words_ words) and returns their load_of().
  EcuLoad gather_ecu(const Genome& genome, std::size_t ecu,
                     std::uint64_t* key) const;
  /// Memory, MMU and cpu.overload verdict of a non-empty ECU.
  bool capacity_ok(std::size_t ecu, const EcuLoad& load) const;
  /// asil.ecu-certification and cpu.rtos-required over app's host run.
  bool app_admissible(std::size_t app, std::size_t gene) const;
  /// Calls fn(provider_ecu, consumer_ecu) for every cross-ECU host pair of
  /// interface `info` under `genome`, in the verifier's pair order.
  /// Replica loops are not capped at |ecus|: the verifier iterates the
  /// placement's host list, and without a static redundancy error the run
  /// never wraps, so the loop count equals the host count.
  template <typename Fn>
  void for_each_cross_pair(const InterfaceInfo& info, const Genome& genome,
                           Fn&& fn) const;
  /// Verdict-identical to feasible(decode(genome)), via FastModel tables.
  bool fast_feasible(const Genome& genome) const;
  /// Bit-identical to soft_cost(decode(genome)): same terms accumulated in
  /// the same order, without materializing the assignment.
  double genome_soft_cost(const Genome& genome) const;
  /// genome_cost via the fast path when the cache is enabled, else the
  /// legacy decode-and-verify path (the bench baseline).
  double evaluate_genome(const Genome& genome) const;

  /// Genome-cache-backed evaluate_genome(); safe to call from pool
  /// workers. `hits` (may be null) is bumped on a cache hit.
  double cached_genome_cost(const Genome& genome,
                            std::atomic<std::uint64_t>* hits) const;

  /// sched_test_ on memo key `key` (whose hash_words() is `hash`) through
  /// the (ECU, app set) memo. Only the cache-on paths call it; with the
  /// cache off the verifier's hook calls sched_test_ directly.
  bool memo_schedulable(const std::uint64_t* key, std::uint64_t hash,
                        std::string* why) const;

  /// Fills `fitness` for every genome of `batch` (fanned out over
  /// `executor`) and adds the genome-cache hits to `hits`. Duplicates in
  /// the batch copy their first occurrence's fitness and count as hits, so
  /// no two workers race on one genome's cache entry.
  void batch_fitness(const std::vector<Genome>& batch,
                     std::vector<double>& fitness,
                     concurrency::ThreadPool* executor,
                     std::uint64_t& hits) const;

  /// Greedy first-fit decreasing as a genome, counting each trial
  /// placement into `candidates`; publishes nothing.
  Genome greedy_genome(std::uint64_t& candidates) const;

  /// Apps with replicas occupy `replicas` consecutive ECUs starting at the
  /// gene value (wrapping), so every genome stays replica-complete.
  std::vector<std::string> hosts_for(std::size_t app_index,
                                     std::size_t ecu_index) const;

  void publish_metrics(const ExplorationResult& result,
                       double wall_seconds) const;

  const model::SystemModel& model_;
  CostWeights weights_;
  model::Verifier verifier_;
  /// make_verifier_hook(): the exact RTA / TT-synthesis test.
  model::Verifier::SchedulabilityHook sched_test_;
  std::vector<const model::AppDef*> apps_;
  std::vector<const model::EcuDef*> ecus_;

  FastModel fast_;
  std::vector<InterfaceInfo> interface_info_;
  std::vector<std::size_t> apps_by_name_;  ///< name rank -> app index
  std::vector<std::size_t> name_rank_;     ///< app index -> name rank
  /// Per name rank: memory, and utilization_on() each ECU, so per-ECU sums
  /// read tables instead of dividing per task.
  std::vector<std::size_t> rank_memory_;
  std::vector<double> rank_util_;  ///< [rank * |ecus| + ecu]
  /// Memo key width: word 0 is the ECU index, then a bitset over name ranks
  /// (bit r of word 1 + r / 64 set iff the app of rank r is hosted).
  std::size_t key_words_ = 1;
  /// app index -> indices into interface_info_ the app provides or consumes.
  std::vector<std::vector<std::size_t>> app_interfaces_;

  bool cache_enabled_ = true;
  obs::MetricsRegistry* metrics_ = nullptr;
  mutable std::array<CacheShard, kCacheShards> cache_;
  mutable std::array<SchedShard, kCacheShards> sched_cache_;
};

}  // namespace dynaplat::dse
