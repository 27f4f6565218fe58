// Tests for the concurrency subsystem (thread pool, parallel_for, seed
// streams) and for the DSE determinism contract: parallel exploration must
// reproduce the serial result bit-for-bit for the same seed, with and
// without the memoization cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrency/thread_pool.hpp"
#include "dse/exploration.hpp"
#include "dse/schedulability.hpp"
#include "model/parser.hpp"
#include "sim/random.hpp"
#include "schedulability_reference.hpp"

namespace dynaplat {
namespace dse {

/// White-box probe (friend of Explorer) so the cross-validation tests can
/// drive the genome-native fast path directly against the full verifier.
class TestProbe {
 public:
  using Genome = std::vector<std::size_t>;
  static model::Assignment decode(const Explorer& e, const Genome& g) {
    return e.decode(g);
  }
  static bool fast_feasible(const Explorer& e, const Genome& g) {
    return e.fast_feasible(g);
  }
  static double fast_cost(const Explorer& e, const Genome& g) {
    return e.fast_feasible(g)
               ? e.genome_soft_cost(g)
               : e.weights_.infeasible_penalty + e.genome_soft_cost(g);
  }
  /// Annealing's incremental evaluator, verdicts on.
  using State = Explorer::IncrementalState;
  static State state(const Explorer& e, Genome g) {
    return State(e, std::move(g), true);
  }
  static double state_cost(const Explorer& e, const State& s) {
    return (s.feasible() ? 0.0 : e.weights_.infeasible_penalty) + s.total();
  }
};

}  // namespace dse

namespace {

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  concurrency::ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  concurrency::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& future : futures) future.get();
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  concurrency::ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("analysis failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  {
    concurrency::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.post([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1);
      });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(executed.load(), 64);
}

// --- parallel_for -------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  concurrency::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  concurrency::parallel_for(&pool, 0, counts.size(), 7,
                            [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, NullPoolRunsInline) {
  std::vector<int> marks(100, 0);
  concurrency::parallel_for(nullptr, 10, 60, 8,
                            [&](std::size_t i) { marks[i] = 1; });
  for (std::size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i], (i >= 10 && i < 60) ? 1 : 0) << i;
  }
}

TEST(ParallelFor, RethrowsBodyException) {
  concurrency::ThreadPool pool(3);
  EXPECT_THROW(
      concurrency::parallel_for(&pool, 0, 100, 1,
                                [&](std::size_t i) {
                                  if (i == 42) {
                                    throw std::invalid_argument("bad genome");
                                  }
                                }),
      std::invalid_argument);
}

// --- Seed streams -------------------------------------------------------------

TEST(RandomStream, DeterministicAndDistinct) {
  sim::Random a0 = sim::Random::stream(99, 0);
  sim::Random a0_again = sim::Random::stream(99, 0);
  sim::Random a1 = sim::Random::stream(99, 1);
  sim::Random b0 = sim::Random::stream(100, 0);
  const std::uint64_t v0 = a0.next_u64();
  EXPECT_EQ(v0, a0_again.next_u64());  // pure function of (seed, stream)
  EXPECT_NE(v0, a1.next_u64());        // streams decorrelated
  EXPECT_NE(v0, b0.next_u64());        // seeds decorrelated
  sim::Random base(99);
  EXPECT_NE(sim::Random::stream(99, 0).next_u64(), base.next_u64());
}

// Regression: the original stream() mixed seed and stream_id additively
// (seed + stream_id * golden_ratio), so stream(s + gamma, i) collided with
// stream(s, i + 1) — adjacent master seeds shared whole child streams. The
// joint hash must keep every nearby (seed, stream) pair fully decorrelated
// over a real draw prefix, not just the first value.
TEST(RandomStream, AdjacentSeedsShareNoChildStreams) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  constexpr int kDraws = 64;
  const auto prefix = [](sim::Random rng) {
    std::vector<std::uint64_t> draws;
    draws.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) draws.push_back(rng.next_u64());
    return draws;
  };
  for (const std::uint64_t seed : {1ull, 99ull, 0xDEADBEEFull}) {
    // The historical collision pair, exactly.
    EXPECT_NE(prefix(sim::Random::stream(seed + kGolden, 0)),
              prefix(sim::Random::stream(seed, 1)));
    // And a dense neighborhood: nearby seeds crossed with nearby streams.
    std::vector<std::vector<std::uint64_t>> seen;
    for (std::uint64_t ds = 0; ds < 4; ++ds) {
      for (std::uint64_t id = 0; id < 4; ++id) {
        seen.push_back(prefix(sim::Random::stream(seed + ds, id)));
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      for (std::size_t j = i + 1; j < seen.size(); ++j) {
        EXPECT_NE(seen[i], seen[j]) << "seed=" << seed << " pair " << i
                                    << "," << j;
      }
    }
  }
}

// --- DSE determinism contract -------------------------------------------------

model::ParsedSystem dse_system(int n_apps, int n_ecus) {
  std::string dsl = "network Net kind=ethernet bitrate=1G\n";
  for (int e = 0; e < n_ecus; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=64M asil=D network=Net\n";
  }
  for (int a = 0; a + 1 < n_apps; ++a) {
    dsl += "interface I" + std::to_string(a) +
           " paradigm=event payload=64 period=10ms\n";
  }
  for (int a = 0; a < n_apps; ++a) {
    dsl += "app A" + std::to_string(a) +
           " class=deterministic asil=B memory=4M\n";
    dsl += "  task t period=10ms wcet=2M priority=" + std::to_string(a % 8) +
           "\n";
    if (a > 0) dsl += "  consumes I" + std::to_string(a - 1) + "\n";
    if (a + 1 < n_apps) dsl += "  provides I" + std::to_string(a) + "\n";
  }
  return model::parse_system(dsl);
}

void expect_same_outcome(const dse::ExplorationResult& a,
                         const dse::ExplorationResult& b) {
  EXPECT_EQ(a.cost, b.cost);  // bit-for-bit, no tolerance
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.assignment.placement, b.assignment.placement);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
}

/// Same outcome and the same hit count: nothing depends on threads.
void expect_identical(const dse::ExplorationResult& serial,
                      const dse::ExplorationResult& parallel) {
  expect_same_outcome(serial, parallel);
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits);
}

// Threaded arms run this many times, each on a fresh explorer, so a count
// that follows thread timing gets several chances to show it.
constexpr int kThreadedRepeats = 8;

TEST(DseDeterminism, ExhaustiveParallelMatchesSerial) {
  auto sys = dse_system(6, 3);
  dse::Explorer serial_explorer(sys.model);
  dse::Explorer parallel_explorer(sys.model);
  expect_identical(serial_explorer.exhaustive(2'000'000, 0),
                   parallel_explorer.exhaustive(2'000'000, 4));
}

TEST(DseDeterminism, GeneticParallelMatchesSerial) {
  // In the small space a large population breeds many duplicate children
  // per generation, which parallel workers would race for.
  for (const auto [apps, ecus, population] :
       {std::array<int, 3>{8, 4, 16}, std::array<int, 3>{6, 3, 64}}) {
    SCOPED_TRACE(apps);
    auto sys = dse_system(apps, ecus);
    dse::Explorer serial_explorer(sys.model);
    const auto serial = serial_explorer.genetic(population, 25, 7, 0);
    EXPECT_GT(serial.cache_hits, 0u);
    for (int run = 0; run < kThreadedRepeats; ++run) {
      SCOPED_TRACE(run);
      dse::Explorer parallel_explorer(sys.model);
      expect_identical(serial,
                       parallel_explorer.genetic(population, 25, 7, 4));
    }
  }
}

TEST(DseDeterminism, GeneticCacheDoesNotChangeResults) {
  auto sys = dse_system(8, 4);
  dse::Explorer cached(sys.model);
  dse::Explorer uncached(sys.model);
  uncached.set_cache_enabled(false);
  const auto with_cache = cached.genetic(16, 25, 7, 4);
  const auto without_cache = uncached.genetic(16, 25, 7, 0);
  EXPECT_EQ(with_cache.cost, without_cache.cost);
  EXPECT_EQ(with_cache.assignment.placement,
            without_cache.assignment.placement);
  EXPECT_EQ(without_cache.cache_hits, 0u);
  EXPECT_GT(cached.cache_size(), 0u);
}

TEST(DseDeterminism, AnnealingChainsMatchAcrossThreadCounts) {
  // The larger system gives concurrent chains more (ECU, app set) verdicts
  // to race for.
  for (const auto [apps, ecus, chains] :
       {std::array<int, 3>{8, 4, 4}, std::array<int, 3>{16, 6, 8}}) {
    SCOPED_TRACE(apps);
    auto sys = dse_system(apps, ecus);
    dse::Explorer serial_explorer(sys.model);
    const auto serial =
        serial_explorer.simulated_annealing(1'500, 13, chains, 0);
    for (int run = 0; run < kThreadedRepeats; ++run) {
      SCOPED_TRACE(run);
      dse::Explorer parallel_explorer(sys.model);
      expect_identical(
          serial, parallel_explorer.simulated_annealing(1'500, 13, chains, 4));
    }
  }
}

TEST(DseDeterminism, AnnealingCacheDoesNotChangeResults) {
  // Cache on: the incremental verdicts judge each move. Cache off: every
  // candidate goes through the full decode-and-verify path.
  auto sys = dse_system(8, 4);
  dse::Explorer cached(sys.model);
  dse::Explorer uncached(sys.model);
  uncached.set_cache_enabled(false);
  const auto with_cache = cached.simulated_annealing(1'500, 13, 4, 4);
  const auto without_cache = uncached.simulated_annealing(1'500, 13, 4, 0);
  expect_same_outcome(with_cache, without_cache);
  EXPECT_LE(with_cache.cache_hits, with_cache.candidates_evaluated);
  EXPECT_GT(with_cache.cache_hits, without_cache.cache_hits);
}

TEST(DseDeterminism, RepeatedRunHitsMemoCache) {
  auto sys = dse_system(8, 4);
  dse::Explorer explorer(sys.model);
  const auto first = explorer.genetic(16, 25, 7, 0);
  const auto second = explorer.genetic(16, 25, 7, 0);
  // Identical seed => identical genome sequence => pure cache replay.
  EXPECT_EQ(second.cache_hits, second.candidates_evaluated);
  EXPECT_EQ(first.cost, second.cost);
  explorer.clear_cache();
  EXPECT_EQ(explorer.cache_size(), 0u);
}

// --- Fast-path cross-validation ----------------------------------------------
//
// The memoized evaluation path judges genomes with compiled per-(app, ECU) /
// per-(ECU pair) tables instead of running the string-keyed verifier. It
// must agree with feasible(decode(g)) and cost(decode(g)) bit for bit, on
// systems engineered so every ERROR rule actually fires for some genomes.
// Returns {feasible, infeasible} counts so callers can assert both verdicts
// were exercised.
std::pair<int, int> cross_validate(const model::SystemModel& system,
                                   std::uint64_t samples,
                                   std::uint64_t seed) {
  dse::Explorer explorer(system);
  const std::size_t n_apps = system.apps().size();
  const std::size_t n_ecus = system.ecus().size();
  int feasible_count = 0;
  int infeasible_count = 0;

  const auto check = [&](const std::vector<std::size_t>& genome) {
    const auto assignment = dse::TestProbe::decode(explorer, genome);
    const bool slow = explorer.feasible(assignment);
    const bool fast = dse::TestProbe::fast_feasible(explorer, genome);
    ASSERT_EQ(slow, fast);
    const double slow_cost = explorer.cost(assignment);
    const double fast_cost = dse::TestProbe::fast_cost(explorer, genome);
    ASSERT_EQ(slow_cost, fast_cost);  // bit-for-bit, no tolerance
    if (slow) {
      ++feasible_count;
    } else {
      ++infeasible_count;
    }
  };

  // Exhaust small spaces; sample large ones.
  std::uint64_t space = 1;
  for (std::size_t a = 0; a < n_apps && space <= 4096; ++a) space *= n_ecus;
  if (space <= 4096) {
    std::vector<std::size_t> genome(n_apps, 0);
    for (std::uint64_t k = 0; k < space; ++k) {
      check(genome);
      for (std::size_t d = 0; d < n_apps; ++d) {
        if (++genome[d] < n_ecus) break;
        genome[d] = 0;
      }
    }
  } else {
    sim::Random rng(seed);
    std::vector<std::size_t> genome(n_apps);
    for (std::uint64_t k = 0; k < samples; ++k) {
      for (auto& gene : genome) {
        gene = static_cast<std::size_t>(rng.next_below(n_ecus));
      }
      check(genome);
    }
  }
  return {feasible_count, infeasible_count};
}

// Seeded random walk of single-gene moves through annealing's incremental
// state, half of them reverted by moving back as annealing does. After every
// move and every revert the state's verdict must equal both fast_feasible()
// and the full verifier, and its cost must equal cost(decode(g)) bit for bit.
// Returns {feasible, infeasible} counts over the visited genomes.
std::pair<int, int> walk_incremental(const model::SystemModel& system,
                                     std::uint64_t moves,
                                     std::uint64_t seed) {
  dse::Explorer explorer(system);
  const std::size_t n_apps = system.apps().size();
  const std::size_t n_ecus = system.ecus().size();
  int feasible_count = 0;
  int infeasible_count = 0;

  sim::Random rng(seed);
  std::vector<std::size_t> start(n_apps);
  for (auto& gene : start) {
    gene = static_cast<std::size_t>(rng.next_below(n_ecus));
  }
  auto state = dse::TestProbe::state(explorer, start);
  const auto check = [&] {
    const auto& genome = state.genome();
    const auto assignment = dse::TestProbe::decode(explorer, genome);
    const bool verdict = state.feasible();
    ASSERT_EQ(verdict, dse::TestProbe::fast_feasible(explorer, genome));
    ASSERT_EQ(verdict, explorer.feasible(assignment));
    // Bit for bit, no tolerance.
    ASSERT_EQ(dse::TestProbe::state_cost(explorer, state),
              explorer.cost(assignment));
    if (verdict) {
      ++feasible_count;
    } else {
      ++infeasible_count;
    }
  };

  check();
  for (std::uint64_t k = 0; k < moves; ++k) {
    const auto app = static_cast<std::size_t>(rng.next_below(n_apps));
    const auto gene = static_cast<std::size_t>(rng.next_below(n_ecus));
    const std::size_t old_gene = state.genome()[app];
    state.move(app, gene);
    check();
    if (rng.chance(0.5)) {
      state.move(app, old_gene);
      check();
    }
  }
  return {feasible_count, infeasible_count};
}

TEST(DseFastPath, MatchesVerifierOnBaselineChain) {
  auto sys = dse_system(6, 3);  // full 3^6 sweep
  const auto [ok, bad] = cross_validate(sys.model, 0, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);  // six 0.2-util apps overload any single ECU
}

// Every per-(app, ECU) and per-ECU rule can fire: an uncertified ECU
// (asil=A), a POSIX ECU (rtos rule), an MMU-less ECU, a memory-tight ECU,
// plus a replicated app and a nondeterministic one.
const std::string kHeterogeneousFarm =
    "network Net kind=ethernet bitrate=1G\n"
    "ecu Strong mips=2000 memory=256M asil=D network=Net\n"
    "ecu Uncert mips=2000 memory=256M asil=A network=Net\n"
    "ecu Posix  mips=2000 memory=256M asil=D os=posix network=Net\n"
    "ecu NoMmu  mips=2000 memory=256M asil=D mmu=no network=Net\n"
    "ecu Tiny   mips=2000 memory=6M   asil=D network=Net\n"
    "interface Cmd paradigm=event payload=128 period=10ms\n"
    "app Pilot class=deterministic asil=C memory=4M replicas=2\n"
    "  task t period=10ms wcet=2M\n"
    "  provides Cmd\n"
    "app Logger class=nondeterministic asil=QM memory=4M\n"
    "  task t period=20ms wcet=1M\n"
    "  consumes Cmd\n"
    "app Filter class=deterministic asil=B memory=4M\n"
    "  task t period=10ms wcet=3M\n"
    "  consumes Cmd\n";

TEST(DseFastPath, MatchesVerifierOnHeterogeneousFarm) {
  const auto [ok, bad] =
      cross_validate(model::parse_system(kHeterogeneousFarm).model, 0, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
}

TEST(DseFastPath, IncrementalVerdictTracksVerifier) {
  {
    SCOPED_TRACE("heterogeneous farm");
    const auto [ok, bad] = walk_incremental(
        model::parse_system(kHeterogeneousFarm).model, 2'000, 5);
    EXPECT_GT(ok, 0);
    EXPECT_GT(bad, 0);
  }
  {
    // A replicated stream provider whose cross-ECU pairs each take 2 of
    // the 7.5 Mbit/s Ethernet budget, so the bandwidth verdict turns on
    // how many pairs a move splits. A CAN ECU makes some pairs unreachable
    // and an uncertified ECU rejects every app. Each app loads a core to
    // 0.6: two on a single-core ECU overload it, and three on the
    // dual-core ECU pass cpu.overload (1.8 <= 2) but fit no partition, so
    // only the schedulability test rejects them.
    SCOPED_TRACE("replicated stream over a tight budget");
    const std::string dsl =
        "network Eth kind=ethernet bitrate=10M\n"
        "network Bus kind=can bitrate=500K\n"
        "ecu E0 mips=2000 memory=256M asil=D network=Eth\n"
        "ecu E1 mips=2000 memory=256M asil=D network=Eth\n"
        "ecu Dual mips=2000 cores=2 memory=256M asil=D network=Eth\n"
        "ecu Cert mips=2000 memory=256M asil=A network=Eth\n"
        "ecu C0 mips=2000 memory=256M asil=D network=Bus\n"
        "interface Video paradigm=stream payload=1400 period=1ms "
        "bandwidth=2M\n"
        "interface Track paradigm=event payload=64 period=10ms\n"
        "app Cam class=deterministic asil=C memory=4M replicas=2\n"
        "  task t period=10ms wcet=12M\n"
        "  provides Video\n"
        "app Fuse class=deterministic asil=B memory=4M\n"
        "  task t period=10ms wcet=12M\n"
        "  consumes Video\n"
        "  provides Track\n"
        "app Disp class=deterministic asil=B memory=4M\n"
        "  task t period=10ms wcet=12M\n"
        "  consumes Video\n"
        "  consumes Track\n";
    const auto [ok, bad] =
        walk_incremental(model::parse_system(dsl).model, 2'000, 11);
    EXPECT_GT(ok, 0);
    EXPECT_GT(bad, 0);
  }
}

// More than 64 apps, so memo keys and hosted sets span several words: 70
// light apps (ranks 0-69) plus two replicated 0.55-utilization hogs and a
// triple-replicated app whose name ranks put them in the second word. Two
// hog runs sharing a single-core ECU overload it; on the dual-core ECU they
// pass, so the verdict flips as the walk moves them. The light apps'
// utilizations differ, so a per-ECU sum in any order but name order
// rounds differently and fails the bit-equal cost check.
TEST(DseFastPath, IncrementalVerdictTracksVerifierPastOneWord) {
  std::string dsl = "network Net kind=ethernet bitrate=1G\n";
  for (int e = 0; e < 5; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=256M asil=D network=Net\n";
  }
  dsl += "ecu Dual mips=1000 cores=2 memory=256M asil=D network=Net\n";
  dsl += "interface Link paradigm=event payload=64 period=10ms\n";
  dsl += "interface Tail paradigm=event payload=64 period=10ms\n";
  for (int a = 0; a < 70; ++a) {
    dsl += std::string("app A") + (a < 10 ? "0" : "") + std::to_string(a) +
           (a % 2 == 0 ? " class=deterministic" : "") + " asil=B memory=1M\n";
    dsl += "  task t period=10ms wcet=" + std::to_string(60 + a * 37 % 90) +
           "K priority=" + std::to_string(a % 8) + "\n";
    if (a == 69) dsl += "  provides Tail\n";
  }
  dsl +=
      "app Hog0 class=deterministic asil=B memory=4M replicas=2\n"
      "  task t period=10ms wcet=5500K\n"
      "  provides Link\n"
      "app Hog1 class=deterministic asil=B memory=4M replicas=2\n"
      "  task t period=10ms wcet=5500K\n"
      "  consumes Link\n"
      "app Zed asil=B memory=1M replicas=3\n"
      "  task t period=20ms wcet=200K\n"
      "  consumes Tail\n";
  const auto parsed = model::parse_system(dsl);
  ASSERT_EQ(parsed.model.apps().size(), 73u);
  const auto [ok, bad] = walk_incremental(parsed.model, 1'000, 17);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
}

// The first-fit hook as it was before it stopped copying: utilization
// recomputed inside the sort comparator, named tasks from tasks_on(), a copy
// of the core's task list for every trial placement, and the copying
// reference verdict. The reference for the differential test below;
// `branches` counts the verdict outcomes of every trial placement.
bool copying_first_fit(const model::EcuDef& ecu,
                       const std::vector<const model::AppDef*>& apps,
                       std::string* why, reference::Branches* branches) {
  const auto cores = static_cast<std::size_t>(std::max(1, ecu.cores));
  std::vector<const model::AppDef*> order = apps;
  std::sort(order.begin(), order.end(),
            [&](const model::AppDef* a, const model::AppDef* b) {
              return a->utilization_on(ecu.mips) >
                     b->utilization_on(ecu.mips);
            });
  std::vector<std::vector<dse::AnalysisTask>> per_core(cores);
  for (const model::AppDef* app : order) {
    const auto app_tasks = dse::tasks_on(*app, ecu.mips);
    bool placed = false;
    for (auto& core_tasks : per_core) {
      std::vector<dse::AnalysisTask> candidate = core_tasks;
      candidate.insert(candidate.end(), app_tasks.begin(), app_tasks.end());
      if (reference::schedulable(candidate, nullptr, branches)) {
        core_tasks = std::move(candidate);
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (why != nullptr) {
        *why = "app '" + app->name + "' fits no core of " + ecu.name;
      }
      return false;
    }
  }
  return true;
}

// Random multi-core ECUs and app sets, up to 24 apps so std::sort leaves
// its insertion-sort range. Task sizes come from a short list, so many apps
// tie on utilization and the sort's tie order decides the first fit.
// Tasks may be aperiodic, and deadlines go down to a quarter of the period.
// One trial in four draws second-scale periods: 2 s and 5 s (or 2.5 s) put
// the deterministic LCM exactly on the 10 s hyperperiod cap, which must keep
// folding, and 3 s pushes it past. Another one in four gives the 5 ms tasks
// half-period deadlines and the top priorities, so TT placement fails where
// RTA still passes. Every verdict branch must be reached.
TEST(DseFastPath, VerifierHookMatchesCopyingFirstFit) {
  const auto hook = dse::make_verifier_hook();
  constexpr sim::Duration kLongPeriods[] = {
      500 * sim::kMillisecond, 2 * sim::kSecond, 2'500 * sim::kMillisecond,
      3 * sim::kSecond, 5 * sim::kSecond};
  sim::Random rng(23);
  int accepted = 0;
  int rejected = 0;
  reference::Branches branches;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const bool long_periods = trial % 4 == 3;
    const bool fragmenting = trial % 4 == 1;
    model::EcuDef ecu;
    ecu.name = "E" + std::to_string(trial);
    ecu.cores = 1 + static_cast<int>(rng.next_below(4));
    ecu.mips = 500u << rng.next_below(3);
    std::vector<model::AppDef> defs(1 + rng.next_below(24));
    for (std::size_t a = 0; a < defs.size(); ++a) {
      model::AppDef& app = defs[a];
      app.name = "A" + std::to_string(a);
      app.app_class = rng.chance(0.5) ? model::AppClass::kDeterministic
                                      : model::AppClass::kNonDeterministic;
      for (std::uint64_t t = 0, n = 1 + rng.next_below(2); t < n; ++t) {
        model::TaskDef task;
        task.name = "t" + std::to_string(t);
        if (rng.chance(0.1)) {
          task.period = 0;  // aperiodic
        } else if (long_periods) {
          task.period = kLongPeriods[rng.next_below(std::size(kLongPeriods))];
        } else {
          task.period = sim::kMillisecond * (5 << rng.next_below(3));
        }
        task.deadline = rng.chance(0.5)
                            ? task.period / static_cast<sim::Duration>(
                                                2 + rng.next_below(3))
                            : 0;
        task.instructions = (long_periods ? 100'000'000u : 250'000u)
                            << rng.next_below(4);
        task.priority = static_cast<int>(rng.next_below(16));
        if (fragmenting && task.period > 0) {
          // Short urgent jobs pinned near their release split the cycle
          // into gaps too small for the long jobs, which RTA still
          // admits: the urgent tasks preempt them.
          const bool urgent = task.period == 5 * sim::kMillisecond;
          task.deadline = urgent ? task.period / 2 : 0;
          task.priority =
              static_cast<int>(rng.next_below(8)) + (urgent ? 0 : 8);
        }
        app.tasks.push_back(task);
      }
    }
    std::vector<const model::AppDef*> apps;
    for (const auto& app : defs) apps.push_back(&app);
    for (std::size_t i = apps.size(); i > 1; --i) {
      std::swap(apps[i - 1], apps[rng.next_below(i)]);
    }
    std::string expected_why;
    std::string why;
    const bool expected =
        copying_first_fit(ecu, apps, &expected_why, &branches);
    ASSERT_EQ(hook(ecu, apps, &why), expected);
    ASSERT_EQ(why, expected_why);
    if (expected) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(branches.overload, 0);
  EXPECT_GT(branches.tt_ok, 0);
  EXPECT_GT(branches.rta_only, 0);
  EXPECT_GT(branches.neither, 0);
  EXPECT_GT(branches.cycle_at_cap, 0);
  EXPECT_GT(branches.cycle_past_cap, 0);
}

TEST(DseFastPath, MatchesVerifierOnNetworkRules) {
  // Two disjoint networks (unreachable pairs), a CAN segment whose latency
  // floor breaks a tight requirement, and stream bandwidth that only fits
  // when the heavy streams stay co-located.
  const std::string dsl =
      "network Eth kind=ethernet bitrate=10M\n"
      "network Bus kind=can bitrate=500K\n"
      "ecu E0 mips=2000 memory=256M asil=D network=Eth\n"
      "ecu E1 mips=2000 memory=256M asil=D network=Eth\n"
      "ecu C0 mips=2000 memory=256M asil=D network=Bus\n"
      "ecu C1 mips=2000 memory=256M asil=D network=Bus\n"
      "interface Video paradigm=stream payload=1400 period=1ms "
      "bandwidth=6M\n"
      "interface Radar paradigm=stream payload=1400 period=1ms "
      "bandwidth=4M\n"
      "interface Brake paradigm=event payload=256 max_latency=100us\n"
      "app Cam asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  provides Video\n"
      "app Rad asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  provides Radar\n"
      "app Fuse asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  consumes Video\n"
      "  consumes Radar\n"
      "  provides Brake\n"
      "app Act asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  consumes Brake\n";
  const auto [ok, bad] = cross_validate(model::parse_system(dsl).model, 0, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
}

TEST(DseFastPath, MatchesVerifierOnLargeSampledSystem) {
  auto sys = dse_system(12, 6);  // 6^12 genomes: randomized sampling
  const auto [ok, bad] = cross_validate(sys.model, 400, 99);
  EXPECT_GT(ok + bad, 0);
}

TEST(DseFastPath, StaticModelErrorRejectsEveryGenome) {
  // replicas > |ecus| makes redundancy.placement fire for every decoded
  // genome — the fast path's model-level verdict must agree.
  const std::string dsl =
      "network Net kind=ethernet bitrate=1G\n"
      "ecu E0 mips=2000 memory=256M asil=D network=Net\n"
      "ecu E1 mips=2000 memory=256M asil=D network=Net\n"
      "app Trip asil=B memory=4M replicas=3\n"
      "  task t period=10ms wcet=1M\n";
  const auto [ok, bad] = cross_validate(model::parse_system(dsl).model, 0, 0);
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(bad, 2);
}

TEST(DseDeterminism, AnnealingMultiChainNotWorseThanSingle) {
  auto sys = dse_system(8, 4);
  dse::Explorer explorer(sys.model);
  const auto single = explorer.simulated_annealing(1'500, 13, 1, 0);
  const auto multi = explorer.simulated_annealing(1'500, 13, 4, 2);
  // Chain 0 of the multi-chain run is the single-chain run; best-of-chains
  // can only improve on it.
  EXPECT_LE(multi.cost, single.cost + 1e-9);
}

}  // namespace
}  // namespace dynaplat
