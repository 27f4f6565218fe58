// dse_explore: dse::Explorer runs greedy, simulated annealing and genetic
// search on a generated app chain (the bench/bench_dse.cpp make_system
// shape, larger than E5b's 20 apps x 8 ECUs).
//
// A fresh Explorer per repetition, so its genome and (ECU, app set) memo
// caches start cold; annealing chains and genetic fitness fan out over the
// concurrency::ThreadPool. Results depend only on the seed, never on the
// worker count.
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dse/exploration.hpp"
#include "model/parser.hpp"
#include "perfbench.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

using namespace dynaplat;

constexpr std::size_t kApps = 32;
constexpr std::size_t kEcus = 12;
constexpr std::uint64_t kAnnealIterations = 12'000;
constexpr std::size_t kAnnealChains = 8;
constexpr std::size_t kPopulation = 24;
constexpr std::size_t kGenerations = 150;

/// make_system(kApps, kEcus, seed) as DSL text: a provides/consumes chain of
/// alternating DA/NDA apps with per-task utilisation 0.05-0.25. The seed
/// deals a fixed, evenly spaced set of WCETs out to the apps: every seed
/// places the same total load and differs only in where it sits on the
/// chain, so the search's time does not follow a seed's total load.
std::string make_dsl(std::uint64_t seed) {
  std::vector<std::uint64_t> wcets_k;
  for (std::size_t a = 0; a < kApps; ++a) {
    wcets_k.push_back(500 + (2000 * (2 * a + 1)) / (2 * kApps));
  }
  sim::Random rng(seed);
  for (std::size_t a = kApps - 1; a > 0; --a) {
    std::swap(wcets_k[a], wcets_k[rng.next_below(a + 1)]);
  }
  std::string dsl = "network Net kind=ethernet bitrate=1G\n";
  for (std::size_t e = 0; e < kEcus; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=256M asil=D network=Net\n";
  }
  for (std::size_t a = 0; a + 1 < kApps; ++a) {
    dsl += "interface I" + std::to_string(a) +
           " paradigm=event payload=64 period=10ms\n";
  }
  for (std::size_t a = 0; a < kApps; ++a) {
    const bool deterministic = a % 2 == 0;
    dsl += "app A" + std::to_string(a) + " class=" +
           (deterministic ? "deterministic" : "nondeterministic") +
           " asil=B memory=16M\n";
    dsl += "  task t period=10ms wcet=" + std::to_string(wcets_k[a]) + "K" +
           " priority=" + std::to_string(a % 16) + "\n";
    if (a > 0) dsl += "  consumes I" + std::to_string(a - 1) + "\n";
    if (a + 1 < kApps) dsl += "  provides I" + std::to_string(a) + "\n";
  }
  return dsl;
}

std::uint64_t input_fingerprint(std::uint64_t seed) {
  return Fnv().add(make_dsl(seed)).value();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string describe(const model::Assignment& assignment) {
  std::string text;
  for (const auto& [app, ecus] : assignment.placement) {
    if (!text.empty()) text += ' ';
    text += app + "->";
    for (std::size_t i = 0; i < ecus.size(); ++i) {
      text += (i ? "|" : "") + ecus[i];
    }
  }
  return text;
}

Fnv& fold(Fnv& fnv, const dse::ExplorationResult& result) {
  fnv.add(result.strategy).add(std::uint64_t{result.feasible}).add(result.cost);
  fnv.add(result.candidates_evaluated);
  for (const auto& [app, ecus] : result.assignment.placement) {
    fnv.add(app);
    for (const std::string& ecu : ecus) fnv.add(ecu);
  }
  return fnv;
}

Iteration run(const Options& options) {
  Iteration it;
  const std::string group =
      "dse_explore/iteration " + std::to_string(options.iteration) + " ";
  const std::string dsl = make_dsl(options.seed);
  const std::size_t threads = options.workers - 1;

  SpanLog setup_log(group + "setup");
  SpanLog* trace = options.traced ? &setup_log : nullptr;
  const std::int64_t setup_start = now_ns();
  model::ParsedSystem parsed;
  {
    Span span(trace, "model.parse");
    parsed = model::parse_system(dsl);
  }
  std::unique_ptr<dse::Explorer> explorer;
  {
    Span span(trace, "dse.explorer_new");
    explorer = std::make_unique<dse::Explorer>(parsed.model);
  }
  it.setup_s = seconds_since(setup_start);

  SpanLog greedy_log(group + "greedy");
  SpanLog annealing_log(group + "annealing");
  SpanLog genetic_log(group + "genetic");
  const auto log = [&](SpanLog& l) { return options.traced ? &l : nullptr; };
  std::vector<dse::ExplorationResult> results;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  {
    Span span(log(greedy_log), "dse.greedy");
    results.push_back(explorer->greedy());
  }
  {
    Span span(log(annealing_log), "dse.annealing");
    results.push_back(explorer->simulated_annealing(
        kAnnealIterations, options.seed, kAnnealChains, threads));
  }
  {
    Span span(log(genetic_log), "dse.genetic");
    results.push_back(
        explorer->genetic(kPopulation, kGenerations, options.seed, threads));
  }
  it.wall_s = seconds_since(start);
  const double cpu_s = process_cpu_s() - cpu_start;
  if (options.traced) {
    it.spans.push_back(std::move(setup_log));
    it.spans.push_back(std::move(greedy_log));
    it.spans.push_back(std::move(annealing_log));
    it.spans.push_back(std::move(genetic_log));
  }

  // Re-verify every returned assignment with an independent explorer.
  const dse::Explorer checker(parsed.model);
  Fnv fnv;
  std::uint64_t candidates = 0, hits = 0;
  for (const dse::ExplorationResult& result : results) {
    ++it.attempted;
    const bool feasible = checker.feasible(result.assignment);
    const double cost = checker.cost(result.assignment);
    if (feasible != result.feasible || cost != result.cost) {
      ++it.failed;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " result fails re-verification: reported cost %.17g "
                    "(feasible %d), recomputed %.17g (feasible %d)",
                    result.cost, result.feasible, cost, feasible);
      it.check_errors.push_back(result.strategy + buf);
    }
    fold(fnv, result);
    candidates += result.candidates_evaluated;
    hits += result.cache_hits;
    it.notes.push_back(result.strategy + ": cost " +
                       std::to_string(result.cost) +
                       (result.feasible ? " (feasible), " : " (INFEASIBLE), ") +
                       std::to_string(result.candidates_evaluated) +
                       " candidates");
  }
  const dse::ExplorationResult& best =
      results[2].cost < results[1].cost ? results[2] : results[1];
  it.fingerprint = fnv.value();
  set_metric(it.simulated, "best_cost", best.cost, "cost");
  it.notes.push_back("best assignment (" + best.strategy + ", " +
                     hex64(Fnv().add(describe(best.assignment)).value()) +
                     "): " + describe(best.assignment));
  it.work = static_cast<double>(candidates);
  it.work_unit = "candidates/s";

  auto& l = it.layers;
  set_metric(l, "model.parse_s", total_s(it.spans, "model.parse"), "s");
  const double search_s = total_s(it.spans, "dse.greedy") +
                          total_s(it.spans, "dse.annealing") +
                          total_s(it.spans, "dse.genetic");
  for (const char* name :
       {"dse.explorer_new", "dse.greedy", "dse.annealing", "dse.genetic"}) {
    set_metric(l, std::string(name) + "_s", total_s(it.spans, name), "s");
  }
  set_metric(l, "dse.candidates", static_cast<double>(candidates), "count");
  set_metric(l, "dse.cache_hit_rate",
             ratio(static_cast<double>(hits), static_cast<double>(candidates)),
             "ratio");
  set_metric(l, "dse.ns_per_candidate",
             ratio(search_s * 1e9, static_cast<double>(candidates)), "ns");
  set_metric(l, "concurrency.workers", static_cast<double>(options.workers),
             "count");
  // Busy time seen from outside: process CPU time over the search.
  set_metric(l, "concurrency.efficiency",
             ratio(cpu_s, it.wall_s * static_cast<double>(options.workers)),
             "ratio");
  return it;
}

}  // namespace

// Two workers by default: genetic search meets a pool barrier every
// generation, so one descheduled thread stalls the rest. On a shared 4-vCPU
// host one busy vCPU slowed 4 workers by 21% and 2 workers by 6%.
const Workload& dse_explore() {
  static const Workload workload{
      "dse_explore",
      "greedy, annealing and genetic search on a 32-app x 12-ECU system: dse "
      "exploration, its memo caches and the thread pool",
      2, input_fingerprint, run};
  return workload;
}

}  // namespace perfbench
