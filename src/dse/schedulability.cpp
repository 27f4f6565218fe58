#include "dse/schedulability.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <utility>

namespace dynaplat::dse {

namespace {

// The name-free core. Every public analysis converts its AnalysisTasks to
// Timing records and runs one of the loops below; the verifier hook fills
// Timing records straight from the model, so a verdict builds no task name.

/// An AnalysisTask without its name: all that any analysis reads.
struct Timing {
  sim::Duration period = 0;
  sim::Duration deadline = 0;
  sim::Duration wcet = 0;
  int priority = 16;
  bool deterministic = false;

  double utilization() const {
    return period > 0 ? static_cast<double>(wcet) /
                            static_cast<double>(period)
                      : 0.0;
  }
};

struct Job {
  sim::Time release;
  sim::Time deadline;
  std::size_t task;
};

struct Interval {
  sim::Time begin;
  sim::Time end;
};

/// Per-thread buffers, reused across calls so a verdict allocates nothing
/// once they have grown. The public wrappers and the hook fill `timings`,
/// `cores` and `apps`; the loops below use only the rest.
struct Scratch {
  std::vector<Timing> timings;
  std::vector<std::vector<Timing>> cores;
  std::vector<std::pair<double, const model::AppDef*>> apps;
  std::vector<Job> jobs;
  std::vector<Interval> free;
  std::vector<std::size_t> order;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// `task` of `app` on an ECU of `mips`: the one WCET and deadline rule.
Timing timing_on(const model::AppDef& app, const model::TaskDef& task,
                 std::uint64_t mips) {
  return Timing{task.period, task.deadline > 0 ? task.deadline : task.period,
                static_cast<sim::Duration>(task.instructions * 1000ull / mips),
                task.priority,
                app.app_class == model::AppClass::kDeterministic};
}

std::span<const Timing> timings_of(const std::vector<AnalysisTask>& tasks,
                                   Scratch& s) {
  s.timings.clear();
  for (const auto& task : tasks) {
    s.timings.push_back(Timing{task.period, task.deadline, task.wcet,
                               task.priority, task.deterministic});
  }
  return s.timings;
}

/// LCM of the periods of the periodic tasks `keep` admits, saturating at
/// `cap` as soon as it exceeds the cap or overflows (an LCM equal to the cap
/// keeps folding).
template <typename Keep>
sim::Duration lcm_of_periods(std::span<const Timing> tasks, sim::Duration cap,
                             Keep keep) {
  sim::Duration lcm = 1;
  for (const Timing& task : tasks) {
    if (task.period <= 0 || !keep(task)) continue;
    lcm = std::lcm(lcm, task.period);
    if (lcm > cap || lcm <= 0) return cap;
  }
  return lcm;
}

/// EDF-ordered first-fit placement of every job of the deterministic
/// periodic tasks over their hyperperiod. Records the cycle and the
/// offset-sorted windows into `table` when it is non-null; a verdict passes
/// null and records nothing.
bool place_tt(std::span<const Timing> tasks, sim::Duration granularity,
              sim::Duration window_padding, Scratch& s, TtTable* table) {
  const auto deterministic = [](const Timing& task) {
    return task.deterministic;
  };
  const sim::Duration cycle =
      lcm_of_periods(tasks, 10 * sim::kSecond, deterministic);

  // Collect every job in the hyperperiod: (release, deadline, task idx).
  std::vector<Job>& jobs = s.jobs;
  jobs.clear();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Timing& task = tasks[i];
    if (!task.deterministic || task.period <= 0) continue;
    for (sim::Time release = 0; release < cycle; release += task.period) {
      jobs.push_back(Job{release, release + task.deadline, i});
    }
  }
  if (jobs.empty()) {  // no deterministic periodic task
    if (table != nullptr) table->cycle = sim::kMillisecond;
    return true;
  }
  if (table != nullptr) table->cycle = cycle;
  // EDF order gives the classic optimal placement heuristic.
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.release < b.release;
  });

  // Free list of intervals, initially the whole cycle.
  std::vector<Interval>& free = s.free;
  free.assign(1, Interval{0, cycle});

  auto align = [granularity](sim::Time t) {
    if (granularity <= 0) return t;
    return ((t + granularity - 1) / granularity) * granularity;
  };

  for (const Job& job : jobs) {
    const sim::Duration wcet = tasks[job.task].wcet + window_padding;
    bool placed = false;
    for (std::size_t f = 0; f < free.size(); ++f) {
      const sim::Time start = align(std::max(free[f].begin, job.release));
      if (start + wcet > free[f].end) continue;
      if (start + wcet > job.deadline) continue;
      if (table != nullptr) {
        table->windows.push_back(TtTable::Window{start, wcet, job.task});
      }
      // Split the free interval into its non-empty [before, after] parts.
      const Interval before{free[f].begin, start};
      const Interval after{start + wcet, free[f].end};
      const auto at = free.begin() + static_cast<long>(f);
      if (before.end > before.begin) {
        *at = before;
        if (after.end > after.begin) free.insert(at + 1, after);
      } else if (after.end > after.begin) {
        *at = after;
      } else {
        free.erase(at);
      }
      placed = true;
      break;
    }
    if (!placed) return false;
  }
  if (table != nullptr) {
    std::sort(table->windows.begin(), table->windows.end(),
              [](const TtTable::Window& a, const TtTable::Window& b) {
                return a.offset < b.offset;
              });
  }
  return true;
}

/// Fixed-priority RTA over the tasks `keep` admits. Writes each periodic
/// task's response time to `response[i]` when `response` is non-null.
template <typename Keep>
bool rta(std::span<const Timing> tasks, Scratch& s, Keep keep,
         sim::Duration* response) {
  // Sort indices by priority (most urgent first).
  std::vector<std::size_t>& order = s.order;
  order.clear();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (keep(tasks[i])) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].priority < tasks[b].priority;
  });

  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const Timing& task = tasks[order[rank]];
    if (task.period <= 0) continue;  // aperiodic: not covered by RTA
    sim::Duration r = task.wcet;
    for (int iteration = 0; iteration < 1000; ++iteration) {
      sim::Duration interference = 0;
      for (std::size_t h = 0; h < rank; ++h) {
        const Timing& higher = tasks[order[h]];
        if (higher.period <= 0) continue;
        const sim::Duration jobs =
            (r + higher.period - 1) / higher.period;  // ceil(r / T_h)
        interference += jobs * higher.wcet;
      }
      const sim::Duration next = task.wcet + interference;
      if (next == r) break;
      r = next;
      if (r > task.deadline) return false;
    }
    if (r > task.deadline) return false;
    if (response != nullptr) response[order[rank]] = r;
  }
  return true;
}

/// The combined verdict behind schedulable() and the first-fit hook.
bool verdict(std::span<const Timing> tasks, Scratch& s, std::string* why) {
  double total_utilization = 0.0;
  for (const Timing& task : tasks) total_utilization += task.utilization();
  if (total_utilization > 1.0) {
    if (why != nullptr) {
      std::ostringstream os;
      os << "total utilization " << total_utilization << " > 1.0";
      *why = os.str();
    }
    return false;
  }
  // Deterministic subset must admit a TT table. TT synthesis is
  // conservative: fall back to exact RTA over the deterministic subset.
  if (!place_tt(tasks, 0, 0, s, nullptr) &&
      !rta(tasks, s, [](const Timing& task) { return task.deterministic; },
           nullptr)) {
    if (why != nullptr) {
      *why = "deterministic tasks admit neither a TT table nor RTA "
             "guarantees";
    }
    return false;
  }
  return true;
}

constexpr auto kEveryTask = [](const Timing&) { return true; };

}  // namespace

std::vector<AnalysisTask> tasks_on(const model::AppDef& app,
                                   std::uint64_t mips) {
  std::vector<AnalysisTask> out;
  for (const auto& task : app.tasks) {
    const Timing t = timing_on(app, task, mips);
    out.push_back(AnalysisTask{app.name + "." + task.name, t.period,
                               t.deadline, t.wcet, t.priority,
                               t.deterministic});
  }
  return out;
}

std::optional<std::vector<sim::Duration>> response_time_analysis(
    const std::vector<AnalysisTask>& tasks) {
  Scratch& s = scratch();
  std::vector<sim::Duration> response(tasks.size(), 0);
  if (!rta(timings_of(tasks, s), s, kEveryTask, response.data())) {
    return std::nullopt;
  }
  return response;
}

bool edf_feasible(const std::vector<AnalysisTask>& tasks) {
  double density = 0.0;
  for (const auto& task : tasks) {
    if (task.period <= 0) continue;
    const sim::Duration d = std::min(task.deadline, task.period);
    if (d <= 0) return false;
    density += static_cast<double>(task.wcet) / static_cast<double>(d);
  }
  return density <= 1.0 + 1e-12;
}

double TtTable::reserved_fraction() const {
  if (cycle <= 0) return 0.0;
  sim::Duration reserved = 0;
  for (const auto& w : windows) reserved += w.length;
  return static_cast<double>(reserved) / static_cast<double>(cycle);
}

sim::Duration hyperperiod(const std::vector<AnalysisTask>& tasks,
                          sim::Duration cap) {
  return lcm_of_periods(timings_of(tasks, scratch()), cap, kEveryTask);
}

std::optional<TtTable> synthesize_tt_table(
    const std::vector<AnalysisTask>& tasks, sim::Duration granularity,
    sim::Duration window_padding) {
  Scratch& s = scratch();
  TtTable table;
  if (!place_tt(timings_of(tasks, s), granularity, window_padding, s,
                &table)) {
    return std::nullopt;
  }
  return table;
}

bool schedulable(const std::vector<AnalysisTask>& tasks, std::string* why) {
  Scratch& s = scratch();
  return verdict(timings_of(tasks, s), s, why);
}

model::Verifier::SchedulabilityHook make_verifier_hook() {
  return [](const model::EcuDef& ecu,
            const std::vector<const model::AppDef*>& apps, std::string* why) {
    // Partitioned multicore: first-fit-decreasing apps onto cores, then the
    // exact single-core test per core (the same placement policy the
    // PlatformNode uses at install time).
    Scratch& s = scratch();
    const auto cores = static_cast<std::size_t>(std::max(1, ecu.cores));
    // Each app's utilization once, in input order: std::sort sees the same
    // comparison results as when the comparator recomputed them, so equal
    // utilizations keep the same (unstable) tie order.
    auto& order = s.apps;
    order.clear();
    for (const model::AppDef* app : apps) {
      order.emplace_back(app->utilization_on(ecu.mips), app);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (s.cores.size() < cores) s.cores.resize(cores);
    for (std::size_t c = 0; c < cores; ++c) s.cores[c].clear();
    for (const auto& [utilization, app] : order) {
      // tasks_on() without the names.
      std::vector<Timing>& incoming = s.timings;
      incoming.clear();
      for (const model::TaskDef& task : app->tasks) {
        incoming.push_back(timing_on(*app, task, ecu.mips));
      }
      bool placed = false;
      for (std::size_t c = 0; c < cores && !placed; ++c) {
        std::vector<Timing>& core_tasks = s.cores[c];
        const std::size_t fitted = core_tasks.size();
        core_tasks.insert(core_tasks.end(), incoming.begin(), incoming.end());
        placed = verdict(core_tasks, s, nullptr);
        if (!placed) core_tasks.resize(fitted);
      }
      if (!placed) {
        if (why != nullptr) {
          *why = "app '" + app->name + "' fits no core of " + ecu.name;
        }
        return false;
      }
    }
    return true;
  };
}

}  // namespace dynaplat::dse
