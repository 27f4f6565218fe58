#include "dse/schedulability.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

namespace dynaplat::dse {

std::vector<AnalysisTask> tasks_on(const model::AppDef& app,
                                   std::uint64_t mips) {
  std::vector<AnalysisTask> out;
  for (const auto& task : app.tasks) {
    AnalysisTask at;
    at.name = app.name + "." + task.name;
    at.period = task.period;
    at.deadline = task.deadline > 0 ? task.deadline : task.period;
    at.wcet = static_cast<sim::Duration>(task.instructions * 1000ull / mips);
    at.priority = task.priority;
    at.deterministic = app.app_class == model::AppClass::kDeterministic;
    out.push_back(std::move(at));
  }
  return out;
}

std::optional<std::vector<sim::Duration>> response_time_analysis(
    const std::vector<AnalysisTask>& tasks) {
  // Sort indices by priority (most urgent first).
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].priority < tasks[b].priority;
  });

  std::vector<sim::Duration> response(tasks.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const AnalysisTask& task = tasks[order[rank]];
    if (task.period <= 0) continue;  // aperiodic: not covered by RTA
    sim::Duration r = task.wcet;
    for (int iteration = 0; iteration < 1000; ++iteration) {
      sim::Duration interference = 0;
      for (std::size_t h = 0; h < rank; ++h) {
        const AnalysisTask& higher = tasks[order[h]];
        if (higher.period <= 0) continue;
        const sim::Duration jobs =
            (r + higher.period - 1) / higher.period;  // ceil(r / T_h)
        interference += jobs * higher.wcet;
      }
      const sim::Duration next = task.wcet + interference;
      if (next == r) break;
      r = next;
      if (r > task.deadline) return std::nullopt;
    }
    if (r > task.deadline) return std::nullopt;
    response[order[rank]] = r;
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
  sim::Duration lcm = 1;
  for (const auto& task : tasks) {
    if (task.period <= 0) continue;
    lcm = std::lcm(lcm, task.period);
    if (lcm > cap || lcm <= 0) return cap;
  }
  return lcm;
}

std::optional<TtTable> synthesize_tt_table(
    const std::vector<AnalysisTask>& tasks, sim::Duration granularity,
    sim::Duration window_padding) {
  std::vector<std::size_t> det;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].deterministic && tasks[i].period > 0) det.push_back(i);
  }
  TtTable table;
  if (det.empty()) {
    table.cycle = sim::kMillisecond;
    return table;
  }
  std::vector<AnalysisTask> dts;
  for (std::size_t i : det) dts.push_back(tasks[i]);
  const sim::Duration cycle = hyperperiod(dts);
  table.cycle = cycle;

  // Collect every job in the hyperperiod: (release, deadline, task idx).
  struct Job {
    sim::Time release;
    sim::Time deadline;
    std::size_t task;
  };
  std::vector<Job> jobs;
  for (std::size_t i : det) {
    const auto& task = tasks[i];
    for (sim::Time release = 0; release < cycle; release += task.period) {
      jobs.push_back(Job{release, release + task.deadline, i});
    }
  }
  // EDF order gives the classic optimal placement heuristic.
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.release < b.release;
  });

  // Free list of intervals, initially the whole cycle.
  struct Interval {
    sim::Time begin;
    sim::Time end;
  };
  std::vector<Interval> free{{0, cycle}};

  auto align = [granularity](sim::Time t) {
    if (granularity <= 0) return t;
    return ((t + granularity - 1) / granularity) * granularity;
  };

  for (const Job& job : jobs) {
    const sim::Duration wcet = tasks[job.task].wcet + window_padding;
    bool placed = false;
    for (std::size_t f = 0; f < free.size(); ++f) {
      const sim::Time start =
          align(std::max(free[f].begin, job.release));
      if (start + wcet > free[f].end) continue;
      if (start + wcet > job.deadline) continue;
      table.windows.push_back(
          TtTable::Window{start, wcet, job.task});
      // Split the free interval.
      const Interval before{free[f].begin, start};
      const Interval after{start + wcet, free[f].end};
      free.erase(free.begin() + static_cast<long>(f));
      if (after.end > after.begin) {
        free.insert(free.begin() + static_cast<long>(f), after);
      }
      if (before.end > before.begin) {
        free.insert(free.begin() + static_cast<long>(f), before);
      }
      placed = true;
      break;
    }
    if (!placed) return std::nullopt;
  }
  std::sort(table.windows.begin(), table.windows.end(),
            [](const TtTable::Window& a, const TtTable::Window& b) {
              return a.offset < b.offset;
            });
  return table;
}

bool schedulable(const std::vector<AnalysisTask>& tasks, std::string* why) {
  double total_utilization = 0.0;
  for (const auto& task : tasks) total_utilization += task.utilization();
  if (total_utilization > 1.0) {
    if (why != nullptr) {
      std::ostringstream os;
      os << "total utilization " << total_utilization << " > 1.0";
      *why = os.str();
    }
    return false;
  }
  // Deterministic subset must admit a TT table.
  if (!synthesize_tt_table(tasks).has_value()) {
    // TT synthesis is conservative: fall back to exact RTA over the
    // deterministic subset.
    std::vector<AnalysisTask> det;
    for (const auto& task : tasks) {
      if (task.deterministic) det.push_back(task);
    }
    if (!response_time_analysis(det).has_value()) {
      if (why != nullptr) {
        *why = "deterministic tasks admit neither a TT table nor RTA "
               "guarantees";
      }
      return false;
    }
  }
  return true;
}

model::Verifier::SchedulabilityHook make_verifier_hook() {
  return [](const model::EcuDef& ecu,
            const std::vector<const model::AppDef*>& apps, std::string* why) {
    // Partitioned multicore: first-fit-decreasing apps onto cores, then the
    // exact single-core test per core (the same placement policy the
    // PlatformNode uses at install time).
    const auto cores = static_cast<std::size_t>(std::max(1, ecu.cores));
    // Each app's utilization once, in input order: std::sort sees the same
    // comparison results as when the comparator recomputed them, so equal
    // utilizations keep the same (unstable) tie order.
    std::vector<std::pair<double, const model::AppDef*>> order;
    order.reserve(apps.size());
    for (const model::AppDef* app : apps) {
      order.emplace_back(app->utilization_on(ecu.mips), app);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::vector<AnalysisTask>> per_core(cores);
    for (const auto& [utilization, app] : order) {
      const auto app_tasks = tasks_on(*app, ecu.mips);
      bool placed = false;
      for (auto& core_tasks : per_core) {
        const std::size_t fitted = core_tasks.size();
        core_tasks.insert(core_tasks.end(), app_tasks.begin(),
                          app_tasks.end());
        if (schedulable(core_tasks, nullptr)) {
          placed = true;
          break;
        }
        core_tasks.resize(fitted);
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
