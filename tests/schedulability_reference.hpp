// The schedulability analyses as they were before they moved onto one
// name-free core: each call copies the task subsets it works on, and the
// table synthesis takes the hyperperiod of a copied deterministic subset.
// Kept as the reference for the differential tests of the hook, the TT
// synthesis and the combined verdict.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dse/schedulability.hpp"

namespace dynaplat::reference {

inline sim::Duration hyperperiod(const std::vector<dse::AnalysisTask>& tasks,
                                 sim::Duration cap = 10 * sim::kSecond) {
  sim::Duration lcm = 1;
  for (const auto& task : tasks) {
    if (task.period <= 0) continue;
    lcm = std::lcm(lcm, task.period);
    if (lcm > cap || lcm <= 0) return cap;
  }
  return lcm;
}

inline std::optional<std::vector<sim::Duration>> response_time_analysis(
    const std::vector<dse::AnalysisTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].priority < tasks[b].priority;
  });
  std::vector<sim::Duration> response(tasks.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const dse::AnalysisTask& task = tasks[order[rank]];
    if (task.period <= 0) continue;
    sim::Duration r = task.wcet;
    for (int iteration = 0; iteration < 1000; ++iteration) {
      sim::Duration interference = 0;
      for (std::size_t h = 0; h < rank; ++h) {
        const dse::AnalysisTask& higher = tasks[order[h]];
        if (higher.period <= 0) continue;
        interference += (r + higher.period - 1) / higher.period * higher.wcet;
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

inline std::optional<dse::TtTable> synthesize_tt_table(
    const std::vector<dse::AnalysisTask>& tasks,
    sim::Duration granularity = 0, sim::Duration window_padding = 0) {
  std::vector<std::size_t> det;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].deterministic && tasks[i].period > 0) det.push_back(i);
  }
  dse::TtTable table;
  if (det.empty()) {
    table.cycle = sim::kMillisecond;
    return table;
  }
  std::vector<dse::AnalysisTask> dts;
  for (std::size_t i : det) dts.push_back(tasks[i]);
  const sim::Duration cycle = reference::hyperperiod(dts);
  table.cycle = cycle;
  struct Job {
    sim::Time release;
    sim::Time deadline;
    std::size_t task;
  };
  std::vector<Job> jobs;
  for (std::size_t i : det) {
    for (sim::Time release = 0; release < cycle; release += tasks[i].period) {
      jobs.push_back(Job{release, release + tasks[i].deadline, i});
    }
  }
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.release < b.release;
  });
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
      const sim::Time start = align(std::max(free[f].begin, job.release));
      if (start + wcet > free[f].end) continue;
      if (start + wcet > job.deadline) continue;
      table.windows.push_back(dse::TtTable::Window{start, wcet, job.task});
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
            [](const dse::TtTable::Window& a, const dse::TtTable::Window& b) {
              return a.offset < b.offset;
            });
  return table;
}

/// How often each outcome of schedulable() was reached, so a differential
/// test can show its generator covers every branch.
struct Branches {
  int overload = 0;   ///< total utilization > 1
  int tt_ok = 0;      ///< the deterministic subset admits a TT table
  int rta_only = 0;   ///< TT placement fails, RTA passes
  int neither = 0;    ///< both fail
  int cycle_at_cap = 0;    ///< deterministic LCM exactly the 10 s cap
  int cycle_past_cap = 0;  ///< deterministic LCM beyond the cap
};

inline bool schedulable(const std::vector<dse::AnalysisTask>& tasks,
                        std::string* why, Branches* branches = nullptr) {
  double total_utilization = 0.0;
  for (const auto& task : tasks) total_utilization += task.utilization();
  if (total_utilization > 1.0) {
    if (branches != nullptr) ++branches->overload;
    if (why != nullptr) {
      std::ostringstream os;
      os << "total utilization " << total_utilization << " > 1.0";
      *why = os.str();
    }
    return false;
  }
  if (branches != nullptr) {
    std::vector<dse::AnalysisTask> dts;
    for (const auto& task : tasks) {
      if (task.deterministic) dts.push_back(task);
    }
    constexpr sim::Duration kCap = 10 * sim::kSecond;
    const sim::Duration lcm = reference::hyperperiod(dts, 1000 * kCap);
    branches->cycle_at_cap += lcm == kCap ? 1 : 0;
    branches->cycle_past_cap += lcm > kCap ? 1 : 0;
  }
  if (reference::synthesize_tt_table(tasks).has_value()) {
    if (branches != nullptr) ++branches->tt_ok;
    return true;
  }
  std::vector<dse::AnalysisTask> det;
  for (const auto& task : tasks) {
    if (task.deterministic) det.push_back(task);
  }
  if (!reference::response_time_analysis(det).has_value()) {
    if (branches != nullptr) ++branches->neither;
    if (why != nullptr) {
      *why = "deterministic tasks admit neither a TT table nor RTA "
             "guarantees";
    }
    return false;
  }
  if (branches != nullptr) ++branches->rta_only;
  return true;
}

}  // namespace dynaplat::reference
