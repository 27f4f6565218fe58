// vehicle_chaos: the E13 triple-ECU chaos rig (bench/bench_fault.cpp Rig +
// run_campaign) swept over a contiguous range of campaign seeds.
//
// Each scenario parses the model, brings up three ECUs on switched
// Ethernet, installs a replicated Pilot behind reliable transport, engages
// redundancy and degradation, arms a 6-episode fault campaign and runs 4 s
// of sim time: a shallow queue of periodic task and frame events, with the
// whole bring-up paid again per scenario. Scenarios run through
// sim::ScenarioSweep, so the merged outcome is the same at any worker count.
#include <algorithm>
#include <memory>
#include <string>

#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "model/parser.hpp"
#include "net/ethernet.hpp"
#include "os/ecu.hpp"
#include "perfbench.hpp"
#include "platform/degradation.hpp"
#include "platform/platform.hpp"
#include "platform/redundancy.hpp"
#include "sim/sweep.hpp"

namespace perfbench {
namespace {

using namespace dynaplat;

/// Seed n owns campaign seeds n*1024+1 .. n*1024+1024, swept 128 per
/// repetition in 8 blocks taken in turn, so a run covers all 1024 and no
/// single block decides its figures.
constexpr std::size_t kScenarios = 128;
constexpr std::size_t kBlocks = 8;

// The E13 system: Pilot replicated on A|B|C, Aux on C.
const char* kSystem = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
interface Cmd paradigm=event payload=8 period=10ms
app Pilot class=deterministic asil=D memory=4M replicas=2
  task drive period=10ms wcet=100K priority=1
  provides Cmd
app Aux class=nondeterministic asil=QM memory=4M
  task churn period=20ms wcet=6M priority=8
deploy Pilot -> A | B | C
deploy Aux -> C
)";

class PilotApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    ++step_;
    if (!active() || context_.def->provides.empty()) return;
    context_.comm->publish(context_.service_id(context_.def->provides[0]), 1,
                           {static_cast<std::uint8_t>(step_)},
                           context_.priority_of(context_.def->provides[0]));
  }
  std::vector<std::uint8_t> serialize_state() override {
    return {static_cast<std::uint8_t>(step_)};
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    if (!state.empty()) step_ = state[0];
  }

 private:
  std::uint64_t step_ = 0;
};

class AuxApp final : public platform::Application {};

struct ScenarioOutcome {
  bool up = false;
  bool passed = false;
  std::string report;
  std::uint64_t fingerprint = 0;
  double setup_s = 0.0;
  std::uint64_t injected = 0;
  std::vector<double> outages_ms;
  std::uint64_t events = 0;
  std::uint64_t slab_events = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  SpanLog spans;
};

/// One E13 campaign: rig bring-up, campaign, 4 s of sim time, invariants.
/// Fills `out` in place so the scenario span closes into its own log.
void run_scenario(sim::Simulator& simulator, std::uint64_t seed, bool traced,
                  ScenarioOutcome& out) {
  SpanLog* trace = traced ? &out.spans : nullptr;
  Span scenario(trace, "scenario");

  const std::int64_t setup_start = now_ns();
  sim::Trace sim_trace;
  model::ParsedSystem parsed;
  {
    Span span(trace, "model.parse");
    parsed = model::parse_system(kSystem);
  }
  std::unique_ptr<net::EthernetSwitch> backbone;
  std::vector<std::unique_ptr<os::Ecu>> ecus;
  {
    Span span(trace, "os.ecu_build");
    backbone = std::make_unique<net::EthernetSwitch>(simulator, "eth",
                                                     net::EthernetConfig{});
    net::NodeId next_node = 1;
    for (const auto& ecu_def : parsed.model.ecus()) {
      os::EcuConfig config;
      config.name = ecu_def.name;
      config.cpu.mips = ecu_def.mips;
      config.memory_bytes = ecu_def.memory_bytes;
      ecus.push_back(std::make_unique<os::Ecu>(
          simulator, config, backbone.get(), next_node++, &sim_trace));
    }
  }
  std::unique_ptr<platform::DynamicPlatform> dp;
  {
    Span span(trace, "platform.install");
    platform::NodeConfig node_config;
    node_config.middleware.transport.reliable = true;
    dp = std::make_unique<platform::DynamicPlatform>(simulator, parsed.model,
                                                     parsed.deployment);
    for (auto& ecu : ecus) dp->add_node(*ecu, node_config);
    dp->register_app("Pilot", [] { return std::make_unique<PilotApp>(); });
    dp->register_app("Aux", [] { return std::make_unique<AuxApp>(); });
    out.up = dp->install_all();
  }
  if (!out.up) return;
  std::unique_ptr<platform::RedundancyManager> redundancy;
  std::unique_ptr<platform::DegradationManager> degradation;
  {
    Span span(trace, "platform.engage");
    redundancy = std::make_unique<platform::RedundancyManager>(*dp, "Pilot");
    redundancy->engage();
    degradation = std::make_unique<platform::DegradationManager>(*dp);
    degradation->engage();
  }
  out.setup_s = seconds_since(setup_start);

  fault::CampaignConfig campaign_config;
  campaign_config.seed = seed;
  campaign_config.start = 200 * sim::kMillisecond;
  campaign_config.horizon = 3 * sim::kSecond;
  campaign_config.episodes = 6;
  campaign_config.weight_overrun = 0.0;  // no overrun target registered
  std::unique_ptr<fault::FaultCampaign> campaign;
  {
    Span span(trace, "fault.arm");
    campaign =
        std::make_unique<fault::FaultCampaign>(simulator, campaign_config);
    campaign->set_trace(&sim_trace);
    for (auto& ecu : ecus) campaign->add_ecu(*ecu);
    campaign->add_medium(*backbone);
    campaign->generate();
    campaign->arm();
  }
  {
    Span span(trace, "sim.run");
    simulator.run_until(4 * sim::kSecond);
  }
  fault::InvariantReport report;
  {
    Span span(trace, "fault.invariants");
    fault::InvariantChecker checker;
    checker.require_failover_outage_below(*redundancy,
                                          300 * sim::kMillisecond);
    checker.require_no_da_deadline_misses(*dp);
    // Detection limit: 3 missed heartbeats at 10 ms plus one supervisor tick.
    checker.require_faults_detected(*campaign, *dp, redundancy.get(),
                                    40 * sim::kMillisecond);
    checker.require_no_stranded_reassembly(*dp);
    report = checker.run();
  }

  out.passed = report.passed;
  if (!report.passed) out.report = report.summary();
  out.injected = campaign->injected().size();
  Fnv fnv;
  fnv.add(campaign->fingerprint())
      .add(out.injected)
      .add(std::uint64_t{report.passed})
      .add(simulator.events_executed());
  for (const platform::FailoverEvent& event : redundancy->failovers()) {
    out.outages_ms.push_back(sim::to_ms(event.outage));
    fnv.add(static_cast<std::uint64_t>(event.outage));
  }
  out.fingerprint = fnv.value();
  out.events = simulator.events_executed();
  out.slab_events = simulator.slab_capacity();
  out.frames_delivered = backbone->frames_delivered();
  out.frames_dropped = backbone->frames_dropped();
  for (const auto& ecu_def : parsed.model.ecus()) {
    platform::PlatformNode* node = dp->node(ecu_def.name);
    if (node == nullptr) continue;
    out.messages_sent += node->comm().messages_sent();
    out.messages_received += node->comm().messages_received();
  }
}

std::uint64_t input_fingerprint(std::uint64_t seed) {
  return Fnv()
      .add(seed * kScenarios * kBlocks + 1)
      .add(std::uint64_t{kScenarios * kBlocks})
      .add(std::string_view(kSystem))
      .value();
}

Iteration run(const Options& options) {
  Iteration it;
  it.block = options.iteration % kBlocks;
  const std::uint64_t first_seed =
      (options.seed * kBlocks + it.block) * kScenarios + 1;
  const std::string group = "vehicle_chaos/iteration " +
                            std::to_string(options.iteration) + " seed ";

  const std::int64_t start = now_ns();
  std::vector<ScenarioOutcome> outcomes;
  {
    sim::ScenarioSweep sweep({.seed = 1, .threads = options.workers - 1});
    outcomes = sweep.run<ScenarioOutcome>(
        kScenarios, [&](sim::ScenarioRun& run) {
          const std::uint64_t seed = first_seed + run.index;
          ScenarioOutcome out;
          out.spans = SpanLog(group + std::to_string(seed));
          run_scenario(run.simulator, seed, options.traced, out);
          return out;
        });
  }
  it.wall_s = seconds_since(start);

  std::vector<std::uint64_t> fingerprints;
  std::vector<double> outages;
  std::uint64_t injected = 0, failures = 0, events = 0, slab = 0;
  std::uint64_t delivered = 0, dropped = 0, sent = 0, received = 0;
  std::string failing;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ScenarioOutcome& o = outcomes[i];
    if (!o.up) {
      it.check_errors.push_back("rig bring-up failed for campaign seed " +
                                std::to_string(first_seed + i));
    }
    if (!o.passed) {
      ++failures;
      failing += ' ' + std::to_string(first_seed + i);
    }
    fingerprints.push_back(o.fingerprint);
    outages.insert(outages.end(), o.outages_ms.begin(), o.outages_ms.end());
    it.setup_s += o.setup_s;
    injected += o.injected;
    events += o.events;
    slab = std::max(slab, o.slab_events);
    delivered += o.frames_delivered;
    dropped += o.frames_dropped;
    sent += o.messages_sent;
    received += o.messages_received;
    if (options.traced) it.spans.push_back(std::move(o.spans));
  }
  // A scenario that fails its invariants still ran to completion: its
  // verdict is a simulated result, pinned per block like the others.
  it.attempted = outcomes.size();
  it.outcome_failures = failures;
  set_metric(it.simulated, "invariant_failures", static_cast<double>(failures),
             "count");
  it.fingerprint = sim::ScenarioSweep::merge_fingerprints(fingerprints);

  std::sort(outages.begin(), outages.end());
  const TailRank tail = tail_rank(outages.size());
  const double tail_ms = nearest_rank(outages, tail.quantile);
  set_metric(it.simulated, "latency_p50_ms", nearest_rank(outages, 0.5), "ms");
  set_metric(it.simulated, "latency_tail_ms", tail_ms, "ms");
  it.notes.push_back(tail_note("per-failover outage", tail, outages.size(),
                               tail_ms));
  it.notes.push_back("campaign seeds " + std::to_string(first_seed) + ".." +
                     std::to_string(first_seed + kScenarios - 1) + ": " +
                     std::to_string(kScenarios - failures) + " of " +
                     std::to_string(kScenarios) + " pass their invariants" +
                     (failing.empty() ? "" : "; failing:" + failing));
  it.work = static_cast<double>(kScenarios);
  it.work_unit = "scenarios/s";

  auto& l = it.layers;
  const double run_s = total_s(it.spans, "sim.run");
  set_metric(l, "sim.events", static_cast<double>(events), "count");
  set_metric(l, "sim.ns_per_event",
             ratio(run_s * 1e9, static_cast<double>(events)), "ns");
  set_metric(l, "sim.slab_events", static_cast<double>(slab), "count");
  set_metric(l, "sim.run_s", run_s, "s");
  for (const char* name : {"model.parse", "os.ecu_build", "platform.install",
                           "platform.engage", "fault.arm",
                           "fault.invariants"}) {
    set_metric(l, std::string(name) + "_s", total_s(it.spans, name), "s");
  }
  set_metric(l, "fault.injected", static_cast<double>(injected), "count");
  set_metric(l, "fault.invariant_failures", static_cast<double>(failures),
             "count");
  set_metric(l, "platform.failovers", static_cast<double>(outages.size()),
             "count");
  set_metric(l, "net.frames_delivered", static_cast<double>(delivered),
             "count");
  set_metric(l, "net.frames_dropped", static_cast<double>(dropped), "count");
  set_metric(l, "middleware.messages_sent", static_cast<double>(sent),
             "count");
  set_metric(l, "middleware.messages_received", static_cast<double>(received),
             "count");
  set_metric(l, "middleware.delivered_ratio",
             ratio(static_cast<double>(received), static_cast<double>(sent)),
             "ratio");
  set_metric(l, "concurrency.workers", static_cast<double>(options.workers),
             "count");
  set_metric(l, "concurrency.efficiency",
             ratio(total_s(it.spans, "scenario"),
                   it.wall_s * static_cast<double>(options.workers)),
             "ratio");
  return it;
}

}  // namespace

const Workload& vehicle_chaos() {
  static const Workload workload{
      "vehicle_chaos",
      "E13 chaos campaigns on the triple-ECU rig, 128 per repetition: os, "
      "net, middleware, platform and fault work, with per-scenario bring-up",
      4, input_fingerprint, run};
  return workload;
}

}  // namespace perfbench
