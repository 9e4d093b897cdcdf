// Plain-vs-armed overhead of every opt-in mechanism, in one harness.
//
// Each mechanism layered on the runtime — fault plans, causal tracking,
// the flight recorder, the timeline, self-healing recovery, overload
// protection and the wire stack — promises to cost nothing until it is
// armed and little once it is. Every entry of the harness table below
// pins one such promise the same way: its workload runs once per
// arming config, one warm-up run of the first config and then kReps
// reps interleaved round-robin across the configs (clock drift and
// cache warm-up hit every config alike), and each config keeps its
// MINIMUM wall time, since scheduler noise on a shared host only ever
// inflates. An entry's gauges are formulas over those minima.
//
// Each entry writes into BENCH_<bench>.json; adjacent entries with the
// same bench name share one file. tools/check_bench_regression.py holds
// the ceilings: flight.overhead_pct, timeline.overhead_pct and
// overload.overhead_pct under 3, wire.arming_overhead_pct under 5.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "lockdb/replica.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"
#include "runtime/fault.hpp"
#include "runtime/peer_supervisor.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/transport.hpp"
#include "runtime/transport_tcp.hpp"
#include "runtime/wire.hpp"
#include "script/instance.hpp"
#include "scripts/lock_manager.hpp"

namespace {

using bench::Scheduler;
using bench::wall_us;
using script::core::ExecutionBudget;
using script::core::Initiation;
using script::core::OverloadConfig;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::lockdb::ReplicaSet;
using script::obs::EventBus;
using script::patterns::LockManagerOptions;
using script::patterns::LockManagerScript;
using script::patterns::LockStatus;
using script::runtime::FaultPlan;
using script::runtime::OverflowPolicy;
using script::runtime::PeerId;
using script::runtime::PeerSupervisor;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::Supervisor;
using script::runtime::TcpTransport;
using script::runtime::Wire;

/// Arms a mechanism on a fresh scheduler before the workload starts;
/// empty for the plain baseline.
using Arm = std::function<void(Scheduler&)>;

// ---- Workloads: each returns the wall microseconds of one run ----

/// C7 rendezvous: `pairs` tx/rx couples, 10 messages each.
double run_pairs(std::size_t pairs, const Arm& arm) {
  constexpr int kMsgs = 10;
  Scheduler sched;
  bench::Net net(sched);
  if (arm) arm(sched);
  std::vector<bench::ProcessId> rx(pairs);
  return wall_us([&] {
    for (std::size_t p = 0; p < pairs; ++p)
      rx[p] = net.spawn_process("rx" + std::to_string(p), [&net] {
        for (int m = 0; m < kMsgs; ++m)
          if (!net.recv_any<int>("m")) std::abort();
      });
    for (std::size_t p = 0; p < pairs; ++p)
      net.spawn_process("tx" + std::to_string(p), [&net, &rx, p] {
        for (int m = 0; m < kMsgs; ++m)
          if (!net.send(rx[p], "m", m)) std::abort();
      });
    if (!sched.run().ok()) std::abort();
  });
}

constexpr std::size_t kWaves = 20;
constexpr std::size_t kPerWave = 500;
constexpr double kChurnFibers = static_cast<double>(kWaves * kPerWave);

/// C7 fiber churn, the scheduler's worst case: waves of short-lived
/// fibers that yield once, so nearly every event is a scheduler event.
double run_yield_churn(const Arm& arm) {
  script::runtime::SchedulerOptions opts;
  opts.stack_pool_max_idle = kPerWave;  // keep a full wave's stacks warm
  Scheduler sched(opts);
  if (arm) arm(sched);
  return wall_us([&] {
    for (std::size_t w = 0; w < kWaves; ++w) {
      for (std::size_t i = 0; i < kPerWave; ++i)
        sched.spawn("c" + std::to_string(i), [&sched] { sched.yield(); });
      if (!sched.run().ok()) std::abort();
    }
  });
}

constexpr std::size_t kFig5Rounds = 300;
constexpr double kFig5Perfs = 2.0 * kFig5Rounds;

/// Figure 5 lock DB: writer lock + release per round against k=2
/// replicated managers, two performances per round. `recovery` arms
/// the Replace policy, leases that never near expiry and supervised
/// managers; no fault is injected either way.
double run_fig5(bool recovery) {
  constexpr std::size_t kManagers = 2;
  Scheduler sched;
  bench::Net net(sched);
  ReplicaSet rs(kManagers, kManagers);
  LockManagerOptions opts;
  if (recovery) {
    opts.replace_on_failure = true;
    opts.takeover_deadline = 64;
    opts.lease_ticks = 1 << 20;
  }
  LockManagerScript script(net, rs, "lock_script", opts);
  return wall_us([&] {
    Supervisor sup(sched);
    if (recovery)
      sup.set_spawner([&](std::string n, std::function<void()> b) {
        return net.spawn_process(std::move(n), std::move(b));
      });
    for (std::size_t m = 0; m < kManagers; ++m) {
      auto factory = [&script, m] {
        return [&script, m] {
          for (std::size_t r = 0; r < kFig5Rounds; ++r) {
            script.serve_once(m);  // the lock performance
            script.serve_once(m);  // the release performance
          }
        };
      };
      const auto pid = net.spawn_process("m" + std::to_string(m), factory());
      if (recovery) sup.supervise(pid, "m" + std::to_string(m), factory);
    }
    net.spawn_process("writer", [&script] {
      for (std::size_t r = 0; r < kFig5Rounds; ++r) {
        if (script.writer_lock("x", 7) != LockStatus::Granted) std::abort();
        script.writer_release("x", 7);
      }
    });
    bench::expect_clean(sched.run(), sched);
  });
}

constexpr std::size_t kPerfRounds = 40;
constexpr std::size_t kPairsPerRound = 100;
constexpr double kChurnPerformances =
    static_cast<double>(kPerfRounds * kPairsPerRound);

/// Writer/reader performance churn: every round floods one script with
/// admissions that each cross one yield. `armed` adds budgets, a
/// ShedNewest queue bound, an admission breaker and a per-role deadline,
/// all sized so that none of them ever fires.
double run_perf_churn(bool armed) {
  Scheduler sched;
  bench::Net net(sched);
  ScriptSpec spec("churn");
  spec.role("w").role("r");
  spec.initiation(Initiation::Immediate).termination(Termination::Immediate);
  if (armed) {
    ExecutionBudget budget;
    budget.max_dispatch_steps = 1u << 20;
    budget.max_virtual_ticks = 1u << 20;
    budget.max_queue_depth = 4 * kPairsPerRound;  // never reached
    spec.budget(budget);
    OverloadConfig cfg;
    cfg.overflow = OverflowPolicy::ShedNewest;
    cfg.breaker_queue_depth = 4 * kPairsPerRound;  // never trips
    spec.overload(cfg);
  }
  ScriptInstance inst(net, spec);
  inst.on_role("w", [armed](RoleContext& ctx) {
    if (armed) ctx.deadline(1u << 20);  // live slot, never expires
    ctx.scheduler().yield();
  });
  inst.on_role("r", [](RoleContext& ctx) { ctx.scheduler().yield(); });

  return wall_us([&] {
    for (std::size_t round = 0; round < kPerfRounds; ++round) {
      for (std::size_t i = 0; i < kPairsPerRound; ++i) {
        net.spawn_process("W" + std::to_string(i),
                          [&inst] { inst.enroll(RoleId("w")); });
        net.spawn_process("R" + std::to_string(i),
                          [&inst] { inst.enroll(RoleId("r")); });
      }
      if (!sched.run().ok()) std::abort();
    }
  });
}

/// Shed storm at 10x oversubscription: one slow pair holds the stage
/// while 400 clients per role slam enroll, and everything past the
/// depth-4 queue is refused on arrival — the cost of a refusal, the
/// breaker's worst day. Stores the (deterministic) shed count.
double run_shed_storm(std::uint64_t* sheds) {
  constexpr std::size_t kQueueBound = 4;
  constexpr std::size_t kClients = 10 * kQueueBound * 10;
  Scheduler sched;
  bench::Net net(sched);
  ScriptSpec spec("storm");
  spec.role("w").role("r");
  spec.initiation(Initiation::Immediate).termination(Termination::Immediate);
  ExecutionBudget budget;
  budget.max_queue_depth = kQueueBound;
  spec.budget(budget);
  OverloadConfig cfg;
  cfg.overflow = OverflowPolicy::ShedNewest;
  spec.overload(cfg);
  ScriptInstance inst(net, spec);
  inst.on_role("w", [](RoleContext& ctx) { ctx.scheduler().sleep_for(5); });
  inst.on_role("r", [](RoleContext& ctx) { ctx.scheduler().yield(); });

  for (std::size_t i = 0; i < kClients; ++i) {
    net.spawn_process("W" + std::to_string(i), [&inst] {
      (void)inst.enroll_for(RoleId("w"), 50);
    });
    net.spawn_process("R" + std::to_string(i), [&inst] {
      (void)inst.enroll_for(RoleId("r"), 50);
    });
  }
  const double us = wall_us([&] {
    if (!sched.run().ok()) std::abort();
  });
  *sheds = inst.sheds();
  return us;
}

/// Dense tick churn: 200 fibers each sleep one tick 2000 times. `armed`
/// mounts a full wire stack beside them (SimTransport, PeerSupervisor,
/// and two Wire pumps with heartbeats live but no application frames).
double run_sleep_churn(bool armed) {
  constexpr std::size_t kFibers = 200;
  constexpr std::uint64_t kTicks = 2000;
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0);
  SimTransport tb(net, 1);
  PeerSupervisor sup(ta, 1);
  Wire wire(sched, sup, &sup);
  // Something must drain peer 1's inbox or heartbeats pile up; a second
  // pump is the honest steady-state shape of a 2-node link.
  Wire peer_wire(sched, tb);
  if (armed) {
    wire.start();
    sup.watch(1);
    peer_wire.start();
  }
  for (std::size_t i = 0; i < kFibers; ++i)
    sched.spawn("churn" + std::to_string(i), [&sched] {
      for (std::uint64_t t = 0; t < kTicks; ++t) sched.sleep_for(1);
    });
  if (armed)
    sched.spawn("closer", [&] {
      sched.sleep_for(kTicks + 1);
      wire.stop();
      peer_wire.stop();
    });
  return wall_us([&] { sched.run(); });
}

constexpr std::size_t kSimRoundtrips = 5000;
constexpr std::size_t kTcpRoundtrips = 2000;

/// Tagged request/reply between two Wire endpoints over the sim
/// backend: the deterministic twin's cost of one hop, all CPU.
double run_sim_roundtrips() {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0);
  SimTransport tb(net, 1);
  Wire wa(sched, ta);
  Wire wb(sched, tb);
  wa.start();
  wb.start();
  const std::string payload(64, 'x');
  sched.spawn("server", [&] {
    Wire::Msg m;
    while (wb.recv("req", &m)) wb.post(m.from, "rep", m.payload);
  });
  sched.spawn("client", [&] {
    Wire::Msg m;
    for (std::size_t i = 0; i < kSimRoundtrips; ++i) {
      wa.post(1, "req", payload);
      if (!wa.recv("rep", &m)) std::abort();
    }
    wa.stop();
    wb.stop();  // unblocks the server's recv
  });
  return wall_us([&] { sched.run(); });
}

/// Transport-level echo over loopback sockets in tight service/poll
/// loops, no scheduler and no pump pacing: the epoll backend's raw frame
/// cost. Loopback latency on a shared host is weather; never gated.
double run_tcp_roundtrips() {
  TcpTransport server(2);
  if (!server.listen(0)) std::abort();
  TcpTransport client(1);
  client.add_peer(2, "127.0.0.1", server.bound_port());
  const std::string payload(64, 'x');
  std::size_t got = 0;
  return wall_us([&] {
    client.send(2, payload);
    while (got < kTcpRoundtrips) {
      client.service();
      server.service();
      server.poll([&](PeerId from, std::string&& frame) {
        server.send(from, std::move(frame));
      });
      client.poll([&](PeerId, std::string&&) {
        ++got;
        if (got < kTcpRoundtrips) client.send(2, payload);
      });
    }
  });
}

// ---- The harness table ----

using Mins = std::vector<double>;  // min wall us per config, config order

struct Config {
  std::string label;
  std::function<double()> run;  // one run; returns wall us
};

struct Gauge {
  std::string key;
  std::function<double(const Mins&)> of;
};

struct Harness {
  std::string bench;  // writes BENCH_<bench>.json
  std::string what;
  std::vector<Config> configs;  // configs[0] is the baseline
  std::vector<Gauge> gauges;
};

// Gauge formulas over the minima. per(i, 1000) reads as milliseconds.
auto per(std::size_t i, double units) {
  return [=](const Mins& m) { return m[i] / units; };
}
auto per_ms(std::size_t i, double units) {
  return [=](const Mins& m) { return units / (m[i] / 1000.0); };
}
auto ratio(std::size_t i) {
  return [=](const Mins& m) { return m[i] / m[0]; };
}
auto pct(std::size_t i) {
  return [=](const Mins& m) { return (m[i] - m[0]) / m[0] * 100.0; };
}

/// An uninstalled FaultPlan must cost one null-pointer test per dispatch
/// and per transfer, so 'inert' (installed, never matching) tracks
/// 'none'; 'firing' delays one real message mid-run.
Harness fault(std::size_t pairs) {
  FaultPlan inert;
  inert.drop_message("no-such-tag", 1);
  inert.crash_at_step(0, 1u << 30);
  FaultPlan firing;
  firing.delay_message("m", pairs * 5, 3);
  const auto with = [pairs](FaultPlan plan) {
    return [pairs, plan] {
      return run_pairs(pairs, [&plan](Scheduler& s) {
        s.install_fault_plan(plan);
      });
    };
  };
  const std::string p = "pairs" + std::to_string(pairs) + ".";
  return {"fault_overhead",
          "FaultPlan hooks on the rendezvous hot path, " +
              std::to_string(pairs) + " pairs",
          {{"none", [pairs] { return run_pairs(pairs, {}); }},
           {"inert", with(inert)},
           {"firing", with(firing)}},
          {{p + "none_ms", per(0, 1000)},
           {p + "inert_ms", per(1, 1000)},
           {p + "firing_ms", per(2, 1000)},
           {p + "inert_over_none", ratio(1)}}};
}

/// 'tracker' is vector-clock tick and merge with nobody subscribed, the
/// whole price a tracing-capable build charges an unobserved run;
/// 'tracing' adds the exporter recording every event.
Harness causal(std::size_t pairs) {
  const std::string p = "pairs" + std::to_string(pairs) + ".";
  return {"causal_overhead",
          "vector-clock tracking on the rendezvous hot path, " +
              std::to_string(pairs) + " pairs",
          {{"off", [pairs] { return run_pairs(pairs, {}); }},
           {"tracker",
            [pairs] {
              return run_pairs(pairs,
                               [](Scheduler& s) { s.enable_causal_tracking(); });
            }},
           {"tracing",
            [pairs] {
              return run_pairs(pairs,
                               [](Scheduler& s) { (void)s.enable_tracing(); });
            }}},
          {{p + "off_ms", per(0, 1000)},
           {p + "tracker_ms", per(1, 1000)},
           {p + "tracing_ms", per(2, 1000)},
           {p + "tracker_over_off", ratio(1)},
           {p + "tracing_over_off", ratio(2)}}};
}

std::vector<Harness> harnesses() {
  // 'armed' is each recorder's default mask, which leaves out the
  // Scheduler's per-dispatch events (the gated config); 'full' records
  // every subsystem and is reported only.
  script::obs::FlightRecorderOptions flight_full;
  flight_full.mask = EventBus::kAllSubsystems;
  script::obs::TimelineOptions timeline_full;
  timeline_full.mask = EventBus::kAllSubsystems;
  auto sheds = std::make_shared<std::uint64_t>(0);

  // The gated churn entries run first, on a heap as fresh as a
  // one-bench process's; the rendezvous entries go last, since their
  // tracing config keeps every event and its fiber-wide vector clock.
  return {
      {"flight_overhead",
       "an armed flight recorder on the churn hot path",
       {{"plain", [] { return run_yield_churn({}); }},
        {"armed",
         [] {
           return run_yield_churn(
               [](Scheduler& s) { s.arm_flight_recorder(); });
         }},
        {"full",
         [flight_full] {
           return run_yield_churn(
               [&](Scheduler& s) { s.arm_flight_recorder(flight_full); });
         }}},
       {{"churn.plain.us_per_fiber", per(0, kChurnFibers)},
        {"churn.armed.us_per_fiber", per(1, kChurnFibers)},
        {"churn.full.us_per_fiber", per(2, kChurnFibers)},
        {"flight.overhead_pct", pct(1)},
        {"flight.full_overhead_pct", pct(2)}}},
      {"timeline_overhead",
       "an armed timeline on the churn hot path",
       {{"plain", [] { return run_yield_churn({}); }},
        {"armed",
         [] { return run_yield_churn([](Scheduler& s) { s.arm_timeline(); }); }},
        {"full",
         [timeline_full] {
           return run_yield_churn(
               [&](Scheduler& s) { s.arm_timeline(timeline_full); });
         }}},
       {{"churn.plain.us_per_fiber", per(0, kChurnFibers)},
        {"churn.armed.us_per_fiber", per(1, kChurnFibers)},
        {"churn.full.us_per_fiber", per(2, kChurnFibers)},
        {"timeline.overhead_pct", pct(1)},
        {"timeline.full_overhead_pct", pct(2)}}},
      {"recovery_overhead",
       "supervision + Replace policy + leases on Fig 5, no faults",
       {{"plain", [] { return run_fig5(false); }},
        {"recovery", [] { return run_fig5(true); }}},
       {{"fig5.plain_us_per_perf", per(0, kFig5Perfs)},
        {"fig5.recovery_us_per_perf", per(1, kFig5Perfs)},
        {"fig5.recovery_over_plain", ratio(1)}}},
      {"overload",
       "armed budgets/deadlines/backpressure on performance churn",
       {{"plain", [] { return run_perf_churn(false); }},
        {"armed", [] { return run_perf_churn(true); }}},
       {{"churn.plain.us_per_performance", per(0, kChurnPerformances)},
        {"churn.armed.us_per_performance", per(1, kChurnPerformances)},
        {"overload.overhead_pct", pct(1)}}},
      {"overload",
       "shed throughput at 10x oversubscription",
       {{"storm", [sheds] { return run_shed_storm(sheds.get()); }}},
       {{"shed.count", [sheds](const Mins&) { return double(*sheds); }},
        {"shed.per_ms",
         [sheds](const Mins& m) { return double(*sheds) / (m[0] / 1000.0); }}}},
      {"net_wire",
       "wire stack arming beside a sleep churn (sim)",
       {{"plain", [] { return run_sleep_churn(false); }},
        {"armed", [] { return run_sleep_churn(true); }}},
       {{"churn.plain.wall_ms", per(0, 1000)},
        {"churn.armed.wall_ms", per(1, 1000)},
        {"wire.arming_overhead_pct", pct(1)}}},
      {"net_wire",
       "round trips over the sim and TCP backends",
       {{"sim", run_sim_roundtrips}, {"tcp", run_tcp_roundtrips}},
       {{"sim.us_per_roundtrip", per(0, kSimRoundtrips)},
        {"sim.roundtrips_per_ms", per_ms(0, kSimRoundtrips)},
        {"tcp.us_per_roundtrip", per(1, kTcpRoundtrips)},
        {"tcp.roundtrips_per_ms", per_ms(1, kTcpRoundtrips)}}},
      fault(500),
      fault(2000),
      causal(500),
      causal(2000),
  };
}

/// One warm-up run of the baseline, then kReps reps interleaved across
/// the configs; returns each config's minimum.
Mins measure(const std::vector<Config>& configs) {
  constexpr int kReps = 5;
  (void)configs[0].run();
  Mins mins(configs.size(), 1e300);
  for (int r = 0; r < kReps; ++r)
    for (std::size_t c = 0; c < configs.size(); ++c)
      mins[c] = std::min(mins[c], configs[c].run());
  return mins;
}

}  // namespace

int main() {
  // Every Scheduler constructor arms recorders from these; a "plain"
  // baseline must arm nothing, so scrub them first.
  for (const char* v :
       {"SCRIPT_TRACE", "SCRIPT_FLIGHT", "SCRIPT_TIMELINE", "SCRIPT_DEBUG_SOCK"})
    unsetenv(v);

  std::optional<bench::Telemetry> telemetry;
  for (const Harness& h : harnesses()) {
    if (!telemetry || telemetry->name() != h.bench) telemetry.emplace(h.bench);
    bench::banner(h.bench, h.what);
    const Mins mins = measure(h.configs);
    bench::Table table({"config / gauge", "value"});
    for (std::size_t c = 0; c < h.configs.size(); ++c)
      table.add_row({h.configs[c].label + " min wall ms",
                     bench::Table::num(mins[c] / 1000.0, 2)});
    for (const Gauge& g : h.gauges) {
      const double v = g.of(mins);
      telemetry->gauge(g.key, v);
      table.add_row({g.key, bench::Table::num(v, 3)});
    }
    table.print();
  }
  return 0;
}
