#include "ladder.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "csp/net.hpp"
#include "harness.hpp"
#include "obs/event_bus.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/transport.hpp"
#include "runtime/wire.hpp"
#include "scripts/broadcast.hpp"

namespace perfbench {

namespace {

using script::csp::Net;
using script::runtime::ProcessId;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::Wire;

SchedulerOptions det_options() {
  SchedulerOptions o;
  o.workers = 0;
  return o;
}

/// Wall ns of `sched.run()` divided by `ops`; aborts on a failed run
/// (a rung that deadlocks measures nothing).
double run_per_op(Scheduler& sched, double ops) {
  const std::uint64_t t0 = now_ns();
  const auto r = sched.run();
  const std::uint64_t t1 = now_ns();
  if (!r.ok()) {
    std::fprintf(stderr, "ladder: rung run failed\n");
    std::exit(3);
  }
  return static_cast<double>(t1 - t0) / ops;
}

// runtime.sched: two fibers yielding to each other; ns per yield.
double yield_ns() {
  constexpr int kN = 100'000;
  Scheduler sched(det_options());
  for (int f = 0; f < 2; ++f)
    sched.spawn("y", [&] {
      for (int i = 0; i < kN; ++i) sched.yield();
    });
  return run_per_op(sched, 2.0 * kN);
}

// runtime.sched: block/unblock ping-pong; ns per park+unpark pair.
double park_unpark_ns() {
  constexpr int kN = 50'000;
  Scheduler sched(det_options());
  ProcessId a = 0, b = 0;
  b = sched.spawn("b", [&] {
    for (int i = 0; i < kN; ++i) {
      sched.block("ping");
      sched.unblock(a);
    }
  });
  a = sched.spawn("a", [&] {
    for (int i = 0; i < kN; ++i) {
      sched.unblock(b);
      sched.block("pong");
    }
  });
  return run_per_op(sched, 2.0 * kN);
}

// csp.net: one pair, both sides naming each other; ns per message.
double named_rdv_ns() {
  constexpr int kN = 50'000;
  Scheduler sched(det_options());
  Net net(sched);
  ProcessId s = 0, r = 0;
  r = net.spawn_process("r", [&] {
    for (int i = 0; i < kN; ++i)
      if (!net.recv<int>(s, "t").has_value()) std::abort();
  });
  s = net.spawn_process("s", [&] {
    for (int i = 0; i < kN; ++i)
      if (!net.send(r, "t", i).has_value()) std::abort();
  });
  return run_per_op(sched, kN);
}

// csp.net: `pairs` senders naming their receiver, every receiver taking
// with recv_any on one tag — the scan over parked senders; ns/message.
double anon_rdv_ns(int pairs, int total) {
  const int per_pair = total / pairs;
  Scheduler sched(det_options());
  Net net(sched);
  std::vector<ProcessId> rcv(static_cast<std::size_t>(pairs));
  for (int i = 0; i < pairs; ++i)
    rcv[static_cast<std::size_t>(i)] = net.spawn_process("r", [&] {
      for (int k = 0; k < per_pair; ++k)
        if (!net.recv_any<int>("m").has_value()) std::abort();
    });
  for (int i = 0; i < pairs; ++i)
    net.spawn_process("s", [&, i] {
      for (int k = 0; k < per_pair; ++k)
        if (!net.send(rcv[static_cast<std::size_t>(i)], "m", k).has_value())
          std::abort();
    });
  return run_per_op(sched, static_cast<double>(per_pair) * pairs);
}

// script: StarBroadcast performances back to back; ns per role per
// performance (enrollment, matching and n named rendezvous).
double perform_ns_per_role(int roles, int perfs) {
  Scheduler sched(det_options());
  Net net(sched);
  script::patterns::StarBroadcast<int> bc(net, static_cast<std::size_t>(roles));
  net.spawn_process("sender", [&] {
    for (int p = 0; p < perfs; ++p) bc.send(p);
  });
  for (int i = 0; i < roles; ++i)
    net.spawn_process("recipient", [&, i] {
      for (int p = 0; p < perfs; ++p)
        if (bc.receive(i) != p) std::abort();
    });
  return run_per_op(sched, static_cast<double>(roles) * perfs);
}

// runtime.wire: tagged request/reply between two Wire endpoints over
// SimTransport; ns per round trip.
double sim_roundtrip_ns() {
  constexpr int kN = 5'000;
  Scheduler sched(det_options());
  SimNetwork simnet(1);
  SimTransport ta(simnet, 0);
  SimTransport tb(simnet, 1);
  ta.set_clock([&] { return sched.now(); });
  tb.set_clock([&] { return sched.now(); });
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
    for (int i = 0; i < kN; ++i) {
      wa.post(1, "req", payload);
      if (!wa.recv("rep", &m)) std::abort();
    }
    wa.stop();
    wb.stop();
  });
  return run_per_op(sched, kN);
}

enum class Arming { Unarmed, Default, Full };

// obs: EventBus::publish behind the producers' wants() gate, with no
// recorder, with FlightRecorder + Timeline at their default masks, and
// at full mask. Ops alternate a Scheduler-subsystem event (the dispatch
// firehose the default masks leave out) and a Lock event; ns per event.
double publish_ns(Arming arming) {
  constexpr int kN = 100'000;
  Scheduler sched(det_options());
  if (arming != Arming::Unarmed) {
    script::obs::FlightRecorderOptions fo;
    script::obs::TimelineOptions to;
    if (arming == Arming::Full) {
      fo.mask = script::obs::EventBus::kAllSubsystems;
      to.mask = script::obs::EventBus::kAllSubsystems;
    }
    sched.arm_flight_recorder(std::move(fo));
    sched.arm_timeline(std::move(to));
  }
  using script::obs::EventKind;
  using script::obs::Subsystem;
  auto& bus = sched.bus();
  sched.spawn("publisher", [&] {
    const auto pid = static_cast<script::obs::Pid>(sched.current());
    for (int i = 0; i < kN; ++i) {
      if (bus.wants(Subsystem::Scheduler))
        bus.publish({EventKind::Instant, Subsystem::Scheduler,
                     script::obs::kAutoTime, pid, script::obs::kNoLane,
                     "dispatch", ""});
      if (bus.wants(Subsystem::Lock))
        bus.publish({EventKind::Instant, Subsystem::Lock,
                     script::obs::kAutoTime, pid, script::obs::kNoLane,
                     "lock.acquire", "k1"});
    }
  });
  return run_per_op(sched, 2.0 * kN);
}

}  // namespace

std::vector<Rung> run_ladder() {
  constexpr int kReps = 5;
  struct Def {
    const char* name;
    const char* below;
    std::function<double()> fn;
  };
  const std::vector<Def> defs = {
      {"runtime.sched.yield_ns", "", yield_ns},
      {"runtime.sched.park_unpark_ns", "runtime.sched.yield_ns",
       park_unpark_ns},
      {"csp.net.named_rdv_ns", "runtime.sched.park_unpark_ns", named_rdv_ns},
      {"csp.net.anon_rdv_ns.p8", "csp.net.named_rdv_ns",
       [] { return anon_rdv_ns(8, 40'000); }},
      {"csp.net.anon_rdv_ns.p128", "csp.net.anon_rdv_ns.p8",
       [] { return anon_rdv_ns(128, 20'480); }},
      {"script.perform_ns_per_role.n16", "csp.net.named_rdv_ns",
       [] { return perform_ns_per_role(16, 400); }},
      {"script.perform_ns_per_role.n256", "script.perform_ns_per_role.n16",
       [] { return perform_ns_per_role(256, 12); }},
      {"runtime.wire.sim_roundtrip_ns", "runtime.sched.park_unpark_ns",
       sim_roundtrip_ns},
      {"obs.publish_ns.unarmed", "", [] { return publish_ns(Arming::Unarmed); }},
      {"obs.publish_ns.default", "obs.publish_ns.unarmed",
       [] { return publish_ns(Arming::Default); }},
      {"obs.publish_ns.full", "obs.publish_ns.default",
       [] { return publish_ns(Arming::Full); }},
  };
  std::vector<Rung> out;
  for (const Def& d : defs) {
    (void)d.fn();  // warm caches, allocator and stack pool
    std::vector<double> v;
    for (int i = 0; i < kReps; ++i) v.push_back(d.fn());
    // The fastest repetition, like the steady-state pooling of the
    // workloads: host interference only ever adds time.
    out.push_back({d.name, d.below, *std::min_element(v.begin(), v.end())});
  }
  return out;
}

double rung_ns(const std::vector<Rung>& ladder, const std::string& name) {
  for (const Rung& r : ladder)
    if (r.name == name) return r.ns;
  return 0;
}

double rung_increment(const std::vector<Rung>& ladder, const Rung& r) {
  return r.below.empty() ? r.ns : r.ns - rung_ns(ladder, r.below);
}

}  // namespace perfbench
