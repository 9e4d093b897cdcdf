#include "workloads.hpp"

#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "csp/net.hpp"
#include "lockdb/lock_table.hpp"
#include "lockdb/wire_server.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_log.hpp"
#include "runtime/transport.hpp"
#include "runtime/wire.hpp"
#include "scripts/broadcast.hpp"

namespace perfbench {

namespace {

using script::csp::Net;
using script::lockdb::LockMode;
using script::lockdb::LockTable;
using script::lockdb::SimWal;
using script::lockdb::WireDriver;
using script::lockdb::WireDriverOptions;
using script::lockdb::WireReplica;
using script::lockdb::WireReplicaOptions;
using script::runtime::PeerId;
using script::runtime::ProcessId;
using script::runtime::RunResult;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;
using script::runtime::SimLogStore;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::Wire;

// ---- Sizes (fixed: the seed varies contents, not the amount of work) --

constexpr std::size_t kPairs = 128;          // rendezvous_anon
constexpr std::uint32_t kMsgsPerPair = 384;  // +-3% per pair, seeded
constexpr std::size_t kRoles = 256;          // cast_star recipients
constexpr std::size_t kPerfs = 12;           // performances per episode
constexpr std::size_t kReplicas = 3;         // lockdb_wire
constexpr std::size_t kDrivers = 4;
constexpr std::size_t kKeys = 64;
constexpr std::size_t kTxnsPerDriver = 500;
constexpr unsigned kWritePercent = 20;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0xD6E8FEB86659FD93ull);
  return splitmix(s);
}

std::string numbered(const char* prefix, std::size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

SchedulerOptions det_options() {
  SchedulerOptions o;
  o.workers = 0;  // the deterministic single-threaded backend
  return o;
}

/// Span name ids of one pass (registered only when tracing).
struct SpanIds {
  std::uint16_t net_send = 0, net_recv_any = 0;
  std::uint16_t star_send = 0, star_receive = 0;
  std::uint16_t acquire = 0, get = 0, update = 0, release = 0;
  std::uint16_t read_txn = 0, write_txn = 0;

  explicit SpanIds(SpanLog* log) {
    if (log == nullptr) return;
    net_send = log->name_id("net.send", "csp.net");
    net_recv_any = log->name_id("net.recv_any", "csp.net");
    star_send = log->name_id("star.send", "script");
    star_receive = log->name_id("star.receive", "script");
    acquire = log->name_id("lockdb.acquire", "lockdb");
    get = log->name_id("lockdb.get", "lockdb");
    update = log->name_id("lockdb.update", "lockdb");
    release = log->name_id("lockdb.release", "lockdb");
    read_txn = log->name_id("lockdb.read_txn", "lockdb");
    write_txn = log->name_id("lockdb.write_txn", "lockdb");
  }
};

/// What one episode hands back to the pass loop.
struct Episode {
  Counters counters;
  Fingerprint fingerprint;
  OkTally tally;
  std::uint64_t setup_ns = 0;
  std::uint64_t run_ns = 0;   // the timed window
  std::uint64_t cpu_ns = 0;
  std::uint64_t timed_ops = 0;  // ops inside the window
  std::vector<std::string> errors;
};

/// Shared per-episode context handed to the workload bodies.
struct Ctx {
  Histogram* latency;  // per-op latency sink (measured episodes only)
  SpanLog* spans;
  const SpanIds* ids;
  Episode* ep;

  void span(std::uint16_t name, ProcessId fiber, std::uint64_t op,
            std::uint64_t t0, std::uint64_t t1) const {
    if (spans != nullptr) spans->record({name, fiber, op, t0, t1});
  }
  void op_latency(std::uint64_t t0, std::uint64_t t1) const {
    if (latency != nullptr) latency->add(t1 - t0);
  }
  void error(std::string what) const {
    if (ep->errors.size() < 8) ep->errors.push_back(std::move(what));
  }
};

/// Time `sched.run()` and fold its result into the episode.
RunResult timed_run(Scheduler& sched, Episode& ep) {
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t t0 = now_ns();
  RunResult r = sched.run();
  ep.run_ns = now_ns() - t0;
  ep.cpu_ns = cpu_ns() - c0;
  ep.counters.steps = r.steps;
  ep.counters.virtual_ticks = r.final_time;
  ep.fingerprint.final_time = r.final_time;
  return r;
}

// ---- rendezvous_anon --------------------------------------------------

struct RdvInput {
  std::vector<std::uint32_t> count;  // messages of pair i
  std::vector<std::uint64_t> salt;   // payload stream of pair i
  std::uint64_t total = 0;
};

struct RdvMsg {
  std::uint32_t seq;
  std::uint64_t value;
  std::uint64_t sent_ns;  // latency stamp, not part of the checked content
};

RdvInput make_rdv_input(std::uint64_t seed) {
  RdvInput in;
  std::uint64_t s = seed ^ 0x52444Eull;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::uint32_t spread = kMsgsPerPair / 16;  // +-3%
    in.count.push_back(kMsgsPerPair - spread / 2 +
                       static_cast<std::uint32_t>(splitmix(s) % (spread + 1)));
    in.salt.push_back(splitmix(s));
    in.total += in.count.back();
  }
  return in;
}

void rendezvous_episode(const RdvInput& in, const Ctx& ctx) {
  Episode& ep = *ctx.ep;
  const std::uint64_t s0 = now_ns();
  Scheduler sched(det_options());
  Net net(sched);
  std::vector<ProcessId> receiver(kPairs), sender(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    receiver[i] = net.spawn_process(numbered("r", i), [&, i] {
      for (std::uint32_t k = 0; k < in.count[i]; ++k) {
        const std::uint64_t t0 = now_ns();
        auto m = net.recv_any<RdvMsg>("m");
        const std::uint64_t t1 = now_ns();
        ctx.span(ctx.ids->net_recv_any, receiver[i], k, t0, t1);
        const bool ok = m.has_value() && m->first == sender[i] &&
                        m->second.seq == k &&
                        m->second.value == mix(in.salt[i], k);
        // A message's latency runs from the start of its send call to
        // the return of the recv_any that takes it.
        if (m.has_value()) ctx.op_latency(m->second.sent_ns, t1);
        if (!ok) {
          ctx.error("rendezvous_anon: receiver " + std::to_string(i) +
                    " got a wrong or out-of-order message at " +
                    std::to_string(k));
          ep.tally.add(Outcome::WrongValue);
          return;
        }
        ep.tally.add(Outcome::Ok);
      }
    });
  }
  for (std::size_t i = 0; i < kPairs; ++i) {
    sender[i] = net.spawn_process(numbered("s", i), [&, i] {
      for (std::uint32_t k = 0; k < in.count[i]; ++k) {
        const std::uint64_t t0 = now_ns();
        auto r = net.send(receiver[i], "m", RdvMsg{k, mix(in.salt[i], k), t0});
        const std::uint64_t t1 = now_ns();
        ctx.span(ctx.ids->net_send, sender[i], k, t0, t1);
        if (!r.has_value()) return;  // receiver gave up; counted there
      }
    });
  }
  ep.setup_ns = now_ns() - s0;

  const RunResult r = timed_run(sched, ep);
  if (!r.ok()) ctx.error("rendezvous_anon: run ended in deadlock");
  // Every receiver must have its exact count: a message it never took
  // is one the run never delivered.
  if (ep.tally.attempted() < in.total) {
    if (r.ok()) ctx.error("rendezvous_anon: a receiver fell short");
    ep.tally.add(Outcome::Deadlock, in.total - ep.tally.attempted());
  }
  ep.counters.ops = in.total;
  ep.counters.rendezvous = net.rendezvous_count();
  ep.counters.events = sched.bus().published_count();
  ep.fingerprint.rendezvous = net.rendezvous_count();
}

// ---- cast_star --------------------------------------------------------

std::vector<std::uint64_t> make_star_input(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x53544152ull;
  std::vector<std::uint64_t> data(kPerfs);
  for (auto& d : data) d = splitmix(s);
  return data;
}

void cast_star_episode(const std::vector<std::uint64_t>& data,
                       const Ctx& ctx) {
  Episode& ep = *ctx.ep;
  const std::uint64_t s0 = now_ns();
  Scheduler sched(det_options());
  Net net(sched);
  script::patterns::StarBroadcast<std::uint64_t> bc(net, kRoles);
  std::vector<std::uint32_t> got(kPerfs, 0);
  std::vector<std::uint8_t> crossed(kPerfs, 0);
  // The first performance is the episode's warm-up: its fibers touch
  // their fresh stacks for the first time. It is checked, not timed;
  // the window runs from its end to the end of the last performance.
  std::uint64_t w0 = 0, w1 = 0, c0 = 0, c1 = 0;
  net.spawn_process("sender", [&] {
    for (std::size_t p = 0; p < kPerfs; ++p) {
      const std::uint64_t t0 = now_ns();
      bc.send(data[p]);
      const std::uint64_t t1 = now_ns();
      if (p == 0) {
        w0 = t1;
        c0 = cpu_ns();
        continue;
      }
      ctx.op_latency(t0, t1);
      ctx.span(ctx.ids->star_send, sched.current(), p, t0, t1);
    }
    w1 = now_ns();
    c1 = cpu_ns();
  });
  for (std::size_t i = 0; i < kRoles; ++i) {
    net.spawn_process(numbered("recipient", i), [&, i] {
      for (std::size_t p = 0; p < kPerfs; ++p) {
        const std::uint64_t t0 = now_ns();
        const std::uint64_t v = bc.receive(static_cast<int>(i));
        const std::uint64_t t1 = now_ns();
        if (p > 0) ctx.span(ctx.ids->star_receive, sched.current(), p, t0, t1);
        // Fig 2's successive-activation invariant: the p-th enrollment
        // joins the p-th performance, so it must see datum p.
        if (v != data[p]) crossed[p] = 1;
        ++got[p];
      }
    });
  }
  ep.setup_ns = now_ns() - s0;

  const RunResult r = timed_run(sched, ep);
  if (!r.ok()) ctx.error("cast_star: run ended in deadlock");
  if (w1 > w0) {
    ep.run_ns = w1 - w0;
    ep.cpu_ns = c1 - c0;
    ep.timed_ops = kPerfs - 1;
  }
  for (std::size_t p = 0; p < kPerfs; ++p) {
    if (crossed[p] != 0) {
      ctx.error("cast_star: a datum crossed into performance " +
                std::to_string(p));
      ep.tally.add(Outcome::WrongValue);
    } else if (got[p] != kRoles) {
      ep.tally.add(Outcome::Deadlock);
    } else {
      ep.tally.add(Outcome::Ok);
    }
  }
  const auto& inst = bc.instance();
  if (inst.performances_completed() != kPerfs && r.ok())
    ctx.error("cast_star: performances_completed != performances run");
  ep.counters.ops = kPerfs;
  ep.counters.rendezvous = net.rendezvous_count();
  ep.counters.roles = inst.performances_completed() * kRoles;
  ep.counters.matcher_runs = inst.matcher_runs();
  ep.counters.matcher_hits = inst.matcher_index_hits();
  ep.counters.events = sched.bus().published_count();
  ep.fingerprint.rendezvous = net.rendezvous_count();
  ep.fingerprint.performances = inst.performances_completed();
}

// ---- lockdb_wire ------------------------------------------------------

struct Txn {
  std::uint32_t key;
  bool write;
  std::uint64_t salt;
};

using LockdbInput = std::vector<std::vector<Txn>>;  // per driver

LockdbInput make_lockdb_input(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x4C4B4442ull;
  LockdbInput in(kDrivers);
  for (auto& txns : in)
    for (std::size_t t = 0; t < kTxnsPerDriver; ++t)
      txns.push_back({static_cast<std::uint32_t>(splitmix(s) % kKeys),
                      splitmix(s) % 100 < kWritePercent, splitmix(s)});
  return in;
}

std::string key_name(std::uint32_t k) { return numbered("k", k); }

/// Reference model of the committed state. Writes to one key are
/// serialized by its X lock, so each key carries a write sequence:
/// a read under an S lock must return the value of a write that was
/// started (its seq <= started) and not older than the last write
/// that had committed when the read's lock was granted.
struct KvModel {
  std::vector<std::uint64_t> started = std::vector<std::uint64_t>(kKeys, 0);
  std::vector<std::uint64_t> committed =
      std::vector<std::uint64_t>(kKeys, 0);
  std::vector<std::vector<std::string>> written =
      std::vector<std::vector<std::string>>(kKeys);

  bool read_ok(std::uint32_t key, std::uint64_t floor,
               const std::optional<std::string>& v) const {
    if (!v.has_value()) return floor == 0;
    const std::size_t colon = v->find(':');
    if (colon == std::string::npos) return false;
    const std::uint64_t seq = std::strtoull(v->c_str(), nullptr, 10);
    return seq >= floor && seq >= 1 && seq <= started[key] &&
           written[key][seq - 1] == *v;
  }
};

/// Three WireReplicas and four WireDrivers on one SimNetwork, inside
/// one scheduler: the lock DB of Fig 5 as deployed over the wire.
struct Cluster {
  Scheduler sched{det_options()};
  SimNetwork net{1};
  SimLogStore store;
  std::vector<std::unique_ptr<SimTransport>> trans;
  std::vector<std::unique_ptr<Wire>> wires;
  std::vector<std::unique_ptr<LockTable>> tables;
  std::vector<std::unique_ptr<SimWal>> wals;
  std::vector<std::unique_ptr<WireReplica>> reps;
  std::vector<std::unique_ptr<WireDriver>> drivers;

  explicit Cluster(bool armed) {
    if (armed) {
      // The always-on configuration at full mask, armed in code (the
      // SCRIPT_FLIGHT / SCRIPT_TIMELINE variables are scrubbed).
      script::obs::FlightRecorderOptions fo;
      fo.mask = script::obs::EventBus::kAllSubsystems;
      sched.arm_flight_recorder(std::move(fo));
      script::obs::TimelineOptions to;
      to.mask = script::obs::EventBus::kAllSubsystems;
      sched.arm_timeline(std::move(to));
    }
    auto* bus = &sched.bus();
    store.attach_bus(bus);
    std::vector<PeerId> members;
    for (std::size_t i = 0; i < kReplicas; ++i)
      members.push_back(static_cast<PeerId>(i));
    auto endpoint = [&](PeerId id) -> Wire& {
      trans.push_back(std::make_unique<SimTransport>(net, id));
      trans.back()->set_clock([this] { return sched.now(); });
      trans.back()->attach_bus(bus);
      wires.push_back(std::make_unique<Wire>(sched, *trans.back()));
      wires.back()->start();
      return *wires.back();
    };
    for (PeerId id : members) {
      Wire& w = endpoint(id);
      tables.push_back(std::make_unique<LockTable>());
      tables.back()->set_clock([this] { return sched.now(); });
      tables.back()->attach_bus(bus);
      wals.push_back(
          std::make_unique<SimWal>(store.open(numbered("r", id))));
      WireReplicaOptions ro;
      ro.self = id;
      ro.replicas = members;
      reps.push_back(std::make_unique<WireReplica>(sched, w, *tables.back(),
                                                   *wals.back(), ro));
      reps.back()->attach_bus(bus);
      reps.back()->start();
    }
    for (std::size_t d = 0; d < kDrivers; ++d) {
      const PeerId id = static_cast<PeerId>(100 + d);
      Wire& w = endpoint(id);
      wals.push_back(
          std::make_unique<SimWal>(store.open(numbered("d", id))));
      WireDriverOptions o;
      o.self = id;
      o.replicas = members;
      drivers.push_back(
          std::make_unique<WireDriver>(sched, w, *wals.back(), o));
      drivers.back()->attach_bus(bus);
    }
  }

  void shutdown() {
    for (auto& r : reps) r->stop();
    for (auto& w : wires) w->stop();
  }
};

void lockdb_episode(const LockdbInput& in, bool armed, const Ctx& ctx) {
  Episode& ep = *ctx.ep;
  KvModel model;
  const std::uint64_t s0 = now_ns();
  Cluster c(armed);
  std::vector<ProcessId> driver_pids;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    driver_pids.push_back(c.sched.spawn(numbered("driver", d), [&, d] {
      WireDriver& drv = *c.drivers[d];
      const ProcessId me = c.sched.current();
      for (std::size_t t = 0; t < in[d].size(); ++t) {
        const Txn& x = in[d][t];
        const auto id = static_cast<std::uint32_t>(d * 1'000'000 + t + 1);
        const std::uint64_t op = d * 1'000'000 + t;
        const std::string key = key_name(x.key);
        const std::uint64_t t0 = now_ns();
        std::uint64_t a = t0;
        const bool granted = drv.acquire(
            id, key, x.write ? LockMode::Exclusive : LockMode::Shared);
        std::uint64_t b = now_ns();
        ctx.span(ctx.ids->acquire, me, op, a, b);
        Outcome outcome = Outcome::Ok;
        if (!granted) {
          outcome = Outcome::Denied;
        } else if (!x.write) {
          const std::uint64_t floor = model.committed[x.key];
          a = now_ns();
          const auto v = drv.get(key);
          b = now_ns();
          ctx.span(ctx.ids->get, me, op, a, b);
          if (!model.read_ok(x.key, floor, v)) {
            outcome = Outcome::WrongValue;
            ctx.error("lockdb_wire: stale or unknown read of " + key);
          }
        } else {
          const std::uint64_t seq = ++model.started[x.key];
          const std::string value =
              std::to_string(seq) + ":" + std::to_string(x.salt);
          model.written[x.key].push_back(value);
          a = now_ns();
          const bool committed = drv.update(id, {{key, value}});
          b = now_ns();
          ctx.span(ctx.ids->update, me, op, a, b);
          if (committed) {
            model.committed[x.key] = std::max(model.committed[x.key], seq);
          } else {
            outcome = Outcome::Refused;
            ctx.error("lockdb_wire: 2PC refused a locked write of " + key);
          }
        }
        if (granted) {
          a = now_ns();
          drv.release(id);
          b = now_ns();
          ctx.span(ctx.ids->release, me, op, a, b);
        }
        if (drv.degraded()) {
          outcome = Outcome::Degraded;
          ctx.error("lockdb_wire: a driver declared a replica dead");
        }
        const std::uint64_t t1 = now_ns();
        ctx.op_latency(t0, t1);
        ctx.span(x.write ? ctx.ids->write_txn : ctx.ids->read_txn, me, op,
                 t0, t1);
        ep.tally.add(outcome);
      }
    }));
  }
  c.sched.spawn("closer", [&] {
    for (const ProcessId p : driver_pids) c.sched.join(p);
    c.shutdown();
  });
  ep.setup_ns = now_ns() - s0;

  const RunResult r = timed_run(c.sched, ep);
  const std::uint64_t planned = kDrivers * kTxnsPerDriver;
  if (!r.ok()) {
    ctx.error("lockdb_wire: run ended in deadlock");
    ep.tally.add(Outcome::Deadlock, planned - ep.tally.attempted());
  }
  std::uint64_t commits = 0;
  for (const auto& d : c.drivers) commits += d->commits();
  for (const auto& rep : c.reps) {
    if (rep->digest() != c.reps.front()->digest()) {
      ctx.error("lockdb_wire: replica digests differ");
      ep.tally.demote(planned);
    }
    if (rep->committed() != commits) {
      ctx.error("lockdb_wire: replica committed() != drivers' commits()");
      ep.tally.demote(planned);
    }
    ep.counters.requests += rep->requests_served();
  }
  for (const auto& t : c.trans) {
    ep.counters.frames += t->stats().frames_sent;
    ep.counters.bytes += t->stats().bytes_sent;
    ep.counters.frames_shed += t->stats().frames_shed;
  }
  for (const auto& w : c.wires) ep.counters.frames_shed += w->messages_shed();
  ep.counters.ops = planned;
  ep.counters.committed = commits;
  ep.counters.denied = ep.tally.denied();
  ep.counters.events = c.sched.bus().published_count();
  if (auto* f = c.sched.flight_recorder())
    ep.counters.flight_dropped = f->dropped_events();
  if (auto* tl = c.sched.timeline())
    ep.counters.timeline_evicted = tl->evicted_epochs();
  ep.fingerprint.committed = commits;
  ep.fingerprint.denied = ep.tally.denied();
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::RendezvousAnon:
      return "rendezvous_anon";
    case Workload::CastStar:
      return "cast_star";
    case Workload::LockdbWire:
      return "lockdb_wire";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : kListedWorkloads)
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

std::string Fingerprint::str() const {
  return "final_time=" + std::to_string(final_time) +
         " rendezvous=" + std::to_string(rendezvous) +
         " performances=" + std::to_string(performances) +
         " committed=" + std::to_string(committed) +
         " denied=" + std::to_string(denied);
}

void Counters::add(const Counters& o) {
  ops += o.ops;
  steps += o.steps;
  virtual_ticks += o.virtual_ticks;
  rendezvous += o.rendezvous;
  roles += o.roles;
  matcher_runs += o.matcher_runs;
  matcher_hits += o.matcher_hits;
  frames += o.frames;
  bytes += o.bytes;
  frames_shed += o.frames_shed;
  requests += o.requests;
  committed += o.committed;
  denied += o.denied;
  events += o.events;
  flight_dropped += o.flight_dropped;
  timeline_evicted += o.timeline_evicted;
}

double Counters::per_op(std::uint64_t field) const {
  return ops == 0 ? 0.0
                  : static_cast<double>(field) / static_cast<double>(ops);
}

PassResult run_pass(const PassConfig& cfg) {
  PassResult out;
  const SpanIds ids(cfg.spans);
  const RdvInput rdv = make_rdv_input(cfg.seed);
  const auto star = make_star_input(cfg.seed);
  const auto lockdb = make_lockdb_input(cfg.seed);
  auto scratch = std::make_unique<Histogram>();

  const std::uint64_t start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(cfg.seconds * 1e9);
  std::uint64_t samples = 0;
  while (out.episodes <= kWarmupEpisodes || now_ns() - start < budget_ns ||
         samples < cfg.min_samples) {
    const bool measured = out.episodes >= kWarmupEpisodes;
    Episode ep;
    *scratch = Histogram();
    // Spans of warm-up episodes are kept too: they are the same calls.
    const Ctx ctx{measured ? scratch.get() : nullptr, cfg.spans, &ids, &ep};
    switch (cfg.workload) {
      case Workload::RendezvousAnon:
        rendezvous_episode(rdv, ctx);
        break;
      case Workload::CastStar:
        cast_star_episode(star, ctx);
        break;
      case Workload::LockdbWire:
        lockdb_episode(lockdb, cfg.armed, ctx);
        break;
    }
    if (out.episodes == 0) out.fingerprint = ep.fingerprint;
    if (ep.fingerprint == out.fingerprint) {
      out.tally.add(Outcome::Ok, ep.tally.attempted() - ep.tally.failed());
      out.tally.add(Outcome::WrongValue, ep.tally.failed());
    } else {
      // Same inputs, different replay: the whole episode is wrong.
      out.tally.add(Outcome::FingerprintMismatch, ep.tally.attempted());
      ep.errors.push_back("determinism fingerprint changed: " +
                          ep.fingerprint.str() + " vs " +
                          out.fingerprint.str());
    }
    for (auto& e : ep.errors)
      if (out.errors.size() < 8) out.errors.push_back(std::move(e));
    if (measured) {
      samples += scratch->count();
      if (ep.timed_ops == 0) ep.timed_ops = ep.counters.ops;
      out.windows.push_back({static_cast<double>(ep.timed_ops),
                             static_cast<double>(ep.run_ns) / 1e9,
                             static_cast<double>(ep.cpu_ns) / 1e9,
                             static_cast<double>(ep.setup_ns) / 1e9,
                             scratch->sparse()});
      out.counted.add(ep.counters);
    }
    ++out.episodes;
  }
  return out;
}

}  // namespace perfbench
