// End-to-end observability: the flight recorder's post-mortem dump
// against the golden trace of the same seeded schedule, and a live
// Inspector snapshot against the scheduler's own ledger on a Fig 5
// lock-DB workload — the two acceptance scenarios behind `scriptctl`.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "env_var_guard.hpp"
#include "lockdb/lock_table.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/inspector.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_read.hpp"
#include "runtime/fault.hpp"
#include "script/instance.hpp"

namespace {

using script::core::Initiation;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::Net;
using script::lockdb::LockMode;
using script::lockdb::LockTable;
using script::runtime::FaultPlan;
using script::runtime::ProcessId;
using script::runtime::Scheduler;

namespace obs = script::obs;

// The deterministic crash workload both flight tests replay: a two-role
// performance whose sleeper is killed mid-role, so the run ends in
// `performance.abort` — one of the recorder's automatic dump triggers.
void run_crash_workload(Scheduler& sched) {
  Net net(sched);
  ScriptSpec spec("pay");
  spec.role("p").role("q");
  spec.initiation(Initiation::Immediate).termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("p", [](RoleContext&) {});
  inst.on_role("q", [](RoleContext& ctx) { ctx.scheduler().sleep_for(50); });

  net.spawn_process("A", [&] { inst.enroll(RoleId("p")); });
  const ProcessId b =
      net.spawn_process("B", [&] { inst.enroll(RoleId("q")); });

  FaultPlan plan;
  plan.crash_at_time(b, 20);
  sched.install_fault_plan(plan);
  (void)sched.run();
}

// Comparable identity of an event across export / record / dump-parse.
std::string key_of(const obs::Event& e) {
  return std::to_string(e.time) + "|" + obs::subsystem_name(e.subsystem) +
         "|" + std::to_string(static_cast<int>(e.kind)) + "|" + e.name +
         "|" + std::to_string(e.pid);
}

std::vector<std::string> keys_of(const std::vector<obs::Event>& events,
                                 bool drop_causal) {
  std::vector<std::string> out;
  for (const obs::Event& e : events) {
    if (drop_causal && e.subsystem == obs::Subsystem::Causal) continue;
    out.push_back(key_of(e));
  }
  return out;
}

TEST(ObservabilityIntegration, FlightDumpMatchesGoldenTraceOfSameSchedule) {
  // Env-armed tracing or a default-mask flight recorder would win over
  // the options below (arming is idempotent) and change both streams.
  EnvVarGuard trace_guard("SCRIPT_TRACE");
  EnvVarGuard flight_guard("SCRIPT_FLIGHT");
  // Run A — the golden run: full tracing AND the recorder armed, so we
  // get the authoritative event stream alongside the black box. Both
  // recorders ring every subsystem (the default budgets the Scheduler's
  // dispatch ring out) so the dump replays dispatch history too.
  obs::FlightRecorderOptions gopts;
  gopts.mask = obs::EventBus::kAllSubsystems;
  Scheduler golden_sched;
  obs::TraceExporter& exporter = golden_sched.enable_tracing();
  obs::FlightRecorder& golden_rec = golden_sched.arm_flight_recorder(gopts);
  run_crash_workload(golden_sched);

  EXPECT_GE(golden_rec.triggers_seen(), 1u);
  EXPECT_EQ(golden_rec.last_trigger(), "performance.abort");
  // No ring wrapped in a workload this small: the black box holds the
  // whole flight, and it agrees with the exporter event for event.
  EXPECT_EQ(golden_rec.dropped_events(), 0u);
  EXPECT_EQ(keys_of(golden_rec.events(), false),
            keys_of(exporter.events(), false));

  // The golden tail: everything the exporter saw up to and including
  // the abort, minus Causal bookkeeping (tracing implies causal
  // tracking; the crashed run below never enables it).
  std::vector<std::string> golden;
  for (const obs::Event& e : exporter.events()) {
    if (e.subsystem == obs::Subsystem::Causal) continue;
    golden.push_back(key_of(e));
    if (e.subsystem == obs::Subsystem::Script &&
        e.name == "performance.abort")
      break;
  }
  ASSERT_FALSE(golden.empty());
  EXPECT_NE(golden.back().find("performance.abort"), std::string::npos);

  // Run B — the crash in the wild: tracing disabled, recorder armed
  // with a dump path. The abort must leave a post-mortem behind whose
  // events replay the golden schedule exactly.
  const std::string base = ::testing::TempDir() + "obs_integration";
  obs::FlightRecorderOptions fopts;
  fopts.mask = obs::EventBus::kAllSubsystems;
  fopts.dump_path = base;
  Scheduler crash_sched;
  obs::FlightRecorder& rec = crash_sched.arm_flight_recorder(fopts);
  run_crash_workload(crash_sched);

  ASSERT_EQ(rec.auto_dumps_written(), 1u);
  const auto dump = obs::read_trace_file(rec.last_dump_path());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->metadata.at("trigger"), "performance.abort");
  // The dump renderer closes still-open spans past the abort so the
  // JSON always loads; truncate at the abort exactly like the golden.
  std::vector<std::string> dumped;
  for (const obs::Event& e : dump->events) {
    dumped.push_back(key_of(e));
    if (e.subsystem == obs::Subsystem::Script &&
        e.name == "performance.abort")
      break;
  }
  EXPECT_EQ(dumped, golden);
  std::remove(rec.last_dump_path().c_str());
}

TEST(ObservabilityIntegration, FlightDumpsAreByteIdenticalAcrossReplays) {
  const auto dump_once = [] {
    Scheduler sched;
    obs::FlightRecorder& rec = sched.arm_flight_recorder();
    run_crash_workload(sched);
    return rec.dump_json();
  };
  const std::string first = dump_once();
  const std::string second = dump_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ObservabilityIntegration, InspectorMatchesSchedulerLedgerOnLockDb) {
  // Fig 5 in miniature: a writer role holds an exclusive lock-table
  // entry while its performance is in flight. A probe fiber snapshots
  // the Inspector mid-performance; everything it reports must agree
  // with what the scheduler and lock table themselves say.
  Scheduler sched;
  Net net(sched);
  LockTable locks;
  locks.attach_bus(&sched.bus());
  locks.set_clock([&] { return sched.now(); });

  ScriptSpec spec("fig5");
  spec.role("writer").role("reader");
  spec.initiation(Initiation::Immediate).termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("writer", [&](RoleContext& ctx) {
    ASSERT_TRUE(locks.acquire("x", LockMode::Exclusive, 1));
    ctx.scheduler().sleep_for(40);
    locks.release("x", 1);
  });
  inst.on_role("reader", [&](RoleContext& ctx) {
    ctx.scheduler().sleep_for(40);
  });

  obs::Inspector ins;
  sched.attach_inspector(ins);
  inst.attach_inspector(ins);
  locks.attach_inspector(ins);

  const ProcessId writer =
      net.spawn_process("W", [&] { inst.enroll(RoleId("writer")); });
  net.spawn_process("R", [&] { inst.enroll(RoleId("reader")); });

  // The ledger must be sampled at snapshot time — by the end of the
  // run the performance has completed and the lock is released.
  std::string snap;
  bool held_at_probe = false;
  std::size_t items_at_probe = 0;
  net.spawn_process("probe", [&] {
    sched.sleep_for(20);
    held_at_probe = locks.holds("x", 1);
    items_at_probe = locks.locked_items();
    snap = ins.snapshot_json();
  });
  ASSERT_TRUE(sched.run().ok());
  ASSERT_FALSE(snap.empty());

  const auto doc = obs::json::parse(snap);
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->num_or("virtual_time", 0), 20.0);

  // Script section: the in-flight performance binds `writer` to W's
  // pid, exactly as the scheduler's ledger has it.
  const obs::json::Value* sections = doc->get("sections");
  ASSERT_NE(sections, nullptr);
  const obs::json::Value* scripts = sections->get("script");
  ASSERT_NE(scripts, nullptr);
  ASSERT_EQ(scripts->array.size(), 1u);
  const obs::json::Value& script = scripts->array[0];
  EXPECT_EQ(script.str_or("script", ""), "fig5");
  const obs::json::Value* perf = script.get("performance");
  ASSERT_NE(perf, nullptr);
  ASSERT_TRUE(perf->is_object());
  const obs::json::Value* roles = perf->get("roles");
  ASSERT_NE(roles, nullptr);
  bool found_writer = false;
  for (const obs::json::Value& r : roles->array) {
    if (r.str_or("role", "") != "writer") continue;
    found_writer = true;
    EXPECT_DOUBLE_EQ(r.num_or("pid", -1), static_cast<double>(writer));
    EXPECT_EQ(r.str_or("process", ""), "W");
  }
  EXPECT_TRUE(found_writer);

  // Locks section: item x exclusively held by owner 1, matching the
  // table's own answers at the moment of the snapshot.
  EXPECT_TRUE(held_at_probe);
  const obs::json::Value* lock_sections = sections->get("locks");
  ASSERT_NE(lock_sections, nullptr);
  ASSERT_EQ(lock_sections->array.size(), 1u);
  const obs::json::Value& lock = lock_sections->array[0];
  EXPECT_DOUBLE_EQ(lock.num_or("held", 0),
                   static_cast<double>(items_at_probe));
  const obs::json::Value* items = lock.get("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->array.size(), 1u);
  EXPECT_EQ(items->array[0].str_or("item", ""), "x");
  EXPECT_EQ(items->array[0].str_or("mode", ""), "exclusive");

  // The scriptctl rendering of the same snapshot names the binding and
  // the lock holder.
  const std::string report = obs::render_inspect_report(*doc);
  EXPECT_NE(report.find("inspector snapshot @ t=20"), std::string::npos);
  EXPECT_NE(report.find("role writer <- [" + std::to_string(writer) + "] W"),
            std::string::npos);
  EXPECT_NE(report.find("x: exclusive by {1}"), std::string::npos);
}

}  // namespace
