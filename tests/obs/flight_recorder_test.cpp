// FlightRecorder: ring recording, wrap accounting, intern overflow,
// deterministic dumps, and the automatic failure-escalation triggers.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_read.hpp"

namespace {

using script::obs::Event;
using script::obs::EventBus;
using script::obs::EventKind;
using script::obs::FlightRecorder;
using script::obs::FlightRecorderOptions;
using script::obs::MetricsRegistry;
using script::obs::Subsystem;

Event make(Subsystem s, const std::string& name, std::uint64_t t = 1,
           script::obs::Pid pid = 7) {
  Event e;
  e.kind = EventKind::Instant;
  e.subsystem = s;
  e.time = t;
  e.pid = pid;
  e.name = name;
  return e;
}

TEST(FlightRecorderTest, RecordsAndDecodesInPublishOrder) {
  EventBus bus;
  FlightRecorder rec(bus);
  bus.publish(make(Subsystem::User, "a", 1));
  bus.publish(make(Subsystem::Lock, "b", 2));
  bus.publish(make(Subsystem::User, "c", 3));

  EXPECT_EQ(rec.recorded_events(), 3u);
  EXPECT_EQ(rec.dropped_events(), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // Merged across per-subsystem rings back into publish order.
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  EXPECT_EQ(events[1].subsystem, Subsystem::Lock);
  EXPECT_EQ(events[2].time, 3u);
  EXPECT_EQ(events[2].pid, 7u);
}

TEST(FlightRecorderTest, DefaultMaskExcludesSchedulerDispatchRing) {
  // The always-on default must stay under the CI overhead gate: the
  // Scheduler's per-dispatch spans are the one subsystem priced out
  // (bench_overhead measures both configs).
  const FlightRecorderOptions defaults;
  EXPECT_EQ(defaults.mask & EventBus::mask_of(Subsystem::Scheduler), 0u);
  EXPECT_NE(defaults.mask & EventBus::mask_of(Subsystem::Script), 0u);
  EXPECT_NE(defaults.mask & EventBus::mask_of(Subsystem::Recovery), 0u);

  EventBus bus;
  FlightRecorder rec(bus);
  EXPECT_FALSE(bus.wants(Subsystem::Scheduler));
  EXPECT_TRUE(bus.wants(Subsystem::Script));
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndCountsDropped) {
  EventBus bus;
  FlightRecorderOptions opts;
  opts.mask = EventBus::mask_of(Subsystem::User);
  opts.default_capacity = 4;
  FlightRecorder rec(bus, opts);

  for (int i = 0; i < 10; ++i)
    bus.publish(make(Subsystem::User, "e" + std::to_string(i),
                     static_cast<std::uint64_t>(i)));

  EXPECT_EQ(rec.recorded_events(), 10u);
  EXPECT_EQ(rec.dropped_events(), 6u);
  EXPECT_EQ(rec.dropped_events(Subsystem::User), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: the last four published.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");

  MetricsRegistry reg;
  rec.export_metrics(reg);
  EXPECT_EQ(reg.counter("flightrecorder.recorded_events").value(), 10u);
  EXPECT_EQ(reg.counter("flightrecorder.dropped_events").value(), 6u);
}

TEST(FlightRecorderTest, PerSubsystemBudgetsIsolateChattyNeighbours) {
  EventBus bus;
  FlightRecorderOptions opts;
  opts.mask = EventBus::mask_of(Subsystem::User) |
              EventBus::mask_of(Subsystem::Lock);
  opts.default_capacity = 4;
  opts.budgets[Subsystem::Lock] = 2;
  FlightRecorder rec(bus, opts);

  for (int i = 0; i < 8; ++i) bus.publish(make(Subsystem::Lock, "noisy"));
  bus.publish(make(Subsystem::User, "precious"));

  EXPECT_EQ(rec.capacity(Subsystem::Lock), 2u);
  EXPECT_EQ(rec.dropped_events(Subsystem::Lock), 6u);
  EXPECT_EQ(rec.dropped_events(Subsystem::User), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back().name, "precious");
}

TEST(FlightRecorderTest, ZeroBudgetKeepsSubsystemDarkOnTheBus) {
  EventBus bus;
  FlightRecorderOptions opts;
  opts.mask = EventBus::mask_of(Subsystem::User);
  opts.budgets[Subsystem::User] = 0;
  FlightRecorder rec(bus, opts);
  // Nothing left to record: the recorder must not subscribe at all,
  // so producers still skip event construction entirely.
  EXPECT_FALSE(bus.enabled());
  bus.publish(make(Subsystem::User, "x"));
  EXPECT_EQ(rec.recorded_events(), 0u);
}

TEST(FlightRecorderTest, InternOverflowFoldsIntoSentinel) {
  EventBus bus;
  FlightRecorderOptions opts;
  opts.mask = EventBus::mask_of(Subsystem::User);
  opts.intern_capacity = 3;
  FlightRecorder rec(bus, opts);

  for (int i = 0; i < 6; ++i)
    bus.publish(make(Subsystem::User, "name" + std::to_string(i)));

  EXPECT_GT(rec.intern_overflow(), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].name, "name0");             // interned while room
  EXPECT_EQ(events[5].name, "<interned-overflow>");
}

TEST(FlightRecorderTest, DumpIsByteIdenticalForIdenticalSchedules) {
  const auto run = [] {
    EventBus bus;
    bus.add_lane("inst");
    FlightRecorder rec(bus);
    rec.set_fiber_namer([](script::obs::Pid p) {
      return "fiber-" + std::to_string(p);
    });
    bus.publish(make(Subsystem::Script, "enroll.ok", 1, 3));
    bus.publish(make(Subsystem::Recovery, "supervisor.backoff", 2, 4));
    bus.publish(make(Subsystem::Script, "performance.abort", 5, 3));
    return rec.dump_json();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(FlightRecorderTest, DumpParsesBackThroughTraceRead) {
  EventBus bus;
  bus.add_lane("lane0");
  FlightRecorder rec(bus);
  bus.publish(make(Subsystem::User, "hello", 4));
  Event span = make(Subsystem::User, "work", 5);
  span.kind = EventKind::SpanBegin;
  bus.publish(span);
  span.kind = EventKind::SpanEnd;
  span.time = 9;
  bus.publish(span);

  const auto parsed = script::obs::parse_trace_json(rec.dump_json());
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[0].name, "hello");
  EXPECT_EQ(parsed.events[1].kind, EventKind::SpanBegin);
  EXPECT_EQ(parsed.events[2].kind, EventKind::SpanEnd);
  EXPECT_EQ(parsed.metadata.at("recorder"), "flight");
  EXPECT_EQ(parsed.metadata.at("dropped_events"), "0");
}

TEST(FlightRecorderTest, AutoDumpsOnFailureEscalations) {
  const std::string base = ::testing::TempDir() + "flightrec_auto";
  EventBus bus;
  FlightRecorderOptions opts;
  opts.dump_path = base;
  FlightRecorder rec(bus, opts);

  bus.publish(make(Subsystem::Script, "enroll.ok"));
  bus.publish(make(Subsystem::Script, "performance.abort"));
  EXPECT_EQ(rec.triggers_seen(), 1u);
  EXPECT_EQ(rec.auto_dumps_written(), 1u);
  EXPECT_EQ(rec.last_trigger(), "performance.abort");
  EXPECT_EQ(rec.last_dump_path(), base + ".flight.json");

  bus.publish(make(Subsystem::Recovery, "supervisor.give_up"));
  EXPECT_EQ(rec.auto_dumps_written(), 2u);
  EXPECT_EQ(rec.last_dump_path(), base + ".1.flight.json");

  // Fill up to the cap, then past it: further escalations count but
  // write nothing.
  constexpr std::size_t kCap = script::obs::AutoDump::kMaxDumps;
  for (std::size_t n = 2; n < kCap; ++n)
    bus.publish(make(Subsystem::Script, "performance.abort"));
  EXPECT_EQ(rec.auto_dumps_written(), kCap);
  const std::string last = base + "." + std::to_string(kCap - 1) +
                           ".flight.json";
  EXPECT_EQ(rec.last_dump_path(), last);
  bus.publish(make(Subsystem::Script, "performance.abort"));
  EXPECT_EQ(rec.triggers_seen(), kCap + 1);
  EXPECT_EQ(rec.auto_dumps_written(), kCap);
  EXPECT_EQ(rec.last_dump_path(), last);
  const std::string past = base + "." + std::to_string(kCap) + ".flight.json";
  EXPECT_FALSE(std::ifstream(past).good());

  const auto dumped = script::obs::read_trace_file(base + ".flight.json");
  ASSERT_TRUE(dumped.has_value());
  EXPECT_EQ(dumped->metadata.at("trigger"), "performance.abort");
  std::remove((base + ".flight.json").c_str());
  for (std::size_t n = 1; n < kCap; ++n)
    std::remove((base + "." + std::to_string(n) + ".flight.json").c_str());
}

TEST(FlightRecorderTest, ManualTriggerWithoutPathOnlyCounts) {
  EventBus bus;
  FlightRecorder rec(bus);
  rec.trigger_dump("deadlock");
  EXPECT_EQ(rec.triggers_seen(), 1u);
  EXPECT_EQ(rec.auto_dumps_written(), 0u);
  EXPECT_EQ(rec.last_trigger(), "deadlock");
}

}  // namespace
