// Timeline: epoch bucketing, per-lane attribution, derived latency
// quantiles, O(1) ring ageing with counted eviction, deterministic
// dumps, auto-dump triggers, and the report renderers.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using script::obs::Event;
using script::obs::EventBus;
using script::obs::EventKind;
using script::obs::MetricsRegistry;
using script::obs::Subsystem;
using script::obs::Timeline;
using script::obs::TimelineOptions;

Event make(Subsystem s, const std::string& name, std::uint64_t t,
           EventKind kind = EventKind::Instant,
           std::int32_t lane = script::obs::kNoLane,
           script::obs::Pid pid = script::obs::kNoPid, double value = 0) {
  Event e;
  e.kind = kind;
  e.subsystem = s;
  e.time = t;
  e.pid = pid;
  e.lane = lane;
  e.name = name;
  e.value = value;
  return e;
}

TEST(TimelineTest, DefaultMaskExcludesSchedulerFirehose) {
  const TimelineOptions defaults;
  EXPECT_EQ(defaults.mask & EventBus::mask_of(Subsystem::Scheduler), 0u);
  EXPECT_NE(defaults.mask & EventBus::mask_of(Subsystem::Script), 0u);

  EventBus bus;
  Timeline tl(bus);
  EXPECT_FALSE(bus.wants(Subsystem::Scheduler));
  EXPECT_TRUE(bus.wants(Subsystem::Script));
}

TEST(TimelineTest, CountersBucketByEpochAndAttributeToLanes) {
  EventBus bus;
  TimelineOptions opts;
  opts.epoch_ticks = 10;
  Timeline tl(bus, opts);

  bus.publish(make(Subsystem::Script, "enroll.ok", 3, EventKind::Instant, 0));
  bus.publish(make(Subsystem::Script, "enroll.ok", 7, EventKind::Instant, 0));
  bus.publish(make(Subsystem::Script, "enroll.ok", 15, EventKind::Instant, 1));
  bus.publish(make(Subsystem::Lock, "grant", 15));

  EXPECT_EQ(tl.recorded_events(), 4u);
  EXPECT_EQ(tl.counter_total("script.enroll.ok"), 3u);
  EXPECT_EQ(tl.counter_total("script.enroll.ok@0"), 2u);
  EXPECT_EQ(tl.counter_total("script.enroll.ok@1"), 1u);
  EXPECT_EQ(tl.counter_total("events.script"), 3u);
  EXPECT_EQ(tl.counter_total("events.lock"), 1u);
  // Epoch windows: [0,9] holds two, [10,19] holds one.
  EXPECT_EQ(tl.counter_sum("script.enroll.ok", 0, 9), 2u);
  EXPECT_EQ(tl.counter_sum("script.enroll.ok", 10, 19), 1u);
  EXPECT_EQ(tl.counter_sum("script.enroll.ok", 0, 19), 3u);
}

TEST(TimelineTest, SpansCountOnceAndCounterEventsBecomeGauges) {
  EventBus bus;
  TimelineOptions opts;
  opts.epoch_ticks = 10;
  Timeline tl(bus, opts);

  bus.publish(make(Subsystem::Script, "performance", 1, EventKind::SpanBegin,
                   0, script::obs::kNoPid, 1));
  bus.publish(make(Subsystem::Script, "performance", 9, EventKind::SpanEnd, 0,
                   script::obs::kNoPid, 1));
  // One logical performance: SpanEnd must not double-count the name...
  EXPECT_EQ(tl.counter_total("script.performance"), 1u);
  // ...but both halves tick the subsystem rate.
  EXPECT_EQ(tl.counter_total("events.script"), 2u);

  // Counter-kind events land as last-value gauges, not counters.
  bus.publish(make(Subsystem::Monitor, "queue.depth", 4, EventKind::Counter,
                   script::obs::kNoLane, script::obs::kNoPid, 3));
  bus.publish(make(Subsystem::Monitor, "queue.depth", 8, EventKind::Counter,
                   script::obs::kNoLane, script::obs::kNoPid, 7));
  EXPECT_EQ(tl.counter_total("monitor.queue.depth"), 0u);
  const auto dump = script::obs::json::parse(tl.dump_json());
  ASSERT_TRUE(dump.has_value());
  const auto* gauge = dump->get("gauges")->get("monitor.queue.depth");
  ASSERT_NE(gauge, nullptr);
  // Same epoch twice: the later value wins.
  const auto& epochs = gauge->get("epochs")->array;
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].array[1].number, 7.0);
}

TEST(TimelineTest, DerivedLatencySeriesTrackEnrollAndMakespan) {
  EventBus bus;
  TimelineOptions opts;
  opts.epoch_ticks = 100;
  Timeline tl(bus, opts);

  bus.publish(make(Subsystem::Script, "enroll.attempt", 10,
                   EventKind::Instant, 2, 5));
  bus.publish(
      make(Subsystem::Script, "enroll.ok", 17, EventKind::Instant, 2, 5));
  bus.publish(make(Subsystem::Script, "performance", 20, EventKind::SpanBegin,
                   2, script::obs::kNoPid, 1));
  bus.publish(make(Subsystem::Script, "performance", 50, EventKind::SpanEnd,
                   2, script::obs::kNoPid, 1));

  const auto dump = script::obs::json::parse(tl.dump_json());
  ASSERT_TRUE(dump.has_value());
  const auto* values = dump->get("values");
  ASSERT_NE(values, nullptr);
  const auto* enroll = values->get("enroll_latency@2");
  ASSERT_NE(enroll, nullptr);
  EXPECT_EQ(enroll->get("epochs")->array[0].num_or("p50", -1), 7.0);
  const auto* makespan = values->get("makespan@2");
  ASSERT_NE(makespan, nullptr);
  const auto& slot = makespan->get("epochs")->array[0];
  EXPECT_EQ(slot.num_or("count", -1), 1.0);
  EXPECT_EQ(slot.num_or("max", -1), 30.0);
}

TEST(TimelineTest, RingEvictionIsCountedNeverSilent) {
  EventBus bus;
  TimelineOptions opts;
  opts.epoch_ticks = 10;
  opts.retention = 4;
  Timeline tl(bus, opts);

  // 8 epochs through a 4-slot ring: the first 4 epochs are overwritten.
  for (std::uint64_t e = 0; e < 8; ++e)
    bus.publish(make(Subsystem::User, "tick", e * 10));
  EXPECT_EQ(tl.evicted_epochs(), 8u);  // events.user and user.tick rings

  // The window query only sees retained epochs.
  EXPECT_EQ(tl.counter_sum("user.tick", 0, 79), 4u);
  // Lifetime totals survive eviction.
  EXPECT_EQ(tl.counter_total("user.tick"), 8u);

  MetricsRegistry reg;
  tl.export_metrics(reg);
  EXPECT_EQ(reg.counter("timeline.evicted_epochs").value(), 8u);
  EXPECT_EQ(reg.counter("timeline.recorded_events").value(), 8u);
}

TEST(TimelineTest, SeriesTableOverflowFoldsIntoSentinel) {
  EventBus bus;
  TimelineOptions opts;
  opts.epoch_ticks = 10;
  opts.max_series = 3;
  Timeline tl(bus, opts);

  for (int i = 0; i < 6; ++i)
    bus.publish(
        make(Subsystem::User, "name" + std::to_string(i), 5));

  EXPECT_GT(tl.dropped_series_observations(), 0u);
  EXPECT_GT(tl.counter_total("<series-overflow>"), 0u);
  EXPECT_LE(tl.series_count(), 4u);  // 3 real + the sentinel
}

TEST(TimelineTest, RecentRingKeepsNewestAndCounts) {
  EventBus bus;
  TimelineOptions opts;
  opts.recent_events = 4;
  Timeline tl(bus, opts);

  for (int i = 0; i < 10; ++i)
    bus.publish(make(Subsystem::User, "e" + std::to_string(i),
                     static_cast<std::uint64_t>(i)));
  EXPECT_EQ(tl.recent_evicted(), 6u);
  const auto recent = tl.recent(8);
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().event.name, "e6");
  EXPECT_EQ(recent.back().event.name, "e9");
  // Sequence numbers are global and monotone — watch keys on them.
  EXPECT_EQ(recent.back().seq, 10u);
}

TEST(TimelineTest, DumpIsByteIdenticalAcrossReplays) {
  const auto run = [] {
    EventBus bus;
    bus.add_lane("inst");
    TimelineOptions opts;
    opts.epoch_ticks = 10;
    opts.retention = 4;
    Timeline tl(bus, opts);
    tl.set_lane_namer([&bus](std::int32_t l) { return bus.lane_name(l); });
    // 6 epochs through a 4-slot ring so the wrap phase would show if the
    // dump leaked physical slot order.
    for (std::uint64_t e = 0; e < 6; ++e) {
      bus.publish(make(Subsystem::Script, "enroll.ok", e * 10,
                       EventKind::Instant, 0, 3));
      bus.publish(make(Subsystem::Csp, "rendezvous", e * 10 + 5));
    }
    return tl.dump_json();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"lanes\""), std::string::npos);
}

TEST(TimelineTest, AutoDumpsOnFailureEscalationsWithCap) {
  const std::string base = ::testing::TempDir() + "timeline_auto";
  EventBus bus;
  TimelineOptions opts;
  opts.dump_path = base;
  Timeline tl(bus, opts);

  bus.publish(make(Subsystem::Script, "enroll.ok", 1));
  EXPECT_EQ(tl.triggers_seen(), 0u);

  bus.publish(make(Subsystem::Script, "performance.abort", 2));
  EXPECT_EQ(tl.triggers_seen(), 1u);
  EXPECT_EQ(tl.auto_dumps_written(), 1u);
  EXPECT_EQ(tl.last_dump_path(), base + ".timeline.json");

  bus.publish(make(Subsystem::Recovery, "supervisor.give_up", 3));
  EXPECT_EQ(tl.auto_dumps_written(), 2u);
  EXPECT_EQ(tl.last_dump_path(), base + ".1.timeline.json");

  // Fill up to the cap, then past it: further escalations count but
  // write nothing.
  constexpr std::size_t kCap = script::obs::AutoDump::kMaxDumps;
  for (std::size_t n = 2; n < kCap; ++n)
    bus.publish(make(Subsystem::Script, "performance.abort", 4));
  EXPECT_EQ(tl.auto_dumps_written(), kCap);
  const std::string last = base + "." + std::to_string(kCap - 1) +
                           ".timeline.json";
  EXPECT_EQ(tl.last_dump_path(), last);
  bus.publish(make(Subsystem::Script, "performance.abort", 5));
  EXPECT_EQ(tl.triggers_seen(), kCap + 1);
  EXPECT_EQ(tl.auto_dumps_written(), kCap);
  EXPECT_EQ(tl.last_dump_path(), last);
  const std::string past =
      base + "." + std::to_string(kCap) + ".timeline.json";
  EXPECT_FALSE(std::ifstream(past).good());

  const auto dumped = script::obs::json::parse([&] {
    std::string text;
    FILE* f = std::fopen((base + ".timeline.json").c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
  }());
  ASSERT_TRUE(dumped.has_value());
  EXPECT_EQ(dumped->str_or("trigger", ""), "performance.abort");
  std::remove((base + ".timeline.json").c_str());
  for (std::size_t n = 1; n < kCap; ++n)
    std::remove((base + "." + std::to_string(n) + ".timeline.json").c_str());
}

TEST(TimelineTest, DeclaredLanesAppearInDumpsBeforeAnyEvent) {
  EventBus bus;
  const std::int32_t lane = bus.add_lane("idle_script");
  Timeline tl(bus);
  tl.set_lane_namer([&bus](std::int32_t l) { return bus.lane_name(l); });
  tl.declare_lane(lane);
  const auto dump = script::obs::json::parse(tl.dump_json());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->get("lanes")->str_or("0", ""), "idle_script");
}

TEST(TimelineTest, RenderersProduceTheDashboardSections) {
  EventBus bus;
  bus.add_lane("workers");
  TimelineOptions opts;
  opts.epoch_ticks = 10;
  Timeline tl(bus, opts);
  tl.set_lane_namer([&bus](std::int32_t l) { return bus.lane_name(l); });
  for (std::uint64_t t = 0; t < 60; ++t)
    bus.publish(
        make(Subsystem::Script, "enroll.ok", t, EventKind::Instant, 0, 1));
  bus.publish(make(Subsystem::Script, "performance", 60, EventKind::SpanBegin,
                   0, script::obs::kNoPid, 1));
  bus.publish(make(Subsystem::Script, "performance", 65, EventKind::SpanEnd,
                   0, script::obs::kNoPid, 1));

  const auto dump = script::obs::json::parse(tl.dump_json());
  ASSERT_TRUE(dump.has_value());

  const std::string report = script::obs::render_timeline_report(*dump);
  EXPECT_NE(report.find("script.enroll.ok@0"), std::string::npos);
  EXPECT_NE(report.find("workers"), std::string::npos);

  const std::string filtered =
      script::obs::render_timeline_report(*dump, "makespan");
  EXPECT_NE(filtered.find("makespan@0"), std::string::npos);
  EXPECT_EQ(filtered.find("enroll.ok"), std::string::npos);

  const std::string top = script::obs::render_top_report(*dump, nullptr);
  EXPECT_NE(top.find("script top"), std::string::npos);
  EXPECT_NE(top.find("workers"), std::string::npos);

  std::uint64_t last_seq = 0;
  const auto events = script::obs::json::parse(tl.recent_json(8));
  ASSERT_TRUE(events.has_value());
  const std::string lines =
      script::obs::render_event_lines(*events, 0, &last_seq);
  EXPECT_NE(lines.find("[script]"), std::string::npos);
  EXPECT_EQ(last_seq, tl.recorded_events());
  // A second render keyed past the last seq prints nothing new.
  EXPECT_TRUE(
      script::obs::render_event_lines(*events, last_seq, &last_seq).empty());
}

}  // namespace
