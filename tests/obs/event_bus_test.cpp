// EventBus: subscription masks, dispatch order, wants() gating and
// lanes.
#include "obs/event_bus.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using script::obs::Event;
using script::obs::EventBus;
using script::obs::EventKind;
using script::obs::Subsystem;

Event make(Subsystem s, const std::string& name, script::obs::Pid pid = 7) {
  Event e;
  e.kind = EventKind::Instant;
  e.subsystem = s;
  e.time = 1;
  e.pid = pid;
  e.name = name;
  return e;
}

TEST(EventBusTest, WantsIsFalseWithNoSubscribers) {
  EventBus bus;
  EXPECT_FALSE(bus.enabled());
  for (unsigned s = 0; s < static_cast<unsigned>(Subsystem::kCount); ++s)
    EXPECT_FALSE(bus.wants(static_cast<Subsystem>(s)));
}

TEST(EventBusTest, SubscriberSeesOnlyItsMask) {
  EventBus bus;
  std::vector<std::string> got;
  bus.subscribe(EventBus::mask_of(Subsystem::Csp),
                [&](const Event& e) { got.push_back(e.name); });

  EXPECT_TRUE(bus.wants(Subsystem::Csp));
  EXPECT_FALSE(bus.wants(Subsystem::Ada));

  bus.publish(make(Subsystem::Csp, "a"));
  bus.publish(make(Subsystem::Ada, "b"));
  bus.publish(make(Subsystem::Csp, "c"));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "a");
  EXPECT_EQ(got[1], "c");
}

TEST(EventBusTest, SubscribersRunInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe(EventBus::kAllSubsystems,
                [&](const Event&) { order.push_back(1); });
  bus.subscribe(EventBus::kAllSubsystems,
                [&](const Event&) { order.push_back(2); });
  bus.subscribe(EventBus::kAllSubsystems,
                [&](const Event&) { order.push_back(3); });
  bus.publish(make(Subsystem::User, "x"));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventBusTest, UnsubscribeDropsDeliveryAndRecomputesWants) {
  EventBus bus;
  int n = 0;
  const auto id = bus.subscribe(EventBus::mask_of(Subsystem::Lock),
                                [&](const Event&) { ++n; });
  bus.publish(make(Subsystem::Lock, "l"));
  EXPECT_EQ(n, 1);
  bus.unsubscribe(id);
  EXPECT_FALSE(bus.wants(Subsystem::Lock));
  bus.publish(make(Subsystem::Lock, "l"));
  EXPECT_EQ(n, 1);
}

TEST(EventBusTest, AutoTimeIsStampedFromClock) {
  EventBus bus;
  std::uint64_t now = 42;
  bus.set_clock([&] { return now; });
  std::uint64_t seen = 0;
  bus.subscribe(EventBus::kAllSubsystems,
                [&](const Event& e) { seen = e.time; });

  Event e = make(Subsystem::User, "t");
  e.time = script::obs::kAutoTime;
  bus.publish(e);
  EXPECT_EQ(seen, 42u);

  e.time = 5;  // explicit times pass through untouched
  bus.publish(e);
  EXPECT_EQ(seen, 5u);
}

TEST(EventBusTest, LanesAreNamedAndSequential) {
  EventBus bus;
  EXPECT_EQ(bus.add_lane("alpha"), 0);
  EXPECT_EQ(bus.add_lane("beta"), 1);
  EXPECT_EQ(bus.lane_count(), 2u);
  EXPECT_EQ(bus.lane_name(0), "alpha");
  EXPECT_EQ(bus.lane_name(1), "beta");
}

TEST(EventBusTest, SubscribeDuringPublishSeesOnlyLaterEvents) {
  // A subscriber added from inside a callback must not observe the
  // event being dispatched (its iteration snapshot predates it), but
  // must get everything published afterwards.
  EventBus bus;
  std::vector<std::string> late;
  bool added = false;
  bus.subscribe(EventBus::kAllSubsystems, [&](const Event&) {
    if (added) return;
    added = true;
    bus.subscribe(EventBus::kAllSubsystems,
                  [&](const Event& e) { late.push_back(e.name); });
  });
  bus.publish(make(Subsystem::User, "first"));
  EXPECT_TRUE(late.empty());
  bus.publish(make(Subsystem::User, "second"));
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0], "second");
}

TEST(EventBusTest, SelfUnsubscribeDuringPublishIsSafe) {
  EventBus bus;
  int self_calls = 0;
  int later_calls = 0;
  EventBus::SubId self_id = 0;
  self_id = bus.subscribe(EventBus::kAllSubsystems, [&](const Event&) {
    ++self_calls;
    bus.unsubscribe(self_id);
  });
  // A subscriber after the self-remover still runs for the same event.
  bus.subscribe(EventBus::kAllSubsystems,
                [&](const Event&) { ++later_calls; });
  bus.publish(make(Subsystem::User, "a"));
  bus.publish(make(Subsystem::User, "b"));
  EXPECT_EQ(self_calls, 1);
  EXPECT_EQ(later_calls, 2);
  EXPECT_TRUE(bus.wants(Subsystem::User));  // the survivor keeps it hot
}

TEST(EventBusTest, UnsubscribeLaterSubscriberDuringPublishSkipsIt) {
  // Removing a subscriber that has not yet run this publish must stop
  // it from receiving the in-flight event — tombstoned, not erased, so
  // the dispatch loop's indices stay valid.
  EventBus bus;
  int victim_calls = 0;
  EventBus::SubId victim = 0;
  bus.subscribe(EventBus::kAllSubsystems, [&](const Event&) {
    if (victim != 0) {
      bus.unsubscribe(victim);
      victim = 0;
    }
  });
  victim = bus.subscribe(EventBus::kAllSubsystems,
                         [&](const Event&) { ++victim_calls; });
  bus.publish(make(Subsystem::User, "x"));
  EXPECT_EQ(victim_calls, 0);
  bus.publish(make(Subsystem::User, "y"));
  EXPECT_EQ(victim_calls, 0);
}

TEST(EventBusTest, NestedPublishFromSubscriberDelivers) {
  // Publishing from inside a callback (e.g. the HealthMonitor raising
  // a Health event while consuming a Script one) re-enters publish();
  // both events must reach every interested subscriber exactly once.
  EventBus bus;
  std::vector<std::string> seen;
  bus.subscribe(EventBus::mask_of(Subsystem::User), [&](const Event& e) {
    if (e.name == "outer") bus.publish(make(Subsystem::User, "inner"));
  });
  bus.subscribe(EventBus::mask_of(Subsystem::User),
                [&](const Event& e) { seen.push_back(e.name); });
  bus.publish(make(Subsystem::User, "outer"));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "inner");  // nested dispatch completes first
  EXPECT_EQ(seen[1], "outer");
}

}  // namespace
