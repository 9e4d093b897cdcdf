// End-to-end timeline telemetry: byte-identical dumps across seeded
// replays (the CI diffability contract), the deadlock auto-dump path,
// env-var arming, and a real client driving the live debug endpoint
// through scheduler safepoints — the transport behind `scriptctl top`.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "csp/net.hpp"
#include "env_var_guard.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/inspector.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_read.hpp"
#include "runtime/debug_endpoint.hpp"
#include "runtime/scheduler.hpp"
#include "script/instance.hpp"

namespace {

using script::core::Initiation;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::Net;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;
using script::runtime::SchedulePolicy;

namespace obs = script::obs;

// A small script workload with sleeps (so the virtual clock moves and
// epochs turn over) and several performances per run.
void run_pay_workload(Scheduler& sched, int rounds = 10) {
  Net net(sched);
  ScriptSpec spec("pay");
  spec.role("p").role("q");
  spec.initiation(Initiation::Immediate).termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("p", [](RoleContext&) {});
  inst.on_role("q", [](RoleContext& ctx) { ctx.scheduler().sleep_for(3); });

  net.spawn_process("A", [&inst, rounds] {
    for (int i = 0; i < rounds; ++i) inst.enroll(RoleId("p"));
  });
  net.spawn_process("B", [&inst, rounds] {
    for (int i = 0; i < rounds; ++i) inst.enroll(RoleId("q"));
  });
  ASSERT_TRUE(sched.run().ok());
}

std::string timeline_dump_of_seeded_run(std::uint64_t seed) {
  EnvVarGuard tl_guard("SCRIPT_TIMELINE");
  EnvVarGuard sock_guard("SCRIPT_DEBUG_SOCK");
  SchedulerOptions opts;
  opts.policy = SchedulePolicy::Random;
  opts.seed = seed;
  Scheduler sched(opts);
  obs::TimelineOptions topts;
  topts.epoch_ticks = 8;
  topts.retention = 4;  // small ring: replays must agree on evictions too
  sched.arm_timeline(std::move(topts));
  run_pay_workload(sched, 40);  // ~120 ticks: far past the 32-tick ring
  return sched.timeline()->dump_json();
}

TEST(TimelineIntegration, SeededReplaysProduceByteIdenticalDumps) {
  const std::string a = timeline_dump_of_seeded_run(7);
  const std::string b = timeline_dump_of_seeded_run(7);
  EXPECT_EQ(a, b);

  // The dump parses and carries the per-lane series and ring metadata.
  const auto doc = obs::json::parse(a);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("lanes")->str_or("0", ""), "pay");
  EXPECT_GT(doc->get("counters")->get("script.enroll.ok@0")->num_or("total", 0),
            0.0);
  // 40 rounds across 4 retained 8-tick epochs: the ring wrapped, and
  // the dump says so rather than silently shortening history.
  EXPECT_GT(doc->num_or("evicted_epochs", 0), 0.0);
}

TEST(TimelineIntegration, DeadlockTriggersTimelineAutoDump) {
  EnvVarGuard flight_guard("SCRIPT_FLIGHT");
  EnvVarGuard tl_guard("SCRIPT_TIMELINE");
  EnvVarGuard sock_guard("SCRIPT_DEBUG_SOCK");
  // Both backends end a stuck run through the same deadlock escalation:
  // each armed recorder writes exactly one dump, stamped "deadlock".
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string base =
        ::testing::TempDir() + "deadlock_w" + std::to_string(workers);
    SchedulerOptions opts;
    opts.workers = workers;
    Scheduler sched(opts);
    obs::FlightRecorderOptions fopts;
    fopts.dump_path = base;
    sched.arm_flight_recorder(std::move(fopts));
    obs::TimelineOptions topts;
    topts.dump_path = base;
    sched.arm_timeline(std::move(topts));

    // A fiber that blocks with nobody to wake it.
    sched.spawn("stuck", [&] { sched.block("waiting for godot"); });
    EXPECT_EQ(sched.run().outcome,
              script::runtime::RunResult::Outcome::Deadlock);

    const std::string flight = base + ".flight.json";
    const std::string timeline = base + ".timeline.json";
    EXPECT_EQ(sched.flight_recorder()->auto_dumps_written(), 1u);
    EXPECT_EQ(sched.flight_recorder()->last_dump_path(), flight);
    EXPECT_EQ(sched.timeline()->auto_dumps_written(), 1u);
    EXPECT_EQ(sched.timeline()->last_dump_path(), timeline);
    EXPECT_FALSE(std::ifstream(base + ".1.flight.json").good());
    EXPECT_FALSE(std::ifstream(base + ".1.timeline.json").good());

    const auto flight_dump = obs::read_trace_file(flight);
    ASSERT_TRUE(flight_dump.has_value());
    EXPECT_EQ(flight_dump->metadata.at("trigger"), "deadlock");
    std::ifstream in(timeline);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const auto doc = obs::json::parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->str_or("trigger", ""), "deadlock");
    std::remove(flight.c_str());
    std::remove(timeline.c_str());
  }
}

TEST(TimelineIntegration, EnvVarsArmTimelineAndEndpointAtConstruction) {
  EnvVarGuard flight_guard("SCRIPT_FLIGHT");    // restores CI's values
  EnvVarGuard tl_guard("SCRIPT_TIMELINE");      // when the test ends
  EnvVarGuard sock_guard("SCRIPT_DEBUG_SOCK");
  const std::string flight_base = ::testing::TempDir() + "env_flight";
  const std::string base = ::testing::TempDir() + "env_tl";
  const std::string sock = ::testing::TempDir() + "env_dbg.sock";
  ASSERT_EQ(setenv("SCRIPT_FLIGHT", flight_base.c_str(), 1), 0);
  ASSERT_EQ(setenv("SCRIPT_TIMELINE", base.c_str(), 1), 0);
  ASSERT_EQ(setenv("SCRIPT_DEBUG_SOCK", sock.c_str(), 1), 0);
  {
    Scheduler sched;
    EXPECT_TRUE(sched.flight_recorder_armed());
    EXPECT_TRUE(sched.timeline_armed());
    EXPECT_TRUE(sched.debug_endpoint_armed());
    // Auto-dump paths are per-process and per-scheduler, so parallel
    // test shards never collide.
    const std::string pid_tag = "-" + std::to_string(getpid()) + "-";
    EXPECT_EQ(sched.flight_recorder()->options().dump_path.rfind(
                  flight_base + pid_tag, 0),
              0u);
    EXPECT_EQ(sched.timeline()->options().dump_path.rfind(base + pid_tag, 0),
              0u);

    // A second scheduler in the same process gets a suffixed socket.
    Scheduler second;
    EXPECT_TRUE(second.debug_endpoint_armed());
    EXPECT_NE(second.debug_endpoint()->path(), sock);
  }
  std::remove(sock.c_str());
  std::remove((sock + ".1").c_str());
}

// ---- Live endpoint end-to-end ----

/// Read one "ok <n>\n<payload>" / "err <reason>\n" frame from `fd`
/// (blocking; the server has already flushed by the time we read).
struct Frame {
  bool ok = false;
  std::string payload;  // body for ok, reason line for err
};

class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  Frame next() {
    Frame frame;
    const std::string header = read_line();
    if (header.rfind("ok ", 0) == 0) {
      frame.ok = true;
      const std::size_t n =
          static_cast<std::size_t>(std::strtoul(header.c_str() + 3, nullptr,
                                                10));
      while (buf_.size() < n && fill()) {
      }
      frame.payload = buf_.substr(0, n);
      buf_.erase(0, n);
    } else {
      frame.payload = header;
    }
    return frame;
  }

 private:
  std::string read_line() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos)
      if (!fill()) return buf_;
    const std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
};

TEST(TimelineIntegration, DebugEndpointServesPipelinedRequestsAtSafepoints) {
  EnvVarGuard tl_guard("SCRIPT_TIMELINE");
  EnvVarGuard sock_guard("SCRIPT_DEBUG_SOCK");
  const std::string sock = ::testing::TempDir() + "dbg_e2e.sock";
  Scheduler sched;
  sched.enable_health();
  ASSERT_TRUE(sched.arm_debug_endpoint(sock));
  ASSERT_TRUE(sched.timeline_armed());  // arming the endpoint arms it

  // Client connects and pipelines commands; the scheduler must accept,
  // read, serve, and flush purely at its own safepoints — no helper
  // thread anywhere. "ping" rides along with the workload run; the
  // data-dependent queries go out after it (so the timeline has
  // something to show) and a second, trivial run services them.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << strerror(errno);
  const std::string ping = "ping\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));

  run_pay_workload(sched);

  const std::string requests =
      "timeline\nevents 4\nmetrics\nhealth\ninspect\nbogus\n";
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), 0),
            static_cast<ssize_t>(requests.size()));
  sched.spawn("nudge", [] {});
  EXPECT_TRUE(sched.run().ok());

  FrameReader reader(fd);
  const Frame pong = reader.next();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.payload, "pong\n");

  const Frame timeline = reader.next();
  ASSERT_TRUE(timeline.ok);
  const auto dump = obs::json::parse(timeline.payload);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->get("lanes")->str_or("0", ""), "pay");

  const Frame events = reader.next();
  ASSERT_TRUE(events.ok);
  const auto doc = obs::json::parse(events.payload);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("events")->array.size(), 4u);

  const Frame metrics = reader.next();
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.payload.find("# TYPE scheduler_virtual_time gauge"),
            std::string::npos);
  EXPECT_NE(metrics.payload.find("timeline_recorded_events"),
            std::string::npos);

  const Frame health = reader.next();
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.payload, "healthy\n");

  const Frame inspect = reader.next();
  ASSERT_TRUE(inspect.ok);
  const auto snap = obs::json::parse(inspect.payload);
  ASSERT_TRUE(snap.has_value());
  EXPECT_NE(snap->get("sections")->get("scheduler"), nullptr);

  const Frame bogus = reader.next();
  EXPECT_FALSE(bogus.ok);
  EXPECT_NE(bogus.payload.find("unknown command"), std::string::npos);

  ::close(fd);
  std::remove(sock.c_str());
}

TEST(TimelineIntegration, TopReportRendersFromALiveSchedulerDump) {
  Scheduler sched;
  sched.arm_timeline();
  run_pay_workload(sched);
  const auto dump = obs::json::parse(sched.timeline()->dump_json());
  ASSERT_TRUE(dump.has_value());
  const auto inspect = obs::json::parse(sched.inspector().snapshot_json());
  ASSERT_TRUE(inspect.has_value());
  const std::string top = obs::render_top_report(*dump, &*inspect);
  EXPECT_NE(top.find("script top — t="), std::string::npos);
  EXPECT_NE(top.find("pay"), std::string::npos);     // per-script row
  EXPECT_NE(top.find("fibers live="), std::string::npos);
}

}  // namespace
