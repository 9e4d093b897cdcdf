// Shared scaffolding for the figure/claim benches.
//
// These benches measure *shape*, not host speed: latency is virtual
// time charged by the Net's latency model, so results are exactly
// reproducible. Wall-clock abstraction overhead is measured separately
// in bench_c5_ablation with google-benchmark.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "csp/net.hpp"
#include "obs/metrics.hpp"
#include "runtime/scheduler.hpp"
#include "support/stats.hpp"

namespace bench {

using script::csp::Net;
using script::runtime::ProcessId;
using script::runtime::Scheduler;
using script::support::Summary;
using script::support::Table;

inline void banner(const std::string& id, const std::string& what) {
  std::printf("\n================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("================================================\n");
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

/// Wall-clock microseconds `fn` takes.
inline double wall_us(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Asserts the run ended cleanly; prints blocked fibers otherwise.
inline void expect_clean(const script::runtime::RunResult& result,
                         const Scheduler& sched) {
  if (result.ok()) return;
  std::printf("UNEXPECTED DEADLOCK — blocked fibers:\n");
  for (const auto& [pid, reason] : result.blocked)
    std::printf("  %s: %s\n", sched.name_of(pid).c_str(), reason.c_str());
  std::abort();
}

/// Machine-readable bench telemetry: the headline numbers a bench
/// prints as tables also land in an obs::MetricsRegistry and are
/// written to BENCH_<name>.json when the Telemetry object dies.
///
/// Output directory, in priority order: $SCRIPT_BENCH_OUT, the
/// build-time SCRIPT_BENCH_OUT_DIR (CMake points it at the repo root),
/// else the working directory.
class Telemetry {
 public:
  explicit Telemetry(std::string name) : name_(std::move(name)) {}
  ~Telemetry() { write(); }

  const std::string& name() const { return name_; }
  script::obs::MetricsRegistry& metrics() { return reg_; }
  void gauge(const std::string& key, double v) { reg_.gauge(key, v); }

  /// Record a Summary as <prefix>.count/mean/min/max gauges plus a
  /// log-scale histogram of its samples under <prefix>.
  void summary(const std::string& prefix, const Summary& s) {
    reg_.gauge(prefix + ".count", static_cast<double>(s.count()));
    if (s.count() == 0) return;
    reg_.gauge(prefix + ".mean", s.mean());
    reg_.gauge(prefix + ".min", s.min());
    reg_.gauge(prefix + ".max", s.max());
    reg_.gauge(prefix + ".total", s.total());
  }

  std::string path() const {
    std::string dir;
    if (const char* env = std::getenv("SCRIPT_BENCH_OUT"))
      dir = env;
#ifdef SCRIPT_BENCH_OUT_DIR
    if (dir.empty()) dir = SCRIPT_BENCH_OUT_DIR;
#endif
    if (dir.empty()) dir = ".";
    return dir + "/BENCH_" + name_ + ".json";
  }

  void write() const {
    const std::string p = path();
    if (reg_.write_json(p))
      std::printf("telemetry: wrote %s\n", p.c_str());
    else
      std::printf("telemetry: FAILED to write %s\n", p.c_str());
  }

 private:
  std::string name_;
  script::obs::MetricsRegistry reg_;
};

}  // namespace bench
