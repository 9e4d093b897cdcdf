// The three benchmark workloads. Each runs as a sequence of episodes:
// an episode builds its scheduler (workers = 0), Net / script instance
// / cluster and fibers — the timed set-up — then runs a fixed,
// seed-derived amount of closed-loop work to completion — the timed
// region. Every episode of a pass replays the same inputs, so its
// determinism fingerprint must repeat exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class Workload { RendezvousAnon, CastStar, LockdbWire };

inline constexpr Workload kAllWorkloads[] = {
    Workload::RendezvousAnon, Workload::CastStar, Workload::LockdbWire};
/// The workloads a run can be asked for. cast_star runs only as a side
/// pass of the traced run (see README.md).
inline constexpr Workload kListedWorkloads[] = {Workload::RendezvousAnon,
                                                Workload::LockdbWire};

const char* workload_name(Workload w);
/// One of kListedWorkloads by name.
std::optional<Workload> parse_workload(const std::string& name);

/// Values that must repeat exactly for a given seed.
struct Fingerprint {
  std::uint64_t final_time = 0;    // virtual ticks at the end of run()
  std::uint64_t rendezvous = 0;    // csp::Net::rendezvous_count()
  std::uint64_t performances = 0;  // ScriptInstance::performances_completed()
  std::uint64_t committed = 0;     // lockdb transactions committed
  std::uint64_t denied = 0;        // lockdb transactions denied a lock
  bool operator==(const Fingerprint&) const = default;
  std::string str() const;
};

/// Public counters of one episode, read after its run; summed over the
/// measured episodes of a pass.
struct Counters {
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;          // RunResult::steps (dispatches)
  std::uint64_t virtual_ticks = 0;  // RunResult::final_time
  std::uint64_t rendezvous = 0;
  std::uint64_t roles = 0;          // role slots filled across performances
  std::uint64_t matcher_runs = 0;
  std::uint64_t matcher_hits = 0;
  std::uint64_t frames = 0;         // TransportStats::frames_sent
  std::uint64_t bytes = 0;          // TransportStats::bytes_sent
  std::uint64_t frames_shed = 0;
  std::uint64_t requests = 0;       // WireReplica::requests_served()
  std::uint64_t committed = 0;
  std::uint64_t denied = 0;
  std::uint64_t events = 0;         // EventBus::published_count()
  std::uint64_t flight_dropped = 0;
  std::uint64_t timeline_evicted = 0;

  void add(const Counters& o);
  /// `field / ops`, 0 when no op was measured.
  double per_op(std::uint64_t field) const;
};

struct PassConfig {
  Workload workload = Workload::RendezvousAnon;
  std::uint64_t seed = 1;
  double seconds = 1.0;           // wall budget of the episode loop
  std::uint64_t min_samples = 0;  // op latencies to measure at least
  bool armed = true;              // lockdb_wire: FlightRecorder + Timeline
  SpanLog* spans = nullptr;       // non-null: record a span per public call
};

/// Share of a run's windows its steady-state figures are pooled over
/// (see steady_state in harness.hpp).
inline constexpr double kSteadyFraction = 0.02;
/// Leading episodes of a pass left out of every figure.
inline constexpr std::size_t kWarmupEpisodes = 2;

struct PassResult {
  OkTally tally;               // every episode, warm-up included
  std::vector<Window> windows; // measured episodes
  Counters counted;            // summed over measured episodes
  Fingerprint fingerprint;     // of the first episode
  std::size_t episodes = 0;
  std::vector<std::string> errors;  // first few correctness findings

  /// Figures of the fastest kSteadyFraction of the windows.
  Steady steady() const { return steady_state(windows, kSteadyFraction); }
  /// Figures of every measured window.
  Steady whole() const { return steady_state(windows, 1.0); }
};

PassResult run_pass(const PassConfig& cfg);

}  // namespace perfbench
