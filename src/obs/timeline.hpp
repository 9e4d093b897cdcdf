// Timeline — always-on, epoch-bucketed time-series history on virtual
// time.
//
// The Inspector answers "what is every role doing right now"; the
// flight recorder answers "what were the last N things that happened".
// The Timeline answers the question between them: *how did the system
// get here* — per-epoch event rates, gauge trajectories, and latency
// quantiles over a bounded window of history, cheap enough to leave
// armed everywhere the flight recorder is.
//
// Mechanics: a bus subscriber buckets every observed event into epochs
// of `epoch_ticks` virtual ticks. Each series keeps a fixed ring of
// `retention` epoch slots (slot = epoch % retention), so ageing is O(1)
// per observation — the RollingHistogram idiom generalized from two
// epochs to a ring. Three series families:
//   * counters — per-epoch event-count deltas ("script.enroll.ok"),
//     kept globally and per script-instance lane ("script.enroll.ok@3")
//     so every rate is attributable to a script, plus per-subsystem
//     totals ("events.csp");
//   * gauges   — last value per epoch from Counter-kind events;
//   * values   — per-epoch histograms of derived latencies (enroll
//     attempt→ok, performance makespan per lane), dumped as
//     p50/p90/p99/max snapshots.
// A small ring of recent events feeds `scriptctl watch`.
//
// Retention eviction (a ring slot overwritten before it was dumped) and
// series-table overflow are counted — in dump metadata and in
// timeline.* metrics — never silent.
//
// Determinism: everything is keyed on virtual time and publish order,
// so the same seeded schedule produces a byte-identical dump_json() —
// replays are diffable, and CI pins this.
//
// The default mask excludes the Scheduler subsystem for the same reason
// the flight recorder's does: per-dispatch lifecycle spans cost ~7% on
// churn workloads, and an always-on recorder must stay under the <3%
// ceiling CI gates on bench_overhead's timeline.overhead_pct.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/auto_dump.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"

namespace script::obs {

namespace json {
struct Value;
}

struct TimelineOptions {
  /// Subsystems recorded. Defaults to everything except the Scheduler's
  /// per-dispatch firehose (see header comment).
  EventBus::Mask mask =
      EventBus::kAllSubsystems & ~EventBus::mask_of(Subsystem::Scheduler);
  /// Epoch length in virtual ticks — the dump's time resolution.
  std::uint64_t epoch_ticks = 1024;
  /// Epoch slots kept per series; older epochs are evicted (counted).
  std::size_t retention = 64;
  /// Recent-event ring capacity for `scriptctl watch` (0 disables).
  std::size_t recent_events = 128;
  /// Distinct series before new keys fold into "<series-overflow>".
  std::size_t max_series = 1024;
  /// Base path for automatic dumps on failure escalations; the n-th
  /// dump lands at "<base>[.n].timeline.json". Empty disables
  /// auto-dumping (triggers are still counted).
  std::string dump_path;
};

class Timeline {
 public:
  explicit Timeline(EventBus& bus, TimelineOptions opts = {});
  ~Timeline();

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Virtual-time source for direct recording and dump stamping (the
  /// owning Scheduler wires its clock).
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }
  /// Resolve lane ids to names at dump time (EventBus::lane_name
  /// wrapped by the owner).
  void set_lane_namer(std::function<std::string(std::int32_t)> namer) {
    lane_namer_ = std::move(namer);
  }
  /// Ensure `lane` appears in dumps even before its first event — a
  /// script instance announces its series identity at lane
  /// registration, so an idle script is visibly idle rather than
  /// absent. Thread-safe: parallel-mode workers call it outside the bus
  /// lock.
  void declare_lane(std::int32_t lane);

  const TimelineOptions& options() const { return opts_; }

  // ---- Direct recording (besides the bus subscription) ----
  // The HealthMonitor writes its SLO good/violation series through
  // these, which is what makes burn rates "windows over the timeline"
  // rather than a private accumulator.

  void bump(const std::string& series, std::uint64_t now,
            std::uint64_t delta = 1);
  void record_gauge(const std::string& series, std::uint64_t now, double v);
  void observe_value(const std::string& series, std::uint64_t now, double v);

  // ---- Queries ----

  /// Lifetime total of a counter series (0 if unknown).
  std::uint64_t counter_total(const std::string& series) const;
  /// Sum of a counter series' per-epoch deltas over every retained
  /// epoch overlapping virtual ticks [from, to].
  std::uint64_t counter_sum(const std::string& series, std::uint64_t from,
                            std::uint64_t to) const;

  std::uint64_t recorded_events() const { return recorded_; }
  /// Ring slots overwritten before their epoch was ever dumped.
  std::uint64_t evicted_epochs() const { return evicted_epochs_; }
  /// Observations folded into "<series-overflow>" (table full).
  std::uint64_t dropped_series_observations() const { return dropped_; }
  /// Events pushed out of the recent-event ring.
  std::uint64_t recent_evicted() const { return recent_evicted_; }
  std::size_t series_count() const {
    return counters_.size() + gauges_.size() + values_.size();
  }

  /// The last `n` recorded events, oldest first, each with its global
  /// record sequence number (monotone — `scriptctl watch` keys on it).
  struct RecentEvent {
    std::uint64_t seq;
    Event event;
  };
  std::vector<RecentEvent> recent(std::size_t n) const;
  /// {"events": [...]} JSON for the debug endpoint's `events` command.
  std::string recent_json(std::size_t n) const;

  // ---- Dumps ----

  /// Deterministic JSON dump of every retained series. `trigger`, when
  /// non-empty, is stamped into the metadata (auto-dump paths).
  std::string dump_json(const std::string& trigger = {}) const;
  bool write(const std::string& path,
             const std::string& trigger = {}) const;

  /// Automatic-dump entry point: writes the next numbered dump file
  /// (at most AutoDump::kMaxDumps) with `why` in the metadata. Fires
  /// itself on the escalations the bus announces; the Scheduler calls
  /// it on deadlock.
  void trigger_dump(const std::string& why);
  std::uint64_t triggers_seen() const { return dumps_.triggers(); }
  std::size_t auto_dumps_written() const { return dumps_.written(); }
  const std::string& last_dump_path() const { return dumps_.last_path(); }

  /// Sync timeline.* counters (recorded/evicted/dropped) into `reg`.
  /// Idempotent, monotone.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  /// One ring of per-epoch slots. Slots carry their epoch number so a
  /// wrap is detected (and counted) at write time, not by zeroing gaps.
  static constexpr std::uint64_t kNoEpoch = static_cast<std::uint64_t>(-1);

  struct CounterSlot {
    std::uint64_t epoch = kNoEpoch;
    std::uint64_t count = 0;
  };
  struct CounterSeries {
    std::vector<CounterSlot> slots;
    std::uint64_t total = 0;
  };
  struct GaugeSlot {
    std::uint64_t epoch = kNoEpoch;
    double last = 0;
  };
  struct GaugeSeries {
    std::vector<GaugeSlot> slots;
  };
  struct ValueSlot {
    std::uint64_t epoch = kNoEpoch;
    Histogram hist;
  };
  struct ValueSeries {
    std::vector<ValueSlot> slots;
    std::uint64_t total = 0;
  };

  void on_event(const Event& e);
  std::uint64_t epoch_of(std::uint64_t t) const {
    return opts_.epoch_ticks == 0 ? 0 : t / opts_.epoch_ticks;
  }
  std::uint64_t stamp(const Event& e) const;
  /// Find-or-create with the overflow guard; nullptr never returned
  /// (overflow observations land in the "<series-overflow>" series).
  CounterSeries& counter_series(const std::string& key);
  template <typename Map, typename Series>
  Series& series_in(Map& map, const std::string& key);

  EventBus* bus_;
  EventBus::SubId sub_;
  TimelineOptions opts_;
  std::function<std::uint64_t()> clock_;
  std::function<std::string(std::int32_t)> lane_namer_;

  std::map<std::string, CounterSeries> counters_;
  std::map<std::string, GaugeSeries> gauges_;
  std::map<std::string, ValueSeries> values_;
  std::vector<std::int32_t> lanes_seen_;  // sorted unique, by on_event
  // Lanes announced by declare_lane(), which runs on whichever worker
  // creates a script's lane and so holds no bus lock; they live apart
  // under their own mutex (on_event's path stays lock-free), and dumps
  // merge the two sets.
  mutable std::mutex declared_mu_;
  std::vector<std::int32_t> lanes_declared_;  // sorted unique

  // Derived-latency bookkeeping, same event grammar the HealthMonitor
  // speaks: enroll.attempt → enroll.ok per (lane, pid), performance
  // SpanBegin → SpanEnd per (lane, number).
  std::map<std::pair<std::int32_t, Pid>, std::uint64_t> enroll_started_;
  std::map<std::pair<std::int32_t, std::uint64_t>, std::uint64_t> perf_open_;

  std::deque<RecentEvent> recent_;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_epochs_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recent_evicted_ = 0;
  AutoDump dumps_{".timeline.json"};
};

/// Human rendering of a parsed timeline dump — behind `scriptctl
/// timeline`. `series_prefix` filters series; `last_epochs` bounds the
/// per-series epoch table.
std::string render_timeline_report(const json::Value& dump,
                                   const std::string& series_prefix = "",
                                   std::size_t last_epochs = 8);

/// The `scriptctl top` dashboard: per-script rates and sparklines,
/// enroll/shed/restart rates, SLO burn — from a timeline dump, joined
/// with an Inspector snapshot when one is available (live mode).
std::string render_top_report(const json::Value& dump,
                              const json::Value* inspect);

/// One "t=... [subsystem] kind name ..." line per event of a
/// {"events": [...]} document (the `events` command / dump "recent"
/// section), events with seq <= `after_seq` skipped. Returns the
/// highest seq seen via *last_seq (unchanged when no events printed).
std::string render_event_lines(const json::Value& events_doc,
                               std::uint64_t after_seq,
                               std::uint64_t* last_seq);

}  // namespace script::obs
