// FlightRecorder — always-on black-box recording of the event stream.
//
// A fixed-size binary ring subscriber to the EventBus: every event is
// encoded into a ~40-byte POD record (strings deduplicated through an
// intern table), one ring per subsystem with individual capacity
// budgets so a chatty subsystem cannot evict another's history. The
// steady-state hot path is two hash lookups and a slot write — no
// allocation — which is what makes it cheap enough to leave armed in
// CI and production runs where full tracing was never enabled.
//
// When something dies, the recorder turns its rings into a post-mortem
// artifact: a Chrome trace-event JSON dump (the same renderer as
// TraceExporter, so Perfetto opens it and trace_read parses it back).
// Dumps fire automatically on the runtime's failure escalations, under
// the policy Timeline shares (obs/auto_dump.hpp), or on demand via
// dump().
//
// Ring-wrap is not silent: overwritten records are tallied per
// subsystem and surface as the `flightrecorder.dropped_events` counter
// in metrics exports and in dump metadata.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/auto_dump.hpp"
#include "obs/event_bus.hpp"

namespace script::obs {

class MetricsRegistry;

struct FlightRecorderOptions {
  /// Subsystems to record. Defaults to everything except the
  /// Scheduler's per-dispatch lifecycle ring: those spans fire on every
  /// context switch and producing them costs ~7% on fiber-churn
  /// workloads, versus <3% for the rest combined — which is the budget
  /// an always-on black box must live inside (CI gates it). Set
  /// `mask = EventBus::kAllSubsystems` to ring dispatch history too.
  EventBus::Mask mask =
      EventBus::kAllSubsystems & ~EventBus::mask_of(Subsystem::Scheduler);
  /// Ring capacity (records) for subsystems without an explicit budget.
  std::size_t default_capacity = 1024;
  /// Per-subsystem capacity overrides (0 disables that subsystem).
  std::map<Subsystem, std::size_t> budgets;
  /// Base path for automatic post-mortem dumps; the n-th dump lands at
  /// "<base>[.n].flight.json". Empty disables auto-dumping (triggers
  /// are still counted).
  std::string dump_path;
  /// Distinct strings the intern table accepts before new names fold
  /// into a single "<interned-overflow>" entry.
  std::size_t intern_capacity = 8192;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(EventBus& bus, FlightRecorderOptions opts = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Resolve fiber ids to names at dump time (Scheduler::name_of
  /// wrapped by the owner). Unset fibers render as "fiber <id>".
  void set_fiber_namer(std::function<std::string(Pid)> namer) {
    fiber_namer_ = std::move(namer);
  }

  const FlightRecorderOptions& options() const { return opts_; }

  std::uint64_t recorded_events() const { return recorded_; }
  /// Records lost to ring-wrap (total / per subsystem).
  std::uint64_t dropped_events() const;
  std::uint64_t dropped_events(Subsystem s) const;
  std::size_t capacity(Subsystem s) const;
  /// Distinct strings that could not be interned (table full).
  std::uint64_t intern_overflow() const { return intern_overflow_; }

  /// Decode the rings back into events, merged across subsystems in
  /// original publish order (causal stamps are not recorded).
  std::vector<Event> events() const;

  /// Render / write the post-mortem artifact. Deterministic: the same
  /// recorded schedule produces byte-identical output.
  std::string dump_json() const;
  bool dump(const std::string& path) const;

  /// Automatic-dump entry point: writes the next numbered dump file
  /// (at most AutoDump::kMaxDumps) with `why` in the metadata. The
  /// runtime calls this on failure escalations; tests may too.
  void trigger_dump(const std::string& why);

  std::uint64_t triggers_seen() const { return dumps_.triggers(); }
  std::size_t auto_dumps_written() const { return dumps_.written(); }
  const std::string& last_dump_path() const { return dumps_.last_path(); }
  const std::string& last_trigger() const { return dumps_.last_trigger(); }

  /// Sync flightrecorder.* counters (recorded/dropped/intern-overflow)
  /// into `reg`. Idempotent, monotone.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  // One encoded event. Strings live in the intern table; the record
  // itself is POD so ring writes never allocate.
  struct Record {
    std::uint64_t seq;    // global publish order across all rings
    std::uint64_t time;   // virtual ticks
    double value;
    Pid pid;
    std::int32_t lane;
    std::uint16_t name_id;
    std::uint16_t detail_id;
    EventKind kind;
    Subsystem subsystem;
  };

  struct Ring {
    std::vector<Record> slots;  // sized once at arm time
    std::size_t next = 0;       // slot for the next write
    std::uint64_t written = 0;  // lifetime writes (>= slots → wrapped)
  };

  void on_event(const Event& e);
  std::uint16_t intern(const std::string& s);
  const std::string& resolve(std::uint16_t id) const;

  EventBus* bus_;
  EventBus::SubId sub_;
  FlightRecorderOptions opts_;
  std::function<std::string(Pid)> fiber_namer_;
  std::array<Ring, static_cast<std::size_t>(Subsystem::kCount)> rings_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint16_t> ids_;
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t intern_overflow_ = 0;
  AutoDump dumps_{".flight.json"};
};

}  // namespace script::obs
