#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "obs/json.hpp"
#include "support/io.hpp"

namespace script::obs {

namespace {

const char* kOverflowSeries = "<series-overflow>";

void insert_lane(std::vector<std::int32_t>& lanes, std::int32_t lane) {
  if (lane == kNoLane) return;
  auto it = std::lower_bound(lanes.begin(), lanes.end(), lane);
  if (it == lanes.end() || *it != lane) lanes.insert(it, lane);
}

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::SpanBegin: return "B";
    case EventKind::SpanEnd: return "E";
    case EventKind::Instant: return "I";
    case EventKind::Counter: return "C";
  }
  return "?";
}

}  // namespace

Timeline::Timeline(EventBus& bus, TimelineOptions opts)
    : bus_(&bus), opts_(std::move(opts)) {
  sub_ = bus_->subscribe(opts_.mask, [this](const Event& e) { on_event(e); });
}

Timeline::~Timeline() { bus_->unsubscribe(sub_); }

std::uint64_t Timeline::stamp(const Event& e) const {
  if (e.time != kAutoTime) return e.time;
  return clock_ ? clock_() : 0;
}

void Timeline::declare_lane(std::int32_t lane) {
  const std::lock_guard<std::mutex> lk(declared_mu_);
  insert_lane(lanes_declared_, lane);
}

template <typename Map, typename Series>
Series& Timeline::series_in(Map& map, const std::string& key) {
  auto it = map.find(key);
  if (it != map.end()) return it->second;
  if (series_count() >= opts_.max_series) {
    ++dropped_;
    Series& s = map[kOverflowSeries];
    if (s.slots.empty()) s.slots.resize(opts_.retention);
    return s;
  }
  Series& s = map[key];
  s.slots.resize(opts_.retention);
  return s;
}

Timeline::CounterSeries& Timeline::counter_series(const std::string& key) {
  return series_in<std::map<std::string, CounterSeries>, CounterSeries>(
      counters_, key);
}

void Timeline::bump(const std::string& series, std::uint64_t now,
                    std::uint64_t delta) {
  CounterSeries& s = counter_series(series);
  s.total += delta;
  if (s.slots.empty()) return;
  const std::uint64_t epoch = epoch_of(now);
  CounterSlot& slot = s.slots[epoch % s.slots.size()];
  if (slot.epoch != epoch) {
    if (slot.epoch != kNoEpoch) ++evicted_epochs_;
    slot.epoch = epoch;
    slot.count = 0;
  }
  slot.count += delta;
}

void Timeline::record_gauge(const std::string& series, std::uint64_t now,
                            double v) {
  GaugeSeries& s = series_in<std::map<std::string, GaugeSeries>, GaugeSeries>(
      gauges_, series);
  if (s.slots.empty()) return;
  const std::uint64_t epoch = epoch_of(now);
  GaugeSlot& slot = s.slots[epoch % s.slots.size()];
  if (slot.epoch != epoch) {
    if (slot.epoch != kNoEpoch) ++evicted_epochs_;
    slot.epoch = epoch;
  }
  slot.last = v;
}

void Timeline::observe_value(const std::string& series, std::uint64_t now,
                             double v) {
  ValueSeries& s = series_in<std::map<std::string, ValueSeries>, ValueSeries>(
      values_, series);
  s.total += 1;
  if (s.slots.empty()) return;
  const std::uint64_t epoch = epoch_of(now);
  ValueSlot& slot = s.slots[epoch % s.slots.size()];
  if (slot.epoch != epoch) {
    if (slot.epoch != kNoEpoch) ++evicted_epochs_;
    slot.epoch = epoch;
    slot.hist = Histogram{};
  }
  slot.hist.observe(v);
}

void Timeline::on_event(const Event& e) {
  ++recorded_;
  const std::uint64_t t = stamp(e);
  insert_lane(lanes_seen_, e.lane);

  // Per-subsystem rate, always.
  bump(std::string("events.") + subsystem_name(e.subsystem), t);

  // Named counter, spans counted once at begin (attach_event_counters'
  // convention — a SpanEnd is the same logical occurrence).
  if (e.kind != EventKind::SpanEnd) {
    std::string key = std::string(subsystem_name(e.subsystem)) + "." + e.name;
    if (e.kind == EventKind::Counter) {
      record_gauge(key, t, e.value);
      if (e.lane != kNoLane)
        record_gauge(key + "@" + std::to_string(e.lane), t, e.value);
    } else {
      bump(key, t);
      if (e.lane != kNoLane)
        bump(key + "@" + std::to_string(e.lane), t);
    }
  }

  // Derived latency series, same event grammar the HealthMonitor reads.
  if (e.subsystem == Subsystem::Script && e.lane != kNoLane) {
    if (e.kind == EventKind::Instant && e.name == "enroll.attempt" &&
        e.pid != kNoPid) {
      enroll_started_[{e.lane, e.pid}] = t;
    } else if (e.kind == EventKind::Instant && e.name == "enroll.ok" &&
               e.pid != kNoPid) {
      auto it = enroll_started_.find({e.lane, e.pid});
      if (it != enroll_started_.end()) {
        observe_value("enroll_latency@" + std::to_string(e.lane), t,
                      static_cast<double>(t - it->second));
        enroll_started_.erase(it);
      }
    } else if (e.name == "performance") {
      const auto key = std::make_pair(
          e.lane, static_cast<std::uint64_t>(e.value));
      if (e.kind == EventKind::SpanBegin) {
        perf_open_[key] = t;
      } else if (e.kind == EventKind::SpanEnd) {
        auto it = perf_open_.find(key);
        if (it != perf_open_.end()) {
          observe_value("makespan@" + std::to_string(e.lane), t,
                        static_cast<double>(t - it->second));
          perf_open_.erase(it);
        }
      }
    }
  }

  if (opts_.recent_events > 0) {
    recent_.push_back({recorded_, e});
    // The ring never needs the causal stamp; drop it to keep the
    // per-event footprint flat.
    recent_.back().event.vclock.clear();
    recent_.back().event.time = t;
    while (recent_.size() > opts_.recent_events) {
      recent_.pop_front();
      ++recent_evicted_;
    }
  }

  if (is_escalation(e)) trigger_dump(e.name);
}

std::uint64_t Timeline::counter_total(const std::string& series) const {
  const auto it = counters_.find(series);
  return it == counters_.end() ? 0 : it->second.total;
}

std::uint64_t Timeline::counter_sum(const std::string& series,
                                    std::uint64_t from,
                                    std::uint64_t to) const {
  const auto it = counters_.find(series);
  if (it == counters_.end() || it->second.slots.empty()) return 0;
  const std::uint64_t lo = epoch_of(from);
  const std::uint64_t hi = epoch_of(to);
  std::uint64_t sum = 0;
  for (const CounterSlot& slot : it->second.slots)
    if (slot.epoch != kNoEpoch && slot.epoch >= lo && slot.epoch <= hi)
      sum += slot.count;
  return sum;
}

std::vector<Timeline::RecentEvent> Timeline::recent(std::size_t n) const {
  const std::size_t take = std::min(n, recent_.size());
  return std::vector<RecentEvent>(recent_.end() - take, recent_.end());
}

std::string Timeline::recent_json(std::size_t n) const {
  json::Writer w;
  w.object().key("events").array();
  for (const RecentEvent& r : recent(n)) {
    const Event& e = r.event;
    w.object();
    w.key("seq").value(r.seq);
    w.key("t").value(e.time);
    w.key("kind").value(kind_name(e.kind));
    w.key("subsystem").value(subsystem_name(e.subsystem));
    w.key("name").value(e.name);
    if (!e.detail.empty()) w.key("detail").value(e.detail);
    if (e.pid != kNoPid) w.key("pid").value(std::uint64_t{e.pid});
    if (e.lane != kNoLane) {
      w.key("lane").value(std::int64_t{e.lane});
      if (lane_namer_) w.key("lane_name").value(lane_namer_(e.lane));
    }
    if (e.kind == EventKind::Counter || e.value != 0)
      w.key("value").value(e.value);
    w.end();
  }
  w.end().end();
  return w.str();
}

std::string Timeline::dump_json(const std::string& trigger) const {
  json::Writer w;
  w.object();
  w.key("schema_version").value(1);
  w.key("virtual_time").value(clock_ ? clock_() : 0);
  w.key("epoch_ticks").value(opts_.epoch_ticks);
  w.key("retention").value(std::uint64_t{opts_.retention});
  if (!trigger.empty()) w.key("trigger").value(trigger);
  w.key("recorded_events").value(recorded_);
  w.key("evicted_epochs").value(evicted_epochs_);
  w.key("dropped_series_observations").value(dropped_);
  w.key("recent_evicted").value(recent_evicted_);

  std::vector<std::int32_t> lanes;
  {
    const std::lock_guard<std::mutex> lk(declared_mu_);
    std::set_union(lanes_seen_.begin(), lanes_seen_.end(),
                   lanes_declared_.begin(), lanes_declared_.end(),
                   std::back_inserter(lanes));
  }
  w.key("lanes").object();
  for (const std::int32_t lane : lanes) {
    w.key(std::to_string(lane));
    w.value(lane_namer_ ? lane_namer_(lane) : std::string());
  }
  w.end();

  // Each series dumps its retained epochs sorted by epoch number; the
  // ring's physical layout never shows through, so two replays of the
  // same schedule produce identical bytes regardless of wrap phase.
  const auto sorted_slots = [](const auto& slots) {
    std::vector<const typename std::decay_t<decltype(slots)>::value_type*> v;
    for (const auto& s : slots)
      if (s.epoch != kNoEpoch) v.push_back(&s);
    std::sort(v.begin(), v.end(),
              [](const auto* a, const auto* b) { return a->epoch < b->epoch; });
    return v;
  };

  w.key("counters").object();
  for (const auto& [name, series] : counters_) {
    w.key(name).object();
    w.key("total").value(series.total);
    w.key("epochs").array();
    for (const CounterSlot* s : sorted_slots(series.slots))
      w.array().value(s->epoch).value(s->count).end();
    w.end().end();
  }
  w.end();

  w.key("gauges").object();
  for (const auto& [name, series] : gauges_) {
    w.key(name).object();
    w.key("epochs").array();
    for (const GaugeSlot* s : sorted_slots(series.slots))
      w.array().value(s->epoch).value(s->last).end();
    w.end().end();
  }
  w.end();

  w.key("values").object();
  for (const auto& [name, series] : values_) {
    w.key(name).object();
    w.key("total").value(series.total);
    w.key("epochs").array();
    for (const ValueSlot* s : sorted_slots(series.slots)) {
      w.object();
      w.key("epoch").value(s->epoch);
      w.key("count").value(s->hist.count());
      w.key("p50").value(s->hist.quantile(0.50));
      w.key("p90").value(s->hist.quantile(0.90));
      w.key("p99").value(s->hist.quantile(0.99));
      w.key("max").value(s->hist.max());
      w.end();
    }
    w.end().end();
  }
  w.end();

  w.key("recent").raw(recent_json(opts_.recent_events));
  w.end();
  return w.str();
}

bool Timeline::write(const std::string& path,
                     const std::string& trigger) const {
  return support::write_file(path, dump_json(trigger));
}

void Timeline::trigger_dump(const std::string& why) {
  dumps_.fire(opts_.dump_path, why, [&](const std::string& path) {
    return write(path, why);
  });
}

void Timeline::export_metrics(MetricsRegistry& reg) const {
  const auto sync = [&reg](const char* name, std::uint64_t v) {
    Counter& c = reg.counter(name);
    if (v > c.value()) c.inc(v - c.value());
  };
  sync("timeline.recorded_events", recorded_);
  sync("timeline.evicted_epochs", evicted_epochs_);
  sync("timeline.dropped_series_observations", dropped_);
  sync("timeline.recent_evicted", recent_evicted_);
  sync("timeline.dump_triggers", dumps_.triggers());
  reg.gauge("timeline.series", static_cast<double>(series_count()));
}

// ---------------------------------------------------------------------
// Renderers (scriptctl)

namespace {

std::string fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

/// Ordered (epoch, value) pairs of a counter/gauge series' "epochs"
/// array in a parsed dump.
std::vector<std::pair<std::uint64_t, double>> epoch_pairs(
    const json::Value& series) {
  std::vector<std::pair<std::uint64_t, double>> out;
  const json::Value* epochs = series.get("epochs");
  if (epochs == nullptr || !epochs->is_array()) return out;
  for (const json::Value& e : epochs->array) {
    if (!e.is_array() || e.array.size() < 2) continue;
    out.emplace_back(static_cast<std::uint64_t>(e.array[0].number),
                     e.array[1].number);
  }
  return out;
}

/// Sum of a counter series over epochs in (cur_epoch - window,
/// cur_epoch]. Missing series count 0.
double window_sum(const json::Value* counters, const std::string& name,
                  std::uint64_t cur_epoch, std::uint64_t window) {
  if (counters == nullptr) return 0;
  const json::Value* series = counters->get(name);
  if (series == nullptr) return 0;
  const std::uint64_t lo =
      cur_epoch >= window ? cur_epoch - window + 1 : 0;
  double sum = 0;
  for (const auto& [epoch, v] : epoch_pairs(*series))
    if (epoch >= lo && epoch <= cur_epoch) sum += v;
  return sum;
}

/// A 16-cell unicode sparkline of the series' most recent epochs,
/// right-aligned at `cur_epoch`; gaps render as the space cell.
std::string sparkline(const json::Value* series, std::uint64_t cur_epoch) {
  static const char* kCells[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  constexpr std::uint64_t kWidth = 16;
  std::map<std::uint64_t, double> by_epoch;
  double peak = 0;
  if (series != nullptr)
    for (const auto& [epoch, v] : epoch_pairs(*series)) {
      by_epoch[epoch] = v;
      peak = std::max(peak, v);
    }
  const std::uint64_t lo = cur_epoch >= kWidth - 1 ? cur_epoch - kWidth + 1 : 0;
  std::string out;
  for (std::uint64_t e = lo; e <= cur_epoch; ++e) {
    const auto it = by_epoch.find(e);
    if (it == by_epoch.end() || it->second <= 0 || peak <= 0) {
      out += kCells[0];
    } else {
      const int level = 1 + static_cast<int>(it->second / peak * 7.0);
      out += kCells[std::min(level, 8)];
    }
  }
  return out;
}

struct LaneInfo {
  std::string id;
  std::string name;
};

std::vector<LaneInfo> dump_lanes(const json::Value& dump) {
  std::vector<LaneInfo> lanes;
  const json::Value* obj = dump.get("lanes");
  if (obj == nullptr || !obj->is_object()) return lanes;
  for (const auto& [id, name] : obj->object)
    lanes.push_back({id, name.string});
  return lanes;
}

}  // namespace

std::string render_timeline_report(const json::Value& dump,
                                   const std::string& series_prefix,
                                   std::size_t last_epochs) {
  std::ostringstream out;
  out << "timeline @ t=" << static_cast<std::uint64_t>(
             dump.num_or("virtual_time", 0))
      << "  epoch=" << static_cast<std::uint64_t>(dump.num_or("epoch_ticks", 0))
      << " ticks  retention="
      << static_cast<std::uint64_t>(dump.num_or("retention", 0)) << " epochs";
  const std::string trigger = dump.str_or("trigger", "");
  if (!trigger.empty()) out << "  trigger=" << trigger;
  out << "\n";
  out << "recorded=" << static_cast<std::uint64_t>(
             dump.num_or("recorded_events", 0))
      << "  evicted_epochs=" << static_cast<std::uint64_t>(
             dump.num_or("evicted_epochs", 0))
      << "  dropped_series_observations=" << static_cast<std::uint64_t>(
             dump.num_or("dropped_series_observations", 0))
      << "\n";

  const auto lanes = dump_lanes(dump);
  if (!lanes.empty()) {
    out << "lanes:";
    for (const LaneInfo& l : lanes) out << " " << l.id << "=" << l.name;
    out << "\n";
  }

  const auto matches = [&series_prefix](const std::string& name) {
    return series_prefix.empty() ||
           name.compare(0, series_prefix.size(), series_prefix) == 0;
  };
  const auto tail = [last_epochs](auto pairs) {
    if (pairs.size() > last_epochs)
      pairs.erase(pairs.begin(), pairs.end() - last_epochs);
    return pairs;
  };

  const json::Value* counters = dump.get("counters");
  if (counters != nullptr && counters->is_object()) {
    out << "\ncounters (per-epoch deltas, last " << last_epochs
        << " epochs):\n";
    for (const auto& [name, series] : counters->object) {
      if (!matches(name)) continue;
      out << "  " << name << "  total="
          << static_cast<std::uint64_t>(series.num_or("total", 0)) << "  [";
      bool first = true;
      for (const auto& [epoch, v] : tail(epoch_pairs(series))) {
        if (!first) out << " ";
        first = false;
        out << epoch << ":" << static_cast<std::uint64_t>(v);
      }
      out << "]\n";
    }
  }

  const json::Value* gauges = dump.get("gauges");
  if (gauges != nullptr && gauges->is_object() && !gauges->object.empty()) {
    out << "\ngauges (last value per epoch):\n";
    for (const auto& [name, series] : gauges->object) {
      if (!matches(name)) continue;
      out << "  " << name << "  [";
      bool first = true;
      for (const auto& [epoch, v] : tail(epoch_pairs(series))) {
        if (!first) out << " ";
        first = false;
        out << epoch << ":" << json::num(v);
      }
      out << "]\n";
    }
  }

  const json::Value* values = dump.get("values");
  if (values != nullptr && values->is_object() && !values->object.empty()) {
    out << "\nvalues (per-epoch quantiles):\n";
    for (const auto& [name, series] : values->object) {
      if (!matches(name)) continue;
      out << "  " << name << "  total="
          << static_cast<std::uint64_t>(series.num_or("total", 0)) << "\n";
      const json::Value* epochs = series.get("epochs");
      if (epochs == nullptr || !epochs->is_array()) continue;
      const std::size_t skip = epochs->array.size() > last_epochs
                                   ? epochs->array.size() - last_epochs
                                   : 0;
      for (std::size_t i = skip; i < epochs->array.size(); ++i) {
        const json::Value& e = epochs->array[i];
        out << "    epoch " << static_cast<std::uint64_t>(e.num_or("epoch", 0))
            << "  n=" << static_cast<std::uint64_t>(e.num_or("count", 0))
            << "  p50=" << json::num(e.num_or("p50", 0))
            << "  p90=" << json::num(e.num_or("p90", 0))
            << "  p99=" << json::num(e.num_or("p99", 0))
            << "  max=" << json::num(e.num_or("max", 0)) << "\n";
      }
    }
  }
  return out.str();
}

std::string render_top_report(const json::Value& dump,
                              const json::Value* inspect) {
  std::ostringstream out;
  const std::uint64_t now =
      static_cast<std::uint64_t>(dump.num_or("virtual_time", 0));
  const std::uint64_t epoch_ticks =
      static_cast<std::uint64_t>(dump.num_or("epoch_ticks", 1));
  const std::uint64_t cur_epoch =
      epoch_ticks == 0 ? 0 : now / epoch_ticks;
  const json::Value* counters = dump.get("counters");

  out << "script top — t=" << now << " (epoch " << cur_epoch << ")";
  if (inspect != nullptr) {
    const json::Value* sections = inspect->get("sections");
    const json::Value* sched =
        sections != nullptr ? sections->get("scheduler") : nullptr;
    // Inspector sections are arrays (several providers can share a
    // name); the scheduler registers exactly one snapshot object.
    if (sched != nullptr && sched->is_array() && !sched->array.empty())
      sched = &sched->array.front();
    if (sched != nullptr && sched->is_object()) {
      out << "  fibers live=" << static_cast<std::uint64_t>(
                 sched->num_or("live", 0))
          << " ready=" << static_cast<std::uint64_t>(
                 sched->num_or("ready", 0))
          << " timers=" << static_cast<std::uint64_t>(
                 sched->num_or("timers", 0));
    }
  }
  out << "\n";
  out << "events="
      << static_cast<std::uint64_t>(dump.num_or("recorded_events", 0))
      << "  evicted_epochs="
      << static_cast<std::uint64_t>(dump.num_or("evicted_epochs", 0)) << "\n";

  // Per-subsystem event rates, busiest first.
  std::vector<std::pair<double, std::string>> rates;
  if (counters != nullptr && counters->is_object())
    for (const auto& [name, series] : counters->object)
      if (name.compare(0, 7, "events.") == 0)
        rates.emplace_back(window_sum(counters, name, cur_epoch, 4),
                           name.substr(7));
  std::stable_sort(rates.begin(), rates.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  out << "\nsubsystem rates (events per epoch, last 4):\n";
  for (const auto& [sum, name] : rates) {
    const json::Value* series =
        counters != nullptr ? counters->get("events." + name) : nullptr;
    out << "  " << name;
    for (std::size_t pad = name.size(); pad < 10; ++pad) out << " ";
    out << " " << sparkline(series, cur_epoch) << "  " << fixed1(sum / 4.0)
        << "/epoch\n";
  }

  // Per-script rows. A lane is a script instance's series identity.
  out << "\nscripts:\n";
  out << "  lane  name              enroll/ep  shed/ep  restart/ep  "
         "perf p99     slo burn  activity\n";
  const json::Value* values = dump.get("values");
  for (const LaneInfo& lane : dump_lanes(dump)) {
    const std::string at = "@" + lane.id;
    const double enroll =
        window_sum(counters, "script.enroll.ok" + at, cur_epoch, 4) / 4.0;
    const double shed =
        (window_sum(counters, "overload.enroll.shed" + at, cur_epoch, 4) +
         window_sum(counters, "overload.mailbox.shed" + at, cur_epoch, 4)) /
        4.0;
    const double restart =
        window_sum(counters, "recovery.supervisor.restart" + at, cur_epoch, 4) /
        4.0;

    // Latest retained makespan quantile.
    double p99 = -1;
    if (values != nullptr) {
      const json::Value* mk = values->get("makespan" + at);
      const json::Value* epochs = mk != nullptr ? mk->get("epochs") : nullptr;
      if (epochs != nullptr && epochs->is_array() && !epochs->array.empty())
        p99 = epochs->array.back().num_or("p99", 0);
    }

    // Burn = violation share over the last 4 epochs vs the last 16 —
    // the same fast/slow shape the HealthMonitor alerts on.
    const double bad4 =
        window_sum(counters, "health.slo_violation" + at, cur_epoch, 4);
    const double ok4 =
        window_sum(counters, "health.slo_ok" + at, cur_epoch, 4);
    const double bad16 =
        window_sum(counters, "health.slo_violation" + at, cur_epoch, 16);
    const double ok16 =
        window_sum(counters, "health.slo_ok" + at, cur_epoch, 16);
    std::string burn = "-";
    if (bad4 + ok4 > 0 || bad16 + ok16 > 0) {
      const double fast = bad4 + ok4 > 0 ? bad4 / (bad4 + ok4) : 0;
      const double slow = bad16 + ok16 > 0 ? bad16 / (bad16 + ok16) : 0;
      burn = fixed1(fast * 100) + "%/" + fixed1(slow * 100) + "%";
    }

    const json::Value* perf_series =
        counters != nullptr ? counters->get("script.performance" + at)
                            : nullptr;

    const std::string p99_cell = p99 < 0 ? "-" : json::num(p99) + "t";
    const std::string name_cell = lane.name.substr(0, 17);
    char row[256];
    std::snprintf(row, sizeof row,
                  "  %-5s %-17s %9.1f %8.1f %11.1f  %-11s %9s  ",
                  lane.id.c_str(), name_cell.c_str(), enroll,
                  shed, restart, p99_cell.c_str(), burn.c_str());
    out << row << sparkline(perf_series, cur_epoch) << "\n";
  }
  return out.str();
}

std::string render_event_lines(const json::Value& events_doc,
                               std::uint64_t after_seq,
                               std::uint64_t* last_seq) {
  std::ostringstream out;
  const json::Value* events = events_doc.get("events");
  if (events == nullptr || !events->is_array()) return out.str();
  for (const json::Value& e : events->array) {
    const std::uint64_t seq = static_cast<std::uint64_t>(e.num_or("seq", 0));
    if (seq <= after_seq) continue;
    if (last_seq != nullptr) *last_seq = std::max(*last_seq, seq);
    out << "t=" << static_cast<std::uint64_t>(e.num_or("t", 0)) << " ["
        << e.str_or("subsystem", "?") << "] " << e.str_or("kind", "?") << " "
        << e.str_or("name", "");
    const std::string detail = e.str_or("detail", "");
    if (!detail.empty()) out << " (" << detail << ")";
    const std::string lane_name = e.str_or("lane_name", "");
    if (!lane_name.empty())
      out << " lane=" << lane_name;
    else if (e.get("lane") != nullptr)
      out << " lane=" << static_cast<std::int64_t>(e.num_or("lane", 0));
    if (e.get("pid") != nullptr)
      out << " pid=" << static_cast<std::uint64_t>(e.num_or("pid", 0));
    if (e.get("value") != nullptr) out << " v=" << json::num(e.num_or("value", 0));
    out << "\n";
  }
  return out.str();
}

}  // namespace script::obs
