#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "support/io.hpp"

namespace script::obs {

namespace {

constexpr std::uint16_t kOverflowId = 0xFFFF;

const std::string& overflow_string() {
  static const std::string s = "<interned-overflow>";
  return s;
}

}  // namespace

FlightRecorder::FlightRecorder(EventBus& bus, FlightRecorderOptions opts)
    : bus_(&bus), opts_(std::move(opts)) {
  EventBus::Mask mask = 0;
  for (std::size_t s = 0; s < rings_.size(); ++s) {
    const auto sub = static_cast<Subsystem>(s);
    if ((opts_.mask & EventBus::mask_of(sub)) == 0) continue;
    std::size_t cap = opts_.default_capacity;
    const auto it = opts_.budgets.find(sub);
    if (it != opts_.budgets.end()) cap = it->second;
    if (cap == 0) continue;  // budgeted out: keep wants() dark for it
    rings_[s].slots.resize(cap);
    mask |= EventBus::mask_of(sub);
  }
  opts_.mask = mask;
  ids_.reserve(256);
  sub_ = mask != 0
             ? bus_->subscribe(mask, [this](const Event& e) { on_event(e); })
             : 0;
}

FlightRecorder::~FlightRecorder() {
  if (sub_ != 0) bus_->unsubscribe(sub_);
}

std::uint16_t FlightRecorder::intern(const std::string& s) {
  const auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  if (strings_.size() >= opts_.intern_capacity ||
      strings_.size() >= kOverflowId) {
    ++intern_overflow_;
    return kOverflowId;
  }
  const auto id = static_cast<std::uint16_t>(strings_.size());
  strings_.push_back(s);
  ids_.emplace(s, id);
  return id;
}

const std::string& FlightRecorder::resolve(std::uint16_t id) const {
  if (id == kOverflowId) return overflow_string();
  return strings_[id];
}

void FlightRecorder::on_event(const Event& e) {
  Ring& ring = rings_[static_cast<std::size_t>(e.subsystem)];
  if (ring.slots.empty()) return;  // masked by budget
  Record& r = ring.slots[ring.next];
  r.seq = seq_++;
  r.time = e.time;
  r.value = e.value;
  r.pid = e.pid;
  r.lane = e.lane;
  r.name_id = intern(e.name);
  r.detail_id = intern(e.detail);
  r.kind = e.kind;
  r.subsystem = e.subsystem;
  ring.next = (ring.next + 1) % ring.slots.size();
  ++ring.written;
  ++recorded_;
  if (is_escalation(e)) trigger_dump(e.name);
}

std::uint64_t FlightRecorder::dropped_events(Subsystem s) const {
  const Ring& ring = rings_[static_cast<std::size_t>(s)];
  return ring.written > ring.slots.size()
             ? ring.written - ring.slots.size()
             : 0;
}

std::uint64_t FlightRecorder::dropped_events() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < rings_.size(); ++s)
    total += dropped_events(static_cast<Subsystem>(s));
  return total;
}

std::size_t FlightRecorder::capacity(Subsystem s) const {
  return rings_[static_cast<std::size_t>(s)].slots.size();
}

std::vector<Event> FlightRecorder::events() const {
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded_, 1u << 20)));
  for (const Ring& ring : rings_) {
    const std::size_t cap = ring.slots.size();
    if (cap == 0 || ring.written == 0) continue;
    const std::size_t live =
        ring.written < cap ? static_cast<std::size_t>(ring.written) : cap;
    // Oldest-first: an unwrapped ring starts at 0, a wrapped one at
    // `next` (the slot about to be overwritten).
    const std::size_t start = ring.written < cap ? 0 : ring.next;
    for (std::size_t i = 0; i < live; ++i)
      records.push_back(ring.slots[(start + i) % cap]);
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });

  std::vector<Event> out;
  out.reserve(records.size());
  for (const Record& r : records) {
    Event e;
    e.kind = r.kind;
    e.subsystem = r.subsystem;
    e.time = r.time;
    e.pid = r.pid;
    e.lane = r.lane;
    e.name = resolve(r.name_id);
    e.detail = resolve(r.detail_id);
    e.value = r.value;
    out.push_back(std::move(e));
  }
  return out;
}

std::string FlightRecorder::dump_json() const {
  const std::vector<Event> evs = events();

  std::map<Pid, std::string> fiber_names;
  for (const Event& e : evs)
    if (e.pid != kNoPid && fiber_names.find(e.pid) == fiber_names.end())
      fiber_names[e.pid] = fiber_namer_ ? fiber_namer_(e.pid)
                                        : "fiber " + std::to_string(e.pid);
  std::vector<std::string> lane_names;
  for (std::size_t lane = 0; lane < bus_->lane_count(); ++lane)
    lane_names.push_back(bus_->lane_name(static_cast<std::int32_t>(lane)));

  std::vector<std::pair<std::string, std::string>> metadata;
  const auto add_str = [&metadata](const char* key, const std::string& v) {
    std::string rendered;
    json::append_escaped(rendered, v);
    metadata.emplace_back(key, std::move(rendered));
  };
  add_str("recorder", "flight");
  add_str("trigger", last_trigger().empty() ? "manual" : last_trigger());
  metadata.emplace_back("recorded_events", std::to_string(recorded_));
  metadata.emplace_back("dropped_events", std::to_string(dropped_events()));
  metadata.emplace_back("intern_overflow", std::to_string(intern_overflow_));

  return render_chrome_trace(evs, fiber_names, lane_names, metadata);
}

bool FlightRecorder::dump(const std::string& path) const {
  return support::write_file(path, dump_json());
}

void FlightRecorder::trigger_dump(const std::string& why) {
  dumps_.fire(opts_.dump_path, why,
              [this](const std::string& path) { return dump(path); });
}

void FlightRecorder::export_metrics(MetricsRegistry& reg) const {
  const auto sync = [&reg](const char* name, std::uint64_t v) {
    Counter& c = reg.counter(name);
    if (v > c.value()) c.inc(v - c.value());
  };
  sync("flightrecorder.recorded_events", recorded_);
  sync("flightrecorder.dropped_events", dropped_events());
  sync("flightrecorder.intern_overflow", intern_overflow_);
  sync("flightrecorder.dump_triggers", dumps_.triggers());
}

}  // namespace script::obs
