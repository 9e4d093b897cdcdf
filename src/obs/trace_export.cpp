#include "obs/trace_export.hpp"

#include <cstdio>
#include <map>
#include <set>

#include "support/io.hpp"

namespace script::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Trace-process 1 hosts fiber lanes, 2 hosts bus (instance) lanes.
struct LaneKey {
  int tpid;
  std::uint64_t tid;
  bool operator<(const LaneKey& o) const {
    return tpid != o.tpid ? tpid < o.tpid : tid < o.tid;
  }
};

LaneKey lane_of(const Event& e) {
  if (e.pid != kNoPid) return {1, e.pid};
  if (e.lane != kNoLane) return {2, static_cast<std::uint64_t>(e.lane)};
  return {0, 0};
}

void append_record(std::string& out, const LaneKey& lane, const char* ph,
                   std::uint64_t ts, const std::string& name,
                   const std::string& args_json, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "  {\"name\": ";
  append_escaped(out, name);
  out += ", \"ph\": \"";
  out += ph;
  out += "\", \"ts\": " + std::to_string(ts) +
         ", \"pid\": " + std::to_string(lane.tpid) +
         ", \"tid\": " + std::to_string(lane.tid);
  if (!args_json.empty()) out += ", \"args\": " + args_json;
  out += "}";
}

}  // namespace

TraceExporter::TraceExporter(EventBus& bus, EventBus::Mask mask)
    : bus_(&bus) {
  sub_ = bus_->subscribe(mask,
                         [this](const Event& e) { events_.push_back(e); });
}

TraceExporter::~TraceExporter() { bus_->unsubscribe(sub_); }

std::map<Pid, std::string> TraceExporter::fiber_names() const {
  std::map<Pid, std::string> names;
  for (const Event& e : events_)
    if (e.pid != kNoPid && names.find(e.pid) == names.end())
      names[e.pid] = fiber_namer_ ? fiber_namer_(e.pid)
                                  : "fiber " + std::to_string(e.pid);
  return names;
}

std::vector<std::string> TraceExporter::lane_names() const {
  std::vector<std::string> names;
  for (std::size_t lane = 0; lane < bus_->lane_count(); ++lane)
    names.push_back(bus_->lane_name(static_cast<std::int32_t>(lane)));
  return names;
}

namespace {
void upsert_metadata(
    std::vector<std::pair<std::string, std::string>>& metadata,
    const std::string& key, std::string rendered) {
  for (auto& [k, v] : metadata)
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  metadata.emplace_back(key, std::move(rendered));
}
}  // namespace

void TraceExporter::set_metadata(const std::string& key, double value) {
  std::string num = std::to_string(value);
  // Trim trailing zeros so integer-valued metadata reads cleanly.
  if (num.find('.') != std::string::npos) {
    while (!num.empty() && num.back() == '0') num.pop_back();
    if (!num.empty() && num.back() == '.') num.pop_back();
  }
  upsert_metadata(metadata_, key, std::move(num));
}

void TraceExporter::set_metadata(const std::string& key,
                                 const std::string& value) {
  std::string rendered;
  append_escaped(rendered, value);
  upsert_metadata(metadata_, key, std::move(rendered));
}

std::string render_chrome_trace(
    const std::vector<Event>& events,
    const std::map<Pid, std::string>& fiber_names,
    const std::vector<std::string>& lane_names,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;

  // Metadata: name the trace processes and every lane we will emit on.
  append_record(out, {0, 0}, "M", 0, "process_name",
                "{\"name\": \"global\"}", first);
  append_record(out, {1, 0}, "M", 0, "process_name",
                "{\"name\": \"fibers\"}", first);
  append_record(out, {2, 0}, "M", 0, "process_name",
                "{\"name\": \"script instances\"}", first);
  for (const auto& [pid, name] : fiber_names) {
    std::string args = "{\"name\": ";
    append_escaped(args, name);
    args += "}";
    append_record(out, {1, pid}, "M", 0, "thread_name", args, first);
  }
  for (std::size_t lane = 0; lane < lane_names.size(); ++lane) {
    std::string args = "{\"name\": ";
    append_escaped(args, lane_names[lane]);
    args += "}";
    append_record(out, {2, lane}, "M", 0, "thread_name", args, first);
  }

  // Events. Track span depth and open-span names per lane so the
  // output always balances (see header).
  std::map<LaneKey, std::vector<std::string>> open_spans;
  std::uint64_t last_ts = 0;

  // Reconstruction args shared by every non-flow record: subsystem tag
  // and causal stamp. trace_read reads these back.
  const auto common_args = [](const Event& e) {
    std::string extra = std::string(", \"sub\": \"") +
                        subsystem_name(e.subsystem) + "\"";
    // An event carrying BOTH a fiber and an instance lane renders on the
    // fiber's track; keep the lane in args so trace_read is lossless
    // (script role spans key performances by it).
    if (e.pid != kNoPid && e.lane != kNoLane)
      extra += ", \"lane\": " + std::to_string(e.lane);
    if (!e.vclock.empty()) {
      extra += ", \"seq\": " + std::to_string(e.seq) + ", \"vc\": [";
      for (std::size_t i = 0; i < e.vclock.size(); ++i) {
        if (i != 0) extra += ",";
        extra += std::to_string(e.vclock[i]);
      }
      extra += "]";
    }
    return extra;
  };

  for (const Event& e : events) {
    const LaneKey lane = lane_of(e);
    last_ts = e.time;  // bus publishes in nondecreasing virtual time

    // Causal flow pairs render as Perfetto flow arrows: ph "s" on the
    // sender's lane, ph "f" (binding to the enclosing slice) on the
    // receiver's, joined by the shared id the tracker put in `value`.
    if (e.subsystem == Subsystem::Causal &&
        (e.name == "flow.s" || e.name == "flow.f")) {
      const bool start = e.name == "flow.s";
      if (!first) out += ",\n";
      first = false;
      out += "  {\"name\": ";
      append_escaped(out, e.detail.empty() ? std::string("wake") : e.detail);
      out += std::string(", \"cat\": \"flow\", \"ph\": \"") +
             (start ? "s" : "f") + "\"";
      if (!start) out += ", \"bp\": \"e\"";
      out += ", \"id\": " +
             std::to_string(static_cast<std::uint64_t>(e.value)) +
             ", \"ts\": " + std::to_string(e.time) +
             ", \"pid\": " + std::to_string(lane.tpid) +
             ", \"tid\": " + std::to_string(lane.tid) + "}";
      continue;
    }

    std::string name = e.name;
    if (!e.detail.empty() && e.kind != EventKind::Counter)
      name += " " + e.detail;
    std::string args;
    switch (e.kind) {
      case EventKind::SpanBegin:
        open_spans[lane].push_back(name);
        args = "{\"value\": " + std::to_string(e.value) + common_args(e) +
               "}";
        append_record(out, lane, "B", e.time, name, args, first);
        break;
      case EventKind::SpanEnd: {
        auto& open = open_spans[lane];
        if (open.empty()) continue;  // began before tracing started
        open.pop_back();
        args = "{\"value\": " + std::to_string(e.value) + common_args(e) +
               "}";
        append_record(out, lane, "E", e.time, name, args, first);
        break;
      }
      case EventKind::Instant:
        args = "{\"value\": " + std::to_string(e.value) + common_args(e) +
               "}";
        append_record(out, lane, "i", e.time, name, args, first);
        break;
      case EventKind::Counter:
        args = "{";
        args += "\"" + (e.detail.empty() ? std::string("value") : e.detail) +
                "\": " + std::to_string(e.value) + common_args(e) + "}";
        append_record(out, lane, "C", e.time, e.name, args, first);
        break;
    }
  }

  // Close spans left open (blocked-at-deadlock fibers, live monitors).
  for (auto& [lane, open] : open_spans)
    while (!open.empty()) {
      append_record(out, lane, "E", last_ts, open.back(), "", first);
      open.pop_back();
    }

  out += "\n]";
  if (!metadata.empty()) {
    out += ",\n\"metadata\": {";
    bool mfirst = true;
    for (const auto& [key, value] : metadata) {
      if (!mfirst) out += ", ";
      mfirst = false;
      append_escaped(out, key);
      out += ": " + value;
    }
    out += "}";
  }
  out += "}\n";
  return out;
}

std::string TraceExporter::json() const {
  return render_chrome_trace(events_, fiber_names(), lane_names(), metadata_);
}

bool TraceExporter::write(const std::string& path) const {
  return support::write_file(path, json());
}

}  // namespace script::obs
