#include "obs/inspector.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"
#include "obs/trace_read.hpp"
#include "support/io.hpp"
#include "support/panic.hpp"

namespace script::obs {

std::size_t Inspector::attach(std::string kind, Provider provider) {
  SCRIPT_ASSERT(provider != nullptr, "Inspector::attach: null provider");
  const std::size_t id = next_id_++;
  sections_.push_back(Section{id, std::move(kind), std::move(provider)});
  return id;
}

void Inspector::detach(std::size_t id) {
  const auto it = std::find_if(
      sections_.begin(), sections_.end(),
      [id](const Section& s) { return s.id == id; });
  SCRIPT_ASSERT(it != sections_.end(), "Inspector::detach: unknown id");
  sections_.erase(it);
}

std::string Inspector::snapshot_json() const {
  json::Writer w;
  w.object();
  w.key("virtual_time").value(clock_ ? clock_() : 0);
  w.key("sections").object();
  // Group same-kind sections into one array, first-attached kind first.
  std::vector<std::string> kinds;
  for (const Section& s : sections_)
    if (std::find(kinds.begin(), kinds.end(), s.kind) == kinds.end())
      kinds.push_back(s.kind);
  for (const std::string& kind : kinds) {
    w.key(kind).array();
    for (const Section& s : sections_)
      if (s.kind == kind) w.raw(s.provider());
    w.end();
  }
  w.end().end();
  return w.str();
}

bool Inspector::write_snapshot(const std::string& path) const {
  return support::write_file(path, snapshot_json() + "\n");
}

namespace {

std::string ticks(double v) { return "t=" + json::num(v); }

void render_scheduler(std::string& out, const json::Value& s) {
  out += "scheduler: " + json::num(s.num_or("live", 0)) + " live, " +
         json::num(s.num_or("ready", 0)) + " ready, " +
         json::num(s.num_or("timers", 0)) + " timer(s), " +
         json::num(s.num_or("steps", 0)) + " step(s)\n";
  const json::Value* fibers = s.get("fibers");
  if (fibers == nullptr || !fibers->is_array()) return;
  for (const json::Value& f : fibers->array) {
    out += "  [" + json::num(f.num_or("pid", -1)) + "] " +
           f.str_or("name", "?") + "  " + f.str_or("state", "?");
    const std::string reason = f.str_or("reason", "");
    if (!reason.empty()) out += " (" + reason + ")";
    if (f.get("waiting_on") != nullptr)
      out += " waiting_on=" + json::num(f.num_or("waiting_on", -1));
    const json::Value* crashed = f.get("crashed");
    if (crashed != nullptr && crashed->boolean) out += " CRASHED";
    const json::Value* cancelled = f.get("cancelled");
    if (cancelled != nullptr && cancelled->boolean) out += " (cancelled)";
    if (f.get("deadline") != nullptr)
      out += " deadline=" + ticks(f.num_or("deadline", 0));
    out += "\n";
  }
}

void render_script(std::string& out, const json::Value& s) {
  out += "script \"" + s.str_or("script", "?") + "\": ";
  const json::Value* perf = s.get("performance");
  if (perf != nullptr && perf->is_object()) {
    out += "performance #" + json::num(perf->num_or("number", 0)) +
           " in flight; ";
  }
  out += json::num(s.num_or("completed", 0)) + " completed, " +
         json::num(s.num_or("aborted", 0)) + " aborted\n";
  if (perf != nullptr && perf->is_object()) {
    const json::Value* roles = perf->get("roles");
    if (roles != nullptr && roles->is_array())
      for (const json::Value& r : roles->array) {
        out += "  role " + r.str_or("role", "?") + " <- [" +
               json::num(r.num_or("pid", -1)) + "] " +
               r.str_or("process", "?");
        const json::Value* done = r.get("done");
        if (done != nullptr && done->boolean) out += " (done)";
        out += "\n";
      }
    const json::Value* takeovers = perf->get("awaiting_takeover");
    if (takeovers != nullptr && takeovers->is_array())
      for (const json::Value& t : takeovers->array)
        out += "  takeover pending: " + t.str_or("role", "?") +
               " (deadline " + ticks(t.num_or("deadline", 0)) + ")\n";
  }
  const json::Value* waiting = s.get("waiting");
  if (waiting != nullptr && waiting->is_array())
    for (const json::Value& q : waiting->array)
      out += "  waiting: " + q.str_or("role", "?") + " (" +
             json::num(q.num_or("queued", 0)) + " queued)\n";
  // Overload state: why `enroll` keeps coming back shed.
  const json::Value* breaker = s.get("breaker");
  if (breaker != nullptr && breaker->is_object()) {
    out += "  admission breaker " + breaker->str_or("state", "?");
    if (breaker->get("open_until") != nullptr)
      out += " (reopens " + ticks(breaker->num_or("open_until", 0)) + ")";
    if (breaker->get("probes_left") != nullptr)
      out += " (" + json::num(breaker->num_or("probes_left", 0)) +
             " probe(s) left)";
    out += ", " + json::num(breaker->num_or("trips", 0)) + " trip(s)\n";
  }
  if (s.get("sheds") != nullptr)
    out += "  shed enrollments: " + json::num(s.num_or("sheds", 0)) + "\n";
}

void render_locks(std::string& out, const json::Value& s, double now) {
  out += "locks: " + json::num(s.num_or("held", 0)) + " item(s) held; " +
         json::num(s.num_or("grants", 0)) + " grant(s), " +
         json::num(s.num_or("denials", 0)) + " denial(s)";
  if (s.get("deadline_expiries") != nullptr)
    out += ", " + json::num(s.num_or("deadline_expiries", 0)) +
           " deadline-expired";
  out += "\n";
  const json::Value* items = s.get("items");
  if (items == nullptr || !items->is_array()) return;
  for (const json::Value& item : items->array) {
    out += "  " + item.str_or("item", "?") + ": " +
           item.str_or("mode", "?") + " by {";
    const json::Value* owners = item.get("owners");
    bool first = true;
    if (owners != nullptr && owners->is_array())
      for (const json::Value& o : owners->array) {
        if (!first) out += ", ";
        first = false;
        // Owner ids are numbers (lockdb) but a named owner renders too.
        const json::Value* id = o.get("owner");
        if (id != nullptr && id->kind == json::Value::Kind::Number)
          out += json::num(id->number);
        else
          out += o.str_or("owner", "?");
        if (o.get("lease_expiry") != nullptr) {
          const double expiry = o.num_or("lease_expiry", 0);
          out += " (lease " + ticks(expiry);
          // Remaining lease against the snapshot's clock — the operator
          // wants "how long until this grant frees up", not an absolute.
          out += expiry > now ? ", " + json::num(expiry - now) + " left"
                              : ", expired";
          out += ")";
        }
      }
    out += "}\n";
  }
}

void render_supervisor(std::string& out, const json::Value& s) {
  out += "supervisor: " + json::num(s.num_or("total_restarts", 0)) +
         " restart(s), " + json::num(s.num_or("gave_up", 0)) +
         " give-up(s)\n";
  const json::Value* children = s.get("children");
  if (children == nullptr || !children->is_array()) return;
  for (const json::Value& c : children->array) {
    out += "  " + c.str_or("name", "?") + " " + c.str_or("state", "?");
    if (c.get("pid") != nullptr)
      out += " [" + json::num(c.num_or("pid", -1)) + "]";
    out += " restarts " + json::num(c.num_or("restarts", 0)) + "/" +
           json::num(c.num_or("max_restarts", 0)) + "\n";
  }
}

}  // namespace

std::string render_inspect_report(const json::Value& snapshot) {
  std::string out =
      "inspector snapshot @ " + ticks(snapshot.num_or("virtual_time", 0)) +
      "\n";
  const json::Value* sections = snapshot.get("sections");
  if (sections == nullptr || !sections->is_object())
    return out + "(no sections)\n";
  for (const auto& [kind, list] : sections->object) {
    if (!list.is_array()) continue;
    for (const json::Value& entry : list.array) {
      out += "\n";
      if (kind == "scheduler") {
        render_scheduler(out, entry);
      } else if (kind == "script") {
        render_script(out, entry);
      } else if (kind == "locks") {
        render_locks(out, entry, snapshot.num_or("virtual_time", 0));
      } else if (kind == "supervisor") {
        render_supervisor(out, entry);
      } else {
        // Unknown section kinds still get a line, so scriptctl stays
        // useful when components grow new describers.
        out += kind + ": (unrecognized section kind)\n";
      }
    }
  }
  return out;
}

std::string render_flight_report(const TraceFile& dump, std::size_t tail) {
  std::string out = "flight dump: " + std::to_string(dump.events.size()) +
                    " event(s)";
  const auto meta = [&dump](const char* key) -> std::string {
    const auto it = dump.metadata.find(key);
    return it == dump.metadata.end() ? std::string() : it->second;
  };
  if (!meta("dropped_events").empty())
    out += ", " + meta("dropped_events") + " dropped (ring wrap)";
  if (!meta("trigger").empty()) out += ", trigger: " + meta("trigger");
  out += "\n";

  if (dump.events.empty()) return out;
  out += "  time range: " + ticks(static_cast<double>(dump.events.front().time)) +
         " .. " + ticks(static_cast<double>(dump.events.back().time)) + "\n";

  std::map<std::string, std::size_t> by_subsystem;
  for (const Event& e : dump.events) ++by_subsystem[subsystem_name(e.subsystem)];
  out += "  by subsystem:";
  for (const auto& [name, count] : by_subsystem)
    out += " " + name + "=" + std::to_string(count);
  out += "\n";

  if (tail == 0) return out;
  const std::size_t n = std::min(tail, dump.events.size());
  out += "  last " + std::to_string(n) + " event(s):\n";
  for (std::size_t i = dump.events.size() - n; i < dump.events.size(); ++i) {
    const Event& e = dump.events[i];
    const char* kind = "?";
    switch (e.kind) {
      case EventKind::SpanBegin: kind = "B"; break;
      case EventKind::SpanEnd: kind = "E"; break;
      case EventKind::Instant: kind = "i"; break;
      case EventKind::Counter: kind = "C"; break;
    }
    out += "    t=" + std::to_string(e.time) + " [" +
           subsystem_name(e.subsystem) + "] " + kind + " " + e.name;
    if (!e.detail.empty()) out += " " + e.detail;
    if (e.pid != kNoPid) out += " pid=" + std::to_string(e.pid);
    out += "\n";
  }
  return out;
}

}  // namespace script::obs
