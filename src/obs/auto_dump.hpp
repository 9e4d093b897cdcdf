// AutoDump — the post-mortem policy FlightRecorder and Timeline share:
// which bus events are failure escalations, and where and how often an
// escalation writes a dump.
//
// Escalations are `performance.abort` and `supervisor.give_up`, which
// the bus announces, plus deadlock, which it cannot: the Scheduler calls
// each recorder's trigger_dump("deadlock") when a run ends blocked. The
// n-th automatic dump of a recorder lands at "<base>[.n]<suffix>"
// (e.g. "crash.flight.json", "crash.1.flight.json"), at most kMaxDumps
// of them, so a crash loop cannot fill the disk. Triggers past the cap,
// or with no base path, are still counted.
#pragma once

#include <cstdint>
#include <string>

#include "obs/event.hpp"

namespace script::obs {

/// A failure escalation announced on the bus. Inline: every recorded
/// event asks.
inline bool is_escalation(const Event& e) {
  return e.kind == EventKind::Instant &&
         ((e.subsystem == Subsystem::Script &&
           e.name == "performance.abort") ||
          (e.subsystem == Subsystem::Recovery &&
           e.name == "supervisor.give_up"));
}

class AutoDump {
 public:
  static constexpr std::size_t kMaxDumps = 4;

  explicit AutoDump(const char* suffix) : suffix_(suffix) {}

  /// Count a trigger named `why` and, while under the cap, hand the next
  /// numbered path under `base` to `write(path)`. A write that returns
  /// false (IO failure) does not use up its number.
  template <typename Write>
  void fire(const std::string& base, const std::string& why, Write&& write) {
    ++triggers_;
    last_trigger_ = why;
    if (base.empty() || written_ >= kMaxDumps) return;
    std::string path = base;
    if (written_ != 0) path += "." + std::to_string(written_);
    path += suffix_;
    if (write(path)) {
      ++written_;
      last_path_ = path;
    }
  }

  std::uint64_t triggers() const { return triggers_; }
  std::size_t written() const { return written_; }
  const std::string& last_path() const { return last_path_; }
  const std::string& last_trigger() const { return last_trigger_; }

 private:
  const char* suffix_;
  std::uint64_t triggers_ = 0;
  std::size_t written_ = 0;
  std::string last_path_;
  std::string last_trigger_;
};

}  // namespace script::obs
