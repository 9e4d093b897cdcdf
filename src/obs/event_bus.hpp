// EventBus — synchronous fan-out of typed observability events.
//
// Design constraints:
//   * Zero overhead when nobody listens: producers guard event
//     construction with `wants(subsystem)`, a single bitmask test.
//   * Deterministic: subscribers run synchronously at the publish site,
//     in subscription order, so traces and logs are reproducible under
//     the FIFO scheduling policy.
//   * Self-describing lanes: script instances (and other non-fiber
//     timelines) register named lanes; exporters map them to trace
//     "threads".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace script::obs {

class EventBus {
 public:
  using Subscriber = std::function<void(const Event&)>;
  using Mask = std::uint32_t;
  using SubId = std::uint64_t;

  static constexpr Mask mask_of(Subsystem s) {
    return Mask{1} << static_cast<unsigned>(s);
  }
  static constexpr Mask kAllSubsystems =
      (Mask{1} << static_cast<unsigned>(Subsystem::kCount)) - 1;

  /// Virtual-time source used to stamp events published with kAutoTime.
  /// The owning Scheduler points this at its clock.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  /// Extra stamp applied to every published event after the time stamp.
  /// The CausalTracker installs one that fills Event::seq/vclock from
  /// the publishing fiber's clock. Unset (the default) costs one branch.
  void set_stamper(std::function<void(Event&)> stamper) {
    stamper_ = std::move(stamper);
  }

  /// Register `fn` for every event whose subsystem is in `mask`.
  /// Subscribers run synchronously, in subscription order, and must not
  /// block. Returns an id for unsubscribe().
  ///
  /// Both calls are reentrancy-safe: a subscriber may subscribe or
  /// unsubscribe (itself or others) from inside publish(). A subscriber
  /// added during a publish first sees the *next* event; one removed
  /// during a publish receives no further events, including the one in
  /// flight if its turn had not yet come.
  SubId subscribe(Mask mask, Subscriber fn);
  void unsubscribe(SubId id);

  /// Cheap producer-side gate: is anything listening to `s`?
  bool wants(Subsystem s) const {
    return (wants_.load(std::memory_order_relaxed) & mask_of(s)) != 0;
  }
  bool enabled() const {
    return wants_.load(std::memory_order_relaxed) != 0;
  }

  /// Deliver an event to every matching subscriber. Stamps `time` via
  /// the clock when it is kAutoTime.
  void publish(Event e);

  std::uint64_t published_count() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// Serialize publish/subscribe/lane behind a recursive mutex
  /// (recursive because subscribers may publish). The parallel
  /// scheduler's workers publish concurrently; deterministic mode
  /// leaves this off and the bus stays lock-free as before.
  void set_threaded(bool on) { threaded_ = on; }

  // ---- Lanes (named non-fiber timelines, e.g. script instances) ----

  /// Register a lane; returns its id. Names need not be unique.
  std::int32_t add_lane(std::string name);
  const std::string& lane_name(std::int32_t lane) const;
  std::size_t lane_count() const { return lanes_.size(); }

 private:
  // Subs live behind unique_ptr so publish() can hold a stable pointer
  // across a reentrant subscribe() (vector reallocation). Unsubscribing
  // mid-publish tombstones the entry (`dead`); the vector is compacted
  // once the outermost publish returns, so iteration indexes stay valid
  // and the executing std::function is never destroyed under itself.
  struct Sub {
    SubId id;
    Mask mask;
    Subscriber fn;
    bool dead = false;
  };

  void recompute_wants();
  void compact_subs();
  std::unique_lock<std::recursive_mutex> maybe_lock() const {
    return threaded_ ? std::unique_lock<std::recursive_mutex>(mu_)
                     : std::unique_lock<std::recursive_mutex>();
  }

  std::vector<std::unique_ptr<Sub>> subs_;
  /// Atomic (relaxed) so producers on worker threads can gate event
  /// construction without the lock; recomputed under it.
  std::atomic<Mask> wants_{0};
  SubId next_id_ = 1;
  int publish_depth_ = 0;
  bool has_dead_ = false;
  std::atomic<std::uint64_t> published_{0};
  bool threaded_ = false;
  mutable std::recursive_mutex mu_;
  std::function<std::uint64_t()> clock_;
  std::function<void(Event&)> stamper_;
  std::vector<std::string> lanes_;
};

}  // namespace script::obs
