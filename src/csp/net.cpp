#include "csp/net.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::csp {

using detail::AltGroup;
using detail::Dir;
using detail::PendingOp;

namespace {

// Unparks a posted offer if the posting fiber unwinds while it is still
// linked (a FaultPlan crash killing a blocked communicator). On normal
// wake-ups the matcher has already unlinked the op and this is a no-op.
struct UnlinkGuard {
  Net* net;
  PendingOp* op;
  void (Net::*unlink)(PendingOp*);
  ~UnlinkGuard() {
    if (op->linked) (net->*unlink)(op);
  }
};

}  // namespace

Net::Net(runtime::Scheduler& sched) : sched_(&sched) {
  crash_hook_id_ = sched_->add_crash_hook(
      [this](ProcessId pid) { mark_terminated(pid); });
}

Net::~Net() { sched_->remove_crash_hook(crash_hook_id_); }

ProcessId Net::spawn_process(std::string name, std::function<void()> body) {
  return spawn_process_in_group(runtime::kInheritGroup, std::move(name),
                                std::move(body));
}

ProcessId Net::spawn_process_in_group(runtime::GroupId gid, std::string name,
                                      std::function<void()> body) {
  const auto pid = sched_->spawn_in_group(
      gid, std::move(name), [this, body = std::move(body)] {
        body();
        mark_terminated(sched_->current());
      });
  confine(pid);
  return pid;
}

void Net::confine(ProcessId pid) {
  if (!sched_->parallel_mode()) return;
  const runtime::GroupId gid = sched_->group_of(pid);
  runtime::GroupId bound = kUnboundGroup;
  if (bound_group_.compare_exchange_strong(bound, gid) || bound == gid)
    return;
  SCRIPT_PANIC("csp::Net used from scheduler group " + std::to_string(gid) +
               " (process " + sched_->name_of(pid) + ") but bound to group " +
               std::to_string(bound) +
               ": all communicators of one Net must share a group in "
               "parallel mode (one Net per group)");
}

bool Net::is_terminated(ProcessId pid) const {
  return pid < terminated_.size() && terminated_[pid];
}

void Net::link(PendingOp* op) {
  pending_[op->tag][op->owner].push_back(op);
  op->linked = true;
  ++pending_count_;
}

void Net::unlink(PendingOp* op) {
  const auto bucket = pending_.find(op->tag);
  SCRIPT_ASSERT(bucket != pending_.end(), "unlink: tag bucket missing");
  const auto shelf = bucket->second.find(op->owner);
  SCRIPT_ASSERT(shelf != bucket->second.end(), "unlink: owner shelf missing");
  auto& ops = shelf->second;
  const auto it = std::find(ops.begin(), ops.end(), op);
  SCRIPT_ASSERT(it != ops.end(), "unlink: op not parked");
  ops.erase(it);
  if (ops.empty()) bucket->second.erase(shelf);
  if (bucket->second.empty()) pending_.erase(bucket);
  op->linked = false;
  --pending_count_;
}

void Net::mark_terminated(ProcessId pid) {
  if (pid >= terminated_.size()) terminated_.resize(pid + 1, false);
  if (terminated_[pid]) return;
  terminated_[pid] = true;

  // Fail every parked offer whose partner(s) can no longer arrive.
  // Snapshot first: failing an alt branch unlinks sibling ops.
  std::vector<PendingOp*> snapshot;
  for (const auto& [tag, bucket] : pending_)
    for (const auto& [owner, ops] : bucket)
      snapshot.insert(snapshot.end(), ops.begin(), ops.end());
  for (PendingOp* op : snapshot) {
    if (!op->linked)
      continue;  // already removed (e.g. sibling of a failed alt branch)
    if (op->ghost) {
      // A duplicate TO the dead process can never be taken; one FROM it
      // is already in flight and stays deliverable.
      if (op->peer == pid) {
        unlink(op);
        free_ghost(op);
      }
      continue;
    }
    SCRIPT_ASSERT(op->owner != pid,
                  "process terminated while it still has parked offers");
    bool dead = false;
    if (op->peer != kAnyProcess) {
      dead = op->peer == pid;
    } else if (!op->peer_set.empty()) {
      dead = std::all_of(op->peer_set.begin(), op->peer_set.end(),
                         [&](ProcessId p) { return is_terminated(p); });
    }
    if (dead) fail_op(op);
  }
}

void Net::fail_op(PendingOp* op) {
  if (op->group == nullptr) {
    op->failed = true;
    unlink(op);
    sched_->unblock(op->owner);
  } else {
    AltGroup* g = op->group;
    unlink(op);
    g->ops.erase(std::find(g->ops.begin(), g->ops.end(), op));
    if (g->ops.empty()) {
      g->all_failed = true;
      sched_->unblock(g->owner);
    }
  }
}

void Net::fail_tagged(const std::string& prefix) {
  std::vector<PendingOp*> snapshot;
  for (auto it = pending_.lower_bound(prefix);
       it != pending_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    for (const auto& [owner, ops] : it->second)
      snapshot.insert(snapshot.end(), ops.begin(), ops.end());
  for (PendingOp* op : snapshot) {
    if (!op->linked) continue;  // sibling of a failed alt branch
    if (op->ghost) {
      unlink(op);
      free_ghost(op);
      continue;
    }
    fail_op(op);
  }
}

void Net::rebind_peer(ProcessId old_peer, ProcessId fresh,
                      const std::string& prefix) {
  for (auto it = pending_.lower_bound(prefix);
       it != pending_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    for (const auto& [owner, ops] : it->second) {
      for (PendingOp* op : ops) {
        if (op->ghost) continue;
        if (op->peer == old_peer) op->peer = fresh;
        std::replace(op->peer_set.begin(), op->peer_set.end(), old_peer,
                     fresh);
      }
    }
  }
}

void Net::retire_peer(ProcessId peer, const std::string& prefix) {
  // Snapshot first: fail_op unlinks, which mutates the buckets.
  std::vector<PendingOp*> snapshot;
  for (auto it = pending_.lower_bound(prefix);
       it != pending_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    for (const auto& [owner, ops] : it->second)
      snapshot.insert(snapshot.end(), ops.begin(), ops.end());
  for (PendingOp* op : snapshot) {
    if (!op->linked || op->ghost) continue;
    if (op->owner == peer) continue;
    if (op->peer == peer) {
      fail_op(op);
      continue;
    }
    const auto member =
        std::find(op->peer_set.begin(), op->peer_set.end(), peer);
    if (member == op->peer_set.end()) continue;
    op->peer_set.erase(member);
    if (op->peer_set.empty()) fail_op(op);
  }
}

void Net::add_ghost(ProcessId sender, ProcessId receiver,
                    const std::string& tag, std::type_index type,
                    Message value) {
  auto g = std::make_unique<PendingOp>();
  g->dir = Dir::Send;
  g->owner = sender;
  g->peer = receiver;
  g->tag = tag;
  g->type = type;
  g->value = std::move(value);
  g->ghost = true;
  link(g.get());
  if (sched_->bus().wants(obs::Subsystem::Fault))
    sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                           obs::kAutoTime, sender, obs::kNoLane,
                           "fault.duplicate", tag});
  ghosts_.push_back(std::move(g));
}

void Net::free_ghost(PendingOp* op) {
  const auto it = std::find_if(
      ghosts_.begin(), ghosts_.end(),
      [op](const std::unique_ptr<PendingOp>& g) { return g.get() == op; });
  SCRIPT_ASSERT(it != ghosts_.end(), "free_ghost: not a ghost op");
  ghosts_.erase(it);
}

PendingOp* Net::choose(const std::vector<PendingOp*>& matches) {
  return matches.size() == 1
             ? matches[0]
             : matches[sched_->rng().pick_index(matches.size())];
}

Result<void> Net::send_erased(ProcessId to, const std::string& tag,
                              Message value, std::type_index type,
                              std::uint64_t timeout_ticks) {
  const ProcessId me = sched_->current();
  if (is_terminated(to))
    return support::make_unexpected(CommError::PeerTerminated);

  const auto matches = find_matches(Dir::Send, me, to, {}, tag, type);
  if (!matches.empty()) {
    PendingOp* pick = choose(matches);
    runtime::FaultPlan* plan = sched_->fault_plan();
    if (plan != nullptr && plan->has_message_faults() &&
        plan->should_drop(tag)) {
      // Lost at the transfer instant: the sender believes it delivered
      // (and pays latency); the receiver keeps waiting.
      const std::uint64_t lat = charge_latency(me, pick->owner);
      if (sched_->bus().wants(obs::Subsystem::Fault))
        sched_->bus().publish({obs::EventKind::Instant,
                               obs::Subsystem::Fault, obs::kAutoTime, me,
                               obs::kNoLane, "fault.drop", tag});
      if (lat > 0) sched_->sleep_for(lat);
      return {};
    }
    complete_with(pick, Dir::Send, std::move(value));
    return {};
  }

  PendingOp op;
  op.dir = Dir::Send;
  op.owner = me;
  op.peer = to;
  op.tag = tag;
  op.type = type;
  op.value = std::move(value);
  UnlinkGuard guard{this, &op, &Net::unlink};
  link(&op);
  const std::string reason = "! " + sched_->name_of(to) + " tag=" + tag;
  if (timeout_ticks == kNoTimeout) {
    sched_->block(reason, to);
  } else {
    const bool expired = sched_->block_with_timeout(
        reason, timeout_ticks,
        [this, p = &op] {
          if (p->linked) unlink(p);
        },
        to);
    if (expired) return support::make_unexpected(CommError::TimedOut);
  }
  if (op.failed) return support::make_unexpected(CommError::PeerTerminated);
  return {};
}

Result<std::pair<ProcessId, Message>> Net::recv_erased(
    ProcessId from, std::vector<ProcessId> peer_set, const std::string& tag,
    std::type_index type, std::uint64_t timeout_ticks) {
  const ProcessId me = sched_->current();
  runtime::FaultPlan* plan = sched_->fault_plan();
  const bool faulty = plan != nullptr && plan->has_message_faults();

  // Deliverable parked offers are taken before the terminated checks: an
  // in-flight duplicate from a since-dead sender must still arrive (it
  // already left that sender). Non-ghost offers from terminated owners
  // cannot exist, so this reordering only affects ghosts.
  for (;;) {
    const auto matches =
        find_matches(Dir::Recv, me, from, peer_set, tag, type);
    if (matches.empty()) break;
    PendingOp* pick = choose(matches);
    if (faulty && !pick->ghost && plan->should_drop(tag)) {
      // Complete the parked send so the sender believes it delivered,
      // then lose the payload; keep looking (or park below).
      if (sched_->bus().wants(obs::Subsystem::Fault))
        sched_->bus().publish({obs::EventKind::Instant,
                               obs::Subsystem::Fault, obs::kAutoTime, me,
                               obs::kNoLane, "fault.drop", tag});
      complete_with(pick, Dir::Recv, Message());
      continue;
    }
    const ProcessId sender = pick->owner;
    Message payload = complete_with(pick, Dir::Recv, Message());
    return std::pair<ProcessId, Message>{sender, std::move(payload)};
  }

  if (from != kAnyProcess && is_terminated(from))
    return support::make_unexpected(CommError::PeerTerminated);
  if (from == kAnyProcess && !peer_set.empty() &&
      std::all_of(peer_set.begin(), peer_set.end(),
                  [&](ProcessId p) { return is_terminated(p); }))
    return support::make_unexpected(CommError::PeerTerminated);

  PendingOp op;
  op.dir = Dir::Recv;
  op.owner = me;
  op.peer = from;
  op.peer_set = std::move(peer_set);
  op.tag = tag;
  op.type = type;
  UnlinkGuard guard{this, &op, &Net::unlink};
  link(&op);
  const std::string who =
      from == kAnyProcess ? std::string("any") : sched_->name_of(from);
  const std::string reason = "? " + who + " tag=" + tag;
  const ProcessId hint = from == kAnyProcess ? kNoProcess : from;
  if (timeout_ticks == kNoTimeout) {
    sched_->block(reason, hint);
  } else {
    const bool expired = sched_->block_with_timeout(
        reason, timeout_ticks,
        [this, p = &op] {
          if (p->linked) unlink(p);
        },
        hint);
    if (expired) return support::make_unexpected(CommError::TimedOut);
  }
  if (op.failed) return support::make_unexpected(CommError::PeerTerminated);
  return std::pair<ProcessId, Message>{op.matched_with, std::move(op.value)};
}

bool Net::op_matches(const PendingOp& parked, Dir my_dir, ProcessId me,
                     ProcessId my_peer,
                     const std::vector<ProcessId>& my_peer_set,
                     std::type_index type) const {
  if (parked.dir == my_dir) return false;
  if (parked.type != type) return false;

  // The parked offer must accept me as its partner...
  const bool parked_accepts_me =
      parked.peer == me ||
      (parked.peer == kAnyProcess &&
       (parked.peer_set.empty() ||
        std::find(parked.peer_set.begin(), parked.peer_set.end(), me) !=
            parked.peer_set.end()));
  if (!parked_accepts_me) return false;

  // ...and I must accept the parked owner as mine.
  return my_peer == parked.owner ||
         (my_peer == kAnyProcess &&
          (my_peer_set.empty() ||
           std::find(my_peer_set.begin(), my_peer_set.end(),
                     parked.owner) != my_peer_set.end()));
}

std::vector<PendingOp*> Net::find_matches(
    Dir my_dir, ProcessId me, ProcessId my_peer,
    const std::vector<ProcessId>& my_peer_set, const std::string& tag,
    std::type_index type) {
  confine(me);
  std::vector<PendingOp*> out;
  const auto bucket = pending_.find(tag);
  if (bucket == pending_.end()) return out;
  auto scan_shelf = [&](ProcessId owner) {
    const auto shelf = bucket->second.find(owner);
    if (shelf == bucket->second.end()) return;
    for (PendingOp* op : shelf->second)
      if (op_matches(*op, my_dir, me, my_peer, my_peer_set, type))
        out.push_back(op);
  };
  if (my_peer != kAnyProcess) {
    scan_shelf(my_peer);  // a match can only be owned by my named peer
  } else if (!my_peer_set.empty()) {
    for (const ProcessId p : my_peer_set) scan_shelf(p);
  } else {
    for (const auto& [owner, ops] : bucket->second)
      for (PendingOp* op : ops)
        if (op_matches(*op, my_dir, me, my_peer, my_peer_set, type))
          out.push_back(op);
  }
  return out;
}

Message Net::complete_with(PendingOp* parked, Dir my_dir, Message my_value) {
  const ProcessId me = sched_->current();
  runtime::FaultPlan* plan = sched_->fault_plan();
  const bool faulty = plan != nullptr && plan->has_message_faults();

  if (parked->ghost) {
    // Taking an in-flight duplicate: there is no partner to wake; only
    // the receiver pays the hop latency.
    SCRIPT_ASSERT(my_dir == Dir::Recv, "ghost matched by a send");
    Message result = std::move(parked->value);
    const ProcessId sender = parked->owner;
    const std::string tag = parked->tag;
    unlink(parked);
    free_ghost(parked);
    // The duplicate's payload still carries the (dead) sender's causal
    // past into the receiver.
    sched_->causal_edge(sender, me, "msg");
    const std::uint64_t lat = charge_latency(sender, me);
    if (sched_->bus().wants(obs::Subsystem::Fault))
      sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                             obs::kAutoTime, me, obs::kNoLane,
                             "fault.duplicate.delivered", tag});
    if (lat > 0) sched_->sleep_for(lat);
    return result;
  }

  Message result;
  if (my_dir == Dir::Send) {
    parked->value = std::move(my_value);  // deliver into the parked recv
  } else {
    result = std::move(parked->value);  // take from the parked send
  }
  parked->matched_with = me;
  ++rendezvous_count_;

  if (parked->group != nullptr) {
    parked->group->chosen = parked->branch;
    remove_group_ops(parked->group);
  } else {
    unlink(parked);
  }

  const ProcessId sender = my_dir == Dir::Send ? me : parked->owner;
  const ProcessId receiver = my_dir == Dir::Send ? parked->owner : me;
  std::uint64_t lat = charge_latency(sender, receiver);
  if (faulty) {
    // The op is unlinked but still valid (it lives on the owner's pinned
    // fiber stack), so the payload can be copied for a duplicate.
    if (const std::uint64_t extra = plan->extra_delay(parked->tag);
        extra > 0) {
      lat += extra;
      if (sched_->bus().wants(obs::Subsystem::Fault))
        sched_->bus().publish({obs::EventKind::Instant,
                               obs::Subsystem::Fault, obs::kAutoTime,
                               sender, obs::kNoLane, "fault.delay",
                               parked->tag, static_cast<double>(extra)});
    }
    if (plan->should_duplicate(parked->tag))
      add_ghost(sender, receiver, parked->tag, parked->type,
                my_dir == Dir::Send ? parked->value : result);
  }
  if (sched_->bus().wants(obs::Subsystem::Csp))
    sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Csp,
                           obs::kAutoTime, sender, obs::kNoLane,
                           "rendezvous", parked->tag,
                           static_cast<double>(lat)});
  // Completing a parked SEND hands its payload to me: a data-flow edge
  // the wake below (me -> sender) does not cover.
  if (my_dir == Dir::Recv) sched_->causal_edge(parked->owner, me, "msg");
  const ProcessId woken =
      parked->group != nullptr ? parked->group->owner : parked->owner;
  sched_->wake_at(woken, lat);
  if (lat > 0) sched_->sleep_for(lat);
  return result;
}

void Net::remove_group_ops(AltGroup* group) {
  for (PendingOp* op : group->ops) unlink(op);
}

std::uint64_t Net::charge_latency(ProcessId a, ProcessId b) {
  return latency_ == nullptr ? 0 : latency_->latency(a, b);
}

}  // namespace script::csp
