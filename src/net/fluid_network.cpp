#include "net/fluid_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace swarmlab::net {

namespace {
// Completion times are scheduled with a tiny epsilon so that float drift
// in settle() cannot leave a sliver of bytes unfinished.
constexpr double kByteEpsilon = 1e-6;
}  // namespace

FluidNetwork::FluidNetwork(sim::Simulation& sim, double control_latency)
    : sim_(sim),
      control_latency_(control_latency),
      ch_complete_(sim.add_fast_channel(&complete_trampoline, this)) {}

void FluidNetwork::complete_trampoline(void* ctx, const sim::FastPayload& p) {
  static_cast<FluidNetwork*>(ctx)->complete_flow(static_cast<FlowId>(p.a));
}

NodeId FluidNetwork::add_node(double up_bytes_per_sec,
                              double down_bytes_per_sec) {
  assert(up_bytes_per_sec > 0.0 && down_bytes_per_sec > 0.0);
  NodeSlot node;
  node.up = up_bytes_per_sec;
  node.down = down_bytes_per_sec;
  node.alive = true;
  nodes_.push_back(node);
  return static_cast<NodeId>(nodes_.size());
}

void FluidNetwork::remove_node(NodeId node) {
  NodeSlot* n = find_node(node);
  if (n == nullptr) return;
  // Collect first: cancel_flow relinks the lists we iterate. Outgoing
  // then incoming, each in creation order.
  std::vector<FlowId> doomed;
  doomed.reserve(n->out_count + n->in_count);
  for (std::uint32_t s = n->out_head; s != kNil; s = flows_[s].out_next) {
    doomed.push_back(pack(flows_[s].gen, s));
  }
  for (std::uint32_t s = n->in_head; s != kNil; s = flows_[s].in_next) {
    doomed.push_back(pack(flows_[s].gen, s));
  }
  for (const FlowId f : doomed) cancel_flow(f);
  n->alive = false;
}

double FluidNetwork::node_up(NodeId node) const {
  const NodeSlot* n = find_node(node);
  return n == nullptr ? 0.0 : n->up;
}

void FluidNetwork::set_node_capacity(NodeId node, double up_bytes_per_sec,
                                     double down_bytes_per_sec) {
  NodeSlot* n = find_node(node);
  if (n == nullptr) return;
  n->up = std::max(0.0, up_bytes_per_sec);
  n->down = std::max(0.0, down_bytes_per_sec);
  // reallocate(node, node) covers exactly the affected set — the node's
  // outgoing plus incoming flows — settling each at its old rate and
  // rescheduling it at the new one. This is the guaranteed wake-up for
  // flows parked at rate 0 (see reschedule()).
  reallocate(node, node);
}

std::vector<FlowId> FluidNetwork::active_flow_ids() const {
  std::vector<FlowId> ids;
  ids.reserve(flow_count_);
  for (std::uint32_t s = all_head_; s != kNil; s = flows_[s].all_next) {
    ids.push_back(pack(flows_[s].gen, s));
  }
  return ids;
}

void FluidNetwork::link(std::uint32_t slot) {
  FlowSlot& flow = flows_[slot];
  NodeSlot& sender = nodes_[flow.from - 1];
  NodeSlot& receiver = nodes_[flow.to - 1];
  flow.out_prev = sender.out_tail;
  flow.out_next = kNil;
  if (sender.out_tail != kNil) {
    flows_[sender.out_tail].out_next = slot;
  } else {
    sender.out_head = slot;
  }
  sender.out_tail = slot;
  ++sender.out_count;
  flow.in_prev = receiver.in_tail;
  flow.in_next = kNil;
  if (receiver.in_tail != kNil) {
    flows_[receiver.in_tail].in_next = slot;
  } else {
    receiver.in_head = slot;
  }
  receiver.in_tail = slot;
  ++receiver.in_count;
  flow.all_prev = all_tail_;
  flow.all_next = kNil;
  if (all_tail_ != kNil) {
    flows_[all_tail_].all_next = slot;
  } else {
    all_head_ = slot;
  }
  all_tail_ = slot;
  ++flow_count_;
}

void FluidNetwork::detach(std::uint32_t slot) {
  FlowSlot& flow = flows_[slot];
  NodeSlot& sender = nodes_[flow.from - 1];
  NodeSlot& receiver = nodes_[flow.to - 1];
  if (flow.out_prev != kNil) {
    flows_[flow.out_prev].out_next = flow.out_next;
  } else {
    sender.out_head = flow.out_next;
  }
  if (flow.out_next != kNil) {
    flows_[flow.out_next].out_prev = flow.out_prev;
  } else {
    sender.out_tail = flow.out_prev;
  }
  --sender.out_count;
  if (flow.in_prev != kNil) {
    flows_[flow.in_prev].in_next = flow.in_next;
  } else {
    receiver.in_head = flow.in_next;
  }
  if (flow.in_next != kNil) {
    flows_[flow.in_next].in_prev = flow.in_prev;
  } else {
    receiver.in_tail = flow.in_prev;
  }
  --receiver.in_count;
  if (flow.all_prev != kNil) {
    flows_[flow.all_prev].all_next = flow.all_next;
  } else {
    all_head_ = flow.all_next;
  }
  if (flow.all_next != kNil) {
    flows_[flow.all_next].all_prev = flow.all_prev;
  } else {
    all_tail_ = flow.all_prev;
  }
  --flow_count_;
  // Retire: invalidate outstanding ids, drop the callback, recycle.
  ++flow.gen;
  flow.seq = 0;
  flow.on_complete = nullptr;
  free_flows_.push_back(slot);
}

FlowId FluidNetwork::start_flow(NodeId from, NodeId to, std::uint64_t bytes,
                                std::function<void()> on_complete) {
  assert(has_node(from) && has_node(to));
  assert(bytes > 0);
  std::uint32_t slot;
  if (!free_flows_.empty()) {
    slot = free_flows_.back();
    free_flows_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  }
  FlowSlot& flow = flows_[slot];
  flow.from = from;
  flow.to = to;
  flow.remaining = static_cast<double>(bytes);
  flow.rate = 0.0;
  flow.last_update = sim_.now();
  flow.completion_event = 0;
  flow.on_complete = std::move(on_complete);
  flow.seq = next_seq_++;
  link(slot);
  const FlowId id = pack(flow.gen, slot);
  reallocate(from, to);
  return id;
}

bool FluidNetwork::cancel_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNil) return false;
  FlowSlot& flow = flows_[slot];
  const NodeId from = flow.from;
  const NodeId to = flow.to;
  if (flow.completion_event != 0) {
    sim_.cancel(flow.completion_event);
  }
  detach(slot);
  reallocate(from, to);
  return true;
}

double FluidNetwork::flow_rate(FlowId id) const {
  const FlowSlot* flow = find_flow(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

void FluidNetwork::send_control(std::function<void()> deliver,
                                double extra_delay) {
  sim_.schedule_in(control_latency_ + std::max(0.0, extra_delay),
                   std::move(deliver));
}

void FluidNetwork::settle(FlowSlot& flow) {
  const sim::SimTime now = sim_.now();
  if (now > flow.last_update && flow.rate > 0.0) {
    flow.remaining =
        std::max(0.0, flow.remaining - flow.rate * (now - flow.last_update));
  }
  flow.last_update = now;
}

double FluidNetwork::compute_rate(const FlowSlot& flow) const {
  const NodeSlot* sender = find_node(flow.from);
  const NodeSlot* receiver = find_node(flow.to);
  if (sender == nullptr || receiver == nullptr) return 0.0;
  const double up_share =
      sender->up /
      static_cast<double>(std::max<std::uint32_t>(1, sender->out_count));
  const double down_share =
      receiver->down /
      static_cast<double>(std::max<std::uint32_t>(1, receiver->in_count));
  return std::min(up_share, down_share);
}

void FluidNetwork::reschedule(FlowId id, FlowSlot& flow) {
  // A flow at rate <= 0 is parked with no completion event. Every path
  // that changes its share — start_flow/cancel_flow/complete_flow at
  // either endpoint and set_node_capacity — goes through reallocate(),
  // which re-rates and reschedules it, so a parked flow is guaranteed to
  // resume when capacity returns (tests: FluidNetwork.StalledFlow*).
  if (flow.rate <= 0.0) {
    if (flow.completion_event != 0) sim_.cancel(flow.completion_event);
    flow.completion_event = 0;
    return;
  }
  const double secs = std::max(0.0, flow.remaining - kByteEpsilon) / flow.rate;
  if (flow.completion_event != 0 &&
      sim_.reschedule_in(flow.completion_event, secs)) {
    return;
  }
  flow.completion_event = sim_.schedule_fast_in(secs, ch_complete_, {id, 0});
}

void FluidNetwork::reallocate(NodeId from, NodeId to) {
  // Walk the affected flow set — outgoing of `from` merged with incoming
  // of `to` by creation seq (both lists are creation-ordered, and equal
  // seq means the same flow appears in both). This visits flows in the
  // exact ascending order the old sort+unique produced, with no
  // allocation. reschedule() only touches the event queue, never these
  // lists, so live iteration is safe.
  const NodeSlot* f = find_node(from);
  const NodeSlot* t = find_node(to);
  std::uint32_t a = f != nullptr ? f->out_head : kNil;
  std::uint32_t b = t != nullptr ? t->in_head : kNil;
  while (a != kNil || b != kNil) {
    std::uint32_t cur;
    if (b == kNil) {
      cur = a;
      a = flows_[a].out_next;
    } else if (a == kNil) {
      cur = b;
      b = flows_[b].in_next;
    } else if (flows_[a].seq < flows_[b].seq) {
      cur = a;
      a = flows_[a].out_next;
    } else if (flows_[b].seq < flows_[a].seq) {
      cur = b;
      b = flows_[b].in_next;
    } else {  // same flow on both lists (from → to itself)
      cur = a;
      a = flows_[a].out_next;
      b = flows_[b].in_next;
    }
    FlowSlot& flow = flows_[cur];
    settle(flow);
    flow.rate = compute_rate(flow);
    // Always reschedule, even when the rate is unchanged: the event takes
    // a fresh tie-break sequence, and same-fire-time ties are common
    // among sender-bound flows (identical remaining and rate), so
    // skipping the churn here reorders tied completions and breaks replay
    // identity. The event moves in place, at O(log n).
    reschedule(pack(flow.gen, cur), flow);
  }
}

void FluidNetwork::complete_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNil) return;
  FlowSlot& flow = flows_[slot];
  settle(flow);
  flow.completion_event = 0;
  const NodeId from = flow.from;
  const NodeId to = flow.to;
  // Detach before the callback: the callback typically starts a new flow.
  std::function<void()> on_complete = std::move(flow.on_complete);
  detach(slot);
  reallocate(from, to);
  if (on_complete) on_complete();
}

}  // namespace swarmlab::net
