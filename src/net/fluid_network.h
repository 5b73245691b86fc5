// Flow-level ("fluid") network model.
//
// Data transfers are flows with a byte size; a flow's instantaneous rate is
//
//     rate = min( up(sender)   / #active-outgoing(sender),
//                 down(receiver) / #active-incoming(receiver) )
//
// i.e., the sender's upload pipe is split equally across its concurrent
// uploads (mirroring TCP sharing across connections plus mainline's global
// upload rate cap), with a one-pass receiver-side cap. Rates are
// recomputed whenever a flow starts or ends at either endpoint.
//
// This sender-bottleneck model matches the regime the paper studies: the
// monitored client uploads at most 20 kB/s with effectively unlimited
// download, and the transient-state analysis (§IV-A.2.a) hinges on the
// initial seed's upload capacity being the binding constraint.
//
// Control messages (have/interested/choke/...) are a few dozen bytes and
// are modeled as pure latency via `send_control`.
//
// Storage: nodes and flows live in index-addressed slabs instead of hash
// maps. NodeIds are never reused (a removed node's slot stays dead);
// FlowIds are generation-checked slot handles, so a stale id held by a
// sender after fault injection aborts its upload can never alias the
// slot's next tenant. Each flow is threaded onto three intrusive lists —
// its sender's outgoing list, its receiver's incoming list, and a global
// list — all in creation order, which is exactly the ascending-id order
// the pre-slab implementation produced by sorting. See
// docs/performance.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.h"
#include "net/types.h"
#include "sim/simulation.h"
#include "sim/types.h"

namespace swarmlab::net {

/// The fluid network. One instance per simulation. The default
/// net::Network backend, registered as "fluid" (see net/backend.h).
class FluidNetwork final : public Network {
 public:
  /// `control_latency` is the one-way delay applied to control messages
  /// and to the first byte of each flow, in seconds.
  explicit FluidNetwork(sim::Simulation& sim, double control_latency = 0.05);

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Registers a host with the given capacities in bytes/second
  /// (kUnlimited allowed). Returns its id.
  NodeId add_node(double up_bytes_per_sec, double down_bytes_per_sec) override;

  /// Removes a host; all its flows are silently aborted (no completion
  /// callbacks fire).
  void remove_node(NodeId node) override;

  /// Changes a node's capacities mid-run (fault injection, throttling).
  /// Every flow touching the node is settled at its old rate, re-rated,
  /// and rescheduled — including flows parked at rate 0, which resume the
  /// moment capacity returns. Zero is allowed (parks all flows); negative
  /// values clamp to zero. Unknown nodes are ignored.
  void set_node_capacity(NodeId node, double up_bytes_per_sec,
                         double down_bytes_per_sec) override;

  [[nodiscard]] bool has_node(NodeId node) const override {
    return node >= 1 && node <= nodes_.size() && nodes_[node - 1].alive;
  }

  /// True while the flow is in transit (neither completed nor
  /// cancelled). Lets a sender detect an upload aborted by fault
  /// injection, which fires no callback. Generation-checked: a stale id
  /// is never confused with the slot's next tenant.
  [[nodiscard]] bool has_flow(FlowId flow) const override {
    return find_flow(flow) != nullptr;
  }

  /// Ids of all in-transit flows, in creation order — a deterministic
  /// enumeration for fault injection's random victim pick. (Until a flow
  /// slot is reused this equals ascending-id order, which is what the
  /// pre-slab implementation returned.)
  [[nodiscard]] std::vector<FlowId> active_flow_ids() const override;

  /// Starts a transfer of `bytes` from `from` to `to`; `on_complete` fires
  /// when the last byte arrives. Returns the flow id (never 0).
  FlowId start_flow(NodeId from, NodeId to, std::uint64_t bytes,
                    std::function<void()> on_complete) override;

  /// Aborts a flow. Returns true when the flow was still active; the
  /// completion callback never fires.
  bool cancel_flow(FlowId flow) override;

  /// Current rate of a flow in bytes/second (0 if unknown/finished).
  [[nodiscard]] double flow_rate(FlowId flow) const override;

  /// Delivers `deliver` to the destination after the control latency
  /// plus `extra_delay` (fault-injected jitter; default none). The
  /// destination is not checked for liveness here; higher layers guard
  /// against delivery to departed peers.
  void send_control(std::function<void()> deliver,
                    double extra_delay = 0.0) override;

  [[nodiscard]] double control_latency() const override {
    return control_latency_;
  }

  /// Number of active flows (for tests/diagnostics).
  [[nodiscard]] std::size_t active_flows() const override {
    return flow_count_;
  }

  /// Upload capacity of a node (for diagnostics).
  [[nodiscard]] double node_up(NodeId node) const override;

 private:
  /// "No slot" sentinel for intrusive links.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct NodeSlot {
    double up = kUnlimited;
    double down = kUnlimited;
    bool alive = false;
    // Intrusive list heads/tails (flow slab indices), creation order.
    std::uint32_t out_head = kNil, out_tail = kNil;
    std::uint32_t in_head = kNil, in_tail = kNil;
    std::uint32_t out_count = 0, in_count = 0;
  };

  struct FlowSlot {
    NodeId from = 0;
    NodeId to = 0;
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // bytes/sec
    sim::SimTime last_update = 0.0;
    sim::EventId completion_event = 0;
    std::function<void()> on_complete;
    std::uint64_t seq = 0;  // creation order; 0 marks a vacant slot
    std::uint32_t gen = 0;  // bumped on retirement; stale ids mismatch
    // Intrusive links (flow slab indices).
    std::uint32_t out_prev = kNil, out_next = kNil;  // sender's outgoing
    std::uint32_t in_prev = kNil, in_next = kNil;    // receiver's incoming
    std::uint32_t all_prev = kNil, all_next = kNil;  // global, creation order
  };

  static constexpr FlowId pack(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<FlowId>(gen) << 32) | (static_cast<FlowId>(slot) + 1);
  }

  /// Slab slot of a live flow id; kNil when the id is stale or malformed.
  [[nodiscard]] std::uint32_t slot_of(FlowId id) const {
    const std::uint64_t biased = id & 0xffffffffu;
    if (biased == 0 || biased > flows_.size()) return kNil;
    const std::uint32_t slot = static_cast<std::uint32_t>(biased - 1);
    const FlowSlot& f = flows_[slot];
    if (f.seq == 0 || f.gen != static_cast<std::uint32_t>(id >> 32)) {
      return kNil;
    }
    return slot;
  }

  [[nodiscard]] const FlowSlot* find_flow(FlowId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot == kNil ? nullptr : &flows_[slot];
  }

  [[nodiscard]] NodeSlot* find_node(NodeId id) {
    return has_node(id) ? &nodes_[id - 1] : nullptr;
  }
  [[nodiscard]] const NodeSlot* find_node(NodeId id) const {
    return has_node(id) ? &nodes_[id - 1] : nullptr;
  }

  /// Threads a fresh flow onto its three lists (tail = creation order).
  void link(std::uint32_t slot);

  /// Unlinks a flow from its lists, bumps its generation (invalidating
  /// outstanding ids) and recycles the slot.
  void detach(std::uint32_t slot);

  /// Applies progress accrued since `last_update` at the current rate.
  void settle(FlowSlot& flow);

  /// Recomputes rates and completion events for every flow touching
  /// `from`'s outgoing set and `to`'s incoming set, in creation order
  /// (two-pointer merge of the per-node lists by `seq`).
  void reallocate(NodeId from, NodeId to);

  /// Recomputes one flow's rate from the current share counts.
  [[nodiscard]] double compute_rate(const FlowSlot& flow) const;

  /// Moves (or schedules, or cancels at rate 0) the completion event of
  /// a settled flow.
  void reschedule(FlowId id, FlowSlot& flow);

  /// Fast-channel handler for completion events; payload {FlowId, 0}.
  static void complete_trampoline(void* ctx, const sim::FastPayload& p);
  void complete_flow(FlowId id);

  sim::Simulation& sim_;
  double control_latency_;
  std::uint16_t ch_complete_ = 0;  // fast channel: flow completions
  std::vector<NodeSlot> nodes_;  // index = NodeId - 1; ids never reused
  std::vector<FlowSlot> flows_;  // slab; index = low id half - 1
  std::vector<std::uint32_t> free_flows_;  // retired slots awaiting reuse
  std::uint32_t all_head_ = kNil, all_tail_ = kNil;
  std::size_t flow_count_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace swarmlab::net
