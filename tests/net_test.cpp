// Fluid-network model tests: rates, sharing, caps, cancellation.
#include <gtest/gtest.h>

#include "net/fluid_network.h"
#include "sim/simulation.h"

namespace swarmlab::net {
namespace {

struct Harness {
  Harness() : sim(1), net(sim, /*control_latency=*/0.05) {}
  sim::Simulation sim;
  FluidNetwork net;
};

TEST(FluidNetwork, SingleFlowRunsAtBottleneck) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  double completed_at = -1.0;
  h.net.start_flow(a, b, 1000, [&] { completed_at = h.sim.now(); });
  h.sim.run();
  EXPECT_NEAR(completed_at, 10.0, 0.01);  // 1000 B / 100 B/s
}

TEST(FluidNetwork, ReceiverCapBinds) {
  Harness h;
  const NodeId a = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, 50.0);
  double completed_at = -1.0;
  h.net.start_flow(a, b, 1000, [&] { completed_at = h.sim.now(); });
  h.sim.run();
  EXPECT_NEAR(completed_at, 20.0, 0.01);
}

TEST(FluidNetwork, UploadSplitsEquallyAcrossFlows) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId c = h.net.add_node(kUnlimited, kUnlimited);
  const FlowId f1 = h.net.start_flow(a, b, 1000, [] {});
  const FlowId f2 = h.net.start_flow(a, c, 1000, [] {});
  EXPECT_NEAR(h.net.flow_rate(f1), 50.0, 1e-9);
  EXPECT_NEAR(h.net.flow_rate(f2), 50.0, 1e-9);
}

TEST(FluidNetwork, RateRisesWhenCompetitorFinishes) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId c = h.net.add_node(kUnlimited, kUnlimited);
  double b_done = -1.0, c_done = -1.0;
  h.net.start_flow(a, b, 500, [&] { b_done = h.sim.now(); });
  h.net.start_flow(a, c, 1000, [&] { c_done = h.sim.now(); });
  h.sim.run();
  // Both run at 50 B/s until b finishes at t=10; then c gets 100 B/s for
  // its remaining 500 bytes: 10 + 5 = 15.
  EXPECT_NEAR(b_done, 10.0, 0.01);
  EXPECT_NEAR(c_done, 15.0, 0.01);
}

TEST(FluidNetwork, ReceiverSharesAcrossInbound) {
  Harness h;
  const NodeId a = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId r = h.net.add_node(kUnlimited, 100.0);
  const FlowId f1 = h.net.start_flow(a, r, 1000, [] {});
  const FlowId f2 = h.net.start_flow(b, r, 1000, [] {});
  EXPECT_NEAR(h.net.flow_rate(f1), 50.0, 1e-9);
  EXPECT_NEAR(h.net.flow_rate(f2), 50.0, 1e-9);
}

TEST(FluidNetwork, MinOfSenderShareAndReceiverShare) {
  Harness h;
  const NodeId a = h.net.add_node(80.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, 30.0);
  const NodeId c = h.net.add_node(kUnlimited, kUnlimited);
  const FlowId fab = h.net.start_flow(a, b, 1000, [] {});
  const FlowId fac = h.net.start_flow(a, c, 1000, [] {});
  // a's share per flow = 40; b's cap 30 binds for fab only.
  EXPECT_NEAR(h.net.flow_rate(fab), 30.0, 1e-9);
  EXPECT_NEAR(h.net.flow_rate(fac), 40.0, 1e-9);
}

TEST(FluidNetwork, CancelStopsCompletion) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  bool completed = false;
  const FlowId f = h.net.start_flow(a, b, 1000, [&] { completed = true; });
  h.sim.schedule_in(5.0, [&] { EXPECT_TRUE(h.net.cancel_flow(f)); });
  h.sim.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(h.net.active_flows(), 0u);
}

TEST(FluidNetwork, CancelUnknownFlowReturnsFalse) {
  Harness h;
  EXPECT_FALSE(h.net.cancel_flow(999));
}

TEST(FluidNetwork, CancelFreesCapacityForSiblings) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId c = h.net.add_node(kUnlimited, kUnlimited);
  double done = -1.0;
  const FlowId f1 = h.net.start_flow(a, b, 10000, [] {});
  h.net.start_flow(a, c, 1000, [&] { done = h.sim.now(); });
  h.sim.schedule_in(10.0, [&] { h.net.cancel_flow(f1); });
  h.sim.run();
  // 10 s at 50 B/s (500 B), then 500 B at 100 B/s: t = 15.
  EXPECT_NEAR(done, 15.0, 0.01);
}

TEST(FluidNetwork, RemoveNodeAbortsItsFlowsSilently) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  bool fired = false;
  h.net.start_flow(a, b, 1000, [&] { fired = true; });
  h.net.start_flow(b, a, 1000, [&] { fired = true; });
  h.net.remove_node(a);
  h.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(h.net.active_flows(), 0u);
  EXPECT_FALSE(h.net.has_node(a));
  EXPECT_TRUE(h.net.has_node(b));
}

TEST(FluidNetwork, ControlMessagesArriveAfterLatency) {
  Harness h;
  double delivered_at = -1.0;
  h.net.send_control([&] { delivered_at = h.sim.now(); });
  h.sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.05);
}

TEST(FluidNetwork, CompletionCallbackCanStartNextFlow) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  double second_done = -1.0;
  h.net.start_flow(a, b, 500, [&] {
    h.net.start_flow(a, b, 500, [&] { second_done = h.sim.now(); });
  });
  h.sim.run();
  EXPECT_NEAR(second_done, 10.0, 0.01);
}

TEST(FluidNetwork, ByteConservationUnderChurn) {
  // Many overlapping flows with adds/cancels: every completed flow's
  // bytes must equal its requested size (timing-wise: total completion
  // time >= bytes / capacity).
  Harness h;
  const NodeId src = h.net.add_node(1000.0, kUnlimited);
  std::vector<NodeId> sinks;
  for (int i = 0; i < 10; ++i) {
    sinks.push_back(h.net.add_node(kUnlimited, kUnlimited));
  }
  int completed = 0;
  constexpr int kFlows = 50;
  constexpr std::uint64_t kBytes = 2000;
  for (int i = 0; i < kFlows; ++i) {
    const double start = static_cast<double>(i) * 0.5;
    h.sim.schedule_at(start, [&, i] {
      h.net.start_flow(src, sinks[static_cast<std::size_t>(i) % 10], kBytes,
                       [&] { ++completed; });
    });
  }
  h.sim.run();
  EXPECT_EQ(completed, kFlows);
  // 100 kB total at 1000 B/s cannot finish before t=100.
  EXPECT_GE(h.sim.now(), 100.0 - 0.01);
}

TEST(FluidNetwork, ControlExtraDelayAddsToBaseLatency) {
  Harness h;  // base control latency 0.05
  double delivered_at = -1.0;
  h.net.send_control([&] { delivered_at = h.sim.now(); }, /*extra_delay=*/0.2);
  h.sim.run();
  EXPECT_NEAR(delivered_at, 0.25, 1e-9);
}

TEST(FluidNetwork, StalledFlowParksWhileCapacityIsZero) {
  // Dropping a sender's capacity to zero parks its flows (rate 0, no
  // completion event); the flow must still exist and make no progress.
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  bool done = false;
  const FlowId f = h.net.start_flow(a, b, 1000, [&] { done = true; });
  h.sim.schedule_at(2.0, [&] { h.net.set_node_capacity(a, 0.0, kUnlimited); });
  h.sim.run_until(500.0);
  EXPECT_FALSE(done);
  EXPECT_TRUE(h.net.has_flow(f));
  EXPECT_DOUBLE_EQ(h.net.flow_rate(f), 0.0);
}

TEST(FluidNetwork, StalledFlowResumesWhenCapacityReturns) {
  // The regression this guards: a parked flow (rate <= 0) must be
  // rescheduled by the capacity-change reallocation, not stay wedged.
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  double completed_at = -1.0;
  h.net.start_flow(a, b, 1000, [&] { completed_at = h.sim.now(); });
  // 200 bytes transferred by t=2; parked until t=50; remaining 800 bytes
  // at the restored 100 B/s finish at t=58.
  h.sim.schedule_at(2.0, [&] { h.net.set_node_capacity(a, 0.0, kUnlimited); });
  h.sim.schedule_at(50.0,
                    [&] { h.net.set_node_capacity(a, 100.0, kUnlimited); });
  h.sim.run();
  EXPECT_NEAR(completed_at, 58.0, 0.01);
}

TEST(FluidNetwork, StalledReceiverResumesToo) {
  Harness h;
  const NodeId a = h.net.add_node(kUnlimited, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, 100.0);
  double completed_at = -1.0;
  h.net.start_flow(a, b, 1000, [&] { completed_at = h.sim.now(); });
  h.sim.schedule_at(5.0, [&] { h.net.set_node_capacity(b, kUnlimited, 0.0); });
  h.sim.schedule_at(20.0,
                    [&] { h.net.set_node_capacity(b, kUnlimited, 100.0); });
  h.sim.run();
  // 500 bytes by t=5, parked 15 s, remaining 500 bytes done at t=25.
  EXPECT_NEAR(completed_at, 25.0, 0.01);
}

TEST(FluidNetwork, ActiveFlowIdsAreSortedAndCancelable) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const FlowId f1 = h.net.start_flow(a, b, 10000, [] {});
  const FlowId f2 = h.net.start_flow(a, b, 10000, [] {});
  const auto ids = h.net.active_flow_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_LT(ids[0], ids[1]);
  EXPECT_TRUE(h.net.cancel_flow(f1));
  EXPECT_FALSE(h.net.has_flow(f1));
  EXPECT_TRUE(h.net.has_flow(f2));
  EXPECT_EQ(h.net.active_flow_ids().size(), 1u);
}

// Generation-check regression: FlowIds are slab handles and cancelled or
// completed flows free their slot for reuse. A stale id held across the
// reuse (e.g. a Connection's upload_flow surviving a remote crash) must
// not cancel, rate-query, or liveness-probe the slot's next tenant.
TEST(FluidNetwork, StaleFlowIdCannotTouchSlotsNextTenant) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const FlowId first = h.net.start_flow(a, b, 10000, [] {});
  ASSERT_TRUE(h.net.cancel_flow(first));
  bool completed = false;
  const FlowId second =
      h.net.start_flow(a, b, 1000, [&] { completed = true; });
  EXPECT_EQ(second & 0xffffffffu, first & 0xffffffffu);  // same slot...
  EXPECT_NE(second, first);                              // ...new generation
  EXPECT_FALSE(h.net.has_flow(first));
  EXPECT_FALSE(h.net.cancel_flow(first));
  EXPECT_TRUE(h.net.has_flow(second));
  EXPECT_DOUBLE_EQ(h.net.flow_rate(first), 0.0);
  h.sim.run();
  EXPECT_TRUE(completed);  // the tenant was never disturbed
}

TEST(FluidNetwork, StaleFlowIdSurvivesCompletionReuse) {
  Harness h;
  const NodeId a = h.net.add_node(100.0, kUnlimited);
  const NodeId b = h.net.add_node(kUnlimited, kUnlimited);
  const FlowId first = h.net.start_flow(a, b, 100, [] {});
  h.sim.run();  // completes; slot retires
  EXPECT_FALSE(h.net.has_flow(first));
  for (int round = 0; round < 50; ++round) {
    const FlowId tenant = h.net.start_flow(a, b, 100, [] {});
    EXPECT_FALSE(h.net.cancel_flow(first)) << "round " << round;
    ASSERT_TRUE(h.net.cancel_flow(tenant));
  }
  EXPECT_EQ(h.net.active_flows(), 0u);
}

// Re-rating a flow always reschedules its completion with a fresh
// tie-break seq, even when the rate ends where it started or never
// changes. Sender-bound flows with equal size and capacity complete at
// the same double time, so their fire order is the order of their last
// touch — a rule the golden digests depend on (docs/performance.md).
TEST(FluidNetwork, TiedCompletionsFireInLastTouchOrder) {
  enum class Touch { kNone, kAtSender, kAtReceiver };
  for (const Touch touch :
       {Touch::kNone, Touch::kAtSender, Touch::kAtReceiver}) {
    Harness h;
    const NodeId a = h.net.add_node(100.0, kUnlimited);
    const NodeId b = h.net.add_node(100.0, kUnlimited);
    const NodeId c = h.net.add_node(100.0, kUnlimited);
    std::vector<NodeId> sinks;
    for (int i = 0; i < 3; ++i) {
      sinks.push_back(h.net.add_node(kUnlimited, kUnlimited));
    }
    std::vector<int> order;
    std::vector<double> times;
    h.net.start_flow(a, sinks[0], 1000, [&] {
      order.push_back(1);
      times.push_back(h.sim.now());
    });
    h.net.start_flow(b, sinks[1], 1000, [&] {
      order.push_back(2);
      times.push_back(h.sim.now());
    });
    // Touch only the first flow; the second shares no endpoint with the
    // touching flow. At the sender the first flow's rate halves and comes
    // back; at the (unlimited) receiver it never moves off 100 B/s.
    if (touch == Touch::kAtSender) {
      ASSERT_TRUE(
          h.net.cancel_flow(h.net.start_flow(a, sinks[2], 1000, [] {})));
    } else if (touch == Touch::kAtReceiver) {
      ASSERT_TRUE(
          h.net.cancel_flow(h.net.start_flow(c, sinks[0], 1000, [] {})));
    }
    h.sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], times[1]);  // an exact tie
    EXPECT_EQ(order, touch == Touch::kNone ? (std::vector<int>{1, 2})
                                           : (std::vector<int>{2, 1}));
  }
}

TEST(FluidNetwork, ZeroLatencyDeliversImmediatelyNextEvent) {
  sim::Simulation sim(1);
  FluidNetwork net(sim, 0.0);
  bool delivered = false;
  net.send_control([&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

}  // namespace
}  // namespace swarmlab::net
