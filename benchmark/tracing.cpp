#include "tracing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/backend.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace swarmbench {

using namespace swarmlab;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

struct SpanRecord {
  std::int64_t slot = 0;
  std::int64_t parent = -1;  ///< slot of the enclosing span, -1 if none
  std::uint32_t job = 0;
  SpanId id = SpanId::kCount;
  std::uint64_t event = 0;  ///< events executed when the span opened
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t self_ns = 0;
};

struct Frame {
  SpanId id;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::int64_t slot;  ///< buffer slot, -1 once the buffer is full
  std::uint64_t event;
};

struct ThreadTrace {
  std::vector<Frame> stack;
  TraceTotals totals;
  std::vector<SpanRecord> records;
  std::uint32_t job = 0;
  std::int64_t job_start_ns = 0;
  /// The Simulation of the job this thread runs; set by the timed
  /// backend factory, which runs inside ScenarioRunner construction.
  const sim::Simulation* sim = nullptr;
};

thread_local ThreadTrace t_trace;

std::atomic<std::int64_t> g_next_slot{0};
std::mutex g_mu;
TraceTotals g_totals;                // guarded by g_mu
std::vector<SpanRecord> g_records;   // guarded by g_mu

void merge(TraceTotals& into, const TraceTotals& from) {
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    SpanStats& a = into.spans[i];
    const SpanStats& b = from.spans[i];
    a.calls += b.calls;
    a.total_ns += b.total_ns;
    a.self_ns += b.self_ns;
    a.min_self_ns = std::min(a.min_self_ns, b.min_self_ns);
  }
  into.flow_bytes += from.flow_bytes;
  into.job_ns += from.job_ns;
  into.top_level_ns += from.top_level_ns;
}

/// RAII span on the current thread.
class Span {
 public:
  explicit Span(SpanId id) {
    ThreadTrace& t = t_trace;
    std::int64_t slot = -1;
    if (g_next_slot.load(std::memory_order_relaxed) <
        static_cast<std::int64_t>(kMaxBufferedSpans)) {
      slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= static_cast<std::int64_t>(kMaxBufferedSpans)) slot = -1;
    }
    const std::uint64_t event =
        t.sim != nullptr ? t.sim->events_executed() : 0;
    t.stack.push_back(Frame{id, now_ns(), 0, slot, event});
  }

  ~Span() {
    const std::int64_t end = now_ns();
    ThreadTrace& t = t_trace;
    const Frame f = t.stack.back();
    t.stack.pop_back();
    const std::int64_t dur = end - f.start_ns;
    const std::int64_t self = dur - f.child_ns;
    SpanStats& s = t.totals.spans[static_cast<std::size_t>(f.id)];
    ++s.calls;
    s.total_ns += dur;
    s.self_ns += self;
    s.min_self_ns = std::min(s.min_self_ns, self);
    std::int64_t parent = -1;
    if (t.stack.empty()) {
      t.totals.top_level_ns += dur;
    } else {
      t.stack.back().child_ns += dur;
      parent = t.stack.back().slot;
    }
    if (f.slot >= 0) {
      t.records.push_back(SpanRecord{f.slot, parent, t.job, f.id, f.event,
                                     f.start_ns, dur, self});
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;
};

/// Forwards every call to the wrapped backend inside a span. Completion
/// and delivery closures are wrapped too, so the peer code they run is
/// timed as its own span.
class TimedNetwork final : public net::Network {
 public:
  explicit TimedNetwork(std::unique_ptr<net::Network> inner)
      : inner_(std::move(inner)) {}

  net::NodeId add_node(double up, double down) override {
    const Span span(SpanId::kNetAddNode);
    return inner_->add_node(up, down);
  }
  void remove_node(net::NodeId node) override {
    const Span span(SpanId::kNetRemoveNode);
    inner_->remove_node(node);
  }
  void set_node_capacity(net::NodeId node, double up, double down) override {
    const Span span(SpanId::kNetSetNodeCapacity);
    inner_->set_node_capacity(node, up, down);
  }
  [[nodiscard]] bool has_node(net::NodeId node) const override {
    const Span span(SpanId::kNetHasNode);
    return inner_->has_node(node);
  }
  [[nodiscard]] bool has_flow(net::FlowId flow) const override {
    const Span span(SpanId::kNetHasFlow);
    return inner_->has_flow(flow);
  }
  [[nodiscard]] std::vector<net::FlowId> active_flow_ids() const override {
    const Span span(SpanId::kNetActiveFlowIds);
    return inner_->active_flow_ids();
  }
  net::FlowId start_flow(net::NodeId from, net::NodeId to,
                         std::uint64_t bytes,
                         std::function<void()> on_complete) override {
    const Span span(SpanId::kNetStartFlow);
    t_trace.totals.flow_bytes += bytes;
    return inner_->start_flow(from, to, bytes,
                              [cb = std::move(on_complete)] {
                                const Span peer(SpanId::kPeerFlowComplete);
                                cb();
                              });
  }
  bool cancel_flow(net::FlowId flow) override {
    const Span span(SpanId::kNetCancelFlow);
    return inner_->cancel_flow(flow);
  }
  [[nodiscard]] double flow_rate(net::FlowId flow) const override {
    const Span span(SpanId::kNetFlowRate);
    return inner_->flow_rate(flow);
  }
  void send_control(std::function<void()> deliver,
                    double extra_delay) override {
    const Span span(SpanId::kNetSendControl);
    inner_->send_control(
        [cb = std::move(deliver)] {
          const Span peer(SpanId::kPeerDeliver);
          cb();
        },
        extra_delay);
  }
  [[nodiscard]] double control_latency() const override {
    return inner_->control_latency();
  }
  [[nodiscard]] std::size_t active_flows() const override {
    return inner_->active_flows();
  }
  [[nodiscard]] double node_up(net::NodeId node) const override {
    return inner_->node_up(node);
  }
  [[nodiscard]] std::uint64_t train_segments() const override {
    return inner_->train_segments();
  }

 private:
  std::unique_ptr<net::Network> inner_;
};

}  // namespace

const char* span_name(SpanId id) {
  switch (id) {
    case SpanId::kNetAddNode: return "net.add_node";
    case SpanId::kNetRemoveNode: return "net.remove_node";
    case SpanId::kNetSetNodeCapacity: return "net.set_node_capacity";
    case SpanId::kNetHasNode: return "net.has_node";
    case SpanId::kNetHasFlow: return "net.has_flow";
    case SpanId::kNetActiveFlowIds: return "net.active_flow_ids";
    case SpanId::kNetStartFlow: return "net.start_flow";
    case SpanId::kNetCancelFlow: return "net.cancel_flow";
    case SpanId::kNetFlowRate: return "net.flow_rate";
    case SpanId::kNetSendControl: return "net.send_control";
    case SpanId::kPeerFlowComplete: return "peer.flow_complete";
    case SpanId::kPeerDeliver: return "peer.deliver";
    case SpanId::kInstrumentCallback: return "instrument.callback";
    case SpanId::kCount: break;
  }
  return "unknown";
}

void register_timed_backends() {
  for (const char* inner : {"fluid", "packet"}) {
    net::register_network_backend(
        std::string("bench-timed:") + inner,
        [name = std::string(inner)](sim::Simulation& sim, double latency)
            -> std::unique_ptr<net::Network> {
          t_trace.sim = &sim;
          return std::make_unique<TimedNetwork>(
              net::make_network(name, sim, latency));
        });
  }
}

JobTrace::JobTrace(std::uint32_t job) {
  t_trace.job = job;
  t_trace.job_start_ns = now_ns();
}

JobTrace::~JobTrace() {
  ThreadTrace& t = t_trace;
  t.totals.job_ns += now_ns() - t.job_start_ns;
  t.sim = nullptr;
  const std::lock_guard<std::mutex> lock(g_mu);
  merge(g_totals, t.totals);
  t.totals = TraceTotals{};
  g_records.insert(g_records.end(), t.records.begin(), t.records.end());
  t.records.clear();
}

TraceTotals trace_totals() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_totals;
}

bool write_spans(const std::string& path) {
  std::vector<SpanRecord> records;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    records = g_records;
  }
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.slot < b.slot;
            });
  std::ofstream out(path);
  for (const SpanRecord& r : records) {
    out << "{\"id\":" << r.slot << ",\"parent\":" << r.parent
        << ",\"job\":" << r.job << ",\"name\":\"" << span_name(r.id)
        << "\",\"event\":" << r.event << ",\"start_ns\":" << r.start_ns
        << ",\"dur_ns\":" << r.dur_ns << ",\"self_ns\":" << r.self_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

// --- TimedObserver -----------------------------------------------------------

void TimedObserver::on_start(PeerId self, SimTime t) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_start(self, t);
}
void TimedObserver::on_stop(PeerId self, SimTime t) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_stop(self, t);
}
void TimedObserver::on_peer_joined(PeerId self, SimTime t, PeerId remote) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_peer_joined(self, t, remote);
}
void TimedObserver::on_peer_left(PeerId self, SimTime t, PeerId remote) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_peer_left(self, t, remote);
}
void TimedObserver::on_message_sent(PeerId self, SimTime t, PeerId to,
                                    const wire::Message& msg) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_message_sent(self, t, to, msg);
}
void TimedObserver::on_message_received(PeerId self, SimTime t, PeerId from,
                                        const wire::Message& msg) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_message_received(self, t, from, msg);
}
void TimedObserver::on_interest_change(PeerId self, SimTime t, PeerId remote,
                                       bool interested) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_interest_change(self, t, remote, interested);
}
void TimedObserver::on_remote_interest_change(PeerId self, SimTime t,
                                              PeerId remote,
                                              bool interested) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_remote_interest_change(self, t, remote, interested);
}
void TimedObserver::on_local_choke_change(PeerId self, SimTime t,
                                          PeerId remote, bool unchoked) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_local_choke_change(self, t, remote, unchoked);
}
void TimedObserver::on_remote_choke_change(PeerId self, SimTime t,
                                           PeerId remote, bool unchoked) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_remote_choke_change(self, t, remote, unchoked);
}
void TimedObserver::on_choke_round(PeerId self, SimTime t, bool seed_state,
                                   const std::vector<PeerId>& unchoked) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_choke_round(self, t, seed_state, unchoked);
}
void TimedObserver::on_block_received(PeerId self, SimTime t, PeerId from,
                                      wire::BlockRef block,
                                      std::uint32_t bytes) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_block_received(self, t, from, block, bytes);
}
void TimedObserver::on_block_uploaded(PeerId self, SimTime t, PeerId to,
                                      wire::BlockRef block,
                                      std::uint32_t bytes) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_block_uploaded(self, t, to, block, bytes);
}
void TimedObserver::on_piece_complete(PeerId self, SimTime t,
                                      wire::PieceIndex piece) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_piece_complete(self, t, piece);
}
void TimedObserver::on_piece_failed(PeerId self, SimTime t,
                                    wire::PieceIndex piece) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_piece_failed(self, t, piece);
}
void TimedObserver::on_end_game(PeerId self, SimTime t) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_end_game(self, t);
}
void TimedObserver::on_became_seed(PeerId self, SimTime t) {
  const Span span(SpanId::kInstrumentCallback);
  inner_.on_became_seed(self, t);
}

}  // namespace swarmbench
