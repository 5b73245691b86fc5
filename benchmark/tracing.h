// Benchmark-owned tracing: spans around the calls swarmlab makes through
// its public seams, recorded without touching src/.
//
//  * A TimedNetwork decorator (registered as "bench-timed:<backend>")
//    times every net::Network call and wraps each flow-completion and
//    control-delivery closure, whose bodies run peer (and swarm routing)
//    code.
//  * TimedObserver times every SwarmObserver callback into the probe it
//    wraps (the instrument layer).
//
// Spans nest per thread: a span's self time is its duration minus the
// durations of the spans opened inside it. Counters live per thread and
// are merged into process totals when a JobTrace ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "peer/observer.h"

namespace swarmbench {

/// Every timed seam. The layer of a span is the prefix of its name.
enum class SpanId : std::uint8_t {
  kNetAddNode,
  kNetRemoveNode,
  kNetSetNodeCapacity,
  kNetHasNode,
  kNetHasFlow,
  kNetActiveFlowIds,
  kNetStartFlow,
  kNetCancelFlow,
  kNetFlowRate,
  kNetSendControl,
  kPeerFlowComplete,
  kPeerDeliver,
  kInstrumentCallback,
  kCount,
};
inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(SpanId::kCount);

/// "net.start_flow", "peer.deliver", ...
const char* span_name(SpanId id);

struct SpanStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  /// Smallest self time of a single span (0 when none was negative).
  std::int64_t min_self_ns = 0;
};

struct TraceTotals {
  std::array<SpanStats, kSpanCount> spans{};
  std::uint64_t flow_bytes = 0;  ///< bytes handed to start_flow
  std::int64_t job_ns = 0;       ///< summed wall of traced jobs
  std::int64_t top_level_ns = 0; ///< summed durations of outermost spans
};

/// Span buffer cap: the first this-many spans are kept for the JSONL dump.
inline constexpr std::uint64_t kMaxBufferedSpans = 200000;

/// Registers the timed decorators as "bench-timed:fluid" and
/// "bench-timed:packet". Safe to call more than once.
void register_timed_backends();

/// Marks the current thread as running traced job `job` (spans are
/// tagged with it) and times the job. The destructor merges this
/// thread's counters and buffered spans into the process totals.
class JobTrace {
 public:
  explicit JobTrace(std::uint32_t job);
  ~JobTrace();
  JobTrace(const JobTrace&) = delete;
  JobTrace& operator=(const JobTrace&) = delete;
  JobTrace(JobTrace&&) = delete;
  JobTrace& operator=(JobTrace&&) = delete;
};

/// Totals over every finished JobTrace.
TraceTotals trace_totals();

/// Writes the buffered spans as JSON lines, in start order per thread.
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path);

/// Times each callback into `inner` as an instrument span.
class TimedObserver final : public swarmlab::peer::SwarmObserver {
 public:
  explicit TimedObserver(swarmlab::peer::SwarmObserver& inner)
      : inner_(inner) {}

  using PeerId = swarmlab::peer::PeerId;
  using SimTime = swarmlab::sim::SimTime;

  void on_start(PeerId self, SimTime t) override;
  void on_stop(PeerId self, SimTime t) override;
  void on_peer_joined(PeerId self, SimTime t, PeerId remote) override;
  void on_peer_left(PeerId self, SimTime t, PeerId remote) override;
  void on_message_sent(PeerId self, SimTime t, PeerId to,
                       const swarmlab::wire::Message& msg) override;
  void on_message_received(PeerId self, SimTime t, PeerId from,
                           const swarmlab::wire::Message& msg) override;
  void on_interest_change(PeerId self, SimTime t, PeerId remote,
                          bool interested) override;
  void on_remote_interest_change(PeerId self, SimTime t, PeerId remote,
                                 bool interested) override;
  void on_local_choke_change(PeerId self, SimTime t, PeerId remote,
                             bool unchoked) override;
  void on_remote_choke_change(PeerId self, SimTime t, PeerId remote,
                              bool unchoked) override;
  void on_choke_round(PeerId self, SimTime t, bool seed_state,
                      const std::vector<PeerId>& unchoked) override;
  void on_block_received(PeerId self, SimTime t, PeerId from,
                         swarmlab::wire::BlockRef block,
                         std::uint32_t bytes) override;
  void on_block_uploaded(PeerId self, SimTime t, PeerId to,
                         swarmlab::wire::BlockRef block,
                         std::uint32_t bytes) override;
  void on_piece_complete(PeerId self, SimTime t,
                         swarmlab::wire::PieceIndex piece) override;
  void on_piece_failed(PeerId self, SimTime t,
                       swarmlab::wire::PieceIndex piece) override;
  void on_end_game(PeerId self, SimTime t) override;
  void on_became_seed(PeerId self, SimTime t) override;

 private:
  swarmlab::peer::SwarmObserver& inner_;
};

}  // namespace swarmbench
