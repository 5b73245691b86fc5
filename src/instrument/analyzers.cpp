#include "instrument/analyzers.h"

#include <algorithm>
#include <cassert>

#include "stats/correlation.h"
#include "stats/percentile.h"

namespace swarmlab::instrument {

EntropyResult analyze_entropy(const LocalPeerLog& log, double min_residency) {
  EntropyResult result;
  for (const auto& [id, r] : log.records()) {
    if (r.time_in_set < min_residency) continue;  // §IV-A.1 noise filter
    // Only remote *leechers* enter the entropy characterization (paper
    // footnote 4). The same residency floor applies to the
    // leecher-to-leecher window: a seed is a "leecher" for the fraction
    // of a second between connecting and its bitfield arriving, and that
    // sliver must not produce a spurious ratio.
    if (r.time_in_set_leecher < min_residency) continue;
    result.local_interest_ratios.push_back(r.local_interested_leecher /
                                           r.time_in_set_leecher);
    result.remote_interest_ratios.push_back(r.remote_interested_leecher /
                                            r.time_in_set_leecher);
  }
  if (!result.local_interest_ratios.empty()) {
    result.p20_local = stats::percentile(result.local_interest_ratios, 20.0);
    result.median_local =
        stats::percentile(result.local_interest_ratios, 50.0);
    result.p80_local = stats::percentile(result.local_interest_ratios, 80.0);
  }
  if (!result.remote_interest_ratios.empty()) {
    result.p20_remote =
        stats::percentile(result.remote_interest_ratios, 20.0);
    result.median_remote =
        stats::percentile(result.remote_interest_ratios, 50.0);
    result.p80_remote =
        stats::percentile(result.remote_interest_ratios, 80.0);
  }
  return result;
}

namespace {

InterarrivalResult interarrivals_from_times(const std::vector<double>& times,
                                            double origin, std::size_t k) {
  InterarrivalResult result;
  double prev = origin;
  std::vector<double> gaps;
  gaps.reserve(times.size());
  for (const double t : times) {
    gaps.push_back(t - prev);
    prev = t;
  }
  for (const double g : gaps) result.all.add(g);
  const std::size_t first_n = std::min(k, gaps.size());
  for (std::size_t i = 0; i < first_n; ++i) result.first_k.add(gaps[i]);
  const std::size_t last_start = gaps.size() > k ? gaps.size() - k : 0;
  for (std::size_t i = last_start; i < gaps.size(); ++i) {
    result.last_k.add(gaps[i]);
  }
  return result;
}

}  // namespace

InterarrivalResult analyze_piece_interarrival(const LocalPeerLog& log,
                                              std::size_t k) {
  std::vector<double> times;
  times.reserve(log.piece_events().size());
  for (const PieceEvent& e : log.piece_events()) times.push_back(e.time);
  return interarrivals_from_times(times, log.start_time(), k);
}

InterarrivalResult analyze_block_interarrival(const LocalPeerLog& log,
                                              std::size_t k) {
  std::vector<double> times;
  times.reserve(log.block_events().size());
  for (const BlockEvent& e : log.block_events()) times.push_back(e.time);
  return interarrivals_from_times(times, log.start_time(), k);
}

namespace {

/// Orders remote peers by `up` descending, then fills per-set upload and
/// download fractions for the first `num_sets` sets of `set_size`.
ContributionSets contribution_sets(
    const RemoteRecords& records, std::size_t set_size, std::size_t num_sets,
    std::uint64_t (*up)(const RemotePeerRecord&),
    std::uint64_t (*down)(const RemotePeerRecord&)) {
  struct Pair {
    std::uint64_t up;
    std::uint64_t down;
  };
  std::vector<Pair> peers;
  std::uint64_t total_up = 0;
  std::uint64_t total_down = 0;
  for (const auto& [id, r] : records) {
    const Pair p{up(r), down(r)};
    total_up += p.up;
    total_down += p.down;
    if (p.up > 0 || p.down > 0) peers.push_back(p);
  }
  std::stable_sort(peers.begin(), peers.end(),
                   [](const Pair& a, const Pair& b) { return a.up > b.up; });
  ContributionSets result;
  result.total_uploaded = total_up;
  result.total_downloaded_from_leechers = total_down;
  for (std::size_t s = 0; s < num_sets; ++s) {
    std::uint64_t set_up = 0;
    std::uint64_t set_down = 0;
    for (std::size_t i = s * set_size;
         i < std::min((s + 1) * set_size, peers.size()); ++i) {
      set_up += peers[i].up;
      set_down += peers[i].down;
    }
    result.upload_fraction.push_back(
        total_up > 0 ? static_cast<double>(set_up) /
                           static_cast<double>(total_up)
                     : 0.0);
    result.download_fraction.push_back(
        total_down > 0 ? static_cast<double>(set_down) /
                             static_cast<double>(total_down)
                       : 0.0);
  }
  return result;
}

}  // namespace

ContributionSets analyze_leecher_fairness(const LocalPeerLog& log,
                                          std::size_t set_size,
                                          std::size_t num_sets) {
  return contribution_sets(
      log.records(), set_size, num_sets,
      [](const RemotePeerRecord& r) { return r.up_bytes_leecher; },
      // Paper: "All seeds are removed from the data used for the bottom
      // graph, as it is not possible to reciprocate data to seeds."
      [](const RemotePeerRecord& r) { return r.down_bytes_from_leecher; });
}

ContributionSets analyze_seed_fairness(const LocalPeerLog& log,
                                       std::size_t set_size,
                                       std::size_t num_sets) {
  return contribution_sets(
      log.records(), set_size, num_sets,
      [](const RemotePeerRecord& r) { return r.up_bytes_seed; },
      [](const RemotePeerRecord&) { return std::uint64_t{0}; });
}

namespace {

UnchokeCorrelation unchoke_correlation(const RemoteRecords& records,
                                       bool seed) {
  UnchokeCorrelation result;
  for (const auto& [id, r] : records) {
    const double interested =
        seed ? r.remote_interested_seed : r.remote_interested_leecher;
    const double unchokes =
        seed ? static_cast<double>(r.unchokes_seed)
             : static_cast<double>(r.unchokes_leecher);
    const double in_set = seed ? r.time_in_set_seed : r.time_in_set_leecher;
    if (in_set <= 0.0) continue;
    result.interested_time.push_back(interested);
    result.unchokes.push_back(unchokes);
  }
  result.spearman =
      stats::spearman(result.interested_time, result.unchokes);
  result.pearson = stats::pearson(result.interested_time, result.unchokes);
  return result;
}

}  // namespace

UnchokeCorrelation analyze_unchoke_correlation_leecher(
    const LocalPeerLog& log) {
  return unchoke_correlation(log.records(), /*seed=*/false);
}

UnchokeCorrelation analyze_unchoke_correlation_seed(const LocalPeerLog& log) {
  return unchoke_correlation(log.records(), /*seed=*/true);
}

}  // namespace swarmlab::instrument
