#include "swarm/scenario_catalog.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace swarmlab::swarm {

namespace {

/// Fluid perf-ladder tier: flash-crowd swarms of increasing population
/// and content size. Parameters are frozen — benchmark/pins.json
/// fingerprints these configs, so benchmark numbers are only comparable
/// across commits if the workload never moves.
ScenarioConfig perf_tier(const char* name, std::uint32_t leechers,
                         std::uint32_t seeds, std::uint32_t pieces,
                         double arrival, std::uint32_t max_pop) {
  ScenarioConfig cfg;
  cfg.name = name;
  cfg.num_pieces = pieces;
  cfg.piece_size = 64 * 1024;
  cfg.block_size = 16 * 1024;
  cfg.initial_seeds = seeds;
  cfg.initial_leechers = leechers;
  cfg.leechers_warm = true;
  cfg.arrival_rate = arrival;
  cfg.max_population = max_pop;
  cfg.duration = 20000.0;
  return cfg;
}

/// Packet perf-ladder tier: bulk-transfer heavy so the segment hot path
/// (not the peer layer) dominates — larger pieces/blocks (256 KiB blocks
/// = 64 four-KiB segments per flow, the full train cap) and smaller
/// populations than the fluid tiers because the packet model executes
/// ~an order of magnitude more events per delivered byte.
ScenarioConfig pkt_tier(const char* name, std::uint32_t leechers,
                        std::uint32_t seeds, std::uint32_t pieces,
                        double arrival, std::uint32_t max_pop) {
  ScenarioConfig cfg;
  cfg.name = name;
  cfg.num_pieces = pieces;
  cfg.piece_size = 256 * 1024;
  cfg.block_size = 256 * 1024;
  cfg.initial_seeds = seeds;
  cfg.initial_leechers = leechers;
  cfg.leechers_warm = true;
  cfg.arrival_rate = arrival;
  cfg.max_population = max_pop;
  cfg.duration = 20000.0;
  cfg.network_backend = "packet";
  // The bulk-transfer regime the packet hot path is built for: narrow
  // active sets (1 regular + 1 optimistic slot) keep access links mostly
  // single-flow, uplinks faster than downlinks keep receiver downlinks
  // saturated, and a fast local peer keeps the measured run short. This
  // deliberately measures the segment machinery, not the choke dynamics
  // the fluid tiers cover.
  cfg.remote_params.regular_unchoke_slots = 1;
  cfg.remote_params.active_set_size = 2;
  cfg.local_params = cfg.remote_params;
  cfg.leecher_classes = {{1.0, 256.0 * 1024, 192.0 * 1024}};
  cfg.initial_seed_upload = 1024.0 * 1024;
  cfg.local_upload = 256.0 * 1024;
  return cfg;
}

/// Cold flash crowd at cross-backend-comparison scale
/// (bench_ext_backend_compare): the paper's §IV-A.1 startup regime,
/// which stresses rare-piece replication hardest.
ScenarioConfig flash_crowd_cold() {
  ScenarioConfig cfg;
  cfg.name = "flash-crowd-cold";
  cfg.num_pieces = 32;
  cfg.initial_seeds = 1;
  cfg.initial_leechers = 40;
  cfg.leechers_warm = false;
  cfg.arrival_rate = 0.0;
  cfg.duration = 25000.0;
  return cfg;
}

/// Poisson-arrival steady-state swarm matched to the Qiu-Srikant fluid
/// model (bench_ext_fluid_model): homogeneous capacities make the model
/// mapping exact; no local peer — it is a population study.
ScenarioConfig fluid_comparison() {
  ScenarioConfig cfg;
  cfg.name = "fluid-comparison";
  cfg.num_pieces = 48;  // 12 MiB content
  cfg.initial_seeds = 1;
  cfg.initial_leechers = 30;
  cfg.leechers_warm = true;  // start near steady state
  cfg.arrival_rate = 0.03;   // lambda
  cfg.seed_linger_mean = 400.0;  // 1/gamma
  cfg.max_population = 400;
  cfg.spawn_local_peer = false;
  cfg.duration = 25000.0;
  const double up = 16.0 * 1024;  // bytes/s
  const double down = 128.0 * 1024;
  cfg.leecher_classes = {{1.0, up, down}};
  cfg.initial_seed_upload = up;
  return cfg;
}

/// Seed-state choke ablation base (bench_ablation_seed_choke, paper
/// §IV-B.3): the local peer plays the initial seed; ordinary leechers
/// get slow receive links so a fast free rider stands out. The bench
/// sets local_params.seed_choker per variant.
ScenarioConfig seed_choke_ablation() {
  ScenarioConfig cfg;
  cfg.name = "seed-choke-ablation";
  cfg.num_pieces = 64;
  cfg.initial_seeds = 0;  // the peer under test is the only seed
  cfg.initial_leechers = 40;
  cfg.leechers_warm = true;  // leechers always have something to want
  cfg.warm_min = 0.1;
  cfg.warm_max = 0.6;
  cfg.seed_linger_mean = 0.0;  // nobody leaves
  cfg.arrival_rate = 0.0;
  cfg.duration = 12000.0;
  cfg.local_upload = 40.0 * 1024;
  cfg.local_download = net::kUnlimited;
  cfg.leecher_classes = {
      {1.0, 12.0 * 1024, 8.0 * 1024},
  };
  return cfg;
}

/// Mega-swarm flash-crowd base (bench_ext_scale): 1k cold leechers hit a
/// handful of seeds, with an arrival storm refilling departures. The 4k
/// and 10k tiers are this entry through ScenarioBuilder::scale(4) /
/// scale(10). Packet-friendly geometry (one 256 KiB block per piece)
/// and homogeneous capacities keep the per-peer event count flat, so
/// tier cost scales with population — exactly the axis under test.
ScenarioConfig mega_flash() {
  ScenarioConfig cfg;
  cfg.name = "mega-flash";
  cfg.num_pieces = 64;  // 16 MiB content
  cfg.piece_size = 256 * 1024;
  cfg.block_size = 256 * 1024;
  cfg.initial_seeds = 4;
  cfg.initial_leechers = 1000;
  cfg.leechers_warm = false;  // flash crowd: everyone starts cold
  cfg.arrival_rate = 2.0;     // the arrival storm
  cfg.max_population = 1250;
  cfg.seed_linger_mean = 120.0;  // finished peers seed briefly, then go
  cfg.duration = 2400.0;
  cfg.remote_params.regular_unchoke_slots = 1;
  cfg.remote_params.active_set_size = 2;
  cfg.local_params = cfg.remote_params;
  cfg.leecher_classes = {{1.0, 256.0 * 1024, 192.0 * 1024}};
  cfg.initial_seed_upload = 1024.0 * 1024;
  cfg.local_upload = 256.0 * 1024;
  return cfg;
}

std::vector<CatalogEntry> build_catalog() {
  std::vector<CatalogEntry> catalog;
  catalog.reserve(26 + 13);
  // The 26 Table-I rows at the sweep benches' scale. Deep-dive benches
  // derive their larger variants with scenario_from_table1(id,
  // deep_dive_scale_limits()) — same construction, bigger caps.
  for (int id = 1; id <= 26; ++id) {
    CatalogEntry entry;
    entry.config = scenario_from_table1(id, sweep_scale_limits());
    entry.name = entry.config.name;
    entry.summary = "Table-I torrent " + std::to_string(id) +
                    " at sweep scale (Figs. 1, 9, 11; Table I)";
    catalog.push_back(std::move(entry));
  }
  const auto add = [&catalog](ScenarioConfig cfg, std::string summary) {
    CatalogEntry entry;
    entry.name = cfg.name;
    entry.summary = std::move(summary);
    entry.config = std::move(cfg);
    catalog.push_back(std::move(entry));
  };
  add(flash_crowd_cold(),
      "cold flash crowd, cross-backend comparison scale (§IV-A.1)");
  add(fluid_comparison(),
      "Poisson steady state matched to the Qiu-Srikant fluid model (§V)");
  add(seed_choke_ablation(),
      "seed-state choke ablation under a fast free rider (§IV-B.3)");
  add(mega_flash(),
      "mega-swarm flash crowd + arrival storm; scale() to 4k/10k");
  add(perf_tier("perf_small", 48, 1, 128, 0.02, 96),
      "fluid perf ladder: small (benchmark selftest)");
  add(perf_tier("perf_medium", 150, 1, 384, 0.05, 220),
      "fluid perf ladder: medium");
  add(perf_tier("perf_large", 320, 2, 1024, 0.08, 420),
      "fluid perf ladder: large");
  add(perf_tier("perf_huge", 2000, 4, 256, 0.3, 2400),
      "fluid perf ladder: huge (mega-swarm population)");
  add(pkt_tier("pkt_small", 16, 1, 256, 0.005, 32),
      "packet perf ladder: small (benchmark selftest)");
  add(pkt_tier("pkt_medium", 32, 1, 512, 0.01, 64),
      "packet perf ladder: medium");
  add(pkt_tier("pkt_large", 256, 2, 512, 0.05, 320),
      "packet perf ladder: large");
  add(pkt_tier("pkt_huge", 2048, 4, 128, 0.2, 2560),
      "packet perf ladder: huge (mega-swarm population)");
  return catalog;
}

}  // namespace

const std::vector<CatalogEntry>& scenario_catalog() {
  static const std::vector<CatalogEntry> kCatalog = build_catalog();
  return kCatalog;
}

const CatalogEntry* find_scenario(std::string_view name) {
  for (const CatalogEntry& entry : scenario_catalog()) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

ScenarioConfig catalog_scenario(std::string_view name) {
  if (const CatalogEntry* entry = find_scenario(name); entry != nullptr) {
    return entry->config;
  }
  std::string msg = "unknown scenario '" + std::string(name) +
                    "'; catalog names:";
  for (const CatalogEntry& entry : scenario_catalog()) {
    msg += ' ';
    msg += entry.name;
  }
  throw std::invalid_argument(std::move(msg));
}

ScaleLimits sweep_scale_limits() {
  ScaleLimits limits;
  limits.max_peers = 120;
  limits.max_pieces = 96;
  limits.min_pieces = 16;
  limits.duration = 30000.0;
  return limits;
}

ScaleLimits deep_dive_scale_limits() {
  ScaleLimits limits;
  limits.max_peers = 200;
  limits.max_pieces = 200;
  limits.duration = 30000.0;
  return limits;
}

ScenarioBuilder& ScenarioBuilder::scale(double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("ScenarioBuilder::scale: factor (" +
                                std::to_string(factor) +
                                ") must be positive");
  }
  const auto scaled = [factor](std::uint32_t v) -> std::uint32_t {
    if (v == 0) return 0;
    const auto s = static_cast<std::uint32_t>(
        std::llround(static_cast<double>(v) * factor));
    return s > 0 ? s : 1;  // a scaled-down role never vanishes entirely
  };
  cfg_.initial_seeds = scaled(cfg_.initial_seeds);
  cfg_.initial_leechers = scaled(cfg_.initial_leechers);
  cfg_.max_population = scaled(cfg_.max_population);
  cfg_.arrival_rate *= factor;
  return *this;
}

ScenarioConfig ScenarioBuilder::build() const {
  if (std::string err = validate_scenario(cfg_); !err.empty()) {
    throw std::invalid_argument(std::move(err));
  }
  return cfg_;
}

}  // namespace swarmlab::swarm
