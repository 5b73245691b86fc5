// The scenario catalog: every named workload the benches run, in one
// place. Historically each bench carried its own inline ScenarioConfig
// (the Table-I rows came from scenario_from_table1, but the flash
// crowds, ablation setups and perf tiers were duplicated literals);
// the catalog makes them first-class named scenarios that tools, tests
// and docs can reference by name, and ScenarioBuilder derives variants
// — most importantly population-scaled ones — without copying fields.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "swarm/scenario.h"

namespace swarmlab::swarm {

/// One named scenario: a runnable ScenarioConfig plus a summary line for
/// catalog listings (`scenario_explorer`, docs).
struct CatalogEntry {
  std::string name;
  std::string summary;
  ScenarioConfig config;
};

/// The full catalog, in stable order. Entries are frozen: benches and
/// the benchmark's pinned fingerprints depend on these exact parameters,
/// so changing one is a breaking change to every report derived from
/// it. Includes the 26 Table-I rows at sweep scale plus the named
/// non-Table workloads (flash crowds, ablations, perf tiers, mega-swarm
/// scale tiers).
const std::vector<CatalogEntry>& scenario_catalog();

/// Looks up one catalog entry by name; nullptr when absent.
const CatalogEntry* find_scenario(std::string_view name);

/// The named scenario's config. Throws std::invalid_argument naming the
/// unknown scenario (with the available names) — catalog consumers want
/// a loud failure, not a default config.
ScenarioConfig catalog_scenario(std::string_view name);

/// Scale preset used by the 26-torrent sweep benches (Figs. 1, 9, 11;
/// Table I): small enough that a full sweep stays in the tens of
/// seconds.
ScaleLimits sweep_scale_limits();

/// Scale preset used by the single-torrent deep-dive benches
/// (Figs. 2-8, 10): larger swarm and content for better-resolved time
/// series.
ScaleLimits deep_dive_scale_limits();

/// Fluent derivation of ScenarioConfig variants. Starts from a base
/// config (defaults, a catalog entry, or any hand-built config), applies
/// overrides, and validates on build(). The key method for the
/// mega-swarm tiers is scale(): one base flash crowd describes the
/// workload, and .scale(4) / .scale(10) produce the 4k / 10k variants
/// with populations and arrival rate multiplied together so the
/// per-capita dynamics stay comparable across tiers.
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  explicit ScenarioBuilder(ScenarioConfig base) : cfg_(std::move(base)) {}

  /// Seeds the builder from a catalog entry (throws on unknown name).
  static ScenarioBuilder from_catalog(std::string_view name) {
    return ScenarioBuilder(catalog_scenario(name));
  }

  ScenarioBuilder& name(std::string v) {
    cfg_.name = std::move(v);
    return *this;
  }
  ScenarioBuilder& content(std::uint32_t num_pieces, std::uint32_t piece_size,
                           std::uint32_t block_size) {
    cfg_.num_pieces = num_pieces;
    cfg_.piece_size = piece_size;
    cfg_.block_size = block_size;
    return *this;
  }
  ScenarioBuilder& population(std::uint32_t seeds, std::uint32_t leechers,
                              std::uint32_t max_population) {
    cfg_.initial_seeds = seeds;
    cfg_.initial_leechers = leechers;
    cfg_.max_population = max_population;
    return *this;
  }
  /// Steady-state warm start with the given completion range.
  ScenarioBuilder& warm(double warm_min, double warm_max) {
    cfg_.leechers_warm = true;
    cfg_.warm_min = warm_min;
    cfg_.warm_max = warm_max;
    return *this;
  }
  /// Transient (startup) state: every initial leecher begins empty.
  ScenarioBuilder& cold() {
    cfg_.leechers_warm = false;
    return *this;
  }
  ScenarioBuilder& arrivals(double rate_per_second) {
    cfg_.arrival_rate = rate_per_second;
    return *this;
  }
  ScenarioBuilder& seed_linger(double mean_seconds) {
    cfg_.seed_linger_mean = mean_seconds;
    return *this;
  }
  ScenarioBuilder& duration(double seconds) {
    cfg_.duration = seconds;
    return *this;
  }
  ScenarioBuilder& backend(std::string name) {
    cfg_.network_backend = std::move(name);
    return *this;
  }
  ScenarioBuilder& observation(ObservationPlan plan) {
    cfg_.observation = std::move(plan);
    return *this;
  }
  ScenarioBuilder& local_peer(bool spawn) {
    cfg_.spawn_local_peer = spawn;
    return *this;
  }

  /// Multiplies the population axis by `factor` (> 0): initial seeds,
  /// initial leechers, the population cap and the arrival rate all scale
  /// together (rounded to nearest; a non-zero population never rounds to
  /// zero, so a scaled swarm keeps at least one of each role it had).
  ScenarioBuilder& scale(double factor);

  /// Direct access for overrides the fluent surface doesn't cover.
  [[nodiscard]] ScenarioConfig& config() { return cfg_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }

  /// Validates (throws std::invalid_argument with the
  /// validate_scenario() message) and returns the config.
  [[nodiscard]] ScenarioConfig build() const;

 private:
  ScenarioConfig cfg_;
};

}  // namespace swarmlab::swarm
