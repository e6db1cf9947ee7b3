#include "core/vae_proposal.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "mc/metropolis.hpp"
#include "validate/oracle.hpp"

namespace dt::core {
namespace {

using lattice::Configuration;
using lattice::Lattice;
using lattice::LatticeType;

std::shared_ptr<nn::Vae> make_vae(std::int32_t n_sites, int n_species,
                                  std::uint64_t seed) {
  nn::VaeOptions o;
  o.n_sites = n_sites;
  o.n_species = n_species;
  o.hidden = 24;
  o.latent = 4;
  return std::make_shared<nn::Vae>(o, seed);
}

TEST(SequentialDensity, NormalizesOverAllArrangements) {
  // 4 sites, composition {2,2}: 6 arrangements. The constrained
  // sequential process must define a proper distribution: the densities
  // of all arrangements sum to 1 for ANY site-probability table.
  Xoshiro256ss rng(1);
  std::vector<float> probs(8);
  for (auto& p : probs) p = 0.05f + 0.9f * static_cast<float>(uniform01(rng));
  // Normalise per site.
  for (int site = 0; site < 4; ++site) {
    const float s = probs[static_cast<std::size_t>(2 * site)] +
                    probs[static_cast<std::size_t>(2 * site + 1)];
    probs[static_cast<std::size_t>(2 * site)] /= s;
    probs[static_cast<std::size_t>(2 * site + 1)] /= s;
  }

  std::vector<std::uint8_t> occ = {0, 0, 1, 1};
  std::sort(occ.begin(), occ.end());
  double total = 0;
  do {
    total += std::exp(
        VaeProposal::sequential_log_density(probs, occ, 2).value());
  } while (std::next_permutation(occ.begin(), occ.end()));
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SequentialDensity, ThreeSpeciesNormalizes) {
  Xoshiro256ss rng(2);
  const int n = 6, s = 3;
  std::vector<float> probs(static_cast<std::size_t>(n * s));
  for (auto& p : probs) p = 0.1f + static_cast<float>(uniform01(rng));
  std::vector<std::uint8_t> occ = {0, 0, 1, 1, 2, 2};
  double total = 0;
  do {
    total += std::exp(
        VaeProposal::sequential_log_density(probs, occ, s).value());
  } while (std::next_permutation(occ.begin(), occ.end()));
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SequentialDensity, UniformProbsGiveUniformArrangements) {
  const std::vector<float> probs(8, 0.5f);
  const std::vector<std::uint8_t> a = {0, 1, 0, 1};
  const std::vector<std::uint8_t> b = {1, 1, 0, 0};
  EXPECT_NEAR(VaeProposal::sequential_log_density(probs, a, 2).value(),
              VaeProposal::sequential_log_density(probs, b, 2).value(), 1e-9);
  // 6 arrangements, each probability 1/6.
  EXPECT_NEAR(VaeProposal::sequential_log_density(probs, a, 2).value(),
              std::log(1.0 / 6.0), 1e-9);
}

TEST(VaeProposal, PreservesCompositionAndReverts) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  // 4-species Hamiltonian to match the 4-species configuration (a
  // 2-species table would be indexed out of bounds).
  const auto ham = lattice::random_epi(4, 1, 0.1, 9);
  auto vae = make_vae(lat.num_sites(), 4, 3);
  VaeProposal prop(ham, vae);

  mc::Rng rng(4, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  const std::vector<std::int32_t> comp(cfg.composition().begin(),
                                       cfg.composition().end());
  const std::vector<std::uint8_t> snapshot(cfg.occupancy().begin(),
                                           cfg.occupancy().end());

  for (int i = 0; i < 50; ++i) {
    const auto r = prop.propose(cfg, units::Energy(ham.total_energy(cfg)), rng);
    ASSERT_TRUE(r.valid);
    const std::vector<std::int32_t> now(cfg.composition().begin(),
                                        cfg.composition().end());
    ASSERT_EQ(now, comp) << "composition broken at " << i;
    prop.revert(cfg);
    const std::vector<std::uint8_t> occ(cfg.occupancy().begin(),
                                        cfg.occupancy().end());
    ASSERT_EQ(occ, snapshot);
  }
  EXPECT_EQ(prop.stats().proposed, 50u);
  EXPECT_EQ(prop.stats().reverted, 50u);
}

TEST(VaeProposal, DeltaEnergyIsExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(3, 1, 0.2, 5);
  auto vae = make_vae(lat.num_sites(), 3, 6);
  VaeProposal prop(ham, vae);
  mc::Rng rng(7, 0);
  auto cfg = lattice::random_configuration(lat, 3, rng);
  double energy = ham.total_energy(cfg);
  for (int i = 0; i < 30; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    energy += r.delta_energy.value();
    ASSERT_NEAR(energy, ham.total_energy(cfg), 1e-8);
  }
}

TEST(VaeProposal, LogQRatioIsFinite) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  auto vae = make_vae(lat.num_sites(), 2, 8);
  VaeProposal prop(ham, vae);
  mc::Rng rng(9, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  for (int i = 0; i < 50; ++i) {
    const auto r = prop.propose(cfg, units::Energy(ham.total_energy(cfg)), rng);
    EXPECT_TRUE(std::isfinite(r.log_q_ratio.value()));
    prop.revert(cfg);
  }
}

// THE correctness test: Metropolis driven purely by the (untrained) VAE
// kernel must sample the exact Boltzmann distribution. Any error in the
// q-ratio accounting shows up here as a systematic bias.
TEST(VaeProposal, SatisfiesDetailedBalanceEmpirically) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const int n = lat.num_sites();
  const double temperature = 8.0;

  // Exact Boltzmann level marginals from the shared enumeration oracle.
  const auto oracle = validate::ExactOracle::get(
      ham, lat, validate::equiatomic_composition(n, 2));
  const auto probs = oracle->level_probabilities(units::Temperature(temperature));

  auto vae = make_vae(n, 2, 123);
  VaeProposal prop(ham, vae);
  mc::Rng rng(99, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  mc::MetropolisSampler sampler(ham, cfg, units::Temperature(temperature),
                                mc::Rng(99, 1));

  std::map<long long, double> counts;
  const int steps = 150000;
  for (int s = 0; s < 2000; ++s) sampler.step(prop);  // burn-in
  for (int s = 0; s < steps; ++s) {
    sampler.step(prop);
    counts[std::llround(4 * sampler.energy().value())] += 1.0;
  }
  EXPECT_NEAR(sampler.energy().value(), sampler.recompute_energy().value(), 1e-7);

  const auto& levels = oracle->levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const long long k = std::llround(4 * levels[i].energy);
    const double got = (counts.count(k) ? counts[k] : 0.0) / steps;
    EXPECT_NEAR(got, probs[i], 0.012) << "level " << levels[i].energy;
  }
  // An independence-style global kernel on a tiny system accepts often.
  EXPECT_GT(prop.stats().acceptance_rate(), 0.05);
}

TEST(VaeProposal, RejectsMismatchedGeometry) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  auto vae = make_vae(8, 2, 10);  // wrong n_sites
  VaeProposal prop(ham, vae);
  mc::Rng rng(11, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  EXPECT_THROW((void)prop.propose(cfg, units::Energy(0.0), rng), dt::Error);
}

// ---- decode-ahead fast path: RNG stream discipline ----

/// Drive `prop` for `steps` proposals from a fresh chain and record the
/// trajectory fingerprint: occupancies, MH numbers, and the physics
/// stream position after every step.
struct Trajectory {
  std::vector<std::vector<std::uint8_t>> occupancies;
  std::vector<double> delta_energies;
  std::vector<double> log_q_ratios;
  std::vector<std::uint64_t> rng_positions;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_trajectory(VaeProposal& prop,
                          const lattice::EpiHamiltonian& ham, int steps,
                          mc::Rng& rng, Configuration& cfg) {
  Trajectory t;
  double energy = ham.total_energy(cfg);
  for (int i = 0; i < steps; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    energy += r.delta_energy.value();
    // Accept everything: the fingerprint must cover mutated states.
    t.occupancies.emplace_back(cfg.occupancy().begin(),
                               cfg.occupancy().end());
    t.delta_energies.push_back(r.delta_energy.value());
    t.log_q_ratios.push_back(r.log_q_ratio.value());
    t.rng_positions.push_back(rng.position());
  }
  return t;
}

TEST(VaeProposalFastPath, DecodeBatchNeverChangesTheTrajectory) {
  // The core stream-discipline guarantee: latents ride a derived stream
  // indexed by the proposal ordinal and the physics stream supplies only
  // the sampling uniforms, so K = 1, 3, 8 give bitwise-identical
  // trajectories AND physics-stream positions.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);

  std::vector<Trajectory> runs;
  for (const std::int32_t k : {1, 3, 8}) {
    VaeProposal prop(ham, vae);
    prop.set_decode_batch(k);
    mc::Rng rng(11, 0);
    auto cfg = lattice::random_configuration(lat, 4, rng);
    runs.push_back(run_trajectory(prop, ham, 20, rng, cfg));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(VaeProposalFastPath, InvalidateClearsLastProbsAndIsTrajectoryNeutral) {
  // Regression: invalidate_decode_cache() used to leave last_probs()
  // pointing at the stale pre-invalidation rows. It must clear the span
  // (the rows no longer correspond to any served proposal) without
  // disturbing the trajectory -- the next propose() re-decodes from the
  // derived latent stream at the same ordinal.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);

  VaeProposal ref(ham, vae);
  ref.set_decode_batch(4);
  mc::Rng ref_rng(11, 0);
  auto ref_cfg = lattice::random_configuration(lat, 4, ref_rng);
  const auto want = run_trajectory(ref, ham, 12, ref_rng, ref_cfg);

  VaeProposal prop(ham, vae);
  prop.set_decode_batch(4);
  mc::Rng rng(11, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  auto got = run_trajectory(prop, ham, 5, rng, cfg);
  EXPECT_FALSE(prop.last_probs().empty());

  prop.invalidate_decode_cache();
  EXPECT_TRUE(prop.last_probs().empty());  // the regression assertion

  const auto rest = run_trajectory(prop, ham, 7, rng, cfg);
  got.occupancies.insert(got.occupancies.end(), rest.occupancies.begin(),
                         rest.occupancies.end());
  got.delta_energies.insert(got.delta_energies.end(),
                            rest.delta_energies.begin(),
                            rest.delta_energies.end());
  got.log_q_ratios.insert(got.log_q_ratios.end(), rest.log_q_ratios.begin(),
                          rest.log_q_ratios.end());
  got.rng_positions.insert(got.rng_positions.end(),
                           rest.rng_positions.begin(),
                           rest.rng_positions.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(prop.last_probs().empty());  // serving resumed
}

TEST(VaeProposalFastPath, SaveLoadResumesBitExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 33);
  auto vae = make_vae(lat.num_sites(), 4, 5);
  constexpr int kHead = 7, kTail = 15;

  // Reference: one uninterrupted run.
  VaeProposal ref(ham, vae);
  mc::Rng ref_rng(3, 0);
  auto ref_cfg = lattice::random_configuration(lat, 4, ref_rng);
  const auto seed_occ = std::vector<std::uint8_t>(ref_cfg.occupancy().begin(),
                                                  ref_cfg.occupancy().end());
  const std::uint64_t seed_pos = ref_rng.position();
  (void)run_trajectory(ref, ham, kHead, ref_rng, ref_cfg);
  const auto want = run_trajectory(ref, ham, kTail, ref_rng, ref_cfg);

  // Interrupted run: kHead proposals, checkpoint, restore into a FRESH
  // kernel with a different decode batch, continue.
  VaeProposal first(ham, vae);
  mc::Rng rng(3, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  (void)run_trajectory(first, ham, kHead, rng, cfg);
  std::stringstream state;
  first.save_state(state);
  EXPECT_EQ(first.served(), static_cast<std::uint64_t>(kHead));

  VaeProposal resumed(ham, vae);
  resumed.set_decode_batch(3);  // K is a pure perf knob, also on resume
  resumed.load_state(state);
  EXPECT_EQ(resumed.served(), static_cast<std::uint64_t>(kHead));
  EXPECT_EQ(resumed.stats().proposed, static_cast<std::uint64_t>(kHead));
  // Walker state (cfg + rng) is checkpointed by the REWL driver; emulate
  // its restore.
  mc::Rng resumed_rng(3, 0);
  resumed_rng.seek(rng.position());
  auto resumed_cfg = ref_cfg;  // placeholder shape; overwritten next line
  resumed_cfg.assign(cfg.occupancy());
  const auto got =
      run_trajectory(resumed, ham, kTail, resumed_rng, resumed_cfg);
  EXPECT_EQ(got, want);

  // Sanity: the runs above really consumed physics draws past the seed.
  EXPECT_GT(rng.position(), seed_pos);
  EXPECT_FALSE(seed_occ.empty());
}

TEST(VaeProposalFastPath, AuditEveryProposalPasses) {
  // Audit cadence 1: every sparse delta is cross-checked against
  // total_energy; any bookkeeping error aborts via DT_CHECK.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(3, 1, 0.3, 8);
  auto vae = make_vae(lat.num_sites(), 3, 12);
  VaeProposal prop(ham, vae);
  prop.set_audit_interval(1);
  mc::Rng rng(19, 0);
  auto cfg = lattice::random_configuration(lat, 3, rng);
  double energy = ham.total_energy(cfg);
  for (int i = 0; i < 40; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    energy += r.delta_energy.value();
  }
  EXPECT_NEAR(energy, ham.total_energy(cfg), 1e-7);
}

// ---- the sampling loops against the loops they replaced ----

/// One move as the kernel reports it.
struct Move {
  std::vector<std::uint8_t> candidate;
  double log_q_ratio = 0.0;
  double delta_energy = 0.0;
  std::uint64_t rng_position = 0;
  bool sparse = false;  ///< energy took the assign_delta walk

  bool operator==(const Move& o) const {
    return candidate == o.candidate &&
           std::bit_cast<std::uint64_t>(log_q_ratio) ==
               std::bit_cast<std::uint64_t>(o.log_q_ratio) &&
           std::bit_cast<std::uint64_t>(delta_energy) ==
               std::bit_cast<std::uint64_t>(o.delta_energy) &&
           rng_position == o.rng_position;
  }
};

/// propose()'s steps 3-5 as written before the sampling uniforms were
/// drawn in bulk and the quaternary reverse density got its own pass: one
/// uniform01 call per site, array budgets counted from the occupancy, the
/// reverse density fused into the s == 4 sampling pass. Energy dispatch
/// follows the kernel's kSparseDeltaShare.
Move reference_move(std::span<const float> probs, const Configuration& cfg,
                    double energy, const lattice::EpiHamiltonian& ham,
                    mc::Rng& rng) {
  const auto n = static_cast<std::size_t>(cfg.num_sites());
  const auto s = static_cast<std::size_t>(cfg.n_species());
  const std::vector<std::uint8_t> saved(cfg.occupancy().begin(),
                                        cfg.occupancy().end());
  std::vector<std::uint8_t> candidate(n);
  std::vector<double> remaining(s, 0.0);
  for (std::uint8_t sp : saved) remaining[sp] += 1.0;

  double log_q_fwd = 0.0;
  double log_q_rev = 0.0;
  double run_fwd = 1.0;
  if (s == 4) {
    double rem_f[4];
    double rem_r[4];
    for (std::size_t k = 0; k < 4; ++k) rem_f[k] = rem_r[k] = remaining[k];
    double run_rev = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float* block = &probs[i * 4];
      const double w0 = static_cast<double>(block[0]) * rem_f[0];
      const double w1 = static_cast<double>(block[1]) * rem_f[1];
      const double w2 = static_cast<double>(block[2]) * rem_f[2];
      const double w3 = static_cast<double>(block[3]) * rem_f[3];
      const double norm = (w0 + w1) + (w2 + w3);
      const double u = uniform01(rng) * norm;
      const double c1 = w0;
      const double c2 = w0 + w1;
      const double c3 = c2 + w2;
      std::size_t chosen = static_cast<std::size_t>(u >= c1) +
                           static_cast<std::size_t>(u >= c2) +
                           static_cast<std::size_t>(u >= c3);
      while (rem_f[chosen] <= 0.0) --chosen;
      const double wsel[4] = {w0, w1, w2, w3};
      run_fwd *= wsel[chosen] / norm;
      if (run_fwd < 1e-270) {
        log_q_fwd += std::log(run_fwd);
        run_fwd = 1.0;
      }
      candidate[i] = static_cast<std::uint8_t>(chosen);
      rem_f[chosen] -= 1.0;

      const auto a = static_cast<std::size_t>(saved[i]);
      const double norm_r = static_cast<double>(block[0]) * rem_r[0] +
                            static_cast<double>(block[1]) * rem_r[1] +
                            static_cast<double>(block[2]) * rem_r[2] +
                            static_cast<double>(block[3]) * rem_r[3];
      run_rev *= static_cast<double>(block[a]) * rem_r[a] / norm_r;
      if (run_rev < 1e-270) {
        log_q_rev += std::log(run_rev);
        run_rev = 1.0;
      }
      rem_r[a] -= 1.0;
    }
    log_q_rev += std::log(run_rev);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const float* block = &probs[i * s];
      double norm = 0.0;
      for (std::size_t k = 0; k < s; ++k)
        norm += static_cast<double>(block[k]) * remaining[k];
      double u = uniform01(rng) * norm;
      std::size_t chosen = s - 1;
      for (std::size_t k = 0; k < s; ++k) {
        const double w = static_cast<double>(block[k]) * remaining[k];
        if (u < w) {
          chosen = k;
          break;
        }
        u -= w;
      }
      while (remaining[chosen] <= 0.0) --chosen;
      run_fwd *= static_cast<double>(block[chosen]) * remaining[chosen] / norm;
      if (run_fwd < 1e-270) {
        log_q_fwd += std::log(run_fwd);
        run_fwd = 1.0;
      }
      candidate[i] = static_cast<std::uint8_t>(chosen);
      remaining[chosen] -= 1.0;
    }
    log_q_rev =
        VaeProposal::sequential_log_density(probs, saved, cfg.n_species())
            .value();
  }
  log_q_fwd += std::log(run_fwd);

  Move m;
  std::size_t n_changed = 0;
  for (std::size_t i = 0; i < n; ++i)
    n_changed += candidate[i] != saved[i] ? 1u : 0u;
  m.sparse = n_changed * VaeProposal::kSparseDeltaShare <= n;
  if (m.sparse) {
    lattice::DeltaWorkspace ws;
    m.delta_energy = ham.assign_delta(cfg, candidate, ws).delta_energy;
  } else {
    Configuration next = cfg;
    next.assign(candidate);
    m.delta_energy = ham.total_energy(next) - energy;
  }
  m.candidate = std::move(candidate);
  m.log_q_ratio = log_q_rev - log_q_fwd;
  m.rng_position = rng.position();
  return m;
}

/// Drive the kernel for `steps` moves (accepting every other one) and
/// check each against reference_move on the same probs, state and
/// physics stream. Returns how many moves took the sparse energy walk.
int expect_moves_match_reference(const Lattice& lat, int n_species,
                                 std::span<const double> fractions,
                                 std::int32_t k, int steps) {
  const auto ham = lattice::random_epi(n_species, 2, 0.1, 17);
  auto vae = make_vae(lat.num_sites(), n_species, 23);
  VaeProposal prop(ham, vae);
  prop.set_decode_batch(k);
  mc::Rng rng(31, 0);
  auto cfg = lattice::random_configuration(lat, n_species, rng, fractions);
  rng.seek(rng.position() + 3);  // an odd buffer offset for the draws
  double energy = ham.total_energy(cfg);
  int sparse = 0;
  for (int step = 0; step < steps; ++step) {
    const Configuration before = cfg;
    mc::Rng ref_rng = rng;
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    Move got;
    got.candidate.assign(cfg.occupancy().begin(), cfg.occupancy().end());
    got.log_q_ratio = r.log_q_ratio.value();
    got.delta_energy = r.delta_energy.value();
    got.rng_position = rng.position();
    const Move want =
        reference_move(prop.last_probs(), before, energy, ham, ref_rng);
    EXPECT_TRUE(got == want) << "step " << step << " (K = " << k
                             << ", s = " << n_species << ")";
    sparse += want.sparse ? 1 : 0;
    if (step % 2 == 0) {
      energy += r.delta_energy.value();
    } else {
      prop.revert(cfg);
    }
  }
  return sparse;
}

TEST(VaeProposalLoops, QuaternaryMatchesTheFusedLoopItReplaced) {
  // 1024 sites: each density's running product flushes to log space
  // about twice per move. The skewed composition keeps candidates close
  // to the state, so both energy paths are taken.
  const auto lat = Lattice::create(LatticeType::kBCC, 8, 8, 8, 2);
  const std::vector<double> skewed = {0.93, 0.02, 0.02, 0.02};
  for (const std::int32_t k : {1, 16}) {
    EXPECT_EQ(expect_moves_match_reference(lat, 4, {}, k, 20), 0);
    const int sparse = expect_moves_match_reference(lat, 4, skewed, k, 40);
    EXPECT_GT(sparse, 0);
    EXPECT_LT(sparse, 40);
  }
}

TEST(VaeProposalLoops, GenericMatchesTheLoopItReplaced) {
  const auto lat = Lattice::create(LatticeType::kBCC, 8, 8, 8, 2);
  const std::vector<double> skewed = {0.96, 0.02, 0.02};
  for (const std::int32_t k : {1, 16}) {
    (void)expect_moves_match_reference(lat, 3, {}, k, 20);
    const int sparse = expect_moves_match_reference(lat, 3, skewed, k, 40);
    EXPECT_GT(sparse, 0);
  }
}

}  // namespace
}  // namespace dt::core
