// Effective pair interaction (EPI) Hamiltonian for multi-component alloys.
//
//   E(sigma) = sum_s sum_{<ij> in shell s} V_s(sigma_i, sigma_j)
//
// where V_s is a symmetric species-pair coupling matrix per neighbour
// shell. This is the cluster expansion truncated at pairs, the standard
// configurational model for refractory HEAs (e.g. NbMoTaW).
//
// The class provides the O(z) swap energy difference used by local Monte
// Carlo moves and the O(N z) total energy used to audit bookkeeping and to
// evaluate global (VAE-proposed) configurations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lattice/configuration.hpp"
#include "lattice/lattice.hpp"

namespace dt::lattice {

/// Reusable scratch for EpiHamiltonian::assign_delta -- holding it in the
/// caller (one per walker) keeps the hot path allocation-free.
struct DeltaWorkspace {
  std::vector<std::uint8_t> changed_mask;     // per-site "differs" flag
  std::vector<std::int32_t> changed_sites;    // indices of changed sites
};

struct AssignDeltaResult {
  double delta_energy = 0.0;
  std::int32_t n_changed = 0;  ///< sites where candidate differs from cfg
};

class EpiHamiltonian {
 public:
  /// `couplings[s]` is the row-major S x S matrix V_s; each must be
  /// symmetric (checked). Shell count must not exceed the lattice's.
  EpiHamiltonian(int n_species,
                 std::vector<std::vector<double>> couplings);

  [[nodiscard]] int n_species() const { return n_species_; }
  [[nodiscard]] int n_shells() const { return n_shells_; }

  [[nodiscard]] double coupling(int shell, Species a, Species b) const {
    // One contiguous [shell][a][b] table: a single indexed load in the
    // delta/total-energy inner loops instead of a double indirection.
    return coupling_row(shell, a)[b];
  }

  /// Row V_s(a, *) of the flat table; hot loops hoist this so the inner
  /// bond iteration is a single indexed load per neighbour.
  [[nodiscard]] const double* coupling_row(int shell, Species a) const {
    return &couplings_[(static_cast<std::size_t>(shell) *
                            static_cast<std::size_t>(n_species_) +
                        a) *
                       static_cast<std::size_t>(n_species_)];
  }

  /// Total energy, each pair counted once. Dispatches to an OpenMP
  /// reduction for large lattices (the VAE global move costs one full
  /// evaluation per proposal, so this is a hot path at paper scale).
  [[nodiscard]] double total_energy(const Configuration& cfg) const;

  /// Force the serial / parallel path (testing and benchmarking).
  [[nodiscard]] double total_energy_serial(const Configuration& cfg) const;
  [[nodiscard]] double total_energy_parallel(const Configuration& cfg) const;

  /// Energy of the bonds incident to `site` (pairs with all neighbours).
  [[nodiscard]] double site_energy(const Configuration& cfg,
                                   std::int32_t site) const;

  /// Energy change of exchanging the species at sites `a` and `b`
  /// (without mutating cfg). Exact also when a and b are neighbours.
  [[nodiscard]] double swap_delta(const Configuration& cfg, std::int32_t a,
                                  std::int32_t b) const;

  /// Energy change of re-assigning `site` to `species`.
  [[nodiscard]] double set_delta(const Configuration& cfg, std::int32_t site,
                                 Species species) const;

  /// Energy change of replacing cfg's occupancy wholesale by `candidate`
  /// (same length; cfg is NOT mutated), visiting only the bonds incident
  /// to CHANGED sites -- O(f N z) for a changed-site fraction f instead
  /// of the O(N z) full recompute. Exact: bonds between two changed
  /// sites are counted once (via the nb > site rule), bonds to unchanged
  /// neighbours contribute their coupling difference. The VAE global
  /// move uses this instead of total_energy (see DESIGN.md "Proposal
  /// fast path"). The walk visits each changed site's bonds from both
  /// endpoints through scattered loads and one serial Kahan chain, so it
  /// is cheaper than total_energy only for f below about 1/8 (measured
  /// at N = 2000 with bench_micro); VaeProposal::kSparseDeltaShare
  /// dispatches on that.
  AssignDeltaResult assign_delta(const Configuration& cfg,
                                 std::span<const Species> candidate,
                                 DeltaWorkspace& ws) const;

  /// Lower/upper bounds on the per-bond coupling, used to bracket the
  /// reachable energy range: N_bonds * min <= E <= N_bonds * max.
  [[nodiscard]] double min_coupling() const { return min_coupling_; }
  [[nodiscard]] double max_coupling() const { return max_coupling_; }

  /// Total number of bonds on `lat` within this Hamiltonian's shells.
  [[nodiscard]] std::int64_t bond_count(const Lattice& lat) const;

 private:
  int n_species_;
  int n_shells_;
  std::vector<double> couplings_;  // flat [(shell*S + a)*S + b]
  double min_coupling_ = 0.0;
  double max_coupling_ = 0.0;
};

/// Literature-shaped EPI set for the quaternary refractory HEA
/// (Nb, Mo, Ta, W) on BCC with two shells. Units are eV-scale and the
/// dominant feature -- strong first-shell Mo-Ta (B2-type) ordering with
/// weaker Nb/W interactions -- matches published cluster expansions in
/// qualitative structure. Species order: 0=Nb, 1=Mo, 2=Ta, 3=W.
EpiHamiltonian epi_nbmotaw();

/// Degenerate two-species EPI reproducing a spin-1/2 Ising
/// antiferromagnet/ferromagnet with coupling J on the first shell:
/// V(a,b) = -J if a==b else +J (energy per bond; spin map s=2a-1).
EpiHamiltonian epi_ising(double j_coupling, int n_shells = 1);

/// Reproducible random EPI landscape: couplings ~ scale * U(-1,1),
/// symmetrised; used by stress/property tests.
EpiHamiltonian random_epi(int n_species, int n_shells, double scale,
                          std::uint64_t seed);

}  // namespace dt::lattice
