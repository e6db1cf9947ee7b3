// The DeepThermo global-update proposal: a VAE decoder drives a
// composition-preserving, exactly-correctable Metropolis-Hastings kernel.
//
// Scheme (auxiliary-variable MH; detailed balance holds exactly):
//   1. Draw z ~ N(0, I) fresh each move, independent of the state.
//   2. Decode per-site categorical probabilities p(sigma_i | z).
//   3. Sample the candidate x' by *constrained sequential sampling*: visit
//      sites in order, renormalising the categorical at each site by the
//      remaining species budget so the fixed alloy composition is
//      conserved by construction. Its density q(x|z) is an exact product
//      of the renormalised site probabilities.
//   4. Report log_q_ratio = ln q(x|z) - ln q(x'|z) using the SAME z on
//      both sides. The resulting kernel
//          K(x->x') = Int p(z) q(x'|z) A(x,x',z) dz,
//          A = min(1, [pi(x') q(x|z)] / [pi(x) q(x'|z)])
//      satisfies pi(x) K(x->x') = pi(x') K(x'->x) because the integrand
//      min(pi(x) q(x'|z), pi(x') q(x|z)) is symmetric in (x, x').
//
// The decoder's probabilities are floored (uniform mixing, see
// Vae::decode_probs), so q(x|z) > 0 everywhere: the kernel is irreducible
// on the fixed-composition slice and the log-ratio is bounded.
//
// Decode-ahead fast path (RNG stream discipline)
// ----------------------------------------------
// Decoding one latent at a time pays a batch-1 GEMM per proposal; this
// kernel instead batch-decodes K latents into a buffer and serves them
// one proposal at a time. So that the buffer is pure CACHE -- no
// behavioural state -- the latent draws do NOT come from the walker's
// physics stream:
//
//  * The physics stream (the `rng` passed to propose()) supplies ONLY
//    the n per-site uniforms of the constrained sequential sampling.
//    Its draw order is identical for every decode batch size.
//  * Latents come from a dedicated Philox stream whose key is derived
//    from the physics stream's key (fixed XOR tag, so it is distinct
//    from every physics/exchange stream yet needs no extra wiring), and
//    whose counter is a pure function of the proposal ordinal: proposal
//    t consumes exactly the draws [t*4*latent, (t+1)*4*latent) (normal01
//    on a 32-bit generator consumes 4 draws). z_t therefore depends only
//    on t, never on K.
//
// Consequences, both pinned in test_vae_proposal:
//  * Proposal sequences are bitwise identical for any decode batch size.
//  * The only persistent fast-path state is the served-proposal ordinal
//    `served_`; save_state/load_state round-trip it (plus the stats) and
//    a resumed walker regenerates the buffer on demand, bit-exactly.
//
// z stays independent of the chain state, so the MH argument above is
// untouched. Energy evaluation uses the sparse EpiHamiltonian::
// assign_delta walk over changed sites when the candidate differs on at
// most 1/kSparseDeltaShare of the lattice (else a full recompute is
// cheaper), with a periodic audit against total_energy
// (set_audit_interval).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "lattice/hamiltonian.hpp"
#include "common/units.hpp"
#include "mc/proposal.hpp"
#include "nn/vae.hpp"
#include "obs/metrics.hpp"

namespace dt::core {

class DecodePlane;

struct VaeProposalStats {
  std::uint64_t proposed = 0;
  std::uint64_t reverted = 0;

  /// Upper bound on acceptance (accepted = proposed - reverted).
  [[nodiscard]] double acceptance_rate() const {
    return proposed == 0
               ? 0.0
               : 1.0 - static_cast<double>(reverted) /
                           static_cast<double>(proposed);
  }
};

class VaeProposal final : public mc::Proposal {
 public:
  /// Decode-ahead depth: latents decoded per VAE forward pass. 16 keeps
  /// the decoder weight streaming amortised (the buffer is K * n_sites *
  /// n_species floats per walker -- ~0.5 MB at paper scale).
  static constexpr std::int32_t kDefaultDecodeBatch = 16;
  /// The energy delta takes the sparse assign_delta walk when at most
  /// n_sites / kSparseDeltaShare sites change, else a full recompute.
  /// bench_micro at N = 2000 puts the break-even between ~250 and ~330
  /// changed sites (BM_AssignDelta/10/* against BM_TotalEnergy/10,
  /// BENCH_vae.json); 8 takes its lower end.
  static constexpr std::size_t kSparseDeltaShare = 8;
  /// Default audit cadence (proposals between delta-vs-total cross
  /// checks); denser in debug builds where the audit cost is acceptable.
#ifdef NDEBUG
  static constexpr std::uint64_t kDefaultAuditInterval = 512;
#else
  static constexpr std::uint64_t kDefaultAuditInterval = 64;
#endif

  /// `vae` is shared (read-only during sampling) across walkers; its
  /// n_sites/n_species must match the configurations sampled.
  VaeProposal(const lattice::EpiHamiltonian& hamiltonian,
              std::shared_ptr<nn::Vae> vae);
  ~VaeProposal() override;

  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override;
  void revert(lattice::Configuration& cfg) override;
  [[nodiscard]] std::string name() const override { return "vae-global"; }
  [[nodiscard]] bool is_global() const override { return true; }

  [[nodiscard]] const VaeProposalStats& stats() const { return stats_; }
  [[nodiscard]] nn::Vae& vae() { return *vae_; }

  /// Conditional models: fix the decoder condition for this walker
  /// (e.g. its window's normalised centre energy). The condition must be
  /// STATE-INDEPENDENT -- constant per walker -- or detailed balance is
  /// lost; that is why it is a set-once property, not a per-move input.
  /// Invalidates any decoded-ahead buffer.
  void set_condition(std::vector<float> condition);

  /// Route decode-ahead refills through the shared cross-walker decode
  /// plane instead of this walker's own decode_probs_batch call, and
  /// prefetch the NEXT buffer while the current one is being served
  /// (double buffering: the refill for buffer B is enqueued as soon as
  /// the first row of buffer A has been served, so by the time A drains
  /// the plane has usually already decoded B in someone's fused batch).
  /// The plane's serving VAE must be bitwise weight-identical to this
  /// walker's (framework contract). Pass nullptr to detach and fall back
  /// to per-walker decoding. Either way the proposal sequence is
  /// unchanged, bitwise (pinned in test_decode_plane).
  void attach_decode_plane(std::shared_ptr<DecodePlane> plane);
  [[nodiscard]] bool plane_attached() const { return plane_ != nullptr; }

  /// Cumulative seconds propose() spent blocked in DecodePlane::wait()
  /// (including time spent serving as leader) and the number of such
  /// waits -- the walker's decode-wait telemetry.
  [[nodiscard]] double decode_wait_seconds() const {
    return decode_wait_seconds_;
  }
  [[nodiscard]] std::uint64_t decode_waits() const { return decode_waits_; }

  /// Drop the decoded-ahead probabilities. MUST be called whenever the
  /// shared VAE's weights change under the kernel (e.g. after a mid-run
  /// ddp_fit refresh): buffered probs decoded from the old weights would
  /// otherwise survive the refresh, making the sampled sequence depend
  /// on K and breaking bit-exact resume. Latent ordinals are untouched.
  /// Also cancels any in-flight plane prefetch and clears the
  /// last_probs() span -- stale pre-invalidation rows must not survive
  /// as "the probs that produced the most recent proposal".
  void invalidate_decode_cache();

  /// Decode-ahead depth K (>= 1; 1 recovers per-proposal decoding).
  /// Changing K never changes the proposal sequence -- see the stream
  /// discipline above. Invalidates the current buffer.
  void set_decode_batch(std::int32_t k);
  [[nodiscard]] std::int32_t decode_batch() const { return decode_batch_; }

  /// Audit cadence: cross-check the sparse delta against total_energy
  /// every `interval` proposals (0 disables). A disagreement beyond
  /// 1e-9 * max(1, |E|) aborts via DT_CHECK and counts in the
  /// kernel.vae.audit.failures metric.
  void set_audit_interval(std::uint64_t interval) {
    audit_interval_ = interval;
  }

  /// Proposals served so far == the next latent ordinal (the fast
  /// path's only persistent state).
  [[nodiscard]] std::uint64_t served() const { return served_; }

  /// Round-trip `served_` + stats; the decode buffer is a cache and is
  /// deliberately NOT saved -- it regenerates bit-exactly on demand.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Decoder probabilities (n_sites*n_species) that produced the most
  /// recent proposal; empty before the first propose() or after a cache
  /// invalidation. The detailed-balance checker recomputes both
  /// sequential densities from this span and cross-checks the kernel's
  /// own log_q_ratio bookkeeping exactly.
  [[nodiscard]] std::span<const float> last_probs() const;

  /// Exact log-density of `occupancy` under the constrained sequential
  /// process with per-site probabilities `probs` (n_sites*n_species).
  /// Exposed for tests.
  static units::LogWeight sequential_log_density(
      std::span<const float> probs, std::span<const std::uint8_t> occupancy,
      int n_species);

 private:
  /// Decode the next K latents (ordinals served_ .. served_+K-1) into
  /// probs_buffer_. `physics_key` seeds the derived latent stream.
  void refill(const std::array<std::uint32_t, 2>& physics_key);

  /// sequential_log_density against caller-provided scratch (the static
  /// public overload allocates; the hot path must not).
  static units::LogWeight sequential_log_density_scratch(
      std::span<const float> probs, std::span<const std::uint8_t> occupancy,
      int n_species, std::vector<double>& remaining);

  const lattice::EpiHamiltonian* hamiltonian_;
  std::shared_ptr<nn::Vae> vae_;
  VaeProposalStats stats_;
  std::vector<std::uint8_t> saved_;   // pre-proposal occupancy for revert
  std::vector<float> condition_;      // fixed decoder condition

  // Decode-ahead buffer (cache; reconstructible from served_ alone).
  // Double-buffered: rows are served from probs_buffers_[active_buf_]
  // while the plane prefetch decodes into the other half, so
  // last_probs() stays valid across a refill boundary.
  std::int32_t decode_batch_ = kDefaultDecodeBatch;
  std::uint64_t served_ = 0;          // proposals served == next ordinal
  std::int32_t buffer_pos_ = 0;       // next unserved slot
  std::int32_t buffer_fill_ = 0;      // decoded slots (0 == invalid)
  std::vector<float> z_batch_;        // K * latent scratch
  std::array<std::vector<float>, 2> probs_buffers_;  // K*n_sites*n_species
  int active_buf_ = 0;

  // Cross-walker decode plane (optional; see attach_decode_plane).
  std::shared_ptr<DecodePlane> plane_;
  int plane_slot_ = -1;
  bool prefetch_pending_ = false;     // next buffer submitted to the plane
  std::uint64_t prefetch_first_ = 0;  // first ordinal of that buffer
  double decode_wait_seconds_ = 0.0;
  std::uint64_t decode_waits_ = 0;

  // Hot-path scratch, hoisted out of propose().
  std::vector<double> remaining_;     // species budget (n_species)
  std::vector<std::uint8_t> candidate_;
  std::vector<double> uniforms_;      // the n sampling uniforms (n_sites)
  lattice::DeltaWorkspace delta_ws_;

  std::uint64_t audit_interval_ = kDefaultAuditInterval;

  // Shared metric handles (resolved once; adds gated on telemetry).
  obs::Counter* decode_batches_;
  obs::Counter* decode_decoded_;
  obs::Counter* decode_served_;
  obs::Counter* delta_changed_sites_;
  obs::Counter* delta_sparse_;
  obs::Counter* delta_full_;
  obs::Counter* audit_checks_;
  obs::Counter* audit_failures_;
};

}  // namespace dt::core
