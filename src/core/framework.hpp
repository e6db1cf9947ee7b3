// The DeepThermo framework: end-to-end pipeline from an alloy Hamiltonian
// to its density of states and thermodynamics.
//
// Pipeline (mirrors the paper's workflow):
//   1. Bracket the reachable energy range (quench) and build the grid.
//   2. Generate VAE training data: canonical Metropolis sampling along a
//      temperature ladder spanning disordered to ordered states.
//   3. Train the VAE proposal network.
//   4. Run replica-exchange Wang-Landau with the mixed local+VAE kernel
//      (optionally refreshing the VAE mid-run with data-parallel training
//      on configurations harvested from the walkers).
//   5. Normalise the stitched ln g(E) against the exact total state count
//      and hand it to mc::thermo for U/F/S/Cv and the transition
//      temperature.
//
// Setting use_vae = false yields the paper's baseline: plain REWL with
// local swaps only. Every bench compares the two.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/units.hpp"
#include "core/mixed_kernel.hpp"
#include "lattice/configuration.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "mc/dos.hpp"
#include "mc/thermo.hpp"
#include "nn/trainer.hpp"
#include "nn/vae.hpp"
#include "par/rewl.hpp"

namespace dt::core {

struct LatticeSpec {
  lattice::LatticeType type = lattice::LatticeType::kBCC;
  int nx = 6, ny = 6, nz = 6;
  int n_shells = 2;
};

struct PretrainOptions {
  double t_hi = 0.25;   ///< ladder start (disordered), energy units
  double t_lo = 0.02;   ///< ladder end (ordered)
  int n_temperatures = 6;
  std::int64_t equilibration_sweeps = 40;
  std::int64_t sweeps_between_samples = 2;
  int samples_per_temperature = 48;
};

struct VaeTrainOptions {
  std::int64_t hidden = 96;
  std::int64_t latent = 12;
  float kl_weight = 1.0f;
  float prob_floor = 1e-3f;
  int epochs = 30;
  int batch_size = 32;
  float learning_rate = 1e-3f;
  std::size_t dataset_capacity = 4096;
};

enum class EnergyRangeMode {
  /// Ground state to the infinite-temperature region plus a fluctuation
  /// margin. The high-energy anti-ordered tail is excluded -- it carries
  /// no weight at any physical T > 0 and is the hardest part of the
  /// spectrum to sample flat. Default, and what the paper's
  /// thermodynamics require.
  kThermal,
  /// Full reachable spectrum (down-quench to up-quench); needed only for
  /// negative-temperature / complete-DOS studies.
  kFullSpectrum,
};

struct DeepThermoOptions {
  LatticeSpec lattice;
  int n_species = 4;
  std::int32_t n_bins = 240;
  EnergyRangeMode range_mode = EnergyRangeMode::kThermal;
  double range_pad = 0.01;          ///< padding of the quenched range
  /// kThermal: upper edge = <E>_rand + range_sigma * std(E)_rand.
  double range_sigma = 5.0;
  std::int64_t quench_sweeps = 40;  ///< range-bracketing effort
  PretrainOptions pretrain;
  VaeTrainOptions vae;
  par::RewlOptions rewl;
  bool use_vae = true;              ///< false: plain-REWL baseline
  double global_fraction = 0.05;    ///< VAE share of the mixed kernel
  /// Decode-ahead depth of the VAE kernel: latents batch-decoded per VAE
  /// forward pass (<= 0: keep VaeProposal::kDefaultDecodeBatch). Pure
  /// performance knob -- the proposal sequence is identical for any
  /// value (see core/vae_proposal.hpp, stream discipline).
  std::int32_t vae_decode_batch = 0;
  /// Route every walker's decode-ahead refill through one shared
  /// cross-walker decode plane (see core/decode_plane.hpp): refills
  /// coalesce into fused multi-walker GEMMs against a packed-weight
  /// cache, with double-buffered prefetch per walker. Off by default:
  /// each walker decoding its own K-row buffer measured faster end to
  /// end (README "Performance tuning"). Pure performance knob --
  /// proposals are bitwise identical either way.
  bool decode_plane = false;
  /// Max microseconds a plane leader waits for stragglers before serving
  /// a partial batch (see DecodePlane::Options::window_us).
  std::int64_t decode_plane_window_us = 200;
  /// Conditional-VAE extension: train the decoder conditioned on the
  /// (normalised) sample energy and fix each walker's condition to its
  /// window's centre, steering global proposals towards the window. The
  /// condition is constant per walker, so detailed balance is untouched.
  bool condition_on_energy = false;
  /// Refresh the VAE every this many exchange rounds with data-parallel
  /// training on walker-harvested configurations (0 disables).
  std::int64_t retrain_every_rounds = 0;
  int retrain_epochs = 1;
  /// Multicanonical production phase after REWL: run this many sweeps
  /// with the stitched ln g as FIXED weights and refine the DOS with the
  /// production histogram (0 disables). Removes the final-ln f bias and
  /// yields a flatness quality metric (DeepThermoResult).
  std::int64_t production_sweeps = 0;
  /// Run-level checkpoint/restart. Non-empty `checkpoint_dir` enables
  /// periodic crash-consistent saves (see src/ckpt): every
  /// `checkpoint_interval_rounds` REWL exchange rounds, every
  /// `checkpoint_pretrain_epochs` VAE pretrain epochs (0: none mid-
  /// pretrain), at every phase transition, and on SIGUSR1/SIGTERM when
  /// ckpt::install_signal_handlers() is active. With `resume` set, run()
  /// restores the newest valid generation and continues bit-exactly.
  std::string checkpoint_dir;
  std::int64_t checkpoint_interval_rounds = 25;
  /// Wall-clock floor between periodic REWL saves (seconds): bounds
  /// checkpoint overhead at roughly save_cost / floor even when exchange
  /// rounds are much faster than `checkpoint_interval_rounds` assumes.
  /// 0 disables the throttle (saves strictly every interval_rounds --
  /// what the fault-injection tests use for reproducible kill points).
  double checkpoint_min_interval_seconds = 1.0;
  std::int32_t checkpoint_pretrain_epochs = 0;
  int checkpoint_keep = 3;
  bool resume = false;
  std::uint64_t seed = 42;
};

struct DeepThermoResult {
  mc::EnergyGrid grid;
  mc::DensityOfStates dos;          ///< normalised to the exact state count
  par::RewlResult rewl;
  std::optional<nn::TrainReport> pretrain_report;
  double pretrain_seconds = 0.0;
  double sample_seconds = 0.0;
  /// Aggregated over all walkers (zero when use_vae == false).
  VaeProposalStats vae_stats;
  KernelStats local_stats;
  /// Production-phase histogram flatness (1 = the REWL ln g was exact);
  /// 0 when no production phase ran.
  double production_flatness = 0.0;
  double production_seconds = 0.0;
  /// Per-epoch VAE pretrain losses, accumulated across checkpoint/resume
  /// boundaries (the fault-injection harness asserts this trace is
  /// bit-identical between an interrupted+resumed run and a straight one).
  std::vector<float> vae_loss_trace;
  /// Rank-0 VAE weights after the run (empty when use_vae == false);
  /// bit-compared by the same harness.
  std::string final_vae_weights;
  /// True when this result came out of a resumed run.
  bool resumed = false;
};

class Framework {
 public:
  /// Takes ownership of the options; the Hamiltonian's shell count must
  /// not exceed the lattice spec's.
  Framework(DeepThermoOptions options, lattice::EpiHamiltonian hamiltonian);

  /// Convenience: the paper's quaternary NbMoTaW system.
  static Framework nbmotaw(DeepThermoOptions options);

  [[nodiscard]] const DeepThermoOptions& options() const { return options_; }
  [[nodiscard]] const lattice::Lattice& lattice_ref() const { return lattice_; }
  [[nodiscard]] const lattice::EpiHamiltonian& hamiltonian() const {
    return hamiltonian_;
  }
  [[nodiscard]] const mc::EnergyGrid& grid() const { return grid_; }

  /// ln of the exact number of fixed-composition configurations.
  [[nodiscard]] double log_total_states() const;

  /// Energy mapped to [0, 1] over the grid range (the conditional-VAE
  /// condition signal).
  [[nodiscard]] double normalized_energy(units::Energy energy) const;

  /// Steps 2-3: generate training data and fit the VAE. Called by run()
  /// when needed; callable directly for experiments. Returns the report
  /// and retains the trained model (see vae()).
  nn::TrainReport pretrain();

  [[nodiscard]] std::shared_ptr<nn::Vae> vae() const { return vae_; }

  /// Full pipeline. Returns the normalised DOS plus all run metadata.
  DeepThermoResult run();

  /// Thermodynamic scan helper over the result's DOS.
  [[nodiscard]] static std::vector<mc::ThermoPoint> scan(
      const DeepThermoResult& result, double t_lo, double t_hi,
      std::size_t n_points);

 private:
  /// Where run() currently is / where a checkpoint was taken. Serialized
  /// into the "framework" checkpoint component; resume dispatches on it
  /// (see DESIGN.md "Resume state machine").
  enum class Phase : std::int32_t {
    kPretrain = 0,
    kRewl = 1,
    kProduction = 2,
  };

  struct RunCheckpoint;  ///< run()'s store and resumed generation

  [[nodiscard]] nn::VaeOptions make_vae_options() const;
  /// pretrain() with optional mid-training checkpointing/resume.
  nn::TrainReport pretrain_impl(ckpt::CheckpointStore* store,
                                const ckpt::Checkpoint* resume);

  // run()'s stages, in order (steps 2-3, 4, production).
  RunCheckpoint open_checkpoint();
  void prepare_vae(const RunCheckpoint& ck, DeepThermoResult& result);
  void sample(const RunCheckpoint& ck, DeepThermoResult& result);
  void produce(DeepThermoResult& result) const;

  /// "framework" component, plus the pretrained weights once they exist.
  void save_framework_component(ckpt::CheckpointBuilder& builder,
                                Phase phase) const;
  /// One phase checkpoint: the framework component, `add`'s components.
  void save_phase(
      ckpt::CheckpointStore& store, Phase phase,
      const std::function<void(ckpt::CheckpointBuilder&)>& add) const;

  DeepThermoOptions options_;
  lattice::Lattice lattice_;
  lattice::EpiHamiltonian hamiltonian_;
  mc::EnergyGrid grid_;
  std::shared_ptr<nn::Vae> vae_;
  std::string pretrained_weights_;  ///< serialized, for per-rank replicas
  std::vector<float> loss_trace_;   ///< pretrain losses across resumes
};

}  // namespace dt::core
