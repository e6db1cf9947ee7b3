#include "core/framework.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "ckpt/fault.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/math.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "common/units.hpp"
#include "core/decode_plane.hpp"
#include "mc/metropolis.hpp"
#include "mc/multicanonical.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/ddp.hpp"
#include "par/partition.hpp"

namespace dt::core {

namespace {

constexpr std::uint64_t kFrameworkMagic = 0x44'54'46'52'41'4D'45'31ULL;

/// Binary (bit-exact) DOS serialisation for checkpoints; the text
/// DensityOfStates::save is for human consumption and does not round-trip
/// doubles exactly.
void write_dos(std::ostream& os, const mc::DensityOfStates& dos) {
  // A default-constructed DOS has no bin storage; num_visited() is the
  // only accessor that is safe on it.
  const std::uint8_t has = dos.num_visited() > 0 ? 1 : 0;
  write_pod(os, has);
  if (has == 0) return;
  write_pod(os, dos.grid().e_min());
  write_pod(os, dos.grid().e_max());
  write_pod(os, dos.grid().n_bins());
  for (std::int32_t b = 0; b < dos.grid().n_bins(); ++b) {
    const std::uint8_t v = dos.visited(b) ? 1 : 0;
    write_pod(os, v);
    if (v != 0) write_pod(os, dos.log_g(b));
  }
}

mc::DensityOfStates read_dos(std::istream& is) {
  if (read_pod<std::uint8_t>(is) == 0) return {};
  const auto e_min = read_pod<double>(is);
  const auto e_max = read_pod<double>(is);
  const auto n_bins = read_pod<std::int32_t>(is);
  mc::DensityOfStates dos{mc::EnergyGrid(e_min, e_max, n_bins)};
  for (std::int32_t b = 0; b < n_bins; ++b)
    if (read_pod<std::uint8_t>(is) != 0)
      dos.set(b, units::LogDoS(read_pod<double>(is)));
  return dos;
}

void write_rewl_result(std::ostream& os, const par::RewlResult& r) {
  write_dos(os, r.dos);
  write_vector(os, r.windows);
  write_pod<std::uint8_t>(os, r.converged ? 1 : 0);
  write_pod(os, r.total_sweeps);
  write_pod(os, r.wall_seconds);
  write_pod(os, r.last_checkpoint_generation);
  write_vector(os, r.walker_energies);
  write_vector(os, r.walker_rng_positions);
}

par::RewlResult read_rewl_result(std::istream& is) {
  par::RewlResult r;
  r.dos = read_dos(is);
  r.windows = read_vector<par::RewlWindowReport>(is);
  r.converged = read_pod<std::uint8_t>(is) != 0;
  r.total_sweeps = read_pod<std::int64_t>(is);
  r.wall_seconds = read_pod<double>(is);
  r.last_checkpoint_generation = read_pod<std::uint64_t>(is);
  r.walker_energies = read_vector<double>(is);
  r.walker_rng_positions = read_vector<std::uint64_t>(is);
  return r;
}

mc::EnergyGrid build_grid(const lattice::EpiHamiltonian& hamiltonian,
                          const lattice::Lattice& lat,
                          const DeepThermoOptions& options) {
  DT_SPAN("bracket_range");
  // Validate before quenching: this runs from Framework's initializer
  // list, ahead of the constructor-body checks, and a species mismatch
  // would index the Hamiltonian's coupling table out of bounds.
  DT_CHECK_MSG(hamiltonian.n_species() == options.n_species,
               "Hamiltonian species count does not match options");
  mc::Rng rng(options.seed, stream_id(0xE0, 0));
  lattice::Configuration cfg =
      lattice::random_configuration(lat, options.n_species, rng);
  const auto [e_lo, e_hi] = mc::estimate_energy_range(
      hamiltonian, cfg, options.quench_sweeps, options.range_pad,
      mc::Rng(options.seed, stream_id(0xE0, 1)));
  if (options.range_mode == EnergyRangeMode::kFullSpectrum)
    return mc::EnergyGrid(e_lo, e_hi, options.n_bins);

  // Thermal range: upper edge from the statistics of random (infinite-T)
  // configurations instead of the up-quenched anti-ordered extreme.
  RunningStats stats;
  mc::Rng sample_rng(options.seed, stream_id(0xE0, 2));
  for (int k = 0; k < 200; ++k) {
    const auto sample =
        lattice::random_configuration(lat, options.n_species, sample_rng);
    stats.add(hamiltonian.total_energy(sample));
  }
  const double thermal_hi = stats.mean() + options.range_sigma * stats.stddev();
  DT_CHECK_MSG(thermal_hi > e_lo, "degenerate thermal energy range");
  return mc::EnergyGrid(e_lo, std::min(e_hi, thermal_hi), options.n_bins);
}

std::shared_ptr<nn::Vae> load_vae(const nn::VaeOptions& options,
                                  std::uint64_t seed,
                                  const std::string& weights) {
  auto vae = std::make_shared<nn::Vae>(options, seed);
  std::istringstream in(weights, std::ios::binary);
  vae->load(in);
  return vae;
}

/// Bank one configuration; a conditional VAE also gets its normalised
/// energy as the condition.
void bank(const Framework& fw, nn::ConfigDataset& dataset,
          const lattice::Configuration& cfg, units::Energy energy,
          Xoshiro256ss& rng) {
  const float c = static_cast<float>(fw.normalized_energy(energy));
  dataset.add(cfg.occupancy(), rng,
              fw.options().condition_on_energy ? std::span<const float>(&c, 1)
                                               : std::span<const float>());
}

/// Push `vae`'s weights into the plane's serving replica. Callers keep
/// the plane's refresh contract (no walker decodes meanwhile).
void refresh_plane(DecodePlane& plane, const nn::Vae& vae) {
  std::ostringstream ws(std::ios::binary);
  vae.save(ws);
  std::istringstream rs(std::move(ws).str(), std::ios::binary);
  plane.refresh_weights(rs);
}

/// One rank's sampling state: built on the rank's own thread by
/// make_kernel, read back after run_rewl has joined the ranks.
class RankState {
 public:
  RankState(const Framework& fw, const std::string& pretrained_weights,
            std::shared_ptr<DecodePlane> plane)
      : fw_(fw), pretrained_weights_(pretrained_weights),
        plane_(std::move(plane)) {}

  std::shared_ptr<mc::Proposal> make_kernel(int rank) {
    const DeepThermoOptions& opts = fw_.options();
    rank_ = rank;
    if (!opts.use_vae)
      return std::make_shared<mc::LocalSwapProposal>(fw_.hamiltonian());

    // Per-rank replica: identical construction seed, then the pretrained
    // weights, so all replicas start in sync for data-parallel refreshes.
    vae_ = load_vae(fw_.vae()->options(), opts.seed, pretrained_weights_);
    if (opts.retrain_every_rounds > 0) {
      nn::TrainOptions to;
      to.epochs = 1;
      to.batch_size = opts.vae.batch_size;
      to.learning_rate = opts.vae.learning_rate;
      to.seed = opts.seed;  // identical eps streams across replicas
      trainer_ = std::make_unique<nn::Trainer>(*vae_, to);
      dataset_ = std::make_unique<nn::ConfigDataset>(
          fw_.lattice_ref().num_sites(), opts.vae.dataset_capacity,
          vae_->options().condition_dim);
      reservoir_rng_ = Xoshiro256ss(
          opts.seed ^ stream_id(static_cast<std::uint64_t>(rank), 7));
    }

    kernel_ = std::make_shared<DeepThermoProposal>(fw_.hamiltonian(), vae_,
                                                   opts.global_fraction);
    if (opts.vae_decode_batch > 0)
      kernel_->vae_kernel().set_decode_batch(opts.vae_decode_batch);
    if (opts.condition_on_energy) {
      // Fix this walker's decoder condition to its window centre --
      // state-independent, so the kernel stays exactly balanced.
      const auto windows = par::make_windows(
          fw_.grid().n_bins(), opts.rewl.n_windows, opts.rewl.overlap);
      const auto& w = windows[static_cast<std::size_t>(
          rank / opts.rewl.walkers_per_window)];
      const units::Energy centre(fw_.grid().energy((w.lo_bin + w.hi_bin) / 2));
      kernel_->vae_kernel().set_condition(
          {static_cast<float>(fw_.normalized_energy(centre))});
    }
    if (plane_ != nullptr) kernel_->attach_decode_plane(plane_);
    return kernel_;
  }

  /// Interval hook: bank the walker's configuration and, every
  /// retrain_every_rounds rounds, refresh the VAE data-parallel.
  void harvest_and_retrain(par::Communicator& comm,
                           mc::WangLandauSampler& walker) {
    const DeepThermoOptions& opts = fw_.options();
    bank(fw_, *dataset_, walker.configuration(), walker.energy(),
         reservoir_rng_);
    ++rounds_;
    if (rounds_ % opts.retrain_every_rounds != 0 || dataset_->size() < 2)
      return;
    par::ddp_fit(comm, *trainer_, *dataset_, opts.retrain_epochs,
                 opts.vae.batch_size);
    // The kernel may hold probabilities decoded from the old weights;
    // stale entries would make sampling depend on the decode batch size
    // and break bit-exact resume. With a plane this also cancels the
    // walker's in-flight prefetch.
    kernel_->vae_kernel().invalidate_decode_cache();
    if (plane_ == nullptr) return;
    // Refresh the plane's serving replica under the header's contract:
    // every rank has cancelled (above; ddp_fit makes this branch
    // collective), barrier so the plane is quiescent, rank 0 pushes its
    // post-fit weights (all replicas are identical after the allreduce),
    // barrier so nobody decodes before the refresh.
    comm.barrier();
    if (comm.rank() == 0) refresh_plane(*plane_, *vae_);
    comm.barrier();
  }

  void save(std::ostream& os) const {
    vae_->save(os);
    const std::uint8_t has_retrain = trainer_ ? 1 : 0;
    write_pod(os, has_retrain);
    if (has_retrain != 0) {
      trainer_->save_state(os);
      dataset_->save_state(os);
      write_pod(os, reservoir_rng_.state());
      write_pod(os, rounds_);
    }
    // Kernel behavioural state (VAE decode-ahead ordinal + stats) last, so
    // older records without it fail loudly on the magic.
    kernel_->save_state(os);
  }

  void load(std::istream& is) {
    vae_->load(is);
    const auto has_retrain = read_pod<std::uint8_t>(is);
    DT_CHECK_MSG((has_retrain != 0) == (trainer_ != nullptr),
                 "resume: retrain wiring does not match checkpoint");
    if (has_retrain != 0) {
      trainer_->load_state(is);
      dataset_->load_state(is);
      reservoir_rng_.set_state(read_pod<std::array<std::uint64_t, 4>>(is));
      rounds_ = read_pod<std::int64_t>(is);
    }
    kernel_->load_state(is);
    // The checkpointed replica may carry post-retrain weights; the plane
    // was built from the pretrained bytes, so re-sync it from rank 0's
    // restored replica (all replicas are identical). Safe here: no walker
    // samples before rank 0 passes the first top-of-round broadcast,
    // which happens after this hook.
    if (plane_ != nullptr && rank_ == 0) refresh_plane(*plane_, *vae_);
  }

  void add_stats(DeepThermoResult& result) const {
    if (kernel_ == nullptr) return;
    result.vae_stats.proposed += kernel_->vae_stats().proposed;
    result.vae_stats.reverted += kernel_->vae_stats().reverted;
    result.local_stats.proposed += kernel_->local_stats().proposed;
    result.local_stats.reverted += kernel_->local_stats().reverted;
  }
  /// Serialized replica weights (the pretrained ones if none was built).
  [[nodiscard]] std::string vae_weights() const {
    if (vae_ == nullptr) return pretrained_weights_;
    std::ostringstream weights(std::ios::binary);
    vae_->save(weights);
    return std::move(weights).str();
  }

 private:
  const Framework& fw_;
  const std::string& pretrained_weights_;
  std::shared_ptr<DecodePlane> plane_;
  int rank_ = 0;
  std::shared_ptr<nn::Vae> vae_;
  std::shared_ptr<DeepThermoProposal> kernel_;
  std::unique_ptr<nn::Trainer> trainer_;
  std::unique_ptr<nn::ConfigDataset> dataset_;
  Xoshiro256ss reservoir_rng_{0};
  std::int64_t rounds_ = 0;
};

}  // namespace

struct Framework::RunCheckpoint {
  std::unique_ptr<ckpt::CheckpointStore> store;  ///< nullptr: disabled
  std::optional<ckpt::Checkpoint> resume;        ///< generation resumed
  Phase phase = Phase::kPretrain;                ///< where `resume` was taken

  [[nodiscard]] bool resumed_in(Phase p) const {
    return resume.has_value() && phase == p;
  }
};

Framework::Framework(DeepThermoOptions options,
                     lattice::EpiHamiltonian hamiltonian)
    : options_(std::move(options)),
      lattice_(lattice::Lattice::create(options_.lattice.type,
                                        options_.lattice.nx,
                                        options_.lattice.ny,
                                        options_.lattice.nz,
                                        options_.lattice.n_shells)),
      hamiltonian_(std::move(hamiltonian)),
      grid_(build_grid(hamiltonian_, lattice_, options_)) {
  DT_CHECK_MSG(hamiltonian_.n_species() == options_.n_species,
               "Hamiltonian species count does not match options");
  DT_CHECK_MSG(hamiltonian_.n_shells() <= lattice_.num_shells(),
               "Hamiltonian needs more shells than the lattice resolves");
}

Framework Framework::nbmotaw(DeepThermoOptions options) {
  options.n_species = 4;
  if (options.lattice.type != lattice::LatticeType::kBCC)
    options.lattice.type = lattice::LatticeType::kBCC;
  return Framework(std::move(options), lattice::epi_nbmotaw());
}

double Framework::log_total_states() const {
  // Equiatomic largest-remainder composition, same as
  // random_configuration's default pool.
  const auto n = static_cast<std::size_t>(lattice_.num_sites());
  const auto s = static_cast<std::size_t>(options_.n_species);
  std::vector<std::size_t> counts(s, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[i % s];
  return log_multinomial(counts);
}

double Framework::normalized_energy(units::Energy energy) const {
  const double frac =
      (energy.value() - grid_.e_min()) / (grid_.e_max() - grid_.e_min());
  return std::clamp(frac, 0.0, 1.0);
}

nn::VaeOptions Framework::make_vae_options() const {
  nn::VaeOptions vo;
  vo.n_sites = lattice_.num_sites();
  vo.n_species = options_.n_species;
  vo.hidden = options_.vae.hidden;
  vo.latent = options_.vae.latent;
  vo.kl_weight = options_.vae.kl_weight;
  vo.prob_floor = options_.vae.prob_floor;
  vo.condition_dim = options_.condition_on_energy ? 1 : 0;
  return vo;
}

void Framework::save_framework_component(ckpt::CheckpointBuilder& builder,
                                         Phase phase) const {
  builder.component("framework", [&](std::ostream& os) {
    write_pod(os, kFrameworkMagic);
    write_pod(os, static_cast<std::int32_t>(phase));
    write_vector(os, loss_trace_);
  });
  if (options_.use_vae && !pretrained_weights_.empty())
    builder.add("vae.pretrained", pretrained_weights_);
}

void Framework::save_phase(
    ckpt::CheckpointStore& store, Phase phase,
    const std::function<void(ckpt::CheckpointBuilder&)>& add) const {
  ckpt::CheckpointBuilder builder;
  save_framework_component(builder, phase);
  if (add) add(builder);
  obs::HealthRegistry::global().set_checkpoint_generation(
      store.save(builder).generation);
}

nn::TrainReport Framework::pretrain() {
  return pretrain_impl(nullptr, nullptr);
}

nn::TrainReport Framework::pretrain_impl(ckpt::CheckpointStore* store,
                                         const ckpt::Checkpoint* resume) {
  DT_SPAN("pretrain");
  obs::HealthRegistry::global().set_phase("pretrain");
  const PretrainOptions& po = options_.pretrain;
  DT_CHECK(po.n_temperatures >= 1);
  DT_CHECK(po.t_hi >= po.t_lo && po.t_lo > 0.0);

  const std::int32_t cond_dim = options_.condition_on_energy ? 1 : 0;
  vae_ = std::make_shared<nn::Vae>(make_vae_options(), options_.seed);

  nn::ConfigDataset dataset(lattice_.num_sites(),
                            options_.vae.dataset_capacity, cond_dim);

  nn::TrainOptions to;
  to.epochs = options_.vae.epochs;
  to.batch_size = options_.vae.batch_size;
  to.learning_rate = options_.vae.learning_rate;
  to.seed = options_.seed ^ 0xD1B54A32D192ED03ULL;
  nn::Trainer trainer(*vae_, to);

  std::int32_t first_epoch = 0;
  if (resume != nullptr) {
    // Mid-pretrain resume: the ladder data is in the checkpoint, so the
    // annealing phase is skipped entirely.
    auto meta = resume->stream("pretrain.meta");
    first_epoch = read_pod<std::int32_t>(meta);
    auto vs = resume->stream("pretrain.vae");
    vae_->load(vs);
    auto ds = resume->stream("pretrain.dataset");
    dataset.load_state(ds);
    auto ts = resume->stream("pretrain.trainer");
    trainer.load_state(ts);
    DT_LOG_INFO << "pretrain: resuming at epoch " << first_epoch;
  } else {
    // ---- data generation: annealing ladder, high T -> low T ----
    obs::ScopedSpan ladder_span("pretrain.ladder");
    Xoshiro256ss reservoir_rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);

    mc::Rng init_rng(options_.seed, stream_id(0xAA, 0));
    lattice::Configuration cfg =
        lattice::random_configuration(lattice_, options_.n_species, init_rng);
    mc::MetropolisSampler sampler(hamiltonian_, cfg,
                                  units::Temperature(po.t_hi),
                                  mc::Rng(options_.seed, stream_id(0xAA, 1)));
    mc::LocalSwapProposal kernel(hamiltonian_);

    for (int t_idx = 0; t_idx < po.n_temperatures; ++t_idx) {
      // Geometric ladder hits ordering scales more evenly than linear.
      const double frac =
          po.n_temperatures == 1
              ? 0.0
              : static_cast<double>(t_idx) /
                    static_cast<double>(po.n_temperatures - 1);
      const double t = po.t_hi * std::pow(po.t_lo / po.t_hi, frac);
      sampler.set_temperature(units::Temperature(t));
      sampler.run(kernel, po.equilibration_sweeps);
      for (int k = 0; k < po.samples_per_temperature; ++k) {
        sampler.run(kernel, po.sweeps_between_samples);
        bank(*this, dataset, sampler.configuration(), sampler.energy(),
             reservoir_rng);
      }
    }
  }

  // ---- fit ----
  DT_SPAN("pretrain.fit");
  nn::EpochHook epoch_hook = [&](std::int32_t epoch, float loss) {
    loss_trace_.push_back(loss);
    const std::int32_t cadence = options_.checkpoint_pretrain_epochs;
    if (store != nullptr && cadence > 0 && (epoch + 1) % cadence == 0 &&
        epoch + 1 < to.epochs) {
      ckpt::fault_point("pretrain.epoch");
      save_phase(*store, Phase::kPretrain, [&](ckpt::CheckpointBuilder& b) {
        b.component("pretrain.meta", [&](std::ostream& os) {
          write_pod<std::int32_t>(os, epoch + 1);
        });
        b.component("pretrain.vae", [&](std::ostream& os) { vae_->save(os); });
        b.component("pretrain.dataset",
                    [&](std::ostream& os) { dataset.save_state(os); });
        b.component("pretrain.trainer",
                    [&](std::ostream& os) { trainer.save_state(os); });
      });
    }
  };
  nn::TrainReport report = trainer.fit(dataset, epoch_hook, first_epoch);

  std::ostringstream weights;
  vae_->save(weights);
  pretrained_weights_ = weights.str();

  DT_LOG_INFO << "pretrain: " << dataset.size() << " samples, final loss "
              << (report.epoch_loss.empty() ? 0.0f
                                            : report.epoch_loss.back());
  return report;
}

DeepThermoResult Framework::run() {
  DeepThermoResult result;
  result.grid = grid_;
  const RunCheckpoint ck = open_checkpoint();
  result.resumed = ck.resume.has_value();

  Stopwatch pretrain_clock;
  prepare_vae(ck, result);
  result.pretrain_seconds = pretrain_clock.seconds();

  if (ck.resumed_in(Phase::kProduction)) {
    // The checkpoint was taken after REWL finished: restore its result
    // and rerun only the (deterministic) production + normalisation.
    auto rs = ck.resume->stream("rewl.result");
    result.rewl = read_rewl_result(rs);
    result.vae_stats = read_pod<VaeProposalStats>(rs);
    result.local_stats = read_pod<KernelStats>(rs);
    if (ck.resume->has("vae.final"))
      result.final_vae_weights = ck.resume->blob("vae.final");
  } else {
    sample(ck, result);
  }
  result.vae_loss_trace = loss_trace_;
  result.dos = result.rewl.dos;

  // A run stopped early (SIGTERM-style) after a final checkpoint skips
  // production and normalisation: its DOS is not stitched yet.
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  if (!result.rewl.interrupted) {
    if (options_.production_sweeps > 0 && result.rewl.dos.num_visited() > 1)
      produce(result);
    result.dos.normalize(units::LogWeight(log_total_states()));
    obs::HealthRegistry::global().set_phase("done");
    if (telemetry.enabled()) {
      auto& metrics = telemetry.metrics();
      metrics.gauge("run.pretrain_seconds").set(result.pretrain_seconds);
      metrics.gauge("run.sample_seconds").set(result.sample_seconds);
      metrics.gauge("run.production_seconds").set(result.production_seconds);
      metrics.gauge("run.total_sweeps")
          .set(static_cast<double>(result.rewl.total_sweeps));
    }
  }
  if (telemetry.enabled()) telemetry.finish();
  return result;
}

Framework::RunCheckpoint Framework::open_checkpoint() {
  RunCheckpoint ck;
  if (options_.checkpoint_dir.empty()) return ck;
  ck.store = std::make_unique<ckpt::CheckpointStore>(options_.checkpoint_dir,
                                                     options_.checkpoint_keep);
  if (!options_.resume) return ck;
  ck.resume = ck.store->load_latest();
  if (!ck.resume.has_value()) {
    DT_LOG_INFO << "resume requested but no valid checkpoint found in '"
                << options_.checkpoint_dir << "'; starting fresh";
    return ck;
  }
  DT_CHECK_MSG(ck.resume->has("framework"),
               "resume: checkpoint lacks the framework component");
  auto fs = ck.resume->stream("framework");
  DT_CHECK_MSG(read_pod<std::uint64_t>(fs) == kFrameworkMagic,
               "resume: framework component has a bad magic");
  ck.phase = static_cast<Phase>(read_pod<std::int32_t>(fs));
  loss_trace_ = read_vector<float>(fs);
  DT_LOG_INFO << "resume: generation " << ck.resume->generation()
              << ", phase " << static_cast<int>(ck.phase);
  return ck;
}

void Framework::prepare_vae(const RunCheckpoint& ck,
                            DeepThermoResult& result) {
  if (!options_.use_vae) return;
  if (ck.resume.has_value() && ck.phase != Phase::kPretrain) {
    // Resuming past pretrain: rebuild the shared VAE from the
    // checkpointed pretrained weights instead of re-training.
    pretrained_weights_ = ck.resume->blob("vae.pretrained");
    vae_ = load_vae(make_vae_options(), options_.seed, pretrained_weights_);
    return;
  }
  if (vae_) return;  // pretrain() already ran
  result.pretrain_report = pretrain_impl(
      ck.store.get(),
      ck.resumed_in(Phase::kPretrain) ? &*ck.resume : nullptr);
  // Phase-transition checkpoint: pretrain done, REWL not started.
  if (ck.store != nullptr) save_phase(*ck.store, Phase::kRewl, {});
}

void Framework::sample(const RunCheckpoint& ck, DeepThermoResult& result) {
  // Shared cross-walker decode plane: one serving VAE replica loaded
  // from the same pretrained bytes as every walker's own, so fused and
  // per-walker decodes are bitwise interchangeable. Declared before the
  // rank states so it outlives the kernels that detach from it.
  std::shared_ptr<DecodePlane> plane;
  if (options_.use_vae && options_.decode_plane) {
    DecodePlane::Options plane_opts;
    plane_opts.window_us = options_.decode_plane_window_us;
    plane = std::make_shared<DecodePlane>(
        load_vae(make_vae_options(), options_.seed, pretrained_weights_),
        plane_opts);
  }
  std::vector<RankState> states;
  for (int r = 0; r < options_.rewl.total_ranks(); ++r)
    states.emplace_back(*this, pretrained_weights_, plane);
  auto state = [&states](int rank) -> RankState& {
    return states[static_cast<std::size_t>(rank)];
  };

  par::IntervalHook hook;
  if (options_.use_vae && options_.retrain_every_rounds > 0)
    hook = [&](par::Communicator& comm, mc::WangLandauSampler& walker,
               mc::Rng& /*rng*/) {
      state(comm.rank()).harvest_and_retrain(comm, walker);
    };
  par::RewlCheckpointConfig rewl_ckpt;
  if (ck.store != nullptr) {
    rewl_ckpt.store = ck.store.get();
    rewl_ckpt.interval_rounds = options_.checkpoint_interval_rounds;
    rewl_ckpt.min_interval_seconds = options_.checkpoint_min_interval_seconds;
    rewl_ckpt.signals = &ckpt::SignalFlags::instance();
    if (ck.resumed_in(Phase::kRewl) && ck.resume->has("rewl.meta"))
      rewl_ckpt.resume_from = &*ck.resume;
    rewl_ckpt.add_components = [this](ckpt::CheckpointBuilder& builder) {
      save_framework_component(builder, Phase::kRewl);
    };
    if (options_.use_vae) {
      rewl_ckpt.save_extra = [&](int rank, std::ostream& os) {
        state(rank).save(os);
      };
      rewl_ckpt.load_extra = [&](int rank, std::istream& is) {
        state(rank).load(is);
      };
    }
  }

  Stopwatch sample_clock;
  {
    DT_SPAN("rewl");
    result.rewl = par::run_rewl(
        hamiltonian_, lattice_, options_.n_species, grid_, options_.rewl,
        [&](int rank) { return state(rank).make_kernel(rank); }, hook,
        ck.store != nullptr ? &rewl_ckpt : nullptr);
  }
  result.sample_seconds = sample_clock.seconds();

  // Threads are joined: the rank states are ours again.
  for (const RankState& st : states) st.add_stats(result);
  if (options_.use_vae) result.final_vae_weights = states[0].vae_weights();
  // Phase-transition checkpoint: REWL result banked; production and
  // normalisation are deterministic re-runs from here.
  if (ck.store != nullptr && !result.rewl.interrupted)
    save_phase(*ck.store, Phase::kProduction,
               [&](ckpt::CheckpointBuilder& builder) {
                 if (options_.use_vae)
                   builder.add("vae.final", result.final_vae_weights);
                 builder.component("rewl.result", [&](std::ostream& os) {
                   write_rewl_result(os, result.rewl);
                   write_pod(os, result.vae_stats);
                   write_pod(os, result.local_stats);
                 });
               });
}

// Multicanonical production phase: the stitched ln g as fixed weights.
void Framework::produce(DeepThermoResult& result) const {
  DT_SPAN("production");
  obs::HealthRegistry::global().set_phase("production");
  Stopwatch production_clock;
  mc::Rng init_rng(options_.seed, stream_id(0xBB, 0));
  lattice::Configuration cfg =
      lattice::random_configuration(lattice_, options_.n_species, init_rng);
  // Drive the walker onto the reference support with a cheap quench
  // towards the support's energy span.
  mc::WangLandauOptions seek_opts;
  seek_opts.window_lo_bin = result.rewl.dos.first_visited();
  seek_opts.window_hi_bin = result.rewl.dos.last_visited();
  mc::WangLandauSampler seeker(hamiltonian_, cfg, grid_, seek_opts,
                               mc::Rng(options_.seed, stream_id(0xBB, 1)));
  mc::LocalSwapProposal kernel(hamiltonian_);
  seeker.seek_window(kernel, par::kSeekSweeps);
  const std::int32_t start_bin = grid_.bin(hamiltonian_.total_energy(cfg));
  if (start_bin >= 0 && result.rewl.dos.visited(start_bin)) {
    mc::MulticanonicalSampler production(
        hamiltonian_, cfg, result.rewl.dos,
        mc::Rng(options_.seed, stream_id(0xBB, 2)));
    production.run(kernel, options_.production_sweeps);
    result.production_flatness = production.flatness();
    // Refine only if the production run covered the support; a partial
    // histogram would punch holes into the DOS.
    const auto refined = production.refined_dos();
    if (refined.num_visited() == result.rewl.dos.num_visited())
      result.dos = refined;
  } else {
    DT_LOG_WARN << "production phase skipped: walker failed to reach the "
                   "DOS support";
  }
  result.production_seconds = production_clock.seconds();
}

std::vector<mc::ThermoPoint> Framework::scan(const DeepThermoResult& result,
                                             double t_lo, double t_hi,
                                             std::size_t n_points) {
  DT_SPAN("thermo_scan");
  return mc::thermo_scan(result.dos, linspace(t_lo, t_hi, n_points));
}

}  // namespace dt::core
