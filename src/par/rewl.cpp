#include "par/rewl.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "ckpt/fault.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "mc/proposal.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace dt::par {

namespace {

// Message tags for the exchange protocol (user-level tags are >= 0).
constexpr int kTagEnergy = 10;
constexpr int kTagReply = 11;
constexpr int kTagDecision = 12;
constexpr int kTagConfig = 13;

// Checkpoint command bits rank 0 broadcasts at the top of each round.
constexpr std::uint8_t kCmdSave = 1;
constexpr std::uint8_t kCmdStop = 2;

std::string rank_component(int rank) {
  return "rank" + std::to_string(rank);
}

/// DOS wire format: one double per bin, NaN for unvisited.
std::vector<double> dos_to_wire(const mc::DensityOfStates& dos) {
  const auto n = static_cast<std::size_t>(dos.grid().n_bins());
  std::vector<double> wire(n, std::numeric_limits<double>::quiet_NaN());
  for (std::int32_t b = 0; b < dos.grid().n_bins(); ++b)
    if (dos.visited(b))
      wire[static_cast<std::size_t>(b)] = dos.log_g(b).value();
  return wire;
}

/// Rank-ordered walker wires -> per-window averages -> stitched DOS.
mc::DensityOfStates stitch(const mc::EnergyGrid& grid,
                           std::span<const std::vector<double>> wires,
                           int walkers_per_window) {
  const auto wpw = static_cast<std::size_t>(walkers_per_window);
  std::vector<mc::DensityOfStates> parts;
  for (std::size_t leader = 0; leader < wires.size(); leader += wpw) {
    const std::vector<double> avg = average_window(wires.subspan(leader, wpw));
    mc::DensityOfStates& part = parts.emplace_back(grid);
    for (std::int32_t b = 0; b < grid.n_bins(); ++b)
      if (!std::isnan(avg[static_cast<std::size_t>(b)]))
        part.set(b, units::LogDoS(avg[static_cast<std::size_t>(b)]));
  }
  return mc::DensityOfStates::stitch(parts);
}

obs::Event walker_event(const obs::WalkerHealthSample& s) {
  obs::Event event("rewl_walker");
  event.with("rank", s.rank)
      .with("window", s.window)
      .with("round", s.round)
      .with("sweeps", s.sweeps)
      .with("sweeps_per_s", s.sweeps_per_s)
      .with("log_f", s.log_f)
      .with("f_stage", s.f_stage)
      .with("flatness", s.flatness)
      .with("acceptance", s.acceptance)
      .with("round_trips", s.round_trips)
      .with("energy", s.energy)
      .with("partner_window", s.partner_window)
      .with("exch_attempted", s.exch_attempted)
      .with("exch_accepted", s.exch_accepted)
      .with("local_proposed", s.local_proposed)
      .with("local_accept", s.local_acceptance)
      .with("vae_proposed", s.vae_proposed)
      .with("vae_accept", s.vae_acceptance)
      .with("vae_decode_wait_ms", s.vae_decode_wait_ms)
      .with("vae_decode_waits", s.vae_decode_waits);
  return event;
}

/// Run-wide inputs every rank reads, and the result rank 0 writes
/// (read by the caller only after run_ranks has joined the ranks).
struct Run {
  const lattice::EpiHamiltonian& hamiltonian;
  const lattice::Lattice& lat;
  int n_species;
  const mc::EnergyGrid& grid;
  const RewlOptions& options;
  const RewlCheckpointConfig* checkpoint;
  std::vector<Window> windows =
      make_windows(grid.n_bins(), options.n_windows, options.overlap);
  obs::HealthRegistry& health = obs::HealthRegistry::global();
  obs::ProgressReporter progress{options.progress_interval_seconds};
  RewlResult result;
};

/// One rank's walker and the stages it runs. Lives on the rank's stack:
/// the sampler keeps a reference to `cfg_`, so it never moves.
class RankWalker {
 public:
  RankWalker(Run& run, Communicator& comm)
      : run_(run),
        comm_(comm),
        rank_(comm.rank()),
        window_id_(rank_ / run.options.walkers_per_window),
        window_(run.windows[static_cast<std::size_t>(window_id_)]),
        exch_rng_(run.options.seed, stream(2)),
        cfg_(initial_configuration()),
        walker_(run.hamiltonian, cfg_, run.grid, window_options(),
                mc::Rng(run.options.seed, stream(1))) {}
  RankWalker(const RankWalker&) = delete;
  RankWalker& operator=(const RankWalker&) = delete;

  void start_walker(const ProposalFactory& make_proposal) {
    std::optional<std::istringstream> record;
    if (run_.checkpoint != nullptr && run_.checkpoint->resume_from != nullptr) {
      record.emplace(resume_walker());
    } else {
      // Seeking uses a plain local-swap kernel: robust regardless of what
      // the sampling proposal is (an untrained VAE would wander).
      mc::LocalSwapProposal seek_kernel(run_.hamiltonian);
      DT_CHECK_MSG(walker_.seek_window(seek_kernel, kSeekSweeps),
                   "rank " << rank_ << " failed to reach window ["
                           << window_.lo_bin << ", " << window_.hi_bin
                           << "]");
    }
    proposal_ = make_proposal(rank_);
    DT_CHECK(proposal_ != nullptr);
    // Caller extras (VAE replica, optimizer moments, replay dataset) are
    // restored only after the factory has built the objects they land in.
    if (record.has_value() && read_pod<std::uint8_t>(*record) != 0) {
      DT_CHECK_MSG(static_cast<bool>(run_.checkpoint->load_extra),
                   "rewl resume: checkpoint carries per-rank extra state "
                   "but no load_extra is wired");
      std::istringstream extra(read_string(*record), std::ios::binary);
      run_.checkpoint->load_extra(rank_, extra);
    }
    health_cell_ = run_.health.walker_cell(rank_);
    block_clock_.reset();
  }

  /// Top-of-round checkpoint barrier (the globally consistent point:
  /// every walker sits between blocks); true when the run must stop.
  bool checkpoint_round() {
    const RewlCheckpointConfig* ck = run_.checkpoint;
    if (ck == nullptr || ck->store == nullptr) return false;
    std::vector<std::uint8_t> cmd(1, 0);
    if (rank_ == 0) {
      bool save = ck->interval_rounds > 0 && round_ > 0 &&
                  round_ % ck->interval_rounds == 0 &&
                  round_ != last_saved_round_ &&
                  save_throttle_.seconds() >= ck->min_interval_seconds;
      bool stop = false;
      if (ck->signals != nullptr) {
        if (ck->signals->consume_save_request()) save = true;
        stop = ck->signals->stop_requested();
      }
      cmd[0] = static_cast<std::uint8_t>((save || stop ? kCmdSave : 0) |
                                         (stop ? kCmdStop : 0));
    }
    comm_.broadcast(cmd, 0);
    if ((cmd[0] & kCmdSave) != 0) save_checkpoint();
    if (rank_ == 0) ckpt::fault_point("rewl.round");
    return (cmd[0] & kCmdStop) != 0;
  }

  void advance_block(const IntervalHook& hook) {
    walker_.advance(*proposal_, run_.options.exchange_interval,
                    [&](int /*stage*/, double /*log_f*/,
                        std::int64_t /*sweeps*/) {
                      // Mid-stage fault site: exercises recovery from a
                      // crash between checkpoints (replay from the last
                      // round boundary must be bit-exact).
                      if (rank_ == 0) ckpt::fault_point("rewl.wl_stage");
                    });
    if (hook) hook(comm_, walker_, exch_rng_);
  }

  void exchange_round() {
    const int partner = exchange_partner(rank_, round_, run_.options.n_windows,
                                         run_.options.walkers_per_window);
    partner_window_ =
        partner < 0 ? -1 : partner / run_.options.walkers_per_window;
    if (partner < 0) return;
    if (partner < rank_) {  // upper walker: answer, then obey
      const double e_x = comm_.recv_value<double>(partner, kTagEnergy);
      const double reply[3] = {walker_.energy().value(),
                               walker_.log_g_at(walker_.energy()).value(),
                               walker_.log_g_at(units::Energy(e_x)).value()};
      comm_.send<double>(partner, kTagReply,
                         std::span<const double>(reply, 3));
      if (comm_.recv_value<std::uint8_t>(partner, kTagDecision) != 0)
        swap_configurations(partner, units::Energy(e_x));
      return;
    }
    // Protocol: lower sends E_x, upper answers with
    // (E_y, ln g_j(E_y), ln g_j(E_x)); lower decides.
    comm_.send_value(partner, kTagEnergy, walker_.energy().value());
    const auto reply = comm_.recv<double>(partner, kTagReply);
    const units::Energy e_y(reply[0]);
    const double lgj_ey = reply[1];
    const double lgj_ex = reply[2];
    const units::LogDoS lgi_ex = walker_.log_g_at(walker_.energy());
    const units::LogDoS lgi_ey = walker_.log_g_at(e_y);

    ++exch_attempted_;
    if (obs::instrumentation_active()) exch_attempted_total_.add();
    bool accept = false;
    if (std::isfinite(lgi_ey.value()) && std::isfinite(lgj_ex)) {
      // ln A = [ln g_i(E_x) - ln g_i(E_y)] + [ln g_j(E_y) - ln g_j(E_x)]
      const units::LogWeight log_a =
          (lgi_ex - lgi_ey) + units::LogWeight(lgj_ey - lgj_ex);
      accept = units::metropolis_accept(
          log_a, [&] { return units::Prob(uniform01(exch_rng_)); });
    }
    // Pair EWMA: recorded once per attempt, by the deciding (lower)
    // walker; pair index == lower window id.
    run_.health.record_exchange(window_id_, accept);
    comm_.send_value<std::uint8_t>(partner, kTagDecision,
                                   accept ? 1 : 0);
    if (!accept) return;
    ++exch_accepted_;
    if (obs::instrumentation_active()) exch_accepted_total_.add();
    swap_configurations(partner, e_y);
  }

  /// Health publish is always on; the telemetry event and the progress
  /// line only while someone is watching.
  void publish_block() {
    const double block_s = block_clock_.seconds();
    block_clock_.reset();
    const std::int64_t sweeps = walker_.stats().sweeps;
    const obs::WalkerHealthSample s = snapshot(
        block_s > 0.0
            ? static_cast<double>(sweeps - sweeps_at_last_block_) / block_s
            : 0.0);
    sweeps_at_last_block_ = sweeps;
    run_.health.publish(health_cell_, s);
    if (!obs::instrumentation_active()) return;
    rounds_total_.add();
    obs::Telemetry& telemetry = obs::Telemetry::instance();
    if (telemetry.enabled()) telemetry.emit(walker_event(s));
    if (rank_ == 0) {
      run_.health.evaluate();  // watchdog heartbeat, once per round
      run_.progress.poll([&] {
        std::ostringstream os;
        os << "rewl: round " << s.round << ", sweeps " << s.sweeps
           << ", ln f " << s.log_f << ", flatness " << s.flatness
           << ", acc " << s.acceptance;
        return os.str();
      });
    }
  }

  /// Close the round; true on every rank once all walkers are done.
  bool end_round() {
    ++round_;
    return comm_.allreduce_and(walker_.converged() ||
                               walker_.stats().sweeps >=
                                   run_.options.max_sweeps);
  }

  /// Interrupted runs skip the stitch: early-stage window fragments need
  /// not overlap yet, and the stitched DOS of a half-finished run is
  /// meaningless anyway -- resume from the checkpoint instead.
  void assemble(bool interrupted) {
    if (!interrupted) {
      const auto wires = comm_.gather<double>(dos_to_wire(walker_.dos()), 0);
      if (rank_ == 0)
        run_.result.dos =
            stitch(run_.grid, wires, run_.options.walkers_per_window);
    }
    const obs::WalkerHealthSample mine = snapshot(0.0);
    const auto finals = comm_.gather<obs::WalkerHealthSample>(
        std::span<const obs::WalkerHealthSample>(&mine, 1), 0);
    if (rank_ != 0) return;
    std::vector<obs::WalkerHealthSample> flat;
    for (const auto& f : finals) flat.push_back(f.at(0));
    RewlResult& result = run_.result;
    result.interrupted = interrupted;
    result.converged = !interrupted;
    for (const obs::WalkerHealthSample& f : flat) {
      result.walker_energies.push_back(f.energy);
      result.walker_rng_positions.push_back(f.rng_position);
    }
    const auto wpw = static_cast<std::size_t>(run_.options.walkers_per_window);
    for (std::size_t w = 0; w < run_.windows.size(); ++w) {
      const RewlWindowReport& wr = result.windows.emplace_back(fold_window(
          static_cast<int>(w), run_.windows[w],
          std::span(flat).subspan(w * wpw, wpw)));
      result.converged = result.converged && wr.converged;
      result.total_sweeps += wr.sweeps;
    }
  }

 private:
  [[nodiscard]] std::uint64_t stream(std::uint64_t k) const {
    return stream_id(static_cast<std::uint64_t>(rank_), k);
  }
  [[nodiscard]] lattice::Configuration initial_configuration() const {
    mc::Rng init_rng(run_.options.seed, stream(0));
    return lattice::random_configuration(run_.lat, run_.n_species, init_rng);
  }
  [[nodiscard]] mc::WangLandauOptions window_options() const {
    mc::WangLandauOptions wl = run_.options.wl;
    wl.window_lo_bin = window_.lo_bin;
    wl.window_hi_bin = window_.hi_bin;
    return wl;
  }

  /// Restore the walker mid-run from its rank component instead of
  /// seeking into the window; the round counter (hence the exchange
  /// parity schedule) continues where the checkpoint left it. Returns
  /// the rest of the record: the caller extras.
  std::istringstream resume_walker() {
    const ckpt::Checkpoint& ck = *run_.checkpoint->resume_from;
    auto meta = ck.stream("rewl.meta");
    DT_CHECK_MSG(read_pod<std::int32_t>(meta) == run_.options.n_windows &&
                     read_pod<std::int32_t>(meta) ==
                         run_.options.walkers_per_window &&
                     read_pod<std::int32_t>(meta) == run_.grid.n_bins(),
                 "rewl resume: checkpoint topology does not match options");
    round_ = read_pod<std::int64_t>(meta);
    last_saved_round_ = round_;
    std::istringstream record = ck.stream(rank_component(rank_));
    walker_.load_state(record);
    exch_attempted_ = read_pod<std::int64_t>(record);
    exch_accepted_ = read_pod<std::int64_t>(record);
    exch_rng_.set_key(read_pod<std::array<std::uint32_t, 2>>(record));
    exch_rng_.seek(read_pod<std::uint64_t>(record));
    return record;
  }

  void save_checkpoint() {
    DT_SPAN("rewl.checkpoint");
    std::ostringstream os(std::ios::binary);
    walker_.save_state(os);
    write_pod(os, exch_attempted_);
    write_pod(os, exch_accepted_);
    write_pod(os, exch_rng_.key());
    write_pod(os, exch_rng_.position());
    const auto& save_extra = run_.checkpoint->save_extra;
    write_pod(os, static_cast<std::uint8_t>(save_extra ? 1 : 0));
    if (save_extra) {
      std::ostringstream extra(std::ios::binary);
      save_extra(rank_, extra);
      write_string(os, std::move(extra).str());
    }
    const std::string record = std::move(os).str();
    const auto records = comm_.gather<char>(
        std::span<const char>(record.data(), record.size()), 0);
    if (rank_ == 0) {
      ckpt::CheckpointBuilder builder;
      builder.component("rewl.meta", [&](std::ostream& ms) {
        write_pod(ms, static_cast<std::int32_t>(run_.options.n_windows));
        write_pod(ms,
                  static_cast<std::int32_t>(run_.options.walkers_per_window));
        write_pod(ms, run_.grid.n_bins());
        write_pod(ms, round_);
      });
      for (std::size_t r = 0; r < records.size(); ++r)
        builder.add(rank_component(static_cast<int>(r)),
                    std::string(records[r].begin(), records[r].end()));
      if (run_.checkpoint->add_components)
        run_.checkpoint->add_components(builder);
      const ckpt::SaveReport saved = run_.checkpoint->store->save(builder);
      run_.health.set_checkpoint_generation(saved.generation);
      run_.result.last_checkpoint_generation = saved.generation;
    }
    last_saved_round_ = round_;
    save_throttle_.reset();
  }

  // Both sides send, then receive: minicomm sends are buffered, so one
  // tag serves both directions without deadlock.
  void swap_configurations(int partner, units::Energy incoming_energy) {
    const auto n_sites = static_cast<std::size_t>(run_.lat.num_sites());
    comm_.send<std::uint8_t>(
        partner, kTagConfig,
        std::span<const std::uint8_t>(cfg_.occupancy().data(), n_sites));
    lattice::Configuration incoming(run_.lat, run_.n_species);
    incoming.assign(comm_.recv<std::uint8_t>(partner, kTagConfig));
    walker_.adopt(incoming, incoming_energy);
  }

  [[nodiscard]] obs::WalkerHealthSample snapshot(double sweeps_per_s) const {
    const mc::WangLandauStats& st = walker_.stats();
    obs::WalkerHealthSample s;
    s.rank = rank_;
    s.window = window_id_;
    s.round = round_;
    s.sweeps = st.sweeps;
    s.sweeps_per_s = sweeps_per_s;
    s.flatness =
        walker_.histogram().flatness_ratio(window_.lo_bin, window_.hi_bin);
    s.log_f = walker_.log_f();
    s.f_stage = st.f_stages_completed;
    s.acceptance = st.acceptance_rate();
    s.round_trips = st.round_trips;
    s.energy = walker_.energy().value();
    for (const auto& [field, value] : proposal_->telemetry()) {
      if (field == "local_proposed")
        s.local_proposed = static_cast<std::uint64_t>(value);
      else if (field == "local_accept")
        s.local_acceptance = value;
      else if (field == "vae_proposed")
        s.vae_proposed = static_cast<std::uint64_t>(value);
      else if (field == "vae_accept")
        s.vae_acceptance = value;
      else if (field == "vae_decode_wait_ms")
        s.vae_decode_wait_ms = value;
      else if (field == "vae_decode_waits")
        s.vae_decode_waits = static_cast<std::uint64_t>(value);
    }
    s.partner_window = partner_window_;
    s.exch_attempted = exch_attempted_;
    s.exch_accepted = exch_accepted_;
    s.rng_position = walker_.rng_position();
    s.converged = walker_.converged();
    return s;
  }

  Run& run_;
  Communicator& comm_;
  const int rank_;
  const int window_id_;
  const Window& window_;
  mc::Rng exch_rng_;
  lattice::Configuration cfg_;
  mc::WangLandauSampler walker_;
  std::shared_ptr<mc::Proposal> proposal_;
  std::int64_t exch_attempted_ = 0;
  std::int64_t exch_accepted_ = 0;
  std::int64_t round_ = 0;
  std::int64_t last_saved_round_ = -1;
  int partner_window_ = -1;
  Stopwatch save_throttle_;  // rank 0: time since the last periodic save
  Stopwatch block_clock_;
  std::int64_t sweeps_at_last_block_ = 0;
  std::shared_ptr<obs::WalkerHealthCell> health_cell_;
  obs::Counter& rounds_total_ =
      obs::MetricsRegistry::global().counter("rewl.rounds");
  obs::Counter& exch_attempted_total_ =
      obs::MetricsRegistry::global().counter("rewl.exchange.attempted");
  obs::Counter& exch_accepted_total_ =
      obs::MetricsRegistry::global().counter("rewl.exchange.accepted");
};

void run_rank(Run& run, Communicator& comm,
              const ProposalFactory& make_proposal,
              const IntervalHook& hook) {
  set_log_tag("r" + std::to_string(comm.rank()));
  DT_SPAN("rewl.rank");
  RankWalker walker(run, comm);
  walker.start_walker(make_proposal);
  bool interrupted = false;
  for (;;) {
    interrupted = walker.checkpoint_round();
    if (interrupted) break;
    walker.advance_block(hook);
    walker.exchange_round();
    walker.publish_block();
    if (walker.end_round()) break;
  }
  walker.assemble(interrupted);
}

}  // namespace

int exchange_partner(int rank, std::int64_t round, int n_windows,
                     int walkers_per_window) {
  const int window = rank / walkers_per_window;
  const bool lower_active = (window % 2 == 0) == (round % 2 == 0);
  const int other = lower_active ? window + 1 : window - 1;
  if (other < 0 || other >= n_windows) return -1;
  return other * walkers_per_window + rank % walkers_per_window;
}

std::vector<double> average_window(
    std::span<const std::vector<double>> fragments) {
  std::vector<double> avg(fragments.front().size(),
                          std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < avg.size(); ++i) {
    double acc = 0.0;
    int hits = 0;
    for (const auto& f : fragments) {
      if (!std::isnan(f[i])) {
        acc += f[i];
        ++hits;
      }
    }
    if (hits > 0) avg[i] = acc / hits;
  }
  return avg;
}

RewlWindowReport fold_window(
    int window, const Window& bins,
    std::span<const obs::WalkerHealthSample> walkers) {
  RewlWindowReport wr;
  wr.window = window;
  wr.lo_bin = bins.lo_bin;
  wr.hi_bin = bins.hi_bin;
  wr.flatness = std::numeric_limits<double>::infinity();
  wr.converged = true;
  std::int64_t attempted = 0, accepted = 0;
  double acceptance = 0.0;
  for (const obs::WalkerHealthSample& s : walkers) {
    wr.sweeps += s.sweeps;
    wr.f_stages = std::max(wr.f_stages, s.f_stage);
    wr.flatness = std::min(wr.flatness, s.flatness);
    wr.round_trips += s.round_trips;
    acceptance += s.acceptance;
    attempted += s.exch_attempted;
    accepted += s.exch_accepted;
    wr.converged = wr.converged && s.converged;
  }
  wr.acceptance = acceptance / static_cast<double>(walkers.size());
  wr.exchange_acceptance = attempted == 0
                               ? 0.0
                               : static_cast<double>(accepted) /
                                     static_cast<double>(attempted);
  return wr;
}

RewlResult run_rewl(const lattice::EpiHamiltonian& hamiltonian,
                    const lattice::Lattice& lat, int n_species,
                    const mc::EnergyGrid& grid, const RewlOptions& options,
                    const ProposalFactory& make_proposal,
                    const IntervalHook& hook,
                    const RewlCheckpointConfig* checkpoint) {
  DT_CHECK(options.n_windows >= 1);
  DT_CHECK(options.walkers_per_window >= 1);
  DT_CHECK(options.exchange_interval >= 1);
  Stopwatch wall;
  Run run{hamiltonian, lat, n_species, grid, options, checkpoint};

  // Health plane: sized before the walker threads start so each rank can
  // resolve a stable cell handle. Publishing is always on (one batch of
  // relaxed stores per exchange block) -- the HTTP server may attach at
  // any time and must not see an empty table.
  run.health.configure(options.total_ranks(), options.n_windows,
                       options.walkers_per_window,
                       options.watchdog_stall_seconds);
  run.health.set_phase("rewl");

  run_ranks(options.total_ranks(), [&](Communicator& comm) {
    run_rank(run, comm, make_proposal, hook);
  });
  run.result.wall_seconds = wall.seconds();
  return std::move(run.result);
}

}  // namespace dt::par
