// Replica-exchange Wang-Landau (REWL) driver over minicomm.
//
// The global energy range is covered by overlapping windows (Vogel et
// al., PRL 110, 210603); each window hosts `walkers_per_window`
// independent Wang-Landau walkers (one rank each). Every
// `exchange_interval` sweeps, walkers of adjacent windows attempt a
// configuration exchange with the REWL acceptance
//
//   A = min(1, [g_i(E_x) g_j(E_y)] / [g_i(E_y) g_j(E_x)])
//
// valid only when both energies lie in both windows (i.e. the overlap).
// After global convergence rank 0 gathers every walker's ln g, averages
// each window and stitches the fragments into the global DOS. Each rank
// runs named stages around one obs::WalkerHealthSample snapshot per
// block (DESIGN.md "REWL driver stages"); the stages that need no
// communicator are declared at the end, for unit tests.
//
// An interval hook gives the DeepThermo core a place to harvest
// configurations and retrain/refresh the VAE proposal mid-run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/signal.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "mc/dos.hpp"
#include "mc/wang_landau.hpp"
#include "obs/health.hpp"
#include "par/minicomm.hpp"
#include "par/partition.hpp"

namespace dt::par {

/// Sweep cap for driving a fresh walker into its window (and the
/// production-phase walker onto the DOS support).
inline constexpr std::int64_t kSeekSweeps = 2000;

struct RewlOptions {
  int n_windows = 2;
  int walkers_per_window = 1;
  double overlap = 0.75;            ///< REWL standard window overlap
  mc::WangLandauOptions wl;         ///< window bins are filled in per rank
  std::int64_t exchange_interval = 100;  ///< sweeps between exchanges
  std::int64_t max_sweeps = 200000;      ///< per-walker cap
  std::uint64_t seed = 42;
  /// Heartbeat cadence of the progress reporter (active only while
  /// telemetry or the observability HTTP server is enabled; see src/obs).
  double progress_interval_seconds = 5.0;
  /// Sampling-health watchdog: flag a walker stalled when its flatness
  /// ratio has not improved within its current ln f stage for this many
  /// wall-clock seconds (<= 0 disables). Verdicts surface via GET
  /// /healthz, the health.stalled_walkers gauge and a WARN log.
  double watchdog_stall_seconds = 0.0;

  [[nodiscard]] int total_ranks() const {
    return n_windows * walkers_per_window;
  }
};

struct RewlWindowReport {
  int window = 0;
  std::int32_t lo_bin = 0;
  std::int32_t hi_bin = 0;
  std::int64_t sweeps = 0;
  int f_stages = 0;
  double acceptance = 0.0;
  /// Worst final histogram flatness ratio over the window's walkers.
  double flatness = 0.0;
  std::uint64_t round_trips = 0;
  /// Acceptance of exchanges with the *upper* neighbour window
  /// (meaningless for the last window).
  double exchange_acceptance = 0.0;
  bool converged = false;
};

struct RewlResult {
  mc::DensityOfStates dos;       ///< stitched global ln g (unnormalised)
  std::vector<RewlWindowReport> windows;
  bool converged = false;
  std::int64_t total_sweeps = 0; ///< summed over all walkers
  double wall_seconds = 0.0;
  /// True when the run was stopped early by a SIGTERM-style stop request
  /// after a final checkpoint; dos is then left empty (resume from the
  /// checkpoint to continue).
  bool interrupted = false;
  /// Generation of the last checkpoint written during the run (0: none).
  std::uint64_t last_checkpoint_generation = 0;
  /// Per-rank final walker energy / Philox draw position, rank-indexed.
  /// The fault-injection harness asserts these bit-match across an
  /// interrupted+resumed run and an uninterrupted reference.
  std::vector<double> walker_energies;
  std::vector<std::uint64_t> walker_rng_positions;
};

/// Per-rank proposal factory; called once on each rank's thread. Shared
/// ownership lets the caller keep the kernel alive past the run to read
/// its statistics.
using ProposalFactory =
    std::function<std::shared_ptr<mc::Proposal>(int rank)>;

/// Called on every rank after each exchange block, before the exchange.
/// All ranks call the hook in the same round, so collectives (e.g. a
/// data-parallel VAE refresh via ddp_fit) are safe inside it.
using IntervalHook =
    std::function<void(Communicator& comm, mc::WangLandauSampler& walker,
                       mc::Rng& rng)>;

/// Run-level checkpoint/restart wiring for run_rewl. Saves happen at
/// exchange-block boundaries -- the only globally consistent points --
/// either every `interval_rounds` rounds or on a pending SignalFlags
/// request; each save captures every walker (DOS, histogram, ln f stage,
/// configuration, Philox position), the exchange-schedule round and
/// per-rank exchange statistics plus RNG, and whatever the caller
/// appends (VAE replicas, pipeline phase) via save_extra/add_components.
struct RewlCheckpointConfig {
  ckpt::CheckpointStore* store = nullptr;  ///< nullptr disables saving
  /// Rounds between periodic saves (0: only signal-triggered saves).
  std::int64_t interval_rounds = 0;
  /// Wall-clock floor between periodic saves: a round-interval save is
  /// skipped while the last save is younger than this, bounding
  /// checkpoint overhead at save_cost / min_interval regardless of how
  /// fast rounds turn over. Signal-triggered and stop saves bypass it.
  /// Saves never perturb the sampling trajectory (they draw no RNG), so
  /// this time dependence cannot change physics results.
  double min_interval_seconds = 0.0;
  /// Polled on rank 0 each round for SIGUSR1/SIGTERM-triggered saves.
  ckpt::SignalFlags* signals = nullptr;
  /// Decoded checkpoint to resume from (nullptr: fresh start). Walkers
  /// skip window seeking and continue mid-run bit-exactly.
  const ckpt::Checkpoint* resume_from = nullptr;
  /// Serialize/restore caller state owned per rank (e.g. the VAE
  /// replica, its optimizer moments and replay dataset). Appended to the
  /// rank's record after the walker state; both or neither must be set.
  std::function<void(int rank, std::ostream&)> save_extra;
  std::function<void(int rank, std::istream&)> load_extra;
  /// Caller components added to every checkpoint (pipeline phase, shared
  /// pretrained weights, ...). Runs on rank 0's thread during a save.
  std::function<void(ckpt::CheckpointBuilder&)> add_components;
};

/// Run REWL with options.total_ranks() minicomm ranks. Blocks until all
/// walkers converge or hit max_sweeps; returns the stitched DOS and
/// per-window reports (assembled on rank 0). With `checkpoint` set, the
/// run saves/restores itself as configured (see RewlCheckpointConfig).
RewlResult run_rewl(const lattice::EpiHamiltonian& hamiltonian,
                    const lattice::Lattice& lat, int n_species,
                    const mc::EnergyGrid& grid, const RewlOptions& options,
                    const ProposalFactory& make_proposal,
                    const IntervalHook& hook = {},
                    const RewlCheckpointConfig* checkpoint = nullptr);

/// Rank of `rank`'s exchange partner in `round` (-1: none; the lower
/// walker of a pair decides). Round parity alternates the active window
/// pairs: even rounds pair windows (0,1),(2,3),..., odd rounds
/// (1,2),(3,4),...; walker k of a window pairs with walker k of the
/// neighbouring window.
[[nodiscard]] int exchange_partner(int rank, std::int64_t round,
                                   int n_windows, int walkers_per_window);

/// Bin-wise mean of one window's walker ln g fragments (NaN: unvisited)
/// over the walkers that visited each bin, summed in fragment order.
[[nodiscard]] std::vector<double> average_window(
    std::span<const std::vector<double>> fragments);

/// Fold one window's final walker snapshots into its report.
[[nodiscard]] RewlWindowReport fold_window(
    int window, const Window& bins,
    std::span<const obs::WalkerHealthSample> walkers);

}  // namespace dt::par
