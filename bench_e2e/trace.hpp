// Out-of-library tracing for the end-to-end benchmark's solver.
//
// Nothing here reaches inside src/: the per-layer split is taken at the
// public seams run_rewl already exposes.
//  * TimedProposal decorates each rank's proposal kernel and forwards
//    every mc::Proposal virtual. It times 1 in `sample_every` calls with
//    steady_clock (a local swap costs ~0.1 us, so timing every call would
//    distort the run it measures), plus every call that would refill the
//    VAE decode buffer, and classifies each timed call after the fact: a
//    VAE call is one that advanced the VAE kernel's served() ordinal, a
//    refill one that started at a multiple of decode_batch().
//  * RankLedger is one rank's record, written only by that rank's thread
//    and read after run_rewl has joined them. The interval hook and the
//    decorator stamp block boundaries into it: a block runs from the
//    first proposal after a hook (or after a checkpoint save) to the
//    next hook entry.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mixed_kernel.hpp"
#include "mc/proposal.hpp"

namespace bench_e2e {

namespace mc = dt::mc;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Mean cost of the two clock reads around a timed call, subtracted from
/// every timed duration.
inline double clock_pair_ns() {
  constexpr int kReps = 100000;
  double ns = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    ns += 1e9 * seconds_between(t0, Clock::now());
  }
  return ns / kReps;
}

/// Timed-call accumulator: sum of sampled durations and their count.
struct Sampled {
  double ns = 0.0;
  std::uint64_t n = 0;

  void add(double call_ns) {
    ns += call_ns;
    ++n;
  }
  /// Sum with `overhead_ns` per timed call taken off.
  [[nodiscard]] double net_ns(double overhead_ns) const {
    return std::max(0.0, ns - overhead_ns * static_cast<double>(n));
  }
  [[nodiscard]] double mean_ns(double overhead_ns) const {
    return n == 0 ? 0.0 : net_ns(overhead_ns) / static_cast<double>(n);
  }
};

struct alignas(64) RankLedger {
  Clock::time_point origin;  ///< run_rewl call time (shared by all ranks)

  // Block boundaries.
  bool in_block = false;
  bool seen_hook = false;
  Clock::time_point block_start{};
  Clock::time_point last_hook_exit{};
  double seek_s = 0.0;   ///< run start -> first block (window seek)
  double block_s = 0.0;  ///< inside walker.advance
  double hook_s = 0.0;   ///< inside the interval hook
  double sync_s = 0.0;   ///< hook exit -> next block, minus saves
  std::vector<double> hook_entry_s;  ///< per round, since origin

  // Proposal layer (sampled).
  std::uint64_t propose_calls = 0;
  Sampled local;
  Sampled vae_refill;
  Sampled vae_serve;
  std::uint64_t revert_calls = 0;
  std::uint64_t revert_timed = 0;
  Sampled revert;

  // Energy layer, timed at hooks on the live configuration.
  Sampled swap_delta;

  // Convergence: sweeps at this walker's own convergence (-1: not yet).
  std::int64_t useful_sweeps = -1;
  std::int64_t last_sweeps = 0;

  // Retrain and checkpoint.
  double ddp_s = 0.0;
  std::int64_t ddp_calls = 0;
  bool saving = false;
  Clock::time_point save_start{};
  double save_s = 0.0;
  std::int64_t saves = 0;

  /// First proposal of a block: closes the gap since the last hook (or
  /// since the run started) and any checkpoint save in it.
  void begin_block(Clock::time_point now) {
    in_block = true;
    block_start = now;
    double save = 0.0;
    if (saving) {
      save = seconds_between(save_start, now);
      save_s += save;
      saving = false;
    }
    if (seen_hook)
      sync_s += seconds_between(last_hook_exit, now) - save;
    else
      seek_s += seconds_between(origin, now) - save;
  }

  /// Estimated seconds spent in propose(): every refill is timed, serve
  /// and local calls are scaled up from their sampled means by their
  /// exact counts (`vae_calls` is the kernel's own served() total).
  [[nodiscard]] double propose_s(double overhead_ns,
                                 std::uint64_t vae_calls) const {
    const double serves = static_cast<double>(vae_calls - vae_refill.n);
    const double locals = static_cast<double>(propose_calls - vae_calls);
    return 1e-9 * (vae_refill.net_ns(overhead_ns) +
                   serves * vae_serve.mean_ns(overhead_ns) +
                   locals * local.mean_ns(overhead_ns));
  }
  [[nodiscard]] double revert_s(double overhead_ns) const {
    if (revert_timed == 0) return 0.0;
    return 1e-9 * revert.net_ns(overhead_ns) *
           static_cast<double>(revert_calls) /
           static_cast<double>(revert_timed);
  }
};

/// Forwards every mc::Proposal virtual to `inner`; times one call in
/// `sample_every` (a power of two) into `ledger`. `mixed` is the same
/// object as `inner` when the kernel is the DeepThermo mixture (VAE calls
/// are then told apart by its VAE component's served() ordinal), nullptr
/// for plain kernels.
class TimedProposal final : public mc::Proposal {
 public:
  TimedProposal(std::shared_ptr<mc::Proposal> inner,
                dt::core::DeepThermoProposal* mixed, RankLedger& ledger,
                std::uint64_t sample_every)
      : inner_(std::move(inner)),
        mixed_(mixed),
        ledger_(ledger),
        sample_mask_(sample_every - 1) {}

  mc::ProposalResult propose(dt::lattice::Configuration& cfg,
                             dt::units::Energy current_energy,
                             mc::Rng& rng) override {
    if (!ledger_.in_block) ledger_.begin_block(Clock::now());
    const bool sampled = (ledger_.propose_calls++ & sample_mask_) == 0;
    // A VAE call made while served() is a multiple of K refills the
    // decode buffer; every call in that state is timed so that each
    // (rare, costly) refill is measured, not sampled.
    std::uint64_t served = 0;
    bool refill_due = false;
    if (mixed_ != nullptr) {
      served = mixed_->vae_kernel().served();
      refill_due = served % static_cast<std::uint64_t>(
                                mixed_->vae_kernel().decode_batch()) ==
                   0;
    }
    if (!sampled && !refill_due)
      return inner_->propose(cfg, current_energy, rng);
    const Clock::time_point t0 = Clock::now();
    const mc::ProposalResult result =
        inner_->propose(cfg, current_energy, rng);
    const double ns = 1e9 * seconds_between(t0, Clock::now());
    if (mixed_ != nullptr && mixed_->vae_kernel().served() != served)
      (refill_due ? ledger_.vae_refill : ledger_.vae_serve).add(ns);
    else if (sampled)
      ledger_.local.add(ns);
    return result;
  }

  void revert(dt::lattice::Configuration& cfg) override {
    if ((ledger_.revert_calls++ & sample_mask_) != 0) {
      inner_->revert(cfg);
      return;
    }
    ++ledger_.revert_timed;
    const Clock::time_point t0 = Clock::now();
    inner_->revert(cfg);
    ledger_.revert.add(1e9 * seconds_between(t0, Clock::now()));
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool is_global() const override {
    return inner_->is_global();
  }
  [[nodiscard]] std::vector<std::pair<std::string, double>> telemetry()
      const override {
    return inner_->telemetry();
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::shared_ptr<mc::Proposal> inner_;
  dt::core::DeepThermoProposal* mixed_;
  RankLedger& ledger_;
  std::uint64_t sample_mask_;
};

}  // namespace bench_e2e
