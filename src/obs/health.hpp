// Sampling-health plane: lock-free per-walker cells the REWL driver and
// the framework publish into, plus a stall watchdog.
//
// The signals mirror what determines REWL window/walker allocation in
// practice (Naguszewski et al. 2025): per-walker flatness progression and
// ln f stage, per-window-pair exchange-acceptance EWMA, round-trip
// counts/times and the VAE-vs-local proposal acceptance split. Walkers
// publish once per exchange block (a handful of relaxed atomic stores);
// the HTTP observability server and the bench harnesses read a
// consistent-enough snapshot() concurrently without stopping the run.
//
// The watchdog flags a walker "stalled" when its flatness ratio has not
// improved (within its current ln f stage) for a configurable wall-clock
// budget; verdicts surface through /healthz, the
// `health.stalled_walkers` gauge and a WARN log on the transition.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"

namespace dt::obs {

/// Process-wide "someone is watching" gate: true while telemetry sinks
/// or at least one observability HTTP server are live. Hot paths gate
/// their shared-counter updates on it so a dark run costs one relaxed
/// load per instrumented site.
[[nodiscard]] bool instrumentation_active();
void instrumentation_retain();
void instrumentation_release();

/// One walker's state at the end of an exchange block: the single
/// per-block snapshot the REWL driver renders into the health cell, the
/// `rewl_walker` telemetry event and the progress line, and gathers to
/// rank 0 (as raw bytes) for the final window reports.
struct WalkerHealthSample {
  int rank = 0;
  int window = 0;
  std::int64_t round = 0;
  std::int64_t sweeps = 0;
  double sweeps_per_s = 0.0;
  double flatness = 0.0;
  double log_f = 0.0;
  std::int32_t f_stage = 0;
  double acceptance = 0.0;
  std::uint64_t round_trips = 0;
  double energy = 0.0;
  std::uint64_t local_proposed = 0;
  double local_acceptance = 0.0;
  std::uint64_t vae_proposed = 0;
  double vae_acceptance = 0.0;
  /// Cumulative ms blocked in DecodePlane::wait and the number of such
  /// waits (0 when no decode plane is attached).
  double vae_decode_wait_ms = 0.0;
  std::uint64_t vae_decode_waits = 0;
  /// Window of this block's exchange partner (-1: none this round).
  int partner_window = -1;
  std::int64_t exch_attempted = 0;
  std::int64_t exch_accepted = 0;
  std::uint64_t rng_position = 0;  ///< sampling-stream Philox position
  bool converged = false;
};
static_assert(std::is_trivially_copyable_v<WalkerHealthSample>,
              "WalkerHealthSample travels over minicomm as raw bytes");

/// One walker's live health state: its last published sample, kept as
/// relaxed atomic words -- readers may observe a mid-block mix of two
/// samples' fields, but never a torn field (asserted under TSan by
/// test_http_obs) -- plus the watchdog's bookkeeping.
struct alignas(64) WalkerHealthCell {
  static constexpr std::size_t kWords = (sizeof(WalkerHealthSample) + 7) / 8;
  std::atomic<std::uint64_t> words[kWords] = {};

  void store(const WalkerHealthSample& sample);
  [[nodiscard]] WalkerHealthSample load() const;

  std::atomic<double> best_flatness{0.0};  ///< within the current ln f stage
  std::atomic<bool> stalled{false};
  /// Registry-clock time of the last flatness improvement (stage resets
  /// count as improvements: each ln f stage restarts the histogram).
  std::atomic<double> last_improve_s{0.0};
  std::atomic<double> last_publish_s{0.0};

  /// Bounded flatness trajectory: ring of (sweeps, flatness) samples,
  /// one per publish. Slots are written before the head index advances.
  static constexpr std::size_t kTrajectoryLen = 64;
  struct TrajectoryPoint {
    std::atomic<std::int64_t> sweeps{-1};
    std::atomic<double> flatness{0.0};
  };
  TrajectoryPoint trajectory[kTrajectoryLen];
  std::atomic<std::uint64_t> trajectory_head{0};
};

/// One adjacent-window pair's exchange statistics (pair i = windows
/// i <-> i+1); all walkers of the pair update it.
struct alignas(64) PairHealthCell {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> accepted{0};
  /// EWMA of the accept indicator, alpha = kEwmaAlpha; negative until
  /// the first attempt.
  std::atomic<double> ewma{-1.0};
};

/// Point-in-time copy of the whole health plane (see snapshot()).
struct HealthSnapshot {
  /// A walker's last published sample plus the registry's verdicts.
  struct Walker : WalkerHealthSample {
    double best_flatness = 0.0;
    /// uptime / round_trips; 0 until the first round trip.
    double round_trip_mean_s = 0.0;
    bool stalled = false;
    double seconds_since_improve = 0.0;
    /// Oldest-first (sweeps, flatness) samples, at most kTrajectoryLen.
    std::vector<std::pair<std::int64_t, double>> trajectory;
  };
  bool active = false;
  std::string phase;
  double uptime_s = 0.0;
  double stall_seconds = 0.0;
  std::uint64_t checkpoint_generation = 0;
  int n_windows = 0;
  int walkers_per_window = 0;
  std::vector<Walker> walkers;
  /// Pair i = windows i <-> i+1: (attempted, accepted, ewma).
  struct Pair {
    std::uint64_t attempted = 0;
    std::uint64_t accepted = 0;
    double ewma = -1.0;
  };
  std::vector<Pair> pairs;
  int stalled_walkers = 0;
};

class HealthRegistry {
 public:
  static constexpr double kEwmaAlpha = 0.1;
  /// Flatness must rise by at least this much to count as progress.
  static constexpr double kImproveEpsilon = 1e-6;

  HealthRegistry() = default;
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  /// (Re)build the cell block for a run; called by the REWL driver
  /// before walker threads start. `stall_seconds` <= 0 disables the
  /// watchdog. Safe against concurrent scrapes (readers hold the old
  /// block via shared_ptr until they finish).
  void configure(int n_ranks, int n_windows, int walkers_per_window,
                 double stall_seconds);

  /// True once configure() has run (cells exist).
  [[nodiscard]] bool active() const;

  /// Stable handle to rank's cell; the shared_ptr keeps the block alive
  /// across a concurrent reconfigure. Returns nullptr when inactive or
  /// out of range.
  [[nodiscard]] std::shared_ptr<WalkerHealthCell> walker_cell(int rank);

  /// Publish one walker sample (drives the improvement clock and the
  /// trajectory ring). Prefer publish() over raw cell writes.
  void publish(const std::shared_ptr<WalkerHealthCell>& cell,
               const WalkerHealthSample& sample);

  /// Record one exchange attempt on pair `lower_window` <-> +1.
  void record_exchange(int lower_window, bool accepted);

  /// Pipeline phase shown by /status ("pretrain", "rewl", ...).
  void set_phase(const std::string& phase);
  [[nodiscard]] std::string phase() const;

  void set_checkpoint_generation(std::uint64_t generation);

  /// Run the watchdog: recompute each walker's stall verdict, update the
  /// `health.stalled_walkers` gauge, WARN on fresh stalls. Returns the
  /// stalled count. Thread-safe; called by REWL rank 0 each round and by
  /// GET /healthz.
  int evaluate();

  [[nodiscard]] HealthSnapshot snapshot() const;

  /// One-line health digest for the progress heartbeat; empty when
  /// inactive.
  [[nodiscard]] std::string summary_line() const;

  /// Registry-clock seconds (steady, from construction).
  [[nodiscard]] double now_s() const { return clock_.seconds(); }

  /// Drop the cell block (test isolation).
  void reset();

  static HealthRegistry& global();

 private:
  struct CellBlock {
    std::vector<WalkerHealthCell> walkers;
    std::vector<PairHealthCell> pairs;
    int n_windows = 0;
    int walkers_per_window = 0;
    double stall_seconds = 0.0;
  };

  [[nodiscard]] std::shared_ptr<CellBlock> block() const;

  Stopwatch clock_;
  mutable Mutex mutex_;
  /// Read via block(); the cells inside the block are atomics and are
  /// accessed without the registry lock.
  std::shared_ptr<CellBlock> block_ DT_GUARDED_BY(mutex_);
  std::string phase_ DT_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> checkpoint_generation_{0};
};

}  // namespace dt::obs
