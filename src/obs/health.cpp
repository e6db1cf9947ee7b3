#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace dt::obs {

namespace {
std::atomic<int> g_instrumentation_depth{0};
}  // namespace

bool instrumentation_active() {
  return g_instrumentation_depth.load(std::memory_order_relaxed) > 0;
}

void instrumentation_retain() {
  g_instrumentation_depth.fetch_add(1, std::memory_order_relaxed);
}

void instrumentation_release() {
  g_instrumentation_depth.fetch_sub(1, std::memory_order_relaxed);
}

void WalkerHealthCell::store(const WalkerHealthSample& sample) {
  std::uint64_t buf[kWords] = {};
  std::memcpy(buf, &sample, sizeof sample);
  for (std::size_t i = 0; i < kWords; ++i)
    words[i].store(buf[i], std::memory_order_relaxed);
}

WalkerHealthSample WalkerHealthCell::load() const {
  std::uint64_t buf[kWords];
  for (std::size_t i = 0; i < kWords; ++i)
    buf[i] = words[i].load(std::memory_order_relaxed);
  WalkerHealthSample sample;
  std::memcpy(&sample, buf, sizeof sample);
  return sample;
}

void HealthRegistry::configure(int n_ranks, int n_windows,
                               int walkers_per_window, double stall_seconds) {
  DT_CHECK(n_ranks >= 1 && n_windows >= 1 && walkers_per_window >= 1);
  auto fresh = std::make_shared<CellBlock>();
  fresh->walkers = std::vector<WalkerHealthCell>(
      static_cast<std::size_t>(n_ranks));
  fresh->pairs = std::vector<PairHealthCell>(
      static_cast<std::size_t>(std::max(0, n_windows - 1)));
  fresh->n_windows = n_windows;
  fresh->walkers_per_window = walkers_per_window;
  fresh->stall_seconds = stall_seconds;
  const double now = now_s();
  WalkerHealthSample unpublished;
  unpublished.window = -1;
  for (auto& cell : fresh->walkers) {
    cell.store(unpublished);
    cell.last_improve_s.store(now, std::memory_order_relaxed);
    cell.last_publish_s.store(now, std::memory_order_relaxed);
  }
  MutexLock lock(mutex_);
  block_ = std::move(fresh);
}

bool HealthRegistry::active() const { return block() != nullptr; }

std::shared_ptr<HealthRegistry::CellBlock> HealthRegistry::block() const {
  MutexLock lock(mutex_);
  return block_;
}

std::shared_ptr<WalkerHealthCell> HealthRegistry::walker_cell(int rank) {
  auto blk = block();
  if (blk == nullptr || rank < 0 ||
      static_cast<std::size_t>(rank) >= blk->walkers.size())
    return nullptr;
  // Aliasing shared_ptr: the handle keeps the whole block alive, so a
  // concurrent reconfigure cannot pull the cell out from under a walker.
  return {blk, &blk->walkers[static_cast<std::size_t>(rank)]};
}

void HealthRegistry::publish(const std::shared_ptr<WalkerHealthCell>& cell,
                             const WalkerHealthSample& sample) {
  if (cell == nullptr) return;
  const double now = now_s();
  WalkerHealthCell& c = *cell;

  // Improvement clock: a new ln f stage restarts the histogram, so the
  // stage transition itself is progress; within a stage, only a strictly
  // better flatness ratio resets the stall timer.
  const std::int32_t prev_stage = c.load().f_stage;
  const double prev_best = c.best_flatness.load(std::memory_order_relaxed);
  if (sample.f_stage != prev_stage ||
      sample.flatness > prev_best + kImproveEpsilon) {
    c.best_flatness.store(sample.f_stage != prev_stage
                              ? sample.flatness
                              : std::max(prev_best, sample.flatness),
                          std::memory_order_relaxed);
    c.last_improve_s.store(now, std::memory_order_relaxed);
  }
  c.store(sample);
  c.last_publish_s.store(now, std::memory_order_relaxed);

  // Trajectory ring: write the slot, then advance the head, so readers
  // that bound their scan by the head never see an unwritten slot.
  const std::uint64_t head =
      c.trajectory_head.load(std::memory_order_relaxed);
  auto& point = c.trajectory[head % WalkerHealthCell::kTrajectoryLen];
  point.flatness.store(sample.flatness, std::memory_order_relaxed);
  point.sweeps.store(sample.sweeps, std::memory_order_release);
  c.trajectory_head.store(head + 1, std::memory_order_release);
}

void HealthRegistry::record_exchange(int lower_window, bool accepted) {
  auto blk = block();
  if (blk == nullptr || lower_window < 0 ||
      static_cast<std::size_t>(lower_window) >= blk->pairs.size())
    return;
  PairHealthCell& pair = blk->pairs[static_cast<std::size_t>(lower_window)];
  pair.attempted.fetch_add(1, std::memory_order_relaxed);
  if (accepted) pair.accepted.fetch_add(1, std::memory_order_relaxed);
  const double x = accepted ? 1.0 : 0.0;
  double prev = pair.ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev < 0.0 ? x : prev + kEwmaAlpha * (x - prev);
  } while (!pair.ewma.compare_exchange_weak(prev, next,
                                            std::memory_order_relaxed));
}

void HealthRegistry::set_phase(const std::string& phase) {
  MutexLock lock(mutex_);
  phase_ = phase;
}

std::string HealthRegistry::phase() const {
  MutexLock lock(mutex_);
  return phase_;
}

void HealthRegistry::set_checkpoint_generation(std::uint64_t generation) {
  checkpoint_generation_.store(generation, std::memory_order_relaxed);
}

int HealthRegistry::evaluate() {
  auto blk = block();
  if (blk == nullptr) return 0;
  const double now = now_s();
  int stalled = 0;
  for (std::size_t rank = 0; rank < blk->walkers.size(); ++rank) {
    WalkerHealthCell& c = blk->walkers[rank];
    const WalkerHealthSample s = c.load();
    bool verdict = false;
    if (blk->stall_seconds > 0.0 && s.sweeps > 0 && !s.converged) {
      const double idle =
          now - c.last_improve_s.load(std::memory_order_relaxed);
      verdict = idle > blk->stall_seconds;
    }
    if (verdict) ++stalled;
    const bool was = c.stalled.exchange(verdict, std::memory_order_relaxed);
    if (verdict && !was) {
      DT_LOG_WARN << "health: walker " << rank << " (window " << s.window
                  << ") stalled -- flatness " << s.flatness
                  << " unimproved for "
                  << now - c.last_improve_s.load(std::memory_order_relaxed)
                  << " s (budget " << blk->stall_seconds << " s)";
    }
  }
  MetricsRegistry::global().gauge("health.stalled_walkers")
      .set(static_cast<double>(stalled));
  return stalled;
}

HealthSnapshot HealthRegistry::snapshot() const {
  HealthSnapshot snap;
  snap.phase = phase();
  snap.uptime_s = now_s();
  snap.checkpoint_generation =
      checkpoint_generation_.load(std::memory_order_relaxed);
  auto blk = block();
  if (blk == nullptr) return snap;
  snap.active = true;
  snap.stall_seconds = blk->stall_seconds;
  snap.n_windows = blk->n_windows;
  snap.walkers_per_window = blk->walkers_per_window;
  const double now = now_s();

  snap.walkers.reserve(blk->walkers.size());
  for (std::size_t rank = 0; rank < blk->walkers.size(); ++rank) {
    const WalkerHealthCell& c = blk->walkers[rank];
    HealthSnapshot::Walker w;
    static_cast<WalkerHealthSample&>(w) = c.load();
    w.rank = static_cast<int>(rank);
    w.best_flatness = c.best_flatness.load(std::memory_order_relaxed);
    w.round_trip_mean_s =
        w.round_trips == 0 ? 0.0
                           : snap.uptime_s /
                                 static_cast<double>(w.round_trips);
    w.stalled = c.stalled.load(std::memory_order_relaxed);
    w.seconds_since_improve =
        now - c.last_improve_s.load(std::memory_order_relaxed);

    const std::uint64_t head =
        c.trajectory_head.load(std::memory_order_acquire);
    const std::uint64_t len =
        std::min<std::uint64_t>(head, WalkerHealthCell::kTrajectoryLen);
    w.trajectory.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t k = head - len; k < head; ++k) {
      const auto& point =
          c.trajectory[k % WalkerHealthCell::kTrajectoryLen];
      const std::int64_t sweeps =
          point.sweeps.load(std::memory_order_acquire);
      if (sweeps < 0) continue;  // ring slot overwritten mid-scan
      w.trajectory.emplace_back(
          sweeps, point.flatness.load(std::memory_order_relaxed));
    }
    if (w.stalled) ++snap.stalled_walkers;
    snap.walkers.push_back(std::move(w));
  }

  snap.pairs.reserve(blk->pairs.size());
  for (const PairHealthCell& pair : blk->pairs) {
    HealthSnapshot::Pair p;
    p.attempted = pair.attempted.load(std::memory_order_relaxed);
    p.accepted = pair.accepted.load(std::memory_order_relaxed);
    p.ewma = pair.ewma.load(std::memory_order_relaxed);
    snap.pairs.push_back(p);
  }
  return snap;
}

std::string HealthRegistry::summary_line() const {
  const HealthSnapshot snap = snapshot();
  if (!snap.active || snap.walkers.empty()) return {};
  double min_flatness = 1e300;
  std::uint64_t round_trips = 0;
  int converged = 0;
  for (const auto& w : snap.walkers) {
    min_flatness = std::min(min_flatness, w.flatness);
    round_trips += w.round_trips;
    if (w.converged) ++converged;
  }
  std::ostringstream os;
  os << "health: " << converged << "/" << snap.walkers.size()
     << " walkers converged, min flatness " << min_flatness
     << ", round trips " << round_trips;
  if (!snap.pairs.empty()) {
    os << ", exch acc";
    for (std::size_t i = 0; i < snap.pairs.size(); ++i)
      os << (i == 0 ? " " : "/")
         << (snap.pairs[i].ewma < 0.0 ? 0.0 : snap.pairs[i].ewma);
  }
  if (snap.stalled_walkers > 0)
    os << ", STALLED " << snap.stalled_walkers;
  return os.str();
}

void HealthRegistry::reset() {
  MutexLock lock(mutex_);
  block_.reset();
  phase_.clear();
  checkpoint_generation_.store(0, std::memory_order_relaxed);
}

HealthRegistry& HealthRegistry::global() {
  static HealthRegistry registry;
  return registry;
}

}  // namespace dt::obs
