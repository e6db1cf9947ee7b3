#include "par/rewl.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "mc/proposal.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "validate/oracle.hpp"

namespace dt::par {
namespace {

using lattice::Lattice;
using lattice::LatticeType;

// Exact reference from the shared enumeration oracle (validate/).
struct ExactIsing {
  Lattice lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  std::vector<validate::ExactLevel> levels;
  double e_min = 0, e_max = 0, log_total = 0;

  ExactIsing() {
    const auto oracle = validate::ExactOracle::get(
        ham, lat, validate::equiatomic_composition(lat.num_sites(), 2));
    levels = oracle->levels();
    e_min = oracle->e_min();
    e_max = oracle->e_max();
    log_total = oracle->log_total_states();
  }
};

const ExactIsing& exact() {
  static const ExactIsing instance;
  return instance;
}

RewlOptions fast_options() {
  RewlOptions opts;
  opts.n_windows = 2;
  opts.walkers_per_window = 1;
  opts.wl.log_f_final = 1e-4;
  opts.exchange_interval = 25;
  opts.max_sweeps = 100000;
  opts.seed = 3;
  return opts;
}

ProposalFactory local_factory(const lattice::EpiHamiltonian& ham) {
  return [&ham](int) { return std::make_shared<mc::LocalSwapProposal>(ham); };
}

TEST(Rewl, RecoversExactDos) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 130);
  const auto result = run_rewl(ex.ham, ex.lat, 2, grid, fast_options(),
                               local_factory(ex.ham));
  ASSERT_TRUE(result.converged);

  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels) {
    const std::int32_t bin = grid.bin(level.energy);
    ASSERT_TRUE(dos.visited(bin)) << "level " << level.energy;
    EXPECT_NEAR(dos.log_g(bin).value(), std::log(level.count), 0.3)
        << "level " << level.energy;
  }
}

TEST(Rewl, MultipleWalkersPerWindow) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.walkers_per_window = 2;
  opts.wl.log_f_final = 1e-3;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  ASSERT_TRUE(result.converged);

  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels) {
    EXPECT_NEAR(dos.log_g(grid.bin(level.energy)).value(), std::log(level.count),
                0.4);
  }
}

TEST(Rewl, ThreeWindowsConverge) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 130);
  auto opts = fast_options();
  opts.n_windows = 3;
  opts.wl.log_f_final = 1e-4;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.windows.size(), 3u);
  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels) {
    EXPECT_NEAR(dos.log_g(grid.bin(level.energy)).value(), std::log(level.count),
                0.5);
  }
}

TEST(Rewl, WindowReportsArePopulated) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-3;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  ASSERT_EQ(result.windows.size(), 2u);
  for (const auto& w : result.windows) {
    EXPECT_GT(w.sweeps, 0);
    EXPECT_GT(w.f_stages, 0);
    EXPECT_GT(w.acceptance, 0.0);
    EXPECT_TRUE(w.converged);
  }
  // Lower window exchanges with its upper neighbour.
  EXPECT_GT(result.windows[0].exchange_acceptance, 0.0);
  EXPECT_GT(result.total_sweeps, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Rewl, HookIsCalledEveryInterval) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-2;
  std::atomic<std::int64_t> hook_calls{0};
  const auto result = run_rewl(
      ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham),
      [&](Communicator&, mc::WangLandauSampler& walker, mc::Rng&) {
        ++hook_calls;
        EXPECT_GE(walker.stats().sweeps, opts.exchange_interval);
      });
  ASSERT_TRUE(result.converged);
  // Every rank calls the hook once per exchange round.
  EXPECT_GE(hook_calls.load(), 2);
  EXPECT_EQ(hook_calls.load() % opts.total_ranks(), 0);
}

TEST(Rewl, DeterministicForFixedSeed) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-2;
  auto run = [&] {
    const auto r = run_rewl(ex.ham, ex.lat, 2, grid, opts,
                            local_factory(ex.ham));
    std::vector<double> vals;
    for (std::int32_t b = 0; b < grid.n_bins(); ++b)
      if (r.dos.visited(b)) vals.push_back(r.dos.log_g(b).value());
    return vals;
  };
  EXPECT_EQ(run(), run());
}

TEST(Rewl, MatchesSingleWindowWangLandau) {
  // One window, one walker == plain WL driven through the parallel path.
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 120);
  auto opts = fast_options();
  opts.n_windows = 1;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  ASSERT_TRUE(result.converged);
  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels)
    EXPECT_NEAR(dos.log_g(grid.bin(level.energy)).value(), std::log(level.count),
                0.3);
}

TEST(Rewl, RespectsMaxSweepsWhenUnconverged) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-12;  // unreachable in the budget
  opts.max_sweeps = 500;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  EXPECT_FALSE(result.converged);
  for (const auto& w : result.windows)
    EXPECT_LE(w.sweeps, 2 * (opts.max_sweeps + opts.exchange_interval));
}

// ---- stages that run without threads ----

TEST(RewlStages, EvenRoundsPairWindowsFromZero) {
  // 4 windows x 1 walker: even rounds pair (0,1) and (2,3).
  EXPECT_EQ(exchange_partner(0, 0, 4, 1), 1);
  EXPECT_EQ(exchange_partner(1, 0, 4, 1), 0);
  EXPECT_EQ(exchange_partner(2, 0, 4, 1), 3);
  EXPECT_EQ(exchange_partner(3, 0, 4, 1), 2);
}

TEST(RewlStages, OddRoundsLeaveFirstAndLastWindowOut) {
  // Odd rounds pair (1,2) only: windows 0 and 3 sit the round out.
  for (const std::int64_t round : {1, 3, 101}) {
    EXPECT_EQ(exchange_partner(0, round, 4, 1), -1);
    EXPECT_EQ(exchange_partner(1, round, 4, 1), 2);
    EXPECT_EQ(exchange_partner(2, round, 4, 1), 1);
    EXPECT_EQ(exchange_partner(3, round, 4, 1), -1);
  }
  // Odd window count: the last window idles on even rounds.
  EXPECT_EQ(exchange_partner(2, 0, 3, 1), -1);
  EXPECT_EQ(exchange_partner(2, 1, 3, 1), 1);
  // A single window never exchanges.
  EXPECT_EQ(exchange_partner(0, 0, 1, 1), -1);
  EXPECT_EQ(exchange_partner(0, 1, 1, 1), -1);
}

TEST(RewlStages, WalkerKPairsWithWalkerKOfTheNeighbour) {
  // 2 windows x 2 walkers: ranks 0,1 in window 0; ranks 2,3 in window 1.
  EXPECT_EQ(exchange_partner(0, 0, 2, 2), 2);
  EXPECT_EQ(exchange_partner(1, 0, 2, 2), 3);
  EXPECT_EQ(exchange_partner(2, 0, 2, 2), 0);
  EXPECT_EQ(exchange_partner(3, 0, 2, 2), 1);
  EXPECT_EQ(exchange_partner(1, 1, 2, 2), -1);
  EXPECT_EQ(exchange_partner(3, 1, 2, 2), -1);
}

TEST(RewlStages, AverageWindowSkipsNanHoles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> fragments = {
      {1.0, nan, 4.0, nan}, {3.0, 2.0, nan, nan}};
  const std::vector<double> avg = average_window(fragments);
  ASSERT_EQ(avg.size(), 4u);
  EXPECT_EQ(avg[0], 2.0);
  EXPECT_EQ(avg[1], 2.0);  // only the second walker visited bin 1
  EXPECT_EQ(avg[2], 4.0);
  EXPECT_TRUE(std::isnan(avg[3]));  // nobody visited bin 3
}

TEST(RewlStages, AverageOfOneFragmentIsItsInputBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> fragments = {
      {0.1, nan, 1e300, -7.25e-12, 123456.789}};
  const std::vector<double> avg = average_window(fragments);
  ASSERT_EQ(avg.size(), fragments[0].size());
  for (std::size_t i = 0; i < avg.size(); ++i) {
    if (std::isnan(fragments[0][i])) {
      EXPECT_TRUE(std::isnan(avg[i]));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(avg[i]),
                std::bit_cast<std::uint64_t>(fragments[0][i]));
    }
  }
}

TEST(RewlStages, FoldWindowTakesWorstFlatnessAndDeepestStage) {
  obs::WalkerHealthSample a;
  a.sweeps = 100;
  a.f_stage = 3;
  a.flatness = 0.9;
  a.acceptance = 0.5;
  a.round_trips = 2;
  a.exch_attempted = 10;
  a.exch_accepted = 4;
  a.converged = true;
  obs::WalkerHealthSample b = a;
  b.sweeps = 300;
  b.f_stage = 5;
  b.flatness = 0.7;
  b.acceptance = 0.3;
  b.round_trips = 1;
  b.exch_attempted = 10;
  b.exch_accepted = 1;
  b.converged = false;
  const std::vector<obs::WalkerHealthSample> walkers = {a, b};
  const RewlWindowReport wr = fold_window(1, Window{4, 20}, walkers);
  EXPECT_EQ(wr.window, 1);
  EXPECT_EQ(wr.lo_bin, 4);
  EXPECT_EQ(wr.hi_bin, 20);
  EXPECT_EQ(wr.sweeps, 400);
  EXPECT_EQ(wr.f_stages, 5);
  EXPECT_EQ(wr.flatness, 0.7);
  EXPECT_EQ(wr.round_trips, 3u);
  EXPECT_DOUBLE_EQ(wr.acceptance, 0.4);
  EXPECT_DOUBLE_EQ(wr.exchange_acceptance, 0.25);
  EXPECT_FALSE(wr.converged);
}

TEST(RewlStages, FoldWindowWithoutAttemptsHasZeroExchangeAcceptance) {
  obs::WalkerHealthSample s;
  s.sweeps = 50;
  s.flatness = 0.8;
  s.converged = true;
  const std::vector<obs::WalkerHealthSample> walkers = {s};
  const RewlWindowReport wr = fold_window(0, Window{0, 9}, walkers);
  EXPECT_EQ(wr.exchange_acceptance, 0.0);
  EXPECT_EQ(wr.flatness, 0.8);
  EXPECT_TRUE(wr.converged);
}

/// Keeps the last `rewl_walker` event per rank.
class LastWalkerEventSink final : public obs::Sink {
 public:
  using ByRank = std::map<std::int64_t, obs::Event>;
  explicit LastWalkerEventSink(std::shared_ptr<ByRank> last)
      : last_(std::move(last)) {}

  void write(const obs::Event& event) override {
    if (event.type != "rewl_walker") return;
    std::lock_guard<std::mutex> lock(mutex_);
    last_->insert_or_assign(std::get<std::int64_t>(field(event, "rank")),
                            event);
  }
  void flush() override {}

  static const obs::FieldValue& field(const obs::Event& event,
                                      const std::string& name) {
    for (const auto& [key, value] : event.fields)
      if (key == name) return value;
    ADD_FAILURE() << "event lacks field " << name;
    static const obs::FieldValue missing;
    return missing;
  }

 private:
  std::mutex mutex_;
  std::shared_ptr<ByRank> last_;
};

TEST(Rewl, OneSnapshotFeedsTelemetryAndHealthPlane) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.walkers_per_window = 2;
  opts.wl.log_f_final = 1e-2;
  auto last = std::make_shared<LastWalkerEventSink::ByRank>();
  obs::Telemetry::instance().add_sink(
      std::make_unique<LastWalkerEventSink>(last));
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  obs::Telemetry::instance().disable();
  ASSERT_TRUE(result.converged);

  const obs::HealthSnapshot health = obs::HealthRegistry::global().snapshot();
  ASSERT_EQ(health.walkers.size(),
            static_cast<std::size_t>(opts.total_ranks()));
  ASSERT_EQ(last->size(), health.walkers.size());
  for (const auto& w : health.walkers) {
    SCOPED_TRACE(w.rank);
    const obs::Event& event = last->at(w.rank);
    auto get = [&](const char* name) {
      return LastWalkerEventSink::field(event, name);
    };
    EXPECT_EQ(std::get<std::int64_t>(get("sweeps")), w.sweeps);
    EXPECT_EQ(std::get<double>(get("flatness")), w.flatness);
    EXPECT_EQ(std::get<double>(get("log_f")), w.log_f);
    EXPECT_EQ(std::get<std::int64_t>(get("f_stage")), w.f_stage);
    EXPECT_EQ(std::get<double>(get("energy")), w.energy);
    EXPECT_EQ(std::get<std::int64_t>(get("window")), w.window);
    // The local-swap baseline still carries the kernel fields, zeroed.
    EXPECT_EQ(std::get<std::uint64_t>(get("vae_proposed")), 0u);
  }
}

}  // namespace
}  // namespace dt::par
