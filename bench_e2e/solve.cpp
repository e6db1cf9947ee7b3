// One time-to-solution measurement of the DeepThermo pipeline, run by
// bench_e2e/run.py in a child process per measurement.
//
//   bench_e2e_solve --mode=plain|traced --seed=N --cells=4 ...
//
// --mode=plain is what a user runs: Framework construction, pretrain(),
// run() (REWL, stitch, normalise), then the thermodynamic scan.
// --mode=traced recomposes the same pipeline from the public API --
// pretrain(), par::run_rewl with a timing ProposalFactory and IntervalHook
// (bench_e2e/trace.hpp), DensityOfStates::normalize, thermo_scan -- and
// reports the per-layer split. run.py checks that both modes give the
// same total_sweeps and bitwise the same ln g.
//
// Prints one JSON object on stdout. The output checks (β→0 limits against
// random configurations sampled here, or a finite ln g) run after the
// timed pipeline.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "core/decode_plane.hpp"
#include "core/framework.hpp"
#include "mc/thermo.hpp"
#include "nn/trainer.hpp"
#include "par/ddp.hpp"
#include "par/rewl.hpp"
#include "trace.hpp"

namespace bench_e2e {
namespace {

namespace core = dt::core;
namespace lattice = dt::lattice;
namespace nn = dt::nn;
namespace par = dt::par;
namespace units = dt::units;

struct Args {
  std::string mode = "plain";
  std::uint64_t seed = 1;
  int cells = 4;
  std::int32_t bins = 80;
  bool use_vae = true;
  double log_f_final = 1e-5;
  std::int64_t max_sweeps = 200000;
  std::int64_t exchange_interval = 100;
  std::int64_t retrain_every = 0;
  std::string ckpt_dir;
  std::int64_t ckpt_every = 0;
  std::string check = "limits";  ///< limits | finite
  double var_tolerance = 0.1;    ///< |β²Var / (Var_rand + w²/12) - 1|
};

/// One process drives 3 rank threads: 3 windows x 1 walker.
constexpr int kWindows = 3;
constexpr int kWalkersPerWindow = 1;
/// Framework constructions per solve; setup_s is their median.
constexpr int kSetupReps = 5;
/// Random configurations behind the β→0 reference (at 128 atoms the
/// standard error of their mean energy is ~1/30 of the half-bin limit).
constexpr int kLimitSamples = 32768;
/// TimedProposal times 1 call in this many (a power of two).
constexpr std::uint64_t kSampleEvery = 16;

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::invalid_argument("expected --key=value, got '" + a + "'");
    kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  Args args;
  auto take = [&](const char* key, auto& field) {
    using Field = std::decay_t<decltype(field)>;
    const auto it = kv.find(key);
    if (it == kv.end()) return;
    if constexpr (std::is_same_v<Field, std::string>) {
      field = it->second;
    } else {
      std::istringstream is(it->second);
      if constexpr (std::is_same_v<Field, bool>) {
        int v = 0;
        is >> v;
        field = v != 0;
      } else {
        is >> field;
      }
      if (is.fail() || !is.eof())
        throw std::invalid_argument("bad value for --" + it->first);
    }
    kv.erase(it);
  };
  take("mode", args.mode);
  take("seed", args.seed);
  take("cells", args.cells);
  take("bins", args.bins);
  take("use_vae", args.use_vae);
  take("log_f_final", args.log_f_final);
  take("max_sweeps", args.max_sweeps);
  take("exchange_interval", args.exchange_interval);
  take("retrain_every", args.retrain_every);
  take("ckpt_dir", args.ckpt_dir);
  take("ckpt_every", args.ckpt_every);
  take("check", args.check);
  take("var_tolerance", args.var_tolerance);
  if (!kv.empty())
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  if (args.mode != "plain" && args.mode != "traced")
    throw std::invalid_argument("--mode must be plain or traced");
  if (args.check != "limits" && args.check != "finite")
    throw std::invalid_argument("--check must be limits or finite");
  return args;
}

core::DeepThermoOptions make_options(const Args& a) {
  core::DeepThermoOptions o;
  o.lattice.nx = o.lattice.ny = o.lattice.nz = a.cells;
  o.n_bins = a.bins;
  o.use_vae = a.use_vae;
  o.seed = a.seed;
  o.rewl.seed = a.seed;
  o.rewl.n_windows = kWindows;
  o.rewl.walkers_per_window = kWalkersPerWindow;
  o.rewl.wl.log_f_final = a.log_f_final;
  o.rewl.max_sweeps = a.max_sweeps;
  o.rewl.exchange_interval = a.exchange_interval;
  o.retrain_every_rounds = a.retrain_every;
  if (!a.ckpt_dir.empty()) {
    o.checkpoint_dir = a.ckpt_dir;
    o.checkpoint_interval_rounds = a.ckpt_every;
    // Saves every ckpt_every rounds exactly, not throttled by wall time,
    // so every run writes the same number of checkpoints.
    o.checkpoint_min_interval_seconds = 0.0;
  }
  return o;
}

/// Temperature range of the reported scan (energy units, as the CLI).
constexpr double kScanTLo = 0.005;
constexpr double kScanTHi = 0.4;
constexpr std::size_t kScanPoints = 40;

/// What one solve hands to the checks and the report.
struct Solve {
  double setup_s = 0.0;
  double pretrain_s = 0.0;
  double sample_s = 0.0;
  double solve_s = 0.0;
  par::RewlResult rewl;
  dt::mc::DensityOfStates dos;  ///< normalised
  double tc = 0.0;
  std::vector<std::pair<std::string, double>> layers;  ///< traced only
};

std::string weights_of(const nn::Vae& vae) {
  std::ostringstream os(std::ios::binary);
  vae.save(os);
  return std::move(os).str();
}

std::shared_ptr<nn::Vae> replica(const nn::Vae& like, std::uint64_t seed,
                                 const std::string& weights) {
  auto vae = std::make_shared<nn::Vae>(like.options(), seed);
  std::istringstream in(weights, std::ios::binary);
  vae->load(in);
  return vae;
}

Solve run_plain(const Args& a) {
  Solve s;
  dt::Stopwatch total;
  dt::Stopwatch clock;
  core::Framework fw = core::Framework::nbmotaw(make_options(a));
  s.setup_s = clock.seconds();
  if (a.use_vae) {
    clock.reset();
    (void)fw.pretrain();
    s.pretrain_s = clock.seconds();
  }
  core::DeepThermoResult result = fw.run();
  s.sample_s = result.sample_seconds;
  const auto scan = core::Framework::scan(result, kScanTLo, kScanTHi,
                                          kScanPoints);
  s.tc = dt::mc::transition_temperature(scan);
  s.solve_s = total.seconds();
  s.rewl = std::move(result.rewl);
  s.dos = std::move(result.dos);
  return s;
}

/// Per-rank sampling state of the traced composition: the same objects,
/// built in the same order from the same seeds, as Framework::run's.
struct RankState {
  std::shared_ptr<nn::Vae> vae;
  std::shared_ptr<core::DeepThermoProposal> kernel;
  std::shared_ptr<TimedProposal> timed;  ///< wraps kernel
  std::unique_ptr<nn::Trainer> trainer;
  std::unique_ptr<nn::ConfigDataset> dataset;
  dt::Xoshiro256ss reservoir_rng{0};
  std::int64_t rounds = 0;
};

/// Times hamiltonian.swap_delta on the walker's live configuration for a
/// batch of random distinct-species pairs (drawn from the benchmark's
/// own generator: the walker's streams are never touched).
void time_swap_delta(const lattice::EpiHamiltonian& h,
                     const lattice::Configuration& cfg,
                     dt::Xoshiro256ss& rng, RankLedger& ledger) {
  constexpr int kPairs = 64;
  const auto n = static_cast<std::uint64_t>(cfg.num_sites());
  std::int32_t pairs[kPairs][2];
  for (auto& p : pairs) {
    do {
      p[0] = static_cast<std::int32_t>(rng() % n);
      p[1] = static_cast<std::int32_t>(rng() % n);
    } while (cfg.at(p[0]) == cfg.at(p[1]));
  }
  // swap_delta is defined out of line, so its calls cannot be elided.
  const Clock::time_point t0 = Clock::now();
  for (const auto& p : pairs) (void)h.swap_delta(cfg, p[0], p[1]);
  ledger.swap_delta.ns += 1e9 * seconds_between(t0, Clock::now());
  ledger.swap_delta.n += kPairs;
}

std::int64_t directory_bytes(const std::string& dir) {
  std::int64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) bytes += static_cast<std::int64_t>(e.file_size());
  return bytes;
}

/// Timings and counts taken around run_rewl, for layer_report.
struct ReportInputs {
  double clock_ns = 0.0;  ///< cost of one clock pair, taken off timings
  Clock::time_point origin{};
  double normalize_s = 0.0;
  double scan_s = 0.0;
  double rows_per_gemm = 0.0;
  double flops_per_refill = 0.0;
  double ckpt_bytes_per_save = 0.0;
};

using Layers = std::vector<std::pair<std::string, double>>;

/// The per-layer split of one traced solve. Per-rank seconds are means
/// over ranks.
Layers layer_report(const std::vector<RankLedger>& ledgers,
                    const std::vector<RankState>& states, const Solve& s,
                    const ReportInputs& in) {
  const double nr = static_cast<double>(ledgers.size());
  const double clock_ns = in.clock_ns;
  double seek = 0, block = 0, hook_s = 0, sync = 0, prop = 0, rev = 0;
  double last_exit = 0, ddp = 0, useful = 0, vae_ns = 0;
  std::uint64_t vae_calls_total = 0;
  Sampled local, refill, serve, swap;
  std::int64_t ddp_calls = 0;
  std::size_t rounds = ledgers[0].hook_entry_s.size();
  for (std::size_t r = 0; r < ledgers.size(); ++r) {
    const RankLedger& l = ledgers[r];
    const std::uint64_t vae_calls =
        states[r].kernel != nullptr ? states[r].kernel->vae_kernel().served()
                                    : 0;
    seek += l.seek_s / nr;
    block += l.block_s / nr;
    hook_s += l.hook_s / nr;
    sync += l.sync_s / nr;
    prop += l.propose_s(clock_ns, vae_calls) / nr;
    vae_calls_total += vae_calls;
    vae_ns += l.vae_refill.net_ns(clock_ns) +
              static_cast<double>(vae_calls - l.vae_refill.n) *
                  l.vae_serve.mean_ns(clock_ns);
    rev += l.revert_s(clock_ns) / nr;
    ddp += l.ddp_s / nr;
    ddp_calls = std::max(ddp_calls, l.ddp_calls);
    last_exit = std::max(last_exit, seconds_between(in.origin, l.last_hook_exit));
    useful += static_cast<double>(l.useful_sweeps >= 0 ? l.useful_sweeps
                                                       : l.last_sweeps);
    for (auto [acc, src] : {std::pair{&local, &l.local},
                            std::pair{&refill, &l.vae_refill},
                            std::pair{&serve, &l.vae_serve},
                            std::pair{&swap, &l.swap_delta}}) {
      acc->ns += src->ns;
      acc->n += src->n;
    }
    rounds = std::min(rounds, l.hook_entry_s.size());
  }
  double skew = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    double lo = 1e300, hi = -1e300;
    for (const RankLedger& l : ledgers) {
      lo = std::min(lo, l.hook_entry_s[r]);
      hi = std::max(hi, l.hook_entry_s[r]);
    }
    skew += hi - lo;
  }

  double vae_accept = 0.0, decode_wait = 0.0;
  std::uint64_t vae_proposed = 0, vae_reverted = 0;
  for (const RankState& st : states) {
    if (st.kernel == nullptr) continue;
    vae_proposed += st.kernel->vae_stats().proposed;
    vae_reverted += st.kernel->vae_stats().reverted;
    decode_wait += st.kernel->vae_kernel().decode_wait_seconds();
  }
  if (vae_proposed > 0)
    vae_accept = 1.0 - static_cast<double>(vae_reverted) /
                           static_cast<double>(vae_proposed);

  double exch_accept = 0.0;
  for (std::size_t w = 0; w + 1 < s.rewl.windows.size(); ++w)
    exch_accept += s.rewl.windows[w].exchange_acceptance /
                   static_cast<double>(s.rewl.windows.size() - 1);

  return {
      {"core.vae.us_per_call",
       vae_calls_total > 0
           ? 1e-3 * vae_ns / static_cast<double>(vae_calls_total)
           : 0.0},
      {"core.vae.refill_us", 1e-3 * refill.mean_ns(clock_ns)},
      {"core.vae.serve_us", 1e-3 * serve.mean_ns(clock_ns)},
      {"core.vae.decode_wait_s", decode_wait / nr},
      {"core.vae.accept_ratio", vae_accept},
      {"core.decode_plane.rows_per_gemm", in.rows_per_gemm},
      {"nn.decode.flops_per_refill", in.flops_per_refill},
      {"mc.local.ns_per_call", local.mean_ns(clock_ns)},
      // One clock pair per batch of 64 calls: no per-call correction.
      {"lattice.swap_delta_ns", swap.mean_ns(0.0)},
      {"mc.revert_s", rev},
      {"mc.wl.self_s", block - prop - rev},
      {"mc.wl.block_s", block},
      {"mc.proposal_s", prop},
      {"par.rewl.seek_s", seek},
      {"par.rewl.sync_s", sync},
      {"par.rewl.hook_s", hook_s},
      {"par.rewl.rank_skew_s", skew},
      {"par.rewl.tail_s", s.sample_s - last_exit},
      {"par.exchange.accept_ratio", exch_accept},
      {"par.rewl.sample_s", s.sample_s},
      {"mc.wl.sweeps_per_s",
       static_cast<double>(s.rewl.total_sweeps) / s.sample_s},
      {"mc.wl.total_sweeps", static_cast<double>(s.rewl.total_sweeps)},
      {"mc.wl.useful_sweep_ratio",
       s.rewl.total_sweeps > 0
           ? useful / static_cast<double>(s.rewl.total_sweeps)
           : 0.0},
      {"par.ddp_fit_s", ddp},
      {"par.ddp_fit_calls", static_cast<double>(ddp_calls)},
      {"ckpt.saves", static_cast<double>(ledgers[0].saves)},
      {"ckpt.bytes_per_save", in.ckpt_bytes_per_save},
      {"ckpt.save_s", ledgers[0].save_s},
      {"core.pretrain_s", s.pretrain_s},
      {"mc.thermo.normalize_us", 1e6 * in.normalize_s},
      {"mc.thermo.scan_us", 1e6 * in.scan_s},
  };
}

Solve run_traced(const Args& a) {
  Solve s;
  dt::Stopwatch total;
  dt::Stopwatch clock;
  const core::DeepThermoOptions opts = make_options(a);
  core::Framework fw = core::Framework::nbmotaw(opts);
  s.setup_s = clock.seconds();
  std::string weights;
  if (a.use_vae) {
    clock.reset();
    (void)fw.pretrain();
    s.pretrain_s = clock.seconds();
    weights = weights_of(*fw.vae());
  }

  const int n_ranks = opts.rewl.total_ranks();
  std::shared_ptr<core::DecodePlane> plane;
  if (opts.use_vae && opts.decode_plane) {
    core::DecodePlane::Options plane_opts;
    plane_opts.window_us = opts.decode_plane_window_us;
    plane = std::make_shared<core::DecodePlane>(
        replica(*fw.vae(), opts.seed, weights), plane_opts);
  }
  std::vector<RankState> states(static_cast<std::size_t>(n_ranks));
  std::vector<RankLedger> ledgers(static_cast<std::size_t>(n_ranks));
  const lattice::EpiHamiltonian& h = fw.hamiltonian();

  par::ProposalFactory factory =
      [&](int rank) -> std::shared_ptr<mc::Proposal> {
    RankLedger& ledger = ledgers[static_cast<std::size_t>(rank)];
    if (!opts.use_vae)
      return std::make_shared<TimedProposal>(
          std::make_shared<mc::LocalSwapProposal>(h), nullptr, ledger,
          kSampleEvery);
    RankState& st = states[static_cast<std::size_t>(rank)];
    st.vae = replica(*fw.vae(), opts.seed, weights);
    if (opts.retrain_every_rounds > 0) {
      nn::TrainOptions to;
      to.epochs = 1;
      to.batch_size = opts.vae.batch_size;
      to.learning_rate = opts.vae.learning_rate;
      to.seed = opts.seed;
      st.trainer = std::make_unique<nn::Trainer>(*st.vae, to);
      st.dataset = std::make_unique<nn::ConfigDataset>(
          fw.lattice_ref().num_sites(), opts.vae.dataset_capacity,
          st.vae->options().condition_dim);
      st.reservoir_rng = dt::Xoshiro256ss(
          opts.seed ^ dt::stream_id(static_cast<std::uint64_t>(rank), 7));
    }
    st.kernel = std::make_shared<core::DeepThermoProposal>(
        h, st.vae, opts.global_fraction);
    if (plane != nullptr) st.kernel->attach_decode_plane(plane);
    st.timed = std::make_shared<TimedProposal>(st.kernel, st.kernel.get(),
                                               ledger, kSampleEvery);
    return st.timed;
  };

  par::IntervalHook hook = [&](par::Communicator& comm,
                               dt::mc::WangLandauSampler& walker,
                               dt::mc::Rng& /*rng*/) {
    const int rank = comm.rank();
    RankLedger& ledger = ledgers[static_cast<std::size_t>(rank)];
    const Clock::time_point entry = Clock::now();
    ledger.block_s += seconds_between(ledger.block_start, entry);
    ledger.in_block = false;
    ledger.hook_entry_s.push_back(seconds_between(ledger.origin, entry));
    ledger.last_sweeps = walker.stats().sweeps;
    if (ledger.useful_sweeps < 0 && walker.converged())
      ledger.useful_sweeps = walker.stats().sweeps;
    dt::Xoshiro256ss swap_rng(
        a.seed ^ dt::stream_id(static_cast<std::uint64_t>(rank),
                               ledger.hook_entry_s.size(), 0xB5));
    time_swap_delta(h, walker.configuration(), swap_rng, ledger);

    // Framework::run's retrain hook, with ddp_fit timed.
    if (opts.use_vae && opts.retrain_every_rounds > 0) {
      RankState& st = states[static_cast<std::size_t>(rank)];
      st.dataset->add(walker.configuration().occupancy(), st.reservoir_rng);
      ++st.rounds;
      if (st.rounds % opts.retrain_every_rounds == 0 &&
          st.dataset->size() >= 2) {
        const Clock::time_point t0 = Clock::now();
        (void)par::ddp_fit(comm, *st.trainer, *st.dataset,
                           opts.retrain_epochs, opts.vae.batch_size);
        ledger.ddp_s += seconds_between(t0, Clock::now());
        ++ledger.ddp_calls;
        st.kernel->vae_kernel().invalidate_decode_cache();
        if (plane != nullptr) {
          comm.barrier();
          if (rank == 0) {
            std::istringstream rs(weights_of(*st.vae), std::ios::binary);
            plane->refresh_weights(rs);
          }
          comm.barrier();
        }
      }
    }
    ledger.seen_hook = true;
    ledger.last_hook_exit = Clock::now();
    ledger.hook_s += seconds_between(entry, ledger.last_hook_exit);
  };

  // Checkpoint wiring with Framework::run's per-rank payload (the VAE
  // replica, trainer, replay dataset and kernel state); the kernel state
  // goes through the decorator's save_state.
  std::unique_ptr<dt::ckpt::CheckpointStore> store;
  par::RewlCheckpointConfig ckpt;
  const par::RewlCheckpointConfig* ckpt_ptr = nullptr;
  if (!opts.checkpoint_dir.empty()) {
    store = std::make_unique<dt::ckpt::CheckpointStore>(
        opts.checkpoint_dir, opts.checkpoint_keep);
    ckpt.store = store.get();
    ckpt.interval_rounds = opts.checkpoint_interval_rounds;
    ckpt.min_interval_seconds = opts.checkpoint_min_interval_seconds;
    ckpt.add_components = [&](dt::ckpt::CheckpointBuilder& builder) {
      if (opts.use_vae) builder.add("vae.pretrained", weights);
      ++ledgers[0].saves;
    };
    if (opts.use_vae) {
      ckpt.save_extra = [&](int rank, std::ostream& os) {
        RankLedger& ledger = ledgers[static_cast<std::size_t>(rank)];
        ledger.saving = true;
        ledger.save_start = Clock::now();
        const RankState& st = states[static_cast<std::size_t>(rank)];
        st.vae->save(os);
        const std::uint8_t has_retrain = st.trainer ? 1 : 0;
        dt::write_pod(os, has_retrain);
        if (has_retrain != 0) {
          st.trainer->save_state(os);
          st.dataset->save_state(os);
          dt::write_pod(os, st.reservoir_rng.state());
          dt::write_pod(os, st.rounds);
        }
        st.timed->save_state(os);
      };
    }
    ckpt_ptr = &ckpt;
  }
  const double clock_ns = clock_pair_ns();
  const Clock::time_point origin = Clock::now();
  for (RankLedger& l : ledgers) l.origin = origin;
  s.rewl = par::run_rewl(h, fw.lattice_ref(), opts.n_species, fw.grid(),
                         opts.rewl, factory, hook, ckpt_ptr);
  const Clock::time_point returned = Clock::now();
  s.sample_s = seconds_between(origin, returned);

  clock.reset();
  s.dos = s.rewl.dos;
  s.dos.normalize(units::LogWeight(fw.log_total_states()));
  const double normalize_s = clock.seconds();
  clock.reset();
  const auto scan = dt::mc::thermo_scan(
      s.dos, dt::linspace(kScanTLo, kScanTHi, kScanPoints));
  s.tc = dt::mc::transition_temperature(scan);
  const double scan_s = clock.seconds();
  s.solve_s = total.seconds();

  ReportInputs in;
  in.clock_ns = clock_ns;
  in.origin = origin;
  in.normalize_s = normalize_s;
  in.scan_s = scan_s;
  if (plane != nullptr && plane->stats().batches > 0)
    in.rows_per_gemm = static_cast<double>(plane->stats().rows) /
                       static_cast<double>(plane->stats().batches);
  if (opts.use_vae) {
    const nn::VaeOptions& vo = fw.vae()->options();
    const double k = core::VaeProposal::kDefaultDecodeBatch;
    const double width = static_cast<double>(vo.latent + vo.condition_dim);
    const double hid = static_cast<double>(vo.hidden);
    const double out = static_cast<double>(vo.n_sites) * vo.n_species;
    in.flops_per_refill = 2.0 * k * (width * hid + hid * out);
  }
  if (store != nullptr && !store->generations().empty())
    in.ckpt_bytes_per_save =
        static_cast<double>(directory_bytes(opts.checkpoint_dir)) /
        static_cast<double>(store->generations().size());
  s.layers = layer_report(ledgers, states, s, in);
  return s;
}

/// FNV-1a over the visited mask and the bits of every visited ln g.
std::uint64_t digest(const dt::mc::DensityOfStates& dos) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  if (dos.num_visited() == 0) return h;
  for (std::int32_t b = 0; b < dos.grid().n_bins(); ++b) {
    mix(dos.visited(b) ? 1 : 0);
    if (!dos.visited(b)) continue;
    const double v = dos.log_g(b).value();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  return h;
}

struct Check {
  bool ok = false;
  std::string detail;
  std::vector<std::pair<std::string, double>> values;
};

/// β→0 limits of the stitched, normalised ln g against the mean and
/// variance of total_energy over random equiatomic configurations:
///   |U(T→∞) - <E>_rand| / N <= (w/2) / N
///   β²Var(E) (= Var_g(E)) / (Var_rand + w²/12) within var_tolerance of 1
/// where w is the bin width (w²/12 is the variance binning adds).
Check check_limits(const Args& a, const Solve& s) {
  Check c;
  const core::LatticeSpec spec = make_options(a).lattice;
  const lattice::Lattice lat = lattice::Lattice::create(
      spec.type, spec.nx, spec.ny, spec.nz, spec.n_shells);
  const lattice::EpiHamiltonian h = lattice::epi_nbmotaw();
  dt::mc::Rng rng(a.seed, dt::stream_id(0xBE, 0x11));
  dt::RunningStats stats;
  for (int k = 0; k < kLimitSamples; ++k)
    stats.add(h.total_energy(
        lattice::random_configuration(lat, h.n_species(), rng)));
  constexpr double kTInf = 1e6;
  const dt::mc::ThermoPoint inf =
      dt::mc::evaluate_thermo(s.dos, units::Temperature(kTInf));
  const double n = lat.num_sites();
  const double w = s.dos.grid().bin_width();
  const double u_miss = std::abs(inf.internal_energy - stats.mean()) / n;
  const double half_bin = 0.5 * w / n;
  const double var_g = inf.specific_heat * kTInf * kTInf;
  const double var_ratio = var_g / (stats.variance() + w * w / 12.0);
  const bool ok_u = u_miss <= half_bin;
  const bool ok_var = std::abs(var_ratio - 1.0) <= a.var_tolerance;
  c.ok = s.rewl.converged && ok_u && ok_var;
  std::ostringstream d;
  if (!s.rewl.converged) d << "not converged; ";
  if (!ok_u) d << "U(T->inf) misses <E>_rand; ";
  if (!ok_var) d << "Var(E) ratio out of tolerance; ";
  c.detail = d.str();
  c.values = {{"u_miss_per_atom", u_miss},
              {"half_bin_per_atom", half_bin},
              {"var_ratio", var_ratio},
              {"rand_mean_stderr_per_atom", stats.stderror() / n}};
  return c;
}

Check check_finite(const Solve& s) {
  Check c;
  const std::int32_t visited = s.dos.num_visited();
  bool finite = visited >= 2;
  for (std::int32_t b = 0; finite && b < s.dos.grid().n_bins(); ++b)
    if (s.dos.visited(b) && !std::isfinite(s.dos.log_g(b).value()))
      finite = false;
  c.ok = finite;
  c.detail = finite ? "" : "stitched ln g not finite on every visited bin";
  c.values = {{"visited_bins", static_cast<double>(visited)}};
  return c;
}

void put(std::ostream& os, const std::string& key, double v, bool comma) {
  os << '"' << key << "\": ";
  if (std::isfinite(v))
    os << v;
  else
    os << "null";
  if (comma) os << ", ";
}

void put_object(std::ostream& os, const std::string& key,
                const std::vector<std::pair<std::string, double>>& kv) {
  os << '"' << key << "\": {";
  for (std::size_t i = 0; i < kv.size(); ++i)
    put(os, kv[i].first, kv[i].second, i + 1 < kv.size());
  os << "}";
}

/// Median Framework construction time: the pipeline's own construction
/// plus kSetupReps - 1 more after the solve.
double median_setup_s(const Args& a, double first) {
  std::vector<double> times{first};
  for (int r = 1; r < kSetupReps; ++r) {
    dt::Stopwatch clock;
    const core::Framework fw = core::Framework::nbmotaw(make_options(a));
    times.push_back(clock.seconds());
  }
  std::sort(times.begin(), times.end());
  const std::size_t m = times.size() / 2;
  return times.size() % 2 == 1 ? times[m] : 0.5 * (times[m - 1] + times[m]);
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Solve s = a.mode == "plain" ? run_plain(a) : run_traced(a);
  s.setup_s = median_setup_s(a, s.setup_s);
  const Check c = a.check == "limits" ? check_limits(a, s) : check_finite(s);

  std::ostringstream os;
  os.precision(17);
  os << "{\"mode\": \"" << a.mode << "\", ";
  os << "\"ranks\": " << kWindows * kWalkersPerWindow << ", ";
  put(os, "setup_s", s.setup_s, true);
  put(os, "pretrain_s", s.pretrain_s, true);
  put(os, "sample_s", s.sample_s, true);
  put(os, "solve_s", s.solve_s, true);
  put(os, "tc", s.tc, true);
  os << "\"total_sweeps\": " << s.rewl.total_sweeps << ", ";
  os << "\"converged\": " << (s.rewl.converged ? "true" : "false") << ", ";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest(s.dos)));
  os << "\"lng_digest\": \"" << hex << "\", ";
  os << "\"check_ok\": " << (c.ok ? "true" : "false") << ", ";
  os << "\"check_detail\": \"" << c.detail << "\", ";
  put_object(os, "check", c.values);
  os << ", ";
  put_object(os, "layers", s.layers);
  os << "}\n";
  std::cout << os.str() << std::flush;
  return 0;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  try {
    return bench_e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e_solve: " << e.what() << "\n";
    return 2;
  }
}
