// Micro-benchmarks of DeepThermo's hot kernels (google-benchmark).
//
// These are the per-operation costs the cluster cost model abstracts:
// swap Delta-E, full energy evaluation, a Wang-Landau sweep, VAE decode,
// VAE training step and its loss, minicomm collectives and checkpoint
// saves.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "ckpt/checkpoint.hpp"
#include "core/deepthermo.hpp"
#include "nn/trainer.hpp"
#include "par/minicomm.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace dt;

struct System {
  lattice::Lattice lat;
  lattice::EpiHamiltonian ham;

  explicit System(int cells)
      : lat(lattice::Lattice::create(lattice::LatticeType::kBCC, cells,
                                     cells, cells, 2)),
        ham(lattice::epi_nbmotaw()) {}
};

void BM_SwapDelta(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(1, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  const auto n = static_cast<std::uint64_t>(sys.lat.num_sites());
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(uniform_index(rng, n));
    const auto b = static_cast<std::int32_t>(uniform_index(rng, n));
    benchmark::DoNotOptimize(sys.ham.swap_delta(cfg, a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwapDelta)->Arg(4)->Arg(8);

void BM_TotalEnergy(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(2, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(sys.ham.total_energy(cfg));
  state.SetItemsProcessed(state.iterations() * sys.lat.num_sites());
}
BENCHMARK(BM_TotalEnergy)->Arg(4)->Arg(8)->Arg(10);

// Sparse changed-site energy walk vs the full recompute it replaces.
// range(1) = number of random swaps in the candidate (2 changed sites
// each); compare against BM_TotalEnergy at the same cells.
void BM_AssignDelta(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(12, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  const auto n = static_cast<std::uint64_t>(sys.lat.num_sites());
  std::vector<lattice::Species> candidate(cfg.occupancy().begin(),
                                          cfg.occupancy().end());
  for (std::int64_t sw = 0; sw < state.range(1); ++sw) {
    const auto a = static_cast<std::size_t>(uniform_index(rng, n));
    const auto b = static_cast<std::size_t>(uniform_index(rng, n));
    std::swap(candidate[a], candidate[b]);
  }
  lattice::DeltaWorkspace ws;
  std::int32_t changed = 0;
  for (auto _ : state) {
    const auto d = sys.ham.assign_delta(cfg, candidate, ws);
    changed = d.n_changed;
    benchmark::DoNotOptimize(d.delta_energy);
  }
  state.counters["changed"] = changed;
  state.SetItemsProcessed(state.iterations());
}
// {10, *} brackets the VaeProposal sparse/full crossover at N = 2000
// (compare with BM_TotalEnergy/10).
BENCHMARK(BM_AssignDelta)
    ->Args({8, 8})
    ->Args({8, 64})
    ->Args({8, 512})
    ->Args({10, 64})
    ->Args({10, 128})
    ->Args({10, 192})
    ->Args({10, 256})
    ->Args({10, 384})
    ->Args({10, 1024});

// n = range(0) uniforms, one per site of a VAE proposal at N = 2000:
// the bulk fill against the same draws taken one call at a time.
void BM_Uniform01Fill(benchmark::State& state) {
  mc::Rng rng(13, 0);
  std::vector<double> u(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill_uniform01(u);
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Uniform01Fill)->Arg(2000);

void BM_Uniform01Loop(benchmark::State& state) {
  mc::Rng rng(13, 0);
  std::vector<double> u(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (auto& v : u) v = uniform01(rng);
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Uniform01Loop)->Arg(2000);

void BM_WangLandauSweep(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(3, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  const auto [lo, hi] =
      mc::estimate_energy_range(sys.ham, cfg, 20, 0.02, mc::Rng(3, 1));
  const mc::EnergyGrid grid(lo, hi, 100);
  mc::WangLandauSampler wl(sys.ham, cfg, grid, mc::WangLandauOptions{},
                           mc::Rng(3, 2));
  mc::LocalSwapProposal kernel(sys.ham);
  for (auto _ : state) wl.sweep(kernel);
  state.SetItemsProcessed(state.iterations() * sys.lat.num_sites());
}
BENCHMARK(BM_WangLandauSweep)->Arg(4)->Arg(8);

void BM_MetropolisSweep(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(4, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  mc::MetropolisSampler sampler(sys.ham, cfg, units::Temperature(0.1),
                                mc::Rng(4, 1));
  mc::LocalSwapProposal kernel(sys.ham);
  for (auto _ : state) sampler.sweep(kernel);
  state.SetItemsProcessed(state.iterations() * sys.lat.num_sites());
}
BENCHMARK(BM_MetropolisSweep)->Arg(4)->Arg(8);

std::shared_ptr<nn::Vae> bench_vae(const System& sys, std::int64_t hidden,
                                   std::int64_t latent) {
  nn::VaeOptions o;
  o.n_sites = sys.lat.num_sites();
  o.n_species = 4;
  o.hidden = hidden;
  o.latent = latent;
  return std::make_shared<nn::Vae>(o, 5);
}

void BM_VaeDecode(benchmark::State& state) {
  System sys(4);
  auto vae = bench_vae(sys, state.range(0), 16);
  std::vector<float> z(16, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(vae->decode_probs(z));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VaeDecode)->Arg(64)->Arg(256);

// Amortised per-latent decode cost at batch K (range(1)); K = 1 is the
// pre-fast-path baseline of one GEMM per proposal.
void BM_VaeDecodeBatch(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  auto vae = bench_vae(sys, 64, 16);
  const auto k = static_cast<std::int64_t>(state.range(1));
  std::vector<float> z(static_cast<std::size_t>(16 * k), 0.3f);
  for (auto _ : state)
    benchmark::DoNotOptimize(vae->decode_probs_batch(z, k));
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_VaeDecodeBatch)
    ->Args({4, 1})
    ->Args({4, 8})
    ->Args({10, 1})
    ->Args({10, 8})
    ->Args({10, 16})
    ->Args({10, 32});

// Full mixed-kernel global move: decode (amortised over the decode-ahead
// batch, range(1)) + constrained sequential sampling + reverse density +
// sparse delta energy. {4, *} is the unit-test scale, {10, *} is N = 2000
// (ISSUE 4's headline proposal-throughput target).
void BM_VaeGlobalProposal(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  auto vae = bench_vae(sys, 64, 16);
  core::VaeProposal kernel(sys.ham, vae);
  kernel.set_decode_batch(static_cast<std::int32_t>(state.range(1)));
  mc::Rng rng(6, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  double e = sys.ham.total_energy(cfg);
  for (auto _ : state) {
    const auto r = kernel.propose(cfg, units::Energy(e), rng);
    e += r.delta_energy.value();
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VaeGlobalProposal)
    ->Args({4, 1})
    ->Args({10, 1})
    ->Args({10, 8})
    ->Args({10, 16})
    ->Args({10, 32});

// The tensor-layer GEMM behind every VAE forward/backward, vs the
// pre-blocking naive loop it replaced (see BENCH_baseline.json).
void BM_GemmNN(benchmark::State& state) {
  const auto d = static_cast<std::int64_t>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(d * d), 0.5f);
  std::vector<float> b(static_cast<std::size_t>(d * d), 0.25f);
  std::vector<float> c(static_cast<std::size_t>(d * d));
  for (auto _ : state) {
    tensor::gemm_nn(d, d, d, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * d * d * d);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(256);

// The decode refill GEMM of the paper-2000 solve: 16 latent rows times
// the decoder's output layer (hidden 96 -> 2000 sites x 4 species),
// accumulating onto bias-filled rows as Linear::forward does. The packed
// form is what the Linear pack cache serves; the unpacked form is the
// same product with the weights streamed from their row-major tensor.
constexpr std::size_t kDecodeRows = 16, kDecodeK = 96, kDecodeN = 8000;

void BM_GemmDecode(benchmark::State& state) {
  std::vector<float> a(kDecodeRows * kDecodeK, 0.5f);
  std::vector<float> w(kDecodeK * kDecodeN, 0.25f);
  std::vector<float> c(kDecodeRows * kDecodeN, 0.0f);
  const tensor::PackedB packed = tensor::pack_b(kDecodeK, kDecodeN, w.data());
  for (auto _ : state) {
    tensor::gemm_nn_acc(kDecodeRows, kDecodeK, kDecodeN, a.data(), packed,
                        c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(2 * kDecodeRows * kDecodeK * kDecodeN));
}
BENCHMARK(BM_GemmDecode);

void BM_GemmDecodeUnpacked(benchmark::State& state) {
  std::vector<float> a(kDecodeRows * kDecodeK, 0.5f);
  std::vector<float> w(kDecodeK * kDecodeN, 0.25f);
  std::vector<float> c(kDecodeRows * kDecodeN, 0.0f);
  for (auto _ : state) {
    tensor::gemm_nn_acc(kDecodeRows, kDecodeK, kDecodeN, a.data(), w.data(),
                        c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(2 * kDecodeRows * kDecodeK * kDecodeN));
}
BENCHMARK(BM_GemmDecodeUnpacked);

void BM_GemmBackward(benchmark::State& state) {
  const auto d = static_cast<std::int64_t>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(d * d), 0.5f);
  std::vector<float> dy(static_cast<std::size_t>(d * d), 0.25f);
  std::vector<float> da(static_cast<std::size_t>(d * d), 0.0f);
  std::vector<float> db(static_cast<std::size_t>(d * d), 0.0f);
  for (auto _ : state) {
    tensor::gemm_nt_acc(d, d, d, dy.data(), a.data(), da.data());
    tensor::gemm_tn_acc(d, d, d, a.data(), dy.data(), db.data());
    benchmark::DoNotOptimize(da.data());
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * d * d * d);
}
BENCHMARK(BM_GemmBackward)->Arg(256);

// One Trainer::train_batch (forward, backward, Adam step) at {cells,
// batch, hidden, latent}. {10, 32, 96, 12} is the paper shape: 2000
// sites and the framework's default VAE, the batch that pretraining and
// ddp_fit repeat.
void BM_VaeTrainStep(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  auto vae = bench_vae(sys, state.range(2), state.range(3));
  nn::TrainOptions to;
  to.batch_size = static_cast<std::int32_t>(state.range(1));
  nn::Trainer trainer(*vae, to);
  mc::Rng rng(7, 0);
  std::vector<std::uint8_t> batch;
  for (int b = 0; b < to.batch_size; ++b) {
    auto sample = lattice::random_configuration(sys.lat, 4, rng);
    batch.insert(batch.end(), sample.occupancy().begin(),
                 sample.occupancy().end());
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(trainer.train_batch(batch, to.batch_size));
  state.SetItemsProcessed(state.iterations() * to.batch_size);
}
BENCHMARK(BM_VaeTrainStep)
    ->Args({4, 8, 64, 16})
    ->Args({4, 32, 64, 16})
    ->Args({10, 32, 96, 12});

// The training loss at the paper shape: batch 32 x 2000 sites = 64000
// rows of 4 species logits, one fused softmax cross-entropy forward (the
// forward also leaves the gradient for the backward pass).
void BM_CrossEntropy(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto classes = static_cast<std::size_t>(state.range(1));
  Xoshiro256ss rng(11);
  const auto logits = tensor::Tensor::randn(
      {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(classes)},
      2.0f, rng, /*requires_grad=*/true);
  std::vector<std::uint8_t> labels(rows);
  for (auto& l : labels)
    l = static_cast<std::uint8_t>(uniform_index(rng, classes));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        tensor::cross_entropy_with_logits(logits, labels).item());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_CrossEntropy)->Args({64000, 4});

void BM_MinicommAllreduce(benchmark::State& state) {
  const auto ranks = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    par::run_ranks(ranks, [&](par::Communicator& comm) {
      std::vector<float> data(elems, static_cast<float>(comm.rank()));
      comm.allreduce_sum(std::span<float>(data.data(), data.size()));
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_MinicommAllreduce)->Args({2, 1024})->Args({4, 65536});

void BM_MinicommBarrier(benchmark::State& state) {
  const auto ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    par::run_ranks(ranks, [](par::Communicator& comm) {
      for (int i = 0; i < 100; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MinicommBarrier)->Arg(2)->Arg(4);

// The checkpoint CRC-32 that covers every saved and loaded byte.
void BM_Crc32(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), '\x5a');
  for (auto _ : state)
    benchmark::DoNotOptimize(ckpt::crc32({data.data(), data.size()}));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(16777216);

// One CheckpointStore::save (stream, fsync, rename, directory fsync) at
// the paper-2000 manifest shape: three 18.4 MB rank records and the
// 6.2 MB vae.pretrained blob, into a fresh directory under the temp dir.
void BM_CheckpointSave(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dt_bench_micro_ckpt";
  std::filesystem::remove_all(dir);
  ckpt::CheckpointStore store(dir.string(), /*keep_last=*/1);
  ckpt::CheckpointBuilder builder;
  builder.add("rewl.meta", std::string(20, '\x01'));
  for (int r = 0; r < 3; ++r)
    builder.add("rank" + std::to_string(r),
                std::string(18'400'000, static_cast<char>('a' + r)));
  builder.add("framework", std::string(64, '\x02'));
  builder.add("vae.pretrained", std::string(6'200'000, 'w'));
  std::size_t bytes = 0;
  for (auto _ : state) bytes = store.save(builder).bytes;
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
