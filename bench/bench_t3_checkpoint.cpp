// Table 3 (extension): checkpoint/restart overhead.
//
// Runs the same DeepThermo pipeline three ways -- no checkpointing,
// periodic checkpointing (--ckpt_interval rounds), and a resume from the
// finished run's final generation -- and reports wall-clock overhead,
// bytes written and save/load latency. The acceptance bar for the ckpt
// subsystem is < 5% wall-clock overhead at the default interval.
//
// One pair of runs differs by more than 5% from host noise alone, so the
// plain and checkpointed runs are interleaved over kRounds rounds (their
// order alternating) and the gate is on the median of the per-round
// overheads.
//
//   ./bench/bench_t3_checkpoint [--cells=3 --ckpt_interval=25
//                                --ckpt_dir=/tmp/dt_bench_ckpt --json=...]
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/framework.hpp"

int main(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  core::DeepThermoOptions opts = bench::bench_options(cfg);
  bench::print_run_header("T3: checkpoint/restart overhead", opts);

  const std::string ckpt_dir = cfg.get_string(
      "ckpt_dir",
      (std::filesystem::temp_directory_path() / "dt_bench_ckpt").string());
  const std::int64_t interval = cfg.get_int("ckpt_interval", 25);
  std::filesystem::remove_all(ckpt_dir);

  auto& metrics = obs::MetricsRegistry::global();
  constexpr int kRounds = 5;

  // Baseline: checkpointing off. Checkpointed: identical physics (saves
  // draw no RNG), plus periodic crash-consistent saves every `interval`
  // exchange rounds, into a fresh directory each time.
  core::DeepThermoOptions ckpt_opts = opts;
  ckpt_opts.checkpoint_dir = ckpt_dir;
  ckpt_opts.checkpoint_interval_rounds = interval;
  core::DeepThermoResult baseline;
  core::DeepThermoResult checkpointed;
  std::vector<double> base_runs, ckpt_runs, overheads;
  std::uint64_t saves = 0;
  std::uint64_t bytes = 0;
  Stopwatch clock;
  const auto plain_run = [&] {
    clock.reset();
    baseline = core::Framework::nbmotaw(opts).run();
    base_runs.push_back(clock.seconds());
  };
  const auto checkpointed_run = [&] {
    std::filesystem::remove_all(ckpt_dir);
    const auto saves0 = metrics.counter("ckpt.saves").value();
    const auto bytes0 = metrics.counter("ckpt.bytes_total").value();
    clock.reset();
    checkpointed = core::Framework::nbmotaw(ckpt_opts).run();
    ckpt_runs.push_back(clock.seconds());
    saves = metrics.counter("ckpt.saves").value() - saves0;
    bytes = metrics.counter("ckpt.bytes_total").value() - bytes0;
  };
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      plain_run();
      checkpointed_run();
    } else {
      checkpointed_run();
      plain_run();
    }
    const double b = base_runs.back();
    overheads.push_back(b > 0.0 ? (ckpt_runs.back() - b) / b : 0.0);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double base_s = median(base_runs);
  const double ckpt_s = median(ckpt_runs);
  const double overhead = median(overheads);

  // Resume from the final (production-phase) generation: measures the
  // restore path -- load + validate + rebuild -- with REWL skipped.
  ckpt_opts.resume = true;
  clock.reset();
  auto resumed = core::Framework::nbmotaw(ckpt_opts).run();
  const double resume_s = clock.seconds();

  Table table({"variant", "wall_s", "saves", "MB_written", "overhead_pct",
               "ln_g_span", "rounds"});
  table.add("baseline", base_s, std::int64_t{0}, 0.0, 0.0,
            baseline.dos.log_range(),
            static_cast<std::int64_t>(baseline.rewl.total_sweeps /
                                      std::max<std::int64_t>(
                                          1, opts.rewl.exchange_interval)));
  table.add("checkpointed", ckpt_s, static_cast<std::int64_t>(saves),
            static_cast<double>(bytes) / 1.0e6, 100.0 * overhead,
            checkpointed.dos.log_range(),
            static_cast<std::int64_t>(checkpointed.rewl.total_sweeps /
                                      std::max<std::int64_t>(
                                          1, opts.rewl.exchange_interval)));
  table.add("resumed", resume_s, std::int64_t{0}, 0.0, 0.0,
            resumed.dos.log_range(), std::int64_t{0});
  bench::emit(table, cfg, "T3_checkpoint", "t3");

  std::printf("save latency: last %.3f ms | load latency: last %.3f ms\n",
              1e3 * metrics.gauge("ckpt.last_save_seconds").value(),
              1e3 * metrics.gauge("ckpt.last_load_seconds").value());
  std::printf(
      "checkpoint overhead: median %.2f%% of %d interleaved rounds "
      "(range %.2f%% .. %.2f%%; %s 5%% budget)\n",
      100.0 * overhead, kRounds,
      100.0 * *std::min_element(overheads.begin(), overheads.end()),
      100.0 * *std::max_element(overheads.begin(), overheads.end()),
      overhead < 0.05 ? "within" : "EXCEEDS");

  std::filesystem::remove_all(ckpt_dir);
  return overhead < 0.05 ? 0 : 1;
}
