// End-to-end coverage of the observability HTTP server: routing, the
// four endpoints' payloads, and a live scrape racing a real REWL run
// (the latter is the TSan target proving health cells don't tear).
#include "obs/http_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "mc/proposal.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/rewl.hpp"

namespace dt::obs {
namespace {

/// Blocking one-shot HTTP client against 127.0.0.1:port; returns the
/// full response (status line, headers, body).
std::string http_get(int port, const std::string& target,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

class HttpObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HealthRegistry::global().reset();
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    HealthRegistry::global().reset();
    MetricsRegistry::global().reset();
  }
};

TEST_F(HttpObsTest, BindsEphemeralPortAndTracksActiveCount) {
  EXPECT_EQ(HttpServer::active_count(), 0);
  const bool was_active = instrumentation_active();
  HttpServer server;  // default options: 127.0.0.1:0
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(HttpServer::active_count(), 1);
  EXPECT_TRUE(instrumentation_active());
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_EQ(HttpServer::active_count(), 0);
  EXPECT_EQ(instrumentation_active(), was_active);
}

TEST_F(HttpObsTest, ServesMetricsInPrometheusFormat) {
  MetricsRegistry::global().counter("mc.accepts").add(7);
  HttpServer server;
  server.start();
  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("mc_accepts 7"), std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, StatusReportsPhaseWalkersAndSpanQuantiles) {
  auto& health = HealthRegistry::global();
  health.configure(/*n_ranks=*/2, /*n_windows=*/2, /*walkers_per_window=*/1,
                   /*stall_seconds=*/0.0);
  health.set_phase("rewl");
  WalkerHealthSample sample;
  sample.window = 1;
  sample.sweeps = 500;
  sample.flatness = 0.625;
  health.publish(health.walker_cell(1), sample);
  health.record_exchange(0, true);

  HttpServer server;
  server.start();  // enables span recording
  {  // one completed span -> a trace.span_log10_s.* histogram
    ScopedSpan span("unit");
  }
  const std::string response = http_get(server.port(), "/status");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"phase\":\"rewl\""), std::string::npos);
  EXPECT_NE(response.find("\"flatness\":0.625"), std::string::npos);
  EXPECT_NE(response.find("\"flatness_trajectory\":[[500,0.625]]"),
            std::string::npos);
  EXPECT_NE(response.find("\"exchange_pairs\""), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"unit\""), std::string::npos);
  EXPECT_NE(response.find("\"p50_s\""), std::string::npos);
  EXPECT_NE(response.find("\"p99_s\""), std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, HealthzReportsStallVerdict) {
  auto& health = HealthRegistry::global();
  // Tiny budget: a walker that published long-enough ago counts stalled.
  health.configure(2, 2, 1, /*stall_seconds=*/1e-9);
  WalkerHealthSample sample;
  sample.sweeps = 100;
  sample.flatness = 0.2;
  health.publish(health.walker_cell(0), sample);

  HttpServer server;
  server.start();
  const std::string ok_or_stalled = http_get(server.port(), "/healthz");
  EXPECT_NE(ok_or_stalled.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok_or_stalled.find("\"status\":\"stalled\""),
            std::string::npos);
  EXPECT_NE(ok_or_stalled.find("\"stalled_ranks\":[0]"), std::string::npos);
  server.stop();

  health.configure(1, 1, 1, /*stall_seconds=*/0.0);  // watchdog off
  HttpServer server2;
  server2.start();
  const std::string ok = http_get(server2.port(), "/healthz");
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos);
  server2.stop();
}

TEST_F(HttpObsTest, TraceServesChromeEvents) {
  HttpServer server;
  server.start();  // enables span recording
  {
    ScopedSpan span("traced_region");
  }
  const std::string response = http_get(server.port(), "/trace");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"traced_region\""), std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, RejectsUnknownPathsAndMethods) {
  HttpServer server;
  server.start();
  EXPECT_NE(http_get(server.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(http_get(server.port(), "/healthz?probe=1").find("200"),
            std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, IdleClientDoesNotStallScrapes) {
  // A client that connects and sends nothing must not hold up others;
  // a scrape behind it answers well inside the 2 s client deadline.
  HttpServer server;
  server.start();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  // Let the server accept the idle connection before the scrape arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  const std::string response = http_get(server.port(), "/metrics");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_LT(seconds, 0.5);

  // The idle client is dropped, unanswered, once its deadline passes.
  char buf[64];
  EXPECT_EQ(::recv(idle, buf, sizeof buf, 0), 0);
  ::close(idle);
  server.stop();
}

TEST_F(HttpObsTest, HandleCoversRoutingWithoutSockets) {
  const std::string index = HttpServer::handle("GET", "/");
  EXPECT_NE(index.find("200"), std::string::npos);
  EXPECT_NE(index.find("/metrics"), std::string::npos);
  EXPECT_NE(HttpServer::handle("GET", "/metrics").find("200"),
            std::string::npos);
  EXPECT_NE(HttpServer::handle("DELETE", "/status").find("405"),
            std::string::npos);
}

// The TSan headline test: scrape every endpoint continuously while a
// real 2-window REWL run publishes health samples, trace spans and
// metrics from its walker threads. Failures here are data races or torn
// reads in the lock-free health cells.
TEST_F(HttpObsTest, ConcurrentScrapesDuringRewlRunDoNotTear) {
  using lattice::Configuration;
  using lattice::Lattice;
  using lattice::LatticeType;

  const Lattice lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  // Energy range wide enough for the 16-site equiatomic Ising model.
  const mc::EnergyGrid grid(-14.0, 14.0, 100);

  par::RewlOptions opts;
  opts.n_windows = 2;
  opts.walkers_per_window = 1;
  opts.wl.log_f_final = 1e-2;
  opts.exchange_interval = 25;
  opts.max_sweeps = 20000;
  opts.seed = 7;
  opts.watchdog_stall_seconds = 30.0;  // never fires in-test

  HttpServer server;
  server.start();
  const int port = server.port();

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const char* target : {"/metrics", "/status", "/healthz",
                                 "/trace"}) {
        const std::string response = http_get(port, target);
        EXPECT_NE(response.find("200 OK"), std::string::npos) << target;
      }
    }
  });

  const auto result = par::run_rewl(
      ham, lat, 2, grid, opts,
      [&ham](int) { return std::make_shared<mc::LocalSwapProposal>(ham); });
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_GT(result.total_sweeps, 0);
  // The run's health plane is visible post-hoc through the same server.
  const std::string status = http_get(port, "/status");
  EXPECT_NE(status.find("\"walkers\":["), std::string::npos);
  EXPECT_NE(status.find("\"rank\":1"), std::string::npos);
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("health_walker_flatness{rank=\"0\""),
            std::string::npos);
  EXPECT_NE(metrics.find("health_exchange_attempted{pair=\"0\"}"),
            std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace dt::obs
