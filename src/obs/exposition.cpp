#include "obs/exposition.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace dt::obs {

namespace {

bool valid_first(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool valid_rest(char c) { return valid_first(c) || (c >= '0' && c <= '9'); }

/// Prometheus sample values are floats; json_number gives shortest
/// round-trip formatting and "null" for non-finite values, which
/// Prometheus rejects -- map those to NaN.
std::string sample_value(double v) {
  if (!std::isfinite(v)) return "NaN";
  return json_number(v);
}

/// Registers `original` under its sanitized name, failing loudly on a
/// post-sanitization collision between distinct instruments.
const std::string& claim(std::map<std::string, std::string>& taken,
                         const std::string& original) {
  auto [it, inserted] =
      taken.emplace(sanitize_metric_name(original), original);
  if (!inserted && it->second != original) {
    throw Error("metric name collision after sanitization: '" + original +
                "' and '" + it->second + "' both map to '" + it->first +
                "'");
  }
  return it->first;
}

/// One walker field as a gauge sample (bools read 0/1).
template <auto Field>
double gauge(const HealthSnapshot::Walker& w) {
  return static_cast<double>(w.*Field);
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  if (!valid_first(name.front())) {
    // A digit is a legal *interior* character: keep it, prefixed.
    if (name.front() >= '0' && name.front() <= '9') {
      out.push_back('_');
      out.push_back(name.front());
    } else {
      out.push_back('_');
    }
  } else {
    out.push_back(name.front());
  }
  for (std::size_t i = 1; i < name.size(); ++i)
    out.push_back(valid_rest(name[i]) ? name[i] : '_');
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::map<std::string, std::string> taken;
  std::ostringstream os;
  for (const auto& [name, value] : snap.counters) {
    const std::string& metric = claim(taken, name);
    os << "# TYPE " << metric << " counter\n"
       << metric << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string& metric = claim(taken, name);
    os << "# TYPE " << metric << " gauge\n"
       << metric << ' ' << sample_value(value) << '\n';
  }
  for (const auto& hist : snap.histograms) {
    const std::string& metric = claim(taken, hist.name);
    os << "# TYPE " << metric << " histogram\n";
    const double width =
        (hist.hi - hist.lo) / static_cast<double>(hist.buckets.size());
    // Prometheus buckets are cumulative from -inf: underflow is below
    // every finite edge, overflow appears only at +Inf.
    std::uint64_t cumulative = hist.underflow;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      cumulative += hist.buckets[i];
      const double le = hist.lo + static_cast<double>(i + 1) * width;
      os << metric << "_bucket{le=\"" << sample_value(le) << "\"} "
         << cumulative << '\n';
    }
    cumulative += hist.overflow;
    os << metric << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
       << metric << "_sum " << sample_value(hist.sum) << '\n'
       << metric << "_count " << cumulative << '\n';
  }
  return std::move(os).str();
}

std::string render_prometheus(const MetricsSnapshot& snap,
                              const HealthSnapshot& health) {
  std::string out = render_prometheus(snap);
  if (!health.active) return out;

  std::ostringstream os;
  os << "# TYPE health_uptime_seconds gauge\n"
     << "health_uptime_seconds " << sample_value(health.uptime_s) << '\n'
     << "# TYPE health_checkpoint_generation gauge\n"
     << "health_checkpoint_generation " << health.checkpoint_generation
     << '\n';

  using W = HealthSnapshot::Walker;
  struct Series {
    const char* name;
    double (*get)(const W&);
  };
  static constexpr Series kWalkerSeries[] = {
      {"health_walker_flatness", gauge<&W::flatness>},
      {"health_walker_best_flatness", gauge<&W::best_flatness>},
      {"health_walker_log_f", gauge<&W::log_f>},
      {"health_walker_f_stage", gauge<&W::f_stage>},
      {"health_walker_sweeps", gauge<&W::sweeps>},
      {"health_walker_sweeps_per_second", gauge<&W::sweeps_per_s>},
      {"health_walker_acceptance", gauge<&W::acceptance>},
      {"health_walker_round_trips", gauge<&W::round_trips>},
      {"health_walker_round_trip_mean_seconds", gauge<&W::round_trip_mean_s>},
      {"health_walker_local_acceptance", gauge<&W::local_acceptance>},
      {"health_walker_vae_acceptance", gauge<&W::vae_acceptance>},
      {"health_walker_converged", gauge<&W::converged>},
      {"health_walker_stalled", gauge<&W::stalled>},
      {"health_walker_seconds_since_improve",
       gauge<&W::seconds_since_improve>},
  };
  for (const Series& series : kWalkerSeries) {
    os << "# TYPE " << series.name << " gauge\n";
    for (const auto& w : health.walkers) {
      os << series.name << "{rank=\"" << w.rank << "\",window=\""
         << w.window << "\"} " << sample_value(series.get(w)) << '\n';
    }
  }

  os << "# TYPE health_exchange_attempted counter\n";
  for (std::size_t i = 0; i < health.pairs.size(); ++i)
    os << "health_exchange_attempted{pair=\"" << i << "\"} "
       << health.pairs[i].attempted << '\n';
  os << "# TYPE health_exchange_accepted counter\n";
  for (std::size_t i = 0; i < health.pairs.size(); ++i)
    os << "health_exchange_accepted{pair=\"" << i << "\"} "
       << health.pairs[i].accepted << '\n';
  os << "# TYPE health_exchange_acceptance_ewma gauge\n";
  for (std::size_t i = 0; i < health.pairs.size(); ++i)
    os << "health_exchange_acceptance_ewma{pair=\"" << i << "\"} "
       << sample_value(health.pairs[i].ewma < 0.0 ? 0.0
                                                  : health.pairs[i].ewma)
       << '\n';

  os << "# TYPE health_stalled_walkers gauge\n"
     << "health_stalled_walkers " << health.stalled_walkers << '\n';
  return out + std::move(os).str();
}

}  // namespace dt::obs
