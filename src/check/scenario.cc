#include "check/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace esim::check {
namespace {

constexpr const char* kHeader = "# esim_diffcheck scenario v1";
constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kI64 = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();

/// An unsigned decimal no larger than `max`: digits only, so a sign or a
/// value past the field's range throws instead of wrapping.
std::uint64_t parse_uint(const std::string& value, const std::string& key,
                         std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc{} || ptr != end || v > max) {
    throw std::invalid_argument("scenario: bad value for " + key + ": '" +
                                value + "' (want an unsigned integer up to " +
                                std::to_string(max) + ")");
  }
  return v;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("scenario: " + what);
}

/// The smallest index whose key equals an earlier flow's key, or SIZE_MAX
/// when all keys differ. Sorted (key, index) pairs lead each run of equal
/// keys with its earliest flow; every later member of the run repeats it.
template <typename KeyOf>
std::size_t first_repeat(const std::vector<FlowSpec>& flows, KeyOf key_of) {
  using Key = std::invoke_result_t<KeyOf, const FlowSpec&>;
  std::vector<std::pair<Key, std::size_t>> keyed(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    keyed[i] = {key_of(flows[i]), i};
  }
  std::sort(keyed.begin(), keyed.end());
  std::size_t first = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first == keyed[i - 1].first) {
      first = std::min(first, keyed[i].second);
    }
  }
  return first;
}

}  // namespace

const char* tcp_variant_name(TcpVariant v) {
  switch (v) {
    case TcpVariant::NewReno: return "newreno";
    case TcpVariant::DelayedAck: return "delayed_ack";
    case TcpVariant::Dctcp: return "dctcp";
  }
  return "?";
}

approx::MicroModel Scenario::Approximation::make_model(
    std::uint64_t seed_offset) const {
  approx::MicroModel::Config mcfg;
  mcfg.hidden = model_hidden;
  mcfg.layers = model_layers;
  mcfg.seed = model_seed + seed_offset;
  approx::MicroModel m{mcfg};
  // Seeded random trunk/head weights give feature-dependent predictions;
  // the bias pins the baseline drop rate, and the normalization places
  // latencies around latency_mean_us (with some below the configured
  // floor, exercising the min-latency clamp).
  m.drop_head().bias().at(0, 0) = drop_bias;
  m.set_latency_normalization(std::log(latency_mean_us), latency_std);
  m.recompile();  // the bias write above bypassed the compiled snapshot
  return m;
}

net::ClosSpec Scenario::clos() const {
  net::ClosSpec spec;
  spec.clusters = clusters;
  spec.tors_per_cluster = tors;
  spec.aggs_per_cluster = spines;
  spec.hosts_per_tor = hosts_per_tor;
  spec.cores = cores;
  return spec;
}

core::NetworkConfig Scenario::network_config() const {
  core::NetworkConfig cfg;
  cfg.spec = clos();
  cfg.fabric_link.queue_capacity_bytes = queue_bytes;
  cfg.fabric_link.ecn_threshold_bytes = ecn_threshold;
  cfg.tcp.delayed_ack = tcp == TcpVariant::DelayedAck;
  cfg.tcp.dctcp = tcp == TcpVariant::Dctcp;
  cfg.ecmp_port_sensitive = ecmp_port_sensitive;
  return cfg;
}

core::HybridConfig Scenario::hybrid_config() const {
  const Approximation& a = approx.value();
  core::HybridConfig cfg;
  cfg.net = network_config();
  cfg.approx.sample_drops = a.sample_drops;
  cfg.approx.min_latency_s = a.min_latency_us * 1e-6;
  cfg.approx.max_port_backlog = sim::SimTime::from_ns(
      static_cast<std::int64_t>(a.max_port_backlog_us * 1e3));
  if (a.adaptive_tiers) {
    cfg.approx.tier.mode = core::ClusterTierPolicy::Mode::Adaptive;
    cfg.approx.tier.fixed_tier = core::ClusterTier::Ml;  // initial tier
    cfg.approx.tier.min_dwell_windows = a.min_dwell_windows;
  } else {
    cfg.approx.tier.fixed_tier = a.fixed_tier;
  }
  return cfg;
}

std::string Scenario::summary() const {
  std::ostringstream os;
  if (approx) {
    os << clusters << " clusters x " << tors * hosts_per_tor << " hosts, "
       << flows.size() << " flows, minlat " << approx->min_latency_us
       << "us, bias " << approx->drop_bias << ", "
       << duration_ns / 1'000'000.0 << "ms";
    return os.str();
  }
  if (clusters > 1) os << clusters << " clusters of ";
  os << tors << "x" << spines << " spines, " << total_hosts() << " hosts, "
     << flows.size() << " flows, " << tcp_variant_name(tcp) << ", "
     << duration_ns / 1'000'000.0 << "ms, seed=" << seed;
  return os.str();
}

std::string Scenario::serialize() const {
  if (clusters != 1 || approx) {
    throw std::invalid_argument(
        "scenario: only a leaf-spine without an approximation block has a "
        "text form; hybrid scenarios reproduce from their generator seed");
  }
  std::ostringstream os;
  os << kHeader << "\n";
  os << "seed=" << seed << "\n";
  os << "tors=" << tors << "\n";
  os << "spines=" << spines << "\n";
  os << "hosts_per_tor=" << hosts_per_tor << "\n";
  os << "queue_bytes=" << queue_bytes << "\n";
  os << "ecn_threshold=" << ecn_threshold << "\n";
  os << "tcp=" << tcp_variant_name(tcp) << "\n";
  os << "duration_ns=" << duration_ns << "\n";
  os << "ecmp_port_sensitive=" << (ecmp_port_sensitive ? 1 : 0) << "\n";
  for (const FlowSpec& f : flows) {
    os << "flow=" << f.src << "," << f.dst << "," << f.bytes << ","
       << f.start_ns << "," << f.flow_id << "\n";
  }
  return os.str();
}

Scenario Scenario::parse(const std::string& text) {
  Scenario sc;
  sc.flows.clear();
  std::istringstream is{text};
  std::string line;
  bool saw_header = false;
  std::set<std::string> seen_keys;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == kHeader) saw_header = true;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario: malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key != "flow" && !seen_keys.insert(key).second) {
      throw std::invalid_argument("scenario: repeated key '" + key + "'");
    }
    const auto u32 = [&] {
      return static_cast<std::uint32_t>(parse_uint(value, key, kU32));
    };
    if (key == "seed") {
      sc.seed = parse_uint(value, key, kU64);
    } else if (key == "tors") {
      sc.tors = u32();
    } else if (key == "spines") {
      sc.spines = u32();
    } else if (key == "hosts_per_tor") {
      sc.hosts_per_tor = u32();
    } else if (key == "queue_bytes") {
      sc.queue_bytes = u32();
    } else if (key == "ecn_threshold") {
      sc.ecn_threshold = u32();
    } else if (key == "tcp") {
      if (value == "newreno") {
        sc.tcp = TcpVariant::NewReno;
      } else if (value == "delayed_ack") {
        sc.tcp = TcpVariant::DelayedAck;
      } else if (value == "dctcp") {
        sc.tcp = TcpVariant::Dctcp;
      } else {
        throw std::invalid_argument("scenario: unknown tcp variant '" +
                                    value + "'");
      }
    } else if (key == "duration_ns") {
      sc.duration_ns = static_cast<std::int64_t>(parse_uint(value, key, kI64));
    } else if (key == "ecmp_port_sensitive") {
      // Absent in pre-memo files (defaults to true), so old scenario
      // files keep parsing.
      sc.ecmp_port_sensitive = parse_uint(value, key, 1) != 0;
    } else if (key == "flow") {
      std::istringstream fs{value};
      std::string part;
      std::vector<std::string> parts;
      while (std::getline(fs, part, ',')) parts.push_back(part);
      if (parts.size() != 5) {
        throw std::invalid_argument("scenario: flow needs 5 fields, got '" +
                                    value + "'");
      }
      FlowSpec f;
      f.src = static_cast<net::HostId>(parse_uint(parts[0], "flow src", kU32));
      f.dst = static_cast<net::HostId>(parse_uint(parts[1], "flow dst", kU32));
      f.bytes = parse_uint(parts[2], "flow bytes", kU64);
      f.start_ns =
          static_cast<std::int64_t>(parse_uint(parts[3], "flow start", kI64));
      f.flow_id = parse_uint(parts[4], "flow id", kU64);
      sc.flows.push_back(f);
    } else {
      throw std::invalid_argument("scenario: unknown key '" + key + "'");
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("scenario: missing header line '" +
                                std::string(kHeader) + "'");
  }
  sc.validate();
  return sc;
}

void Scenario::validate() const {
  validate_shape();
  validate_flows();
}

void Scenario::validate_shape() const {
  clos().validate();
  // Sizes in 64 bits: the 32-bit accessors (total_hosts, ClosSpec's)
  // would wrap. Each partial product of two 32-bit values fits 64 bits.
  const std::uint64_t cluster_tors = std::uint64_t{clusters} * tors;
  const std::uint64_t hosts = cluster_tors * hosts_per_tor;
  if (cluster_tors > kU32 || hosts > kU32) {
    fail("clusters x tors x hosts_per_tor = " +
         std::to_string(cluster_tors) + " x " + std::to_string(hosts_per_tor) +
         " hosts does not fit a 32-bit host id");
  }
  if (cluster_tors + std::uint64_t{clusters} * spines + cores > kU32) {
    fail("clusters x (tors + spines) + cores switches does not fit a 32-bit "
         "switch id");
  }
  if (duration_ns <= 0 || duration_ns > kMaxDurationNs) {
    fail("duration_ns must be in (0, 2^62] so in-run time sums fit int64, "
         "got " + std::to_string(duration_ns));
  }
  if (queue_bytes < 2000) {
    fail("queue_bytes must hold at least one full packet");
  }
  if (approx) {
    const Approximation& a = *approx;
    if (clusters < 2) fail("an approximation block needs clusters >= 2");
    if (a.latency_mean_us <= 0.0 || a.latency_std <= 0.0 ||
        a.min_latency_us <= 0.0) {
      fail("non-positive approximation latency knob");
    }
    // The partitioned hybrid build's causality rule, in its arithmetic:
    // egress deliveries must not undercut the PDES lookahead.
    if (sim::SimTime::from_ns(kLookaheadNs).to_seconds() >
        a.min_latency_us * 1e-6) {
      fail("min_latency_us must be at least the 1us PDES lookahead");
    }
  }
}

void Scenario::validate_flows() const {
  // Repeats are found by sorting, not by inserting every flow into a set;
  // the scan below still throws at the first failing flow in list order,
  // with that flow's first failing check.
  const std::size_t first_repeated_id =
      first_repeat(flows, [](const FlowSpec& f) { return f.flow_id; });
  const std::size_t first_repeated_start = first_repeat(
      flows, [](const FlowSpec& f) { return std::pair{f.src, f.start_ns}; });
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (f.src >= total_hosts() || f.dst >= total_hosts()) {
      fail("flow endpoint out of range");
    }
    if (f.src == f.dst) fail("flow src == dst");
    if (f.bytes == 0) fail("flow bytes must be positive");
    if (f.start_ns < 0 || f.start_ns >= duration_ns) {
      fail("flow start outside [0, duration)");
    }
    if (f.flow_id == 0 || i == first_repeated_id) {
      fail("flow ids must be unique and > 0");
    }
    if (i == first_repeated_start) {
      fail("per-host flow start times must be unique (two same-instant "
           "open_flow calls on one host would leave port assignment "
           "order-dependent)");
    }
  }
}

void save_scenario(const Scenario& sc, const std::string& path) {
  const std::string text = sc.serialize();
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error("save_scenario: cannot open " + path);
  }
  out << text;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("load_scenario: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return Scenario::parse(ss.str());
}

}  // namespace esim::check
