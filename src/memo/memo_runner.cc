#include "memo/memo_runner.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/clos.h"

namespace esim::memo {
namespace {

using check::Hash64;

constexpr std::uint64_t kSigTag = 0x4D454D4F50484153ULL;  // "MEMOPHAS"
constexpr std::uint64_t kLow40 = (std::uint64_t{1} << 40) - 1;

/// Why hit verification refused a signature match (each refusal is a
/// near-miss, counted per reason in MemoStats).
enum class Refusal { kNone, kPattern, kRoute, kStaleConnection };

struct CompletionEvent {
  std::uint64_t flow_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Pop-stream recorder wrapped around the digest's lane observer during a
/// recorded phase. Appended only from the owning partition's thread.
struct PopRecorder : sim::PopObserver {
  sim::PopObserver* inner = nullptr;
  std::vector<std::pair<std::int64_t, std::uint64_t>> log;
  void on_event_pop(sim::SimTime time, std::uint64_t seq) override {
    log.emplace_back(time.ns(), seq);
    if (inner != nullptr) inner->on_event_pop(time, seq);
  }
};

/// One engine's worth of run state, independent of engine kind.
struct Session {
  std::vector<sim::Simulator*> parts;
  std::function<void(sim::SimTime)> run_engine_until;
  net::ClosSpec spec;
  bool port_sensitive = true;
  std::vector<tcp::Host*> hosts;        // dense by HostId
  std::vector<net::Switch*> switches;   // dense by SwitchId
  std::vector<net::Link*> links;        // discovery (attach) order
  std::vector<std::uint32_t> part_of_host;
  check::StateDigest* digest = nullptr;  // null in aggregate-only runs

  std::mutex mu;
  bool recording = false;
  std::vector<CompletionEvent> completion_log;
  std::uint64_t flows_completed = 0;

  void on_completion(std::uint64_t flow_id, const workload::PhaseFlow& f,
                     sim::SimTime start, sim::SimTime end) {
    if (digest != nullptr) {
      digest->on_flow_complete(flow_id, f.src, f.dst, f.bytes, start, end);
    }
    std::lock_guard<std::mutex> lock(mu);
    ++flows_completed;
    if (recording) {
      completion_log.push_back({flow_id, start.ns(), end.ns()});
    }
  }
};

void discover_components(Session& s) {
  for (sim::Simulator* sim : s.parts) {
    for (const auto& c : sim->components()) {
      if (auto* link = dynamic_cast<net::Link*>(c.get())) {
        s.links.push_back(link);
      }
    }
  }
  if (s.digest != nullptr) {
    if (s.digest->num_probes() != s.links.size()) {
      throw std::logic_error("MemoRunner: probe/link discovery mismatch");
    }
    for (std::size_t i = 0; i < s.links.size(); ++i) {
      if (s.digest->probe_link(i) != s.links[i]) {
        throw std::logic_error("MemoRunner: probe order != link order");
      }
    }
  }
}

/// Fills `out` with every component's counters: links, switches, hosts.
void snapshot_counters(const Session& s,
                       std::vector<stats::PacketCounter>& out) {
  out.clear();
  for (const net::Link* l : s.links) out.push_back(l->counter());
  for (const net::Switch* sw : s.switches) out.push_back(sw->counter());
  for (const tcp::Host* h : s.hosts) out.push_back(h->counter());
}

/// Drives the phase loop for one engine session. Holds references to the
/// runner's cache/stats so MemoRunner::run stays engine-setup only.
struct PhaseDriver {
  PhaseCache& cache;
  MemoStats& stats;
  const MemoConfig& memo;
  Session& s;
  const check::Scenario& scenario;
  const workload::PhasePattern& pattern;
  const check::EngineSpec& engine;
  bool with_digest;

  std::vector<RelFlow> rel_flows{};
  /// Pattern indices sorted by (offset, src, dst): the order phase flows
  /// consume ephemeral ports.
  std::vector<std::size_t> by_offset{};
  std::vector<std::uint32_t> opens_per_host{};
  /// Phases [0, fresh_phases) cannot reuse a 4-tuple: no host has yet
  /// opened more flows than the ephemeral port range holds.
  std::uint64_t fresh_phases = 0;
  /// hash_run_constants(), copied at every lookup.
  Hash64 sig_prefix{};
  /// Host-pair ECMP ignores ports, so every phase's route fingerprint is
  /// this one, hashed once per run; unused under port-sensitive ECMP.
  std::uint64_t fixed_route_fp = 0;
  /// The last phase's rolling summary; empty before the first phase.
  std::optional<std::uint64_t> last_summary{};

  /// Injection bookkeeping. Pattern flow i is injected on partition
  /// part_of_flow[i]; flows_on[p] lists partition p's pattern indices in
  /// ascending order, and rank[i] is i's position in that list. inj_base[p]
  /// is the first of the sequences partition p reserved for its
  /// injections at run start.
  std::vector<std::uint32_t> part_of_flow{};
  std::vector<std::uint32_t> rank{};
  std::vector<std::vector<std::uint32_t>> flows_on{};
  std::vector<std::uint64_t> inj_base{};

  // Per-boundary scratch, reused rather than allocated at every boundary.
  // start_counters and end_counters hold the counters at the start and
  // end of the last phase that ran live; end_is_current says no phase has
  // been replayed since, so end_counters still holds the current counters.
  std::vector<stats::PacketCounter> start_counters{};
  std::vector<stats::PacketCounter> end_counters{};
  bool end_is_current = false;
  std::vector<std::uint32_t> ports{};
  std::vector<net::FlowKey> tuples{};
  std::vector<std::int64_t> port_delta{};
  std::vector<std::uint64_t> rec_pkt_base{};
  std::vector<std::uint64_t> cur_pkt_base{};

  void init() {
    for (const auto& f : pattern.pattern) {
      rel_flows.push_back({f.src, f.dst, f.bytes, f.offset_ns});
    }
    by_offset.resize(pattern.pattern.size());
    for (std::size_t i = 0; i < by_offset.size(); ++i) by_offset[i] = i;
    std::sort(by_offset.begin(), by_offset.end(),
              [this](std::size_t a, std::size_t b) {
                const auto& fa = pattern.pattern[a];
                const auto& fb = pattern.pattern[b];
                return std::tie(fa.offset_ns, fa.src, fa.dst) <
                       std::tie(fb.offset_ns, fb.src, fb.dst);
              });
    opens_per_host.assign(s.hosts.size(), 0);
    for (const auto& f : pattern.pattern) ++opens_per_host[f.src];
    // Host h opens opens_per_host[h] flows per phase, live or replayed,
    // and hands ports out in order over the ephemeral range. Through
    // phase k it has opened (k + 1) * opens_per_host[h] flows, all on
    // distinct ports while that count fits the range.
    constexpr std::uint64_t kPortRange = tcp::Host::kEphemeralPortLast -
                                         tcp::Host::kEphemeralPortFirst + 1;
    fresh_phases = pattern.phases;
    for (const std::uint32_t opens : opens_per_host) {
      if (opens != 0) fresh_phases = std::min(fresh_phases, kPortRange / opens);
    }
    sig_prefix = hash_run_constants();
    if (!s.port_sensitive) {
      predict_tuples();
      fixed_route_fp = route_fingerprint();
    }
    reserve_injections();
  }

  /// The signature's prefix: the scenario's shape, the engine, the period
  /// and the relative flow pattern, which no phase changes.
  Hash64 hash_run_constants() const {
    Hash64 h;
    h.absorb(kSigTag);
    h.absorb((with_digest ? 1u : 0u) |
             (engine.invert_tiebreak ? 2u : 0u) |
             (static_cast<std::uint64_t>(engine.partitions) << 2));
    h.absorb(scenario.seed);
    h.absorb((static_cast<std::uint64_t>(scenario.clusters) << 32) |
             scenario.cores);
    h.absorb((static_cast<std::uint64_t>(scenario.tors) << 32) |
             scenario.spines);
    h.absorb(scenario.hosts_per_tor);
    h.absorb((static_cast<std::uint64_t>(scenario.queue_bytes) << 32) |
             scenario.ecn_threshold);
    h.absorb(static_cast<std::uint64_t>(scenario.tcp));
    h.absorb(s.port_sensitive ? 1 : 0);
    h.absorb(static_cast<std::uint64_t>(pattern.period_ns));
    h.absorb(pattern.pattern.size());
    for (const RelFlow& f : rel_flows) {
      h.absorb((static_cast<std::uint64_t>(f.src) << 32) | f.dst);
      h.absorb(f.bytes);
      h.absorb(static_cast<std::uint64_t>(f.offset_ns));
    }
    return h;
  }

  /// Claims, per partition, one FES sequence for every injection of every
  /// phase, in (phase, pattern index) order: exactly the sequences an
  /// eager schedule of pattern.expand(1) would consume here, so pops,
  /// tie-breaks and the order lane are those of scheduling everything up
  /// front, while the FES holds only the phases that run live.
  void reserve_injections() {
    flows_on.assign(s.parts.size(), {});
    for (std::size_t i = 0; i < pattern.pattern.size(); ++i) {
      const std::uint32_t p = s.part_of_host[pattern.pattern[i].src];
      part_of_flow.push_back(p);
      rank.push_back(static_cast<std::uint32_t>(flows_on[p].size()));
      flows_on[p].push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t p = 0; p < s.parts.size(); ++p) {
      inj_base.push_back(s.parts[p]->fes_next_seq());
      s.parts[p]->fes_advance(flows_on[p].size() * pattern.phases);
    }
  }

  /// The reserved FES sequence of pattern flow `index`'s injection in
  /// phase `phase`, on its partition.
  std::uint64_t injection_seq(std::uint32_t phase, std::size_t index) const {
    const std::uint32_t p = part_of_flow[index];
    return inj_base[p] +
           static_cast<std::uint64_t>(phase) * flows_on[p].size() +
           rank[index];
  }

  /// Puts phase `phase`'s injections in the FES under their reserved
  /// sequences. Only a phase that runs live is materialized; a replayed
  /// phase's injections never enter the FES.
  void materialize(std::uint32_t phase) {
    Session* sp = &s;
    const std::int64_t t_ns = pattern.boundary_ns(phase);
    const std::uint64_t base_flow_id =
        1 + static_cast<std::uint64_t>(phase) * pattern.pattern.size();
    for (std::size_t i = 0; i < pattern.pattern.size(); ++i) {
      const workload::PhaseFlow* f = &pattern.pattern[i];
      tcp::Host* host = s.hosts[f->src];
      const std::uint64_t flow_id = base_flow_id + i;
      s.parts[part_of_flow[i]]->schedule_reserved(
          sim::SimTime::from_ns(t_ns + f->offset_ns),
          injection_seq(phase, i), [sp, host, f, flow_id] {
            auto* conn = host->open_flow(f->dst, f->bytes, flow_id);
            const sim::SimTime start = host->sim().now();
            conn->on_complete = [sp, host, f, flow_id, start] {
              sp->on_completion(flow_id, *f, start, host->sim().now());
            };
          });
    }
  }

  /// Materializes phase `phase`, simulates it to `tn_ns` and returns its
  /// rolling summary: the hash of every component's counter delta across
  /// the phase, zeros included, which it also keeps as last_summary. The
  /// counters at the phase's start and end are left in start_counters and
  /// end_counters.
  std::uint64_t run_live(std::uint32_t phase, std::int64_t tn_ns) {
    materialize(phase);
    if (end_is_current) {
      std::swap(start_counters, end_counters);
    } else {
      snapshot_counters(s, start_counters);
    }
    s.run_engine_until(sim::SimTime::from_ns(tn_ns));
    snapshot_counters(s, end_counters);
    end_is_current = true;
    Hash64 h;
    for (std::size_t i = 0; i < end_counters.size(); ++i) {
      h.absorb(end_counters[i].sent - start_counters[i].sent);
      h.absorb(end_counters[i].delivered - start_counters[i].delivered);
      h.absorb(end_counters[i].dropped - start_counters[i].dropped);
    }
    last_summary = h.value();
    return h.value();
  }

  /// Quiescent at a boundary: every partition's FES is empty — no timers,
  /// no packets in flight. The previous phase's injections have all fired
  /// (offsets are below the period) and this phase's are not yet in it.
  bool quiescent() const {
    for (const sim::Simulator* part : s.parts) {
      if (part->events_pending() != 0) return false;
    }
    return true;
  }

  /// Predicts the phase's 4-tuples from the hosts' current ephemeral port
  /// allocators (each host's opens in offset order) into `tuples`.
  /// Returns false when any host's allocation would cross the port-space
  /// wrap, which breaks the translation arithmetic — the phase is then
  /// not memoizable.
  bool predict_tuples() {
    bool fits = true;
    ports.resize(s.hosts.size());
    for (std::size_t h = 0; h < s.hosts.size(); ++h) {
      ports[h] = s.hosts[h]->next_port();
      if (opens_per_host[h] != 0 &&
          ports[h] + opens_per_host[h] - 1 > tcp::Host::kEphemeralPortLast) {
        fits = false;
      }
    }
    tuples.clear();
    for (std::size_t i : by_offset) {
      const auto& f = pattern.pattern[i];
      net::FlowKey key;
      key.src_host = f.src;
      key.dst_host = f.dst;
      key.src_port = static_cast<std::uint16_t>(ports[f.src]++);
      key.dst_port = 80;
      tuples.push_back(key);
    }
    return fits;
  }

  /// Hashes the ECMP paths of the predicted tuples, both directions.
  std::uint64_t route_fingerprint() const {
    Hash64 h;
    for (net::FlowKey key : tuples) {
      if (!s.port_sensitive) {
        key.src_port = 0;
        key.dst_port = 0;
      }
      for (const net::FlowKey& dir : {key, key.reversed()}) {
        const net::ClosPath path = net::compute_path(s.spec, dir);
        h.absorb(path.len);
        for (std::uint32_t j = 0; j < path.len; ++j) h.absorb(path.hops[j]);
      }
    }
    return h.value();
  }

  /// The phase signature. Lookups happen only at quiescent boundaries,
  /// where the FES is empty and the phase's own injections are already
  /// hashed through rel_flows, so no pending-event term is needed.
  std::uint64_t signature(std::uint64_t route_fp) const {
    if (memo.debug_collide_signatures) return kSigTag;
    Hash64 h = sig_prefix;
    h.absorb(route_fp);
    // A length-prefixed window of at most one summary.
    h.absorb(last_summary ? 1u : 0u);
    if (last_summary) h.absorb(*last_summary);
    return h.value();
  }

  /// Hit verification: why a signature match may not be applied to phase
  /// `phase`, or Refusal::kNone when it may.
  Refusal verify(const PhaseEntry& entry, std::uint64_t route_fp,
                 std::uint32_t phase) const {
    if (entry.with_digest != with_digest || entry.flows != rel_flows ||
        entry.partitions.size() != s.parts.size()) {
      return Refusal::kPattern;
    }
    if (entry.route_fp != route_fp) return Refusal::kRoute;
    // Stale-connection guard: a replayed phase never materializes its
    // connections, so an earlier port wrap could leave a live run finding
    // a stale connection under a reused 4-tuple where the replayed run
    // had none. Refuse the hit if any predicted tuple already exists.
    // Before fresh_phases every predicted tuple is new to its hosts.
    if (phase < fresh_phases) return Refusal::kNone;
    for (const net::FlowKey& t : tuples) {
      if (s.hosts[t.src_host]->has_connection(t) ||
          s.hosts[t.dst_host]->has_connection(t.reversed())) {
        return Refusal::kStaleConnection;
      }
    }
    return Refusal::kNone;
  }

  void apply(const PhaseEntry& entry, std::uint32_t phase, std::int64_t t_ns,
             std::int64_t tn_ns) {
    const std::uint64_t base_flow_id =
        1 + static_cast<std::uint64_t>(phase) * pattern.pattern.size();

    // The phase's injections were never materialized: their pops are
    // replayed under their reserved sequences, and the executed-count
    // delta below accounts for them.
    if (s.digest != nullptr) {
      // Per-host translation bases: recorded (entry) -> current.
      port_delta.assign(s.hosts.size(), 0);
      rec_pkt_base.assign(s.hosts.size(), 0);
      cur_pkt_base.assign(s.hosts.size(), 0);
      for (const HostIdentity& hi : entry.identities) {
        port_delta[hi.host] =
            static_cast<std::int64_t>(s.hosts[hi.host]->next_port()) -
            static_cast<std::int64_t>(hi.port_base);
        rec_pkt_base[hi.host] = hi.pkt_seq_base;
        cur_pkt_base[hi.host] = s.hosts[hi.host]->next_packet_seq();
      }
      for (std::size_t p = 0; p < entry.partitions.size(); ++p) {
        const std::uint64_t base_seq = s.parts[p]->fes_next_seq();
        for (const RelPop& pop : entry.partitions[p].pops) {
          const std::uint64_t seq =
              pop.injection ? injection_seq(phase, pop.dseq)
                            : base_seq + pop.dseq;
          s.digest->replay_event_pop(
              p, sim::SimTime::from_ns(t_ns + pop.rel_ns), seq);
        }
      }
      for (const RelPacket& rp : entry.packets) {
        check::PacketRecord r = rp.rec;
        r.time_ns += t_ns;
        if (rp.flow_index >= 0) {
          r.flow_id = base_flow_id + static_cast<std::uint64_t>(rp.flow_index);
        }
        const auto sender = static_cast<std::uint32_t>(r.packet_id >> 40);
        const std::uint64_t low = r.packet_id & kLow40;
        r.packet_id = (static_cast<std::uint64_t>(sender) << 40) |
                      ((low - rec_pkt_base[sender] + cur_pkt_base[sender]) &
                       kLow40);
        if (r.src_port != 80) {
          r.src_port = static_cast<std::uint16_t>(r.src_port +
                                                  port_delta[r.src_host]);
        } else if (r.dst_port != 80) {
          r.dst_port = static_cast<std::uint16_t>(r.dst_port +
                                                  port_delta[r.dst_host]);
        }
        s.digest->replay_link_record(rp.probe, r);
      }
    }

    for (const RelCompletion& c : entry.completions) {
      const workload::PhaseFlow& f = pattern.pattern[c.flow_index];
      if (s.digest != nullptr) {
        s.digest->on_flow_complete(
            base_flow_id + c.flow_index, f.src, f.dst, f.bytes,
            sim::SimTime::from_ns(t_ns + c.start_rel_ns),
            sim::SimTime::from_ns(t_ns + c.end_rel_ns));
      }
      ++s.flows_completed;
    }

    for (const CounterDelta& d : entry.link_deltas) {
      s.links[d.index]->memo_apply_counter_delta(d.delta);
    }
    for (const CounterDelta& d : entry.switch_deltas) {
      s.switches[d.index]->memo_apply_counter_delta(d.delta);
    }
    for (const CounterDelta& d : entry.host_deltas) {
      s.hosts[d.index]->memo_apply_counter_delta(d.delta);
    }
    for (const HostIdentity& hi : entry.identities) {
      s.hosts[hi.host]->memo_advance_identity(hi.flows_opened,
                                              hi.packets_sent);
    }
    for (std::size_t p = 0; p < s.parts.size(); ++p) {
      s.parts[p]->fes_advance(entry.partitions[p].scheduled);
      s.parts[p]->advance_executed_accounting(entry.partitions[p].executed);
      s.parts[p]->fast_forward_to(sim::SimTime::from_ns(tn_ns));
    }
    // The phase changed the counters by exactly the entry's deltas, so
    // its summary is the recorded one; the next live phase snapshots anew.
    last_summary = entry.summary;
    end_is_current = false;

    ++stats.hits;
    ++stats.fast_forwarded_phases;
    stats.fast_forwarded_ns += tn_ns - t_ns;
  }

  /// Runs phase `phase` live while recording its delta; stores the entry
  /// under `sig` unless any non-memoizable condition shows up.
  void record(std::uint64_t sig, std::uint64_t route_fp, std::uint32_t phase,
              std::int64_t t_ns, std::int64_t tn_ns) {
    const std::size_t nparts = s.parts.size();
    std::vector<std::uint64_t> base_seq(nparts), base_sched(nparts),
        base_exec(nparts);
    for (std::size_t p = 0; p < nparts; ++p) {
      base_seq[p] = s.parts[p]->fes_next_seq();
      base_sched[p] = s.parts[p]->events_scheduled();
      base_exec[p] = s.parts[p]->events_executed();
    }
    std::vector<std::uint16_t> port_base(s.hosts.size());
    std::vector<std::uint64_t> pkt_base(s.hosts.size());
    for (std::size_t h = 0; h < s.hosts.size(); ++h) {
      port_base[h] = s.hosts[h]->next_port();
      pkt_base[h] = s.hosts[h]->next_packet_seq();
    }

    // Digest mode: wrap the pop observers and link observers so the
    // phase's streams are logged while still reaching the digest.
    std::vector<PopRecorder> pop_recorders(nparts);
    std::vector<std::function<void(const net::Packet&, sim::SimTime)>>
        saved_transmit(s.links.size());
    std::vector<std::function<void(const net::Packet&)>> saved_drop(
        s.links.size());
    std::vector<std::vector<check::PacketRecord>> link_logs(s.links.size());
    if (s.digest != nullptr) {
      for (std::size_t p = 0; p < nparts; ++p) {
        pop_recorders[p].inner = s.parts[p]->pop_observer();
        s.parts[p]->set_pop_observer(&pop_recorders[p]);
      }
      for (std::size_t i = 0; i < s.links.size(); ++i) {
        net::Link* link = s.links[i];
        saved_transmit[i] = std::move(link->on_transmit);
        saved_drop[i] = std::move(link->on_drop);
        auto* fwd_t = &saved_transmit[i];
        auto* fwd_d = &saved_drop[i];
        auto* log = &link_logs[i];
        link->on_transmit = [fwd_t, log](const net::Packet& pkt,
                                         sim::SimTime arrive_at) {
          log->push_back(
              check::make_packet_record(pkt, arrive_at.ns(), false));
          if (*fwd_t) (*fwd_t)(pkt, arrive_at);
        };
        link->on_drop = [fwd_d, log, link](const net::Packet& pkt) {
          log->push_back(
              check::make_packet_record(pkt, link->now().ns(), true));
          if (*fwd_d) (*fwd_d)(pkt);
        };
      }
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.recording = true;
      s.completion_log.clear();
    }

    const std::uint64_t summary = run_live(phase, tn_ns);

    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.recording = false;
    }
    if (s.digest != nullptr) {
      for (std::size_t p = 0; p < nparts; ++p) {
        s.parts[p]->set_pop_observer(pop_recorders[p].inner);
      }
      for (std::size_t i = 0; i < s.links.size(); ++i) {
        s.links[i]->on_transmit = std::move(saved_transmit[i]);
        s.links[i]->on_drop = std::move(saved_drop[i]);
      }
    }

    // The phase must end quiescent to be replayable: anything still
    // pending (an unfinished flow's timer, an in-flight packet) would
    // need live state a fast-forward cannot reconstruct.
    if (!quiescent()) {
      ++stats.store_aborts;
      return;
    }

    PhaseEntry entry;
    entry.with_digest = with_digest;
    entry.flows = rel_flows;
    entry.route_fp = route_fp;
    entry.summary = summary;

    for (std::size_t p = 0; p < nparts; ++p) {
      PartitionDelta pd;
      pd.scheduled = s.parts[p]->events_scheduled() - base_sched[p];
      pd.executed = s.parts[p]->events_executed() - base_exec[p];
      // This partition's injections for this phase hold the reserved
      // sequences [first_inj, first_inj + n): a pre-phase pop in that
      // range is injection flows_on[p][seq - first_inj]. Seq numbering is
      // per-partition, so injections on other partitions must not
      // participate — their seqs can collide.
      const std::uint64_t n = flows_on[p].size();
      const std::uint64_t first_inj = inj_base[p] + phase * n;
      if (s.digest != nullptr) {
        for (const auto& [t, seq] : pop_recorders[p].log) {
          RelPop pop;
          pop.rel_ns = t - t_ns;
          if (seq >= base_seq[p]) {
            pop.dseq = seq - base_seq[p];
          } else {
            if (seq < first_inj || seq - first_inj >= n) {
              // A pre-phase event that is not one of this phase's
              // injections fired inside the phase — not memoizable.
              ++stats.store_aborts;
              return;
            }
            pop.injection = true;
            pop.dseq = flows_on[p][seq - first_inj];
          }
          pd.pops.push_back(pop);
        }
      }
      entry.partitions.push_back(std::move(pd));
    }

    // Flow-id -> pattern index for this phase.
    const std::uint64_t base_flow_id =
        1 + static_cast<std::uint64_t>(phase) * pattern.pattern.size();
    auto flow_index_of = [&](std::uint64_t flow_id) -> std::int32_t {
      if (flow_id < base_flow_id ||
          flow_id >= base_flow_id + pattern.pattern.size()) {
        return -2;  // not this phase's flow
      }
      return static_cast<std::int32_t>(flow_id - base_flow_id);
    };

    if (s.digest != nullptr) {
      for (std::size_t i = 0; i < link_logs.size(); ++i) {
        for (const check::PacketRecord& raw : link_logs[i]) {
          RelPacket rp;
          rp.probe = static_cast<std::uint32_t>(i);
          rp.rec = raw;
          rp.rec.time_ns -= t_ns;
          if (raw.flow_id != 0) {
            rp.flow_index = flow_index_of(raw.flow_id);
            if (rp.flow_index < 0) {
              ++stats.store_aborts;
              return;
            }
          }
          const auto sender = static_cast<std::uint32_t>(raw.packet_id >> 40);
          if (sender >= s.hosts.size() ||
              (raw.packet_id & kLow40) <= pkt_base[sender]) {
            // A packet minted before this phase surfaced inside it; the
            // identity translation would be wrong.
            ++stats.store_aborts;
            return;
          }
          entry.packets.push_back(std::move(rp));
        }
      }
    }

    for (const CompletionEvent& c : s.completion_log) {
      const std::int32_t idx = flow_index_of(c.flow_id);
      if (idx < 0) {
        ++stats.store_aborts;
        return;
      }
      entry.completions.push_back({static_cast<std::uint32_t>(idx),
                                   c.start_ns - t_ns, c.end_ns - t_ns});
    }

    auto push_deltas = [&](std::size_t from, std::size_t count,
                           std::vector<CounterDelta>& out) {
      for (std::size_t i = 0; i < count; ++i) {
        const stats::PacketCounter& a = start_counters[from + i];
        const stats::PacketCounter& b = end_counters[from + i];
        if (a.sent == b.sent && a.delivered == b.delivered &&
            a.dropped == b.dropped) {
          continue;
        }
        CounterDelta d;
        d.index = static_cast<std::uint32_t>(i);
        d.delta = {b.sent - a.sent, b.delivered - a.delivered,
                   b.dropped - a.dropped};
        out.push_back(d);
      }
    };
    push_deltas(0, s.links.size(), entry.link_deltas);
    push_deltas(s.links.size(), s.switches.size(), entry.switch_deltas);
    push_deltas(s.links.size() + s.switches.size(), s.hosts.size(),
                entry.host_deltas);

    for (std::size_t h = 0; h < s.hosts.size(); ++h) {
      const std::uint64_t sent =
          s.hosts[h]->next_packet_seq() - pkt_base[h];
      if (opens_per_host[h] == 0 && sent == 0) continue;
      HostIdentity hi;
      hi.host = static_cast<std::uint32_t>(h);
      hi.port_base = port_base[h];
      hi.pkt_seq_base = pkt_base[h];
      hi.flows_opened = opens_per_host[h];
      hi.packets_sent = sent;
      entry.identities.push_back(hi);
    }

    cache.insert(sig, std::move(entry));
    ++stats.stores;
  }

  void run_all() {
    init();
    // Every phase leaves its rolling summary in last_summary, live or
    // replayed (replay applies exactly the recorded deltas), so the
    // summaries — and therefore later signatures — agree with a memo-off
    // run bit for bit.
    for (std::uint32_t k = 0; k < pattern.phases; ++k) {
      const std::int64_t t_ns = pattern.boundary_ns(k);
      const std::int64_t tn_ns = pattern.boundary_ns(k + 1);
      if (!memo.enabled || !quiescent()) {
        run_live(k, tn_ns);
        continue;
      }
      if (!predict_tuples()) {
        // Port-space wrap inside the phase: identity translation is
        // undefined, so neither hit nor store.
        ++stats.port_wrap_skips;
        run_live(k, tn_ns);
        continue;
      }
      const std::uint64_t route_fp =
          s.port_sensitive ? route_fingerprint() : fixed_route_fp;
      const std::uint64_t sig = signature(route_fp);
      ++stats.lookups;
      const PhaseEntry* entry = cache.find(sig);
      if (entry == nullptr) {
        ++stats.misses;
      } else {
        switch (verify(*entry, route_fp, k)) {
          case Refusal::kNone:
            apply(*entry, k, t_ns, tn_ns);
            continue;
          case Refusal::kPattern:
            ++stats.near_miss_pattern;
            break;
          case Refusal::kRoute:
            ++stats.near_miss_route;
            break;
          case Refusal::kStaleConnection:
            ++stats.near_miss_stale_connection;
            break;
        }
        ++stats.near_misses;
      }
      record(sig, route_fp, k, t_ns, tn_ns);
    }
    if (scenario.duration_ns > pattern.total_duration_ns()) {
      s.run_engine_until(sim::SimTime::from_ns(scenario.duration_ns));
    }
  }
};

}  // namespace

void validate_periodic(const check::Scenario& scenario,
                       const workload::PhasePattern& pattern) {
  pattern.validate();
  scenario.validate_shape();
  const std::uint32_t hosts = scenario.total_hosts();
  for (std::size_t i = 0; i < pattern.pattern.size(); ++i) {
    for (const std::uint32_t host :
         {pattern.pattern[i].src, pattern.pattern[i].dst}) {
      if (host >= hosts) {
        throw std::invalid_argument(
            "memo: pattern flow " + std::to_string(i) + " endpoint " +
            std::to_string(host) + " is past the scenario's " +
            std::to_string(hosts) + " hosts");
      }
    }
  }
  // period * phases <= duration, without forming the product.
  if (pattern.period_ns > scenario.duration_ns / pattern.phases) {
    throw std::invalid_argument(
        "memo: scenario duration shorter than the phase span");
  }
}

MemoRunOutcome MemoRunner::run(const check::Scenario& scenario,
                               const workload::PhasePattern& pattern,
                               const check::EngineSpec& engine,
                               bool with_digest) {
  if (scenario.approx) {
    throw std::invalid_argument(
        "MemoRunner: a scenario with approximated clusters cannot be "
        "memoized: ApproxCluster::start() re-arms its macro-window timer "
        "every window, so the run always has a pending event, no phase "
        "boundary is ever quiescent, and memoization could never engage");
  }
  // With the flows equal to pattern.expand(1), the pattern-level checks
  // are exactly the rules the O(flows log flows) flow scan enforces, so
  // run_scenario (which hands the run to the drive hook) skips that scan.
  validate_periodic(scenario, pattern);
  // The flows must be pattern.expand(1), compared in place rather than
  // materialized: flow j is pattern flow j % n of phase j / n, with id j + 1.
  const std::size_t n = pattern.pattern.size();
  bool expansion = scenario.flows.size() == n * pattern.phases;
  for (std::size_t j = 0; expansion && j < scenario.flows.size(); ++j) {
    const check::FlowSpec& f = scenario.flows[j];
    const workload::PhaseFlow& pf = pattern.pattern[j % n];
    expansion = f.src == pf.src && f.dst == pf.dst && f.bytes == pf.bytes &&
                f.start_ns == pattern.boundary_ns(static_cast<std::uint32_t>(
                                  j / n)) + pf.offset_ns &&
                f.flow_id == j + 1;
  }
  if (!expansion) {
    throw std::invalid_argument(
        "MemoRunner: scenario flows != pattern expansion");
  }

  std::uint64_t flows_completed = 0;
  std::vector<std::uint64_t> fes_next_seq;
  check::RunHooks hooks;
  hooks.digest = with_digest;
  hooks.drive = [&](check::Rig& rig) {
    Session s;
    s.parts = rig.parts;
    s.run_engine_until = rig.run_until;
    s.spec = rig.net->spec;
    s.port_sensitive = scenario.ecmp_port_sensitive;
    s.hosts = rig.net->hosts;
    s.switches = rig.net->switches;
    s.part_of_host = *rig.partition_of_host;
    s.digest = rig.digest;
    discover_components(s);
    PhaseDriver driver{cache_, stats_, memo_, s, scenario, pattern, engine,
                       with_digest};
    driver.run_all();
    flows_completed = s.flows_completed;
    for (const sim::Simulator* part : s.parts) {
      fes_next_seq.push_back(part->fes_next_seq());
    }
  };
  const check::RunOutcome run = check::run_scenario(
      scenario, engine, sim::SimTime::from_ns(scenario.duration_ns), hooks);

  MemoRunOutcome out;
  out.digest = run.digest;
  out.digest_attached = with_digest;
  out.final_state_fp = run.final_state_fp;
  out.flows_completed = flows_completed;
  out.fes_next_seq = std::move(fes_next_seq);
  stats_.evictions = cache_.evictions();
  out.stats = stats_;
  out.cache_entries = cache_.entries();
  out.cache_bytes = cache_.resident_bytes();
  return out;
}

}  // namespace esim::memo
