#include "memo/phase_cache.h"

namespace esim::memo {

std::size_t PhaseEntry::bytes() const {
  std::size_t n = sizeof(PhaseEntry);
  n += flows.capacity() * sizeof(RelFlow);
  for (const PartitionDelta& p : partitions) {
    n += sizeof(PartitionDelta) + p.pops.capacity() * sizeof(RelPop);
  }
  n += packets.capacity() * sizeof(RelPacket);
  n += completions.capacity() * sizeof(RelCompletion);
  n += (link_deltas.capacity() + switch_deltas.capacity() +
        host_deltas.capacity()) *
       sizeof(CounterDelta);
  n += identities.capacity() * sizeof(HostIdentity);
  return n;
}

MemoStats& MemoStats::operator+=(const MemoStats& o) {
  lookups += o.lookups;
  hits += o.hits;
  misses += o.misses;
  near_misses += o.near_misses;
  near_miss_pattern += o.near_miss_pattern;
  near_miss_route += o.near_miss_route;
  near_miss_stale_connection += o.near_miss_stale_connection;
  port_wrap_skips += o.port_wrap_skips;
  stores += o.stores;
  store_aborts += o.store_aborts;
  evictions += o.evictions;
  fast_forwarded_phases += o.fast_forwarded_phases;
  fast_forwarded_ns += o.fast_forwarded_ns;
  return *this;
}

const PhaseEntry* PhaseCache::find(std::uint64_t signature) {
  auto it = map_.find(signature);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->entry;
}

void PhaseCache::insert(std::uint64_t signature, PhaseEntry entry) {
  auto it = map_.find(signature);
  if (it != map_.end()) {
    resident_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  Node node;
  node.signature = signature;
  node.bytes = entry.bytes();
  node.entry = std::move(entry);
  resident_bytes_ += node.bytes;
  lru_.push_front(std::move(node));
  map_[signature] = lru_.begin();
  evict_to_limits();
}

void PhaseCache::evict_to_limits() {
  while (!lru_.empty() && (map_.size() > limits_.max_entries ||
                           resident_bytes_ > limits_.max_bytes)) {
    const Node& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    map_.erase(victim.signature);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace esim::memo
