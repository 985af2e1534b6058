#include "src/core/directory.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace gms {

PodTable Pod::Build(uint64_t version, std::vector<NodeId> live) {
  assert(!live.empty());
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  PodTable table;
  table.version = version;
  table.buckets.resize(kNumBuckets);
  // Rendezvous (highest-random-weight) assignment: each bucket goes to the
  // live node with the largest hash(bucket, node). A membership change
  // remaps only the buckets owned by the departed node (or stolen by the
  // newcomer) — the stability the POD indirection exists to provide
  // (section 4.1: reconfiguration "without changing the hash function").
  for (uint32_t b = 0; b < kNumBuckets; b++) {
    uint64_t best = 0;
    NodeId owner = live[0];
    for (NodeId node : live) {
      uint64_t h = (static_cast<uint64_t>(b) << 32) | (node.value + 1);
      h *= 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 32;
      if (h >= best) {
        best = h;
        owner = node;
      }
    }
    table.buckets[b] = owner;
  }
  table.live = std::move(live);
  return table;
}

void Pod::Adopt(PodTable table) {
  assert(std::adjacent_find(table.live.begin(), table.live.end(),
                            std::greater_equal<NodeId>()) == table.live.end());
  table_ = std::move(table);
}

bool Pod::IsLive(NodeId node) const {
  return std::binary_search(table_.live.begin(), table_.live.end(), node);
}

NodeId Pod::GcdNodeFor(const Uid& uid) const {
  if (!IsShared(uid)) {
    return NodeOfIp(uid.ip());
  }
  assert(!table_.buckets.empty());
  return table_.buckets[HashUid(uid) % table_.buckets.size()];
}

void GcdTable::Apply(const GcdUpdate& update) {
  switch (update.op) {
    case GcdUpdate::kAdd: {
      Entry& e = map_[update.uid];
      for (auto& h : e.holders) {
        if (h.node == update.node) {
          h.global = update.global;
          return;
        }
      }
      e.holders.push_back(Holder{update.node, update.global});
      return;
    }
    case GcdUpdate::kRemove: {
      auto it = map_.find(update.uid);
      if (it == map_.end()) {
        return;
      }
      auto& holders = it->second.holders;
      std::erase_if(holders, [&](const Holder& h) { return h.node == update.node; });
      if (holders.empty()) {
        map_.erase(it);
      }
      return;
    }
    case GcdUpdate::kReplace: {
      Entry& e = map_[update.uid];
      std::erase_if(e.holders, [&](const Holder& h) {
        return h.global || h.node == update.node || h.node == update.prev;
      });
      e.holders.push_back(Holder{update.node, update.global});
      return;
    }
  }
}

const GcdTable::Entry* GcdTable::Lookup(const Uid& uid) const {
  auto it = map_.find(uid);
  return it == map_.end() ? nullptr : &it->second;
}

std::optional<GcdTable::Holder> GcdTable::Pick(const Uid& uid,
                                               NodeId exclude) const {
  const Entry* e = Lookup(uid);
  if (e == nullptr) {
    return std::nullopt;
  }
  std::optional<Holder> fallback;
  for (const Holder& h : e->holders) {
    if (h.node == exclude) {
      continue;
    }
    if (h.global) {
      return h;
    }
    if (!fallback) {
      fallback = h;
    }
  }
  return fallback;
}

bool GcdTable::HasDuplicate(const Uid& uid) const {
  const Entry* e = Lookup(uid);
  return e != nullptr && e->holders.size() >= 2;
}

void GcdTable::Prune(const Pod& pod, NodeId self) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (pod.GcdNodeFor(it->first) != self) {
      it = map_.erase(it);
      continue;
    }
    auto& holders = it->second.holders;
    std::erase_if(holders, [&](const Holder& h) { return !pod.IsLive(h.node); });
    if (holders.empty()) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gms
