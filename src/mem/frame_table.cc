#include "src/mem/frame_table.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace gms {

namespace {

// Tower height of a slot: 1 + the number of trailing zero bit pairs of a
// fixed hash of its index, so each extra level has probability 1/4.
int TowerHeight(uint32_t slot, int max_level) {
  uint64_t x = (static_cast<uint64_t>(slot) + 1) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return std::min(max_level, 1 + std::countr_zero(x) / 2);
}

}  // namespace

FrameTable::FrameTable(uint32_t num_frames) {
  assert(num_frames > 0);
  frames_.resize(num_frames);
  uids_.assign(num_frames, kInvalidUid);
  ages_.assign(num_frames, 0);
  flags_.assign(num_frames, 0);
  recirc_.assign(num_frames, 0);
  while (levels_ < kMaxLevel && (4ull << (2 * levels_)) < num_frames) {
    levels_++;
  }
  free_.reserve(num_frames);
  uint32_t pool = 0;
  // Hand out low indices first (cosmetic; keeps tests predictable).
  for (uint32_t i = num_frames; i > 0; i--) {
    Frame& f = frames_[i - 1];
    f.table_ = this;
    f.index_ = i - 1;
    const int h = TowerHeight(i - 1, levels_);
    f.tower_ = pool << kHeightBits | static_cast<uint32_t>(h);
    pool += h - 1;
    free_.push_back(i - 1);
  }
  assert(pool < (1u << (32 - kHeightBits)));
  towers_.resize(pool);
  ends_.assign(4 * (levels_ - 1) * 2, kNil);
  uint64_t capacity = 1;
  while (capacity < 2ull * num_frames) {
    capacity <<= 1;
  }
  index_.assign(capacity, kNil);
  index_mask_ = capacity - 1;
}

uint32_t FrameTable::Find(const Uid& uid) const {
  for (uint64_t pos = HomeOf(uid);; pos = (pos + 1) & index_mask_) {
    const uint32_t slot = index_[pos];
    if (slot == kNil || uids_[slot] == uid) {
      return slot;
    }
  }
}

void FrameTable::IndexInsert(uint32_t slot) {
  uint64_t pos = HomeOf(uids_[slot]);
  while (index_[pos] != kNil) {
    pos = (pos + 1) & index_mask_;
  }
  index_[pos] = slot;
}

void FrameTable::IndexErase(uint32_t slot) {
  uint64_t hole = HomeOf(uids_[slot]);
  while (index_[hole] != slot) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, pos].
  for (uint64_t pos = (hole + 1) & index_mask_; index_[pos] != kNil;
       pos = (pos + 1) & index_mask_) {
    const uint64_t home = HomeOf(uids_[index_[pos]]);
    const bool stays = hole <= pos ? (hole < home && home <= pos)
                                   : (hole < home || home <= pos);
    if (!stays) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = kNil;
}

Frame* FrameTable::Lookup(const Uid& uid) {
  const uint32_t slot = Find(uid);
  return slot == kNil ? nullptr : &frames_[slot];
}

const Frame* FrameTable::Lookup(const Uid& uid) const {
  const uint32_t slot = Find(uid);
  return slot == kNil ? nullptr : &frames_[slot];
}

Frame* FrameTable::Bind(const Uid& uid, PageLocation location, SimTime age) {
  assert(uid.valid());
  assert(Lookup(uid) == nullptr);
  if (free_.empty()) {
    return nullptr;
  }
  const uint32_t idx = free_.back();
  free_.pop_back();
  uids_[idx] = uid;
  flags_[idx] = kFlagInUse |
                (location == PageLocation::kGlobal ? kFlagGlobal : 0);
  recirc_[idx] = 0;
  ages_[idx] = age;
  IndexInsert(idx);
  return &frames_[idx];
}

Frame* FrameTable::Allocate(const Uid& uid, PageLocation location, SimTime now) {
  Frame* f = Bind(uid, location, now);
  if (f != nullptr) {
    PushMru(f);
  }
  return f;
}

Frame* FrameTable::AllocateWithAge(const Uid& uid, PageLocation location,
                                   SimTime last_access) {
  Frame* f = Bind(uid, location, last_access);
  if (f != nullptr) {
    InsertByAge(f);
  }
  return f;
}

void FrameTable::Free(Frame* frame) {
  assert(frame != nullptr && frame->in_use());
  Unlink(frame);
  IndexErase(frame->index_);
  uids_[frame->index_] = kInvalidUid;
  flags_[frame->index_] = 0;
  free_.push_back(frame->index_);
}

void FrameTable::Touch(Frame* frame, SimTime now) {
  assert(frame->in_use());
  Unlink(frame);
  ages_[frame->index_] = now;
  PushMru(frame);
}

void FrameTable::SetLocation(Frame* frame, PageLocation location, SimTime now) {
  assert(frame->in_use());
  if (frame->location() == location) {
    Touch(frame, now);
    return;
  }
  Unlink(frame);
  set_flag(frame->index_, kFlagGlobal, location == PageLocation::kGlobal);
  ages_[frame->index_] = now;
  PushMru(frame);
}

void FrameTable::MoveToList(Frame* frame, PageLocation location) {
  assert(frame->in_use());
  if (frame->location() == location) {
    return;
  }
  Unlink(frame);
  set_flag(frame->index_, kFlagGlobal, location == PageLocation::kGlobal);
  InsertByAge(frame);
}

void FrameTable::Reset() {
  const uint32_t n = num_frames();
  free_.clear();
  std::fill(index_.begin(), index_.end(), kNil);
  std::fill(ends_.begin(), ends_.end(), kNil);
  for (List& list : lists_) {
    list = List{};
  }
  uids_.assign(n, kInvalidUid);
  ages_.assign(n, 0);
  flags_.assign(n, 0);
  recirc_.assign(n, 0);
  for (uint32_t i = n; i > 0; i--) {
    frames_[i - 1].prev_ = kNil;
    frames_[i - 1].next_ = kNil;
    free_.push_back(i - 1);
  }
}

Frame* FrameTable::OldestOf(int location, bool require_clean) {
  const uint32_t clean = lists_[2 * location].tail;
  if (require_clean) {
    return clean == kNil ? nullptr : &frames_[clean];
  }
  // The oldest unpinned frame overall is the evictable tail or an older
  // dirty frame; only pinned frames older than the evictable tail are
  // stepped over.
  uint32_t idx = lists_[2 * location + 1].tail;
  while (idx != kNil && (clean == kNil || Older(idx, clean))) {
    if (!flag(idx, kFlagPinned)) {
      return &frames_[idx];
    }
    idx = frames_[idx].prev_;
  }
  return clean == kNil ? nullptr : &frames_[clean];
}

Frame* FrameTable::PickVictim(SimTime now, double global_age_boost,
                              bool require_clean) {
  assert(global_age_boost >= 1.0);
  Frame* local = OldestOf(0, require_clean);
  Frame* global = OldestOf(1, require_clean);
  if (global == nullptr) {
    return local;
  }
  if (local == nullptr) {
    return global;
  }
  const double local_age = static_cast<double>(now - local->last_access());
  const double global_age =
      static_cast<double>(now - global->last_access()) * global_age_boost;
  return global_age >= local_age ? global : local;
}

Frame* FrameTable::OldestMatching(
    SimTime now, double global_age_boost,
    const std::function<bool(const Frame&)>& pred) {
  Frame* best = nullptr;
  double best_age = -1;
  for (int location = 0; location < 2; location++) {
    // Walk the location's two lists merged by key, oldest first: the same
    // visit order as one age-sorted list.
    uint32_t clean = lists_[2 * location].tail;
    uint32_t other = lists_[2 * location + 1].tail;
    while (clean != kNil || other != kNil) {
      uint32_t idx;
      if (other == kNil || (clean != kNil && Older(clean, other))) {
        idx = clean;
        clean = frames_[clean].prev_;
      } else {
        idx = other;
        other = frames_[other].prev_;
      }
      Frame& f = frames_[idx];
      if (!f.pinned() && pred(f)) {
        double age = static_cast<double>(now - f.last_access());
        if (f.location() == PageLocation::kGlobal) {
          age *= global_age_boost;
        }
        if (age > best_age) {
          best = &f;
          best_age = age;
        }
        break;  // tail-first: the first match in a location is its oldest
      }
    }
  }
  return best;
}

void FrameTable::ForEach(const std::function<void(const Frame&)>& fn) const {
  for (const Frame& f : frames_) {
    if (f.in_use()) {
      fn(f);
    }
  }
}

void FrameTable::PushMru(Frame* f) {
  const uint32_t i = f->index_;
  const int li = ListOf(flags_[i]);
  // Accesses arrive in time order, so the frame is its location's newest.
  for ([[maybe_unused]] const List& list : {lists_[li & ~1], lists_[li | 1]}) {
    assert(list.size == 0 || ages_[i] >= ages_[list.head]);
  }
  f->seq_ = ++next_seq_;
  LinkByKey(li, i);  // the newest key: links at the head
}

void FrameTable::InsertByAge(Frame* f) {
  f->seq_ = ++next_seq_;
  LinkByKey(ListOf(flags_[f->index_]), f->index_);
}

void FrameTable::LinkByKey(int list_index, uint32_t i) {
  List& list = lists_[list_index];
  const int h = height(i);
  if (list.size == 0 || Older(list.head, i)) {
    for (int l = 0; l < h; l++) {  // newest: link at the head
      LinkAfter(list_index, i, kNil, l);
    }
  } else if (Older(i, list.tail)) {
    for (int l = 0; l < h; l++) {  // oldest: link at the tail
      LinkAfter(list_index, i, tail(list_index, l), l);
    }
  } else {
    // Top-down search for the last frame newer than i on each level; kNil
    // stands for the list head.
    uint32_t pred = kNil;
    for (int l = levels_ - 1; l >= 0; l--) {
      uint32_t next = pred == kNil ? head(list_index, l) : next_at(pred, l);
      while (next != kNil && Older(i, next)) {
        pred = next;
        next = next_at(pred, l);
      }
      if (l < h) {
        LinkAfter(list_index, i, pred, l);
      }
    }
  }
  list.size++;
}

void FrameTable::LinkAfter(int list_index, uint32_t i, uint32_t pred,
                           int level) {
  uint32_t& pred_next =
      pred == kNil ? head(list_index, level) : next_at(pred, level);
  const uint32_t next = pred_next;
  prev_at(i, level) = pred;
  next_at(i, level) = next;
  pred_next = i;
  (next == kNil ? tail(list_index, level) : prev_at(next, level)) = i;
}

void FrameTable::Unlink(int list_index, uint32_t i) {
  const int h = height(i);
  for (int l = 0; l < h; l++) {
    const uint32_t prev = prev_at(i, l);
    const uint32_t next = next_at(i, l);
    (prev == kNil ? head(list_index, l) : next_at(prev, l)) = next;
    (next == kNil ? tail(list_index, l) : prev_at(next, l)) = prev;
  }
  frames_[i].prev_ = kNil;
  frames_[i].next_ = kNil;
  assert(lists_[list_index].size > 0);
  lists_[list_index].size--;
}

}  // namespace gms
