// Page-frame bookkeeping for one node.
//
// This is the storage half of the paper's page-frame-directory (PFD,
// section 4.1): a per-node table with one record per resident page, holding
// the frame, LRU statistics, and whether the page is local or global. Pages
// are kept in exact age order, replacing the paper's sampled TLB ages with
// exact last-access timestamps (a documented divergence — strictly better
// information).
//
// Order. Every list is sorted by the key (last_access, seq), newest at the
// MRU head and oldest at the LRU tail. `seq` is a per-table counter stamped
// on the frame each time it is linked by an access (Allocate, Touch,
// SetLocation) or by age (AllocateWithAge, MoveToList), so among equal ages
// the most recently linked frame is the younger one. A frame's order within
// its location is therefore a pure function of its key.
//
// Lists. Each location (local, global) is split by evictability into two
// lists: `evictable` (unpinned and clean) and `other` (dirty or pinned). A
// set_dirty / set_pinned flip that changes a frame's class moves it to its
// keyed position in the location's other list and keeps its seq, so the two
// lists merged by key are exactly the location's single age order. Each list
// is an intrusive doubly linked skip list: level 0 is Frame's prev_/next_,
// higher levels come from a tower pool sized at construction, and a slot's
// tower height is a fixed hash of its index (no RNG stream, no per-operation
// allocation). Tables of 16 frames or fewer keep plain sorted lists.
//
// Cost per operation (n = frames in a list):
//   Lookup, Allocate, Free              O(1) expected (flat uid index)
//   Touch, SetLocation                  O(1) expected (unlink + push at head)
//   AllocateWithAge, MoveToList         O(log n) expected (keyed insert)
//   set_dirty / set_pinned class flip   O(log n) expected (keyed move)
//   PickVictim(require_clean = true)    O(1) (evictable tails)
//   PickVictim, OldestLocal/Global      O(1) plus pinned frames older than
//                                       the evictable tail
//   OldestMatching                      walks both lists merged by key, in
//                                       the same order as one age-sorted list
//
// Storage is struct-of-arrays: uids, last-access times and packed status
// flags live in separate contiguous arrays so the per-epoch age scan —
// the hottest whole-table walk — streams two flat arrays (flags + ages)
// instead of striding through fat records. Frame is a handle over one slot:
// its address is stable for the table's lifetime, all page state is read or
// written in the arrays through accessors, and the handle itself carries
// only the slot's list links.
#ifndef SRC_MEM_FRAME_TABLE_H_
#define SRC_MEM_FRAME_TABLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time.h"
#include "src/common/uid.h"

namespace gms {

// A page on a node is local (recently accessed by this node) or global
// (stored on behalf of the cluster). Section 3.1.
enum class PageLocation : uint8_t {
  kLocal,
  kGlobal,
};

class FrameTable;

// Handle to one frame slot. Stable identity (the handle vector never
// reallocates); page state lives in the owning table's arrays, and the
// handle holds the slot's list links.
class Frame {
 public:
  const Uid& uid() const;
  PageLocation location() const;
  SimTime last_access() const;
  bool in_use() const;

  bool dirty() const;
  void set_dirty(bool v);
  bool shared() const;  // backed by a file that other nodes may cache
  void set_shared(bool v);
  bool duplicated() const;  // another node is known to cache a copy
  void set_duplicated(bool v);
  bool pinned() const;  // mid-fault or mid-transfer; not evictable
  void set_pinned(bool v);
  // N-chance recirculation count; unused by GMS proper.
  uint8_t recirculation() const;
  void set_recirculation(uint8_t v);

 private:
  friend class FrameTable;
  FrameTable* table_ = nullptr;
  uint32_t index_ = UINT32_MAX;
  uint32_t prev_ = UINT32_MAX;
  uint32_t next_ = UINT32_MAX;
  // Skip-list tower: base << FrameTable::kHeightBits | height.
  uint32_t tower_ = 1;
  // Link sequence: the order tie-break among equal ages (see FrameTable).
  uint64_t seq_ = 0;
};

class FrameTable {
 public:
  // Packed per-frame status bits (flags_data()[i]). The epoch age scan
  // branches only on these plus the ages array.
  static constexpr uint8_t kFlagInUse = 1u << 0;
  static constexpr uint8_t kFlagGlobal = 1u << 1;
  static constexpr uint8_t kFlagDirty = 1u << 2;
  static constexpr uint8_t kFlagShared = 1u << 3;
  static constexpr uint8_t kFlagDuplicated = 1u << 4;
  static constexpr uint8_t kFlagPinned = 1u << 5;

  explicit FrameTable(uint32_t num_frames);
  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  uint32_t num_frames() const { return static_cast<uint32_t>(frames_.size()); }
  uint32_t free_count() const { return static_cast<uint32_t>(free_.size()); }
  uint32_t local_count() const { return lists_[0].size + lists_[1].size; }
  uint32_t global_count() const { return lists_[2].size + lists_[3].size; }
  uint32_t used_count() const { return local_count() + global_count(); }

  // Returns the frame caching `uid`, or nullptr.
  Frame* Lookup(const Uid& uid);
  const Frame* Lookup(const Uid& uid) const;

  // Takes a free frame and binds it to `uid` at the MRU end of the given
  // list. Returns nullptr when no frame is free (the caller must evict
  // first). `uid` must not already be present.
  Frame* Allocate(const Uid& uid, PageLocation location, SimTime now);

  // Like Allocate, but the page keeps an externally-supplied last-access
  // time (a putpaged page arrives with its age intact so global LRU ordering
  // survives the transfer) and is linked at the list position matching that
  // age.
  Frame* AllocateWithAge(const Uid& uid, PageLocation location,
                         SimTime last_access);

  // Unbinds the frame and returns it to the free list.
  void Free(Frame* frame);

  // Records an access: updates last_access and moves the frame to MRU.
  void Touch(Frame* frame, SimTime now);

  // Moves a frame between the local and global lists (e.g. a received global
  // page, or a faulted-in page becoming local), recording an access.
  void SetLocation(Frame* frame, PageLocation location, SimTime now);

  // Moves a frame between lists without touching its age (a page demoted to
  // global in place keeps its LRU position — paper case 3 when the eviction
  // target is this node itself).
  void MoveToList(Frame* frame, PageLocation location);

  // Drops every page (crash semantics: a failed node's memory contents are
  // gone; clean global pages remain recoverable from disk).
  void Reset();

  // LRU-end (oldest) page of each list, skipping pinned frames; nullptr when
  // the list has no evictable frame.
  Frame* OldestLocal() { return OldestOf(0, /*require_clean=*/false); }
  Frame* OldestGlobal() { return OldestOf(1, /*require_clean=*/false); }

  // The node-level replacement choice (section 3.1): the oldest evictable
  // page, with global pages' ages boosted by `global_age_boost` (>= 1) so
  // they are replaced in preference to local pages of similar age ("our
  // current implementation boosts the ages of global pages"). With
  // `require_clean`, dirty frames are skipped (used on paths that must free
  // a frame synchronously, e.g. absorbing an incoming putpage).
  Frame* PickVictim(SimTime now, double global_age_boost,
                    bool require_clean = false);

  // Oldest unpinned frame satisfying `pred` (ages boosted for global pages
  // as in PickVictim). Walks both LRU tails; used by N-chance's victim
  // selection (oldest duplicate / oldest recirculating page).
  Frame* OldestMatching(SimTime now, double global_age_boost,
                        const std::function<bool(const Frame&)>& pred);

  // Invokes fn for every in-use frame in slot order. Cost is charged to the
  // CPU by the caller (Table 5: ~0.3 us/page). The epoch age scan does NOT
  // use this — it streams the raw arrays below (src/core/epoch.cc,
  // AccumulateAgeHistogram) with no per-frame indirect call.
  void ForEach(const std::function<void(const Frame&)>& fn) const;

  // Raw column access for whole-table scans. Slot i is in use iff
  // flags_data()[i] & kFlagInUse; its last access is ages_data()[i].
  const SimTime* ages_data() const { return ages_.data(); }
  const uint8_t* flags_data() const { return flags_.data(); }
  const Uid* uids_data() const { return uids_.data(); }

 private:
  friend class Frame;

  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr int kMaxLevel = 12;  // towers grow with p = 1/4
  static constexpr int kHeightBits = 4;

  struct Link {
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };
  struct List {
    uint32_t head = kNil;  // MRU end of level 0
    uint32_t tail = kNil;  // LRU end of level 0
    uint32_t size = 0;
  };

  bool flag(uint32_t i, uint8_t bit) const { return (flags_[i] & bit) != 0; }
  void set_flag(uint32_t i, uint8_t bit, bool v) {
    flags_[i] = v ? (flags_[i] | bit) : (flags_[i] & ~bit);
  }

  // Frames that are not evictable (a victim scan must skip or may skip them)
  // live on a location's `other` list.
  static constexpr uint8_t kFlagsNotEvictable = kFlagDirty | kFlagPinned;

  // lists_[2 * location + class]: class 0 is evictable, 1 is other.
  static int ListOf(uint8_t flags) {
    return ((flags & kFlagGlobal) != 0 ? 2 : 0) +
           ((flags & kFlagsNotEvictable) != 0 ? 1 : 0);
  }

  // Sets a dirty/pinned bit; moves the frame if its class changes.
  void SetClassFlag(uint32_t i, uint8_t bit, bool v) {
    const uint8_t before = flags_[i];
    set_flag(i, bit, v);
    if ((before & kFlagInUse) != 0 && ListOf(before) != ListOf(flags_[i])) {
      Unlink(ListOf(before), i);
      LinkByKey(ListOf(flags_[i]), i);
    }
  }

  // Binds a free slot to `uid` without linking it; nullptr when none is free.
  Frame* Bind(const Uid& uid, PageLocation location, SimTime age);

  // Key order: true when slot a sorts nearer the LRU tail than slot b.
  bool Older(uint32_t a, uint32_t b) const {
    return ages_[a] < ages_[b] ||
           (ages_[a] == ages_[b] && frames_[a].seq_ < frames_[b].seq_);
  }

  // Tower height of slot i, and its level-l links (level 0 is the Frame's
  // own prev_/next_).
  int height(uint32_t i) const {
    return static_cast<int>(frames_[i].tower_ & ((1u << kHeightBits) - 1));
  }
  Link& link_at(uint32_t i, int l) {
    return towers_[(frames_[i].tower_ >> kHeightBits) + l - 1];
  }
  uint32_t& next_at(uint32_t i, int l) {
    return l == 0 ? frames_[i].next_ : link_at(i, l).next;
  }
  uint32_t& prev_at(uint32_t i, int l) {
    return l == 0 ? frames_[i].prev_ : link_at(i, l).prev;
  }
  // MRU and LRU ends of one level of one list.
  uint32_t& head(int list_index, int l) {
    return l == 0 ? lists_[list_index].head
                  : ends_[(list_index * (levels_ - 1) + l - 1) * 2];
  }
  uint32_t& tail(int list_index, int l) {
    return l == 0 ? lists_[list_index].tail
                  : ends_[(list_index * (levels_ - 1) + l - 1) * 2 + 1];
  }

  // Linking with a fresh seq. PushMru links an accessed frame, which is the
  // newest of its location, at the head; InsertByAge links a frame of any
  // age at its keyed position. InsertByAge stays out of line so profiles
  // count its calls (perfbench's mem.insert_by_age_calls).
  void PushMru(Frame* f);
  [[gnu::noinline]] void InsertByAge(Frame* f);
  // Keyed link keeping the frame's seq, and the list primitives under it.
  void LinkByKey(int list_index, uint32_t i);
  void LinkAfter(int list_index, uint32_t i, uint32_t pred, int level);
  void Unlink(int list_index, uint32_t i);
  void Unlink(Frame* f) { Unlink(ListOf(flags_[f->index_]), f->index_); }
  Frame* OldestOf(int location, bool require_clean);

  // Flat uid index: open addressing over slot indices, linear probing.
  uint64_t HomeOf(const Uid& uid) const { return HashUid(uid) & index_mask_; }
  uint32_t Find(const Uid& uid) const;
  void IndexInsert(uint32_t slot);
  void IndexErase(uint32_t slot);

  std::vector<Frame> frames_;  // handles; addresses stable after ctor
  // The SoA columns, parallel to frames_.
  std::vector<Uid> uids_;
  std::vector<SimTime> ages_;
  std::vector<uint8_t> flags_;
  std::vector<uint8_t> recirc_;

  // Skip-list towers: slot i owns towers_[base ..] for its levels
  // 1 .. height - 1 (Frame::tower_). Heights are capped at levels_, which
  // leaves about four frames on the top level of a full list.
  int levels_ = 1;
  std::vector<Link> towers_;
  std::vector<uint32_t> ends_;  // [list][level - 1]{head, tail}

  std::vector<uint32_t> free_;
  std::vector<uint32_t> index_;  // kNil = empty
  uint64_t index_mask_ = 0;
  uint64_t next_seq_ = 0;
  List lists_[4];  // [2 * location + class]
};

inline const Uid& Frame::uid() const { return table_->uids_[index_]; }
inline PageLocation Frame::location() const {
  return table_->flag(index_, FrameTable::kFlagGlobal) ? PageLocation::kGlobal
                                                       : PageLocation::kLocal;
}
inline SimTime Frame::last_access() const { return table_->ages_[index_]; }
inline bool Frame::in_use() const {
  return table_->flag(index_, FrameTable::kFlagInUse);
}
inline bool Frame::dirty() const {
  return table_->flag(index_, FrameTable::kFlagDirty);
}
inline void Frame::set_dirty(bool v) {
  table_->SetClassFlag(index_, FrameTable::kFlagDirty, v);
}
inline bool Frame::shared() const {
  return table_->flag(index_, FrameTable::kFlagShared);
}
inline void Frame::set_shared(bool v) {
  table_->set_flag(index_, FrameTable::kFlagShared, v);
}
inline bool Frame::duplicated() const {
  return table_->flag(index_, FrameTable::kFlagDuplicated);
}
inline void Frame::set_duplicated(bool v) {
  table_->set_flag(index_, FrameTable::kFlagDuplicated, v);
}
inline bool Frame::pinned() const {
  return table_->flag(index_, FrameTable::kFlagPinned);
}
inline void Frame::set_pinned(bool v) {
  table_->SetClassFlag(index_, FrameTable::kFlagPinned, v);
}
inline uint8_t Frame::recirculation() const {
  return table_->recirc_[index_];
}
inline void Frame::set_recirculation(uint8_t v) {
  table_->recirc_[index_] = v;
}

}  // namespace gms

#endif  // SRC_MEM_FRAME_TABLE_H_
