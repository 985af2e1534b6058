// Unit tests for the frame table: allocation, LRU ordering, location lists,
// victim selection, age-preserving inserts, and reset semantics, plus a
// differential test against a naive single-list reference.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/frame_table.h"

namespace gms {
namespace {

Uid U(uint32_t i) { return MakeUid(1, 0, 7, i); }

TEST(FrameTableTest, StartsEmpty) {
  FrameTable t(8);
  EXPECT_EQ(t.num_frames(), 8u);
  EXPECT_EQ(t.free_count(), 8u);
  EXPECT_EQ(t.local_count(), 0u);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.Lookup(U(1)), nullptr);
}

TEST(FrameTableTest, AllocateAndLookup) {
  FrameTable t(4);
  Frame* f = t.Allocate(U(1), PageLocation::kLocal, 100);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->uid(), U(1));
  EXPECT_EQ(f->last_access(), 100);
  EXPECT_EQ(t.Lookup(U(1)), f);
  EXPECT_EQ(t.free_count(), 3u);
  EXPECT_EQ(t.local_count(), 1u);
}

TEST(FrameTableTest, AllocateExhaustsToNull) {
  FrameTable t(2);
  EXPECT_NE(t.Allocate(U(1), PageLocation::kLocal, 1), nullptr);
  EXPECT_NE(t.Allocate(U(2), PageLocation::kLocal, 2), nullptr);
  EXPECT_EQ(t.Allocate(U(3), PageLocation::kLocal, 3), nullptr);
}

TEST(FrameTableTest, FreeReturnsFrame) {
  FrameTable t(2);
  Frame* f = t.Allocate(U(1), PageLocation::kGlobal, 1);
  t.Free(f);
  EXPECT_EQ(t.free_count(), 2u);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.Lookup(U(1)), nullptr);
  // The frame is reusable.
  EXPECT_NE(t.Allocate(U(1), PageLocation::kLocal, 2), nullptr);
}

TEST(FrameTableTest, FreeClearsFlags) {
  FrameTable t(2);
  Frame* f = t.Allocate(U(1), PageLocation::kLocal, 1);
  f->set_dirty(true);
  f->set_duplicated(true);
  f->set_pinned(true);
  t.Free(f);
  Frame* g = t.Allocate(U(2), PageLocation::kLocal, 2);
  // Either frame may be handed out; both must be clean.
  EXPECT_FALSE(g->dirty());
  EXPECT_FALSE(g->duplicated());
  EXPECT_FALSE(g->pinned());
}

TEST(FrameTableTest, OldestTracksLruTail) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Allocate(U(3), PageLocation::kLocal, 30);
  EXPECT_EQ(t.OldestLocal()->uid(), U(1));
  // Touching 1 moves it to MRU; oldest becomes 2.
  t.Touch(t.Lookup(U(1)), 40);
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
}

TEST(FrameTableTest, OldestSkipsPinned) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Lookup(U(1))->set_pinned(true);
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
  t.Lookup(U(2))->set_pinned(true);
  EXPECT_EQ(t.OldestLocal(), nullptr);
}

TEST(FrameTableTest, LocationListsAreSeparate) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kGlobal, 5);
  EXPECT_EQ(t.local_count(), 1u);
  EXPECT_EQ(t.global_count(), 1u);
  EXPECT_EQ(t.OldestLocal()->uid(), U(1));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(2));
}

TEST(FrameTableTest, SetLocationMovesBetweenLists) {
  FrameTable t(4);
  Frame* f = t.Allocate(U(1), PageLocation::kGlobal, 10);
  t.SetLocation(f, PageLocation::kLocal, 50);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.local_count(), 1u);
  EXPECT_EQ(f->last_access(), 50);
}

TEST(FrameTableTest, MoveToListPreservesAge) {
  FrameTable t(4);
  Frame* f = t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kGlobal, 5);
  t.MoveToList(f, PageLocation::kGlobal);
  EXPECT_EQ(f->last_access(), 10);
  EXPECT_EQ(t.global_count(), 2u);
  // Ordering by age within the global list: U(2) (age 5) is older.
  EXPECT_EQ(t.OldestGlobal()->uid(), U(2));
}

TEST(FrameTableTest, PickVictimPrefersOldest) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 100);
  t.Touch(t.Lookup(U(1)), 150);  // U(2) is now the LRU page
  EXPECT_EQ(t.PickVictim(200, 1.0)->uid(), U(2));
}

TEST(FrameTableTest, PickVictimBoostsGlobalAges) {
  FrameTable t(4);
  // Local age 100, global age 80: with boost 1.5 the global page's effective
  // age is 120 and it is chosen.
  t.Allocate(U(1), PageLocation::kLocal, 100);   // age 100 at t=200
  t.Allocate(U(2), PageLocation::kGlobal, 120);  // age 80 at t=200
  EXPECT_EQ(t.PickVictim(200, 1.5)->uid(), U(2));
  EXPECT_EQ(t.PickVictim(200, 1.0)->uid(), U(1));
}

TEST(FrameTableTest, PickVictimRequireCleanSkipsDirty) {
  FrameTable t(4);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 50);
  a->set_dirty(true);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true)->uid(), U(2));
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/false)->uid(), U(1));
}

TEST(FrameTableTest, AllocateWithAgeOrdersList) {
  FrameTable t(8);
  t.Allocate(U(1), PageLocation::kGlobal, 100);
  t.Allocate(U(2), PageLocation::kGlobal, 300);
  // Insert a page whose age falls between the two.
  t.AllocateWithAge(U(3), PageLocation::kGlobal, 200);
  EXPECT_EQ(t.OldestGlobal()->uid(), U(1));
  t.Free(t.Lookup(U(1)));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(3));
  t.Free(t.Lookup(U(3)));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(2));
}

TEST(FrameTableTest, AllocateWithAgeOldestAndYoungest) {
  FrameTable t(8);
  t.Allocate(U(1), PageLocation::kLocal, 100);
  t.AllocateWithAge(U(2), PageLocation::kLocal, 50);   // older than all
  t.AllocateWithAge(U(3), PageLocation::kLocal, 500);  // younger than all
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
  t.Free(t.Lookup(U(2)));
  EXPECT_EQ(t.OldestLocal()->uid(), U(1));
}

TEST(FrameTableTest, OldestMatchingFindsPredicate) {
  FrameTable t(8);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* b = t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Allocate(U(3), PageLocation::kGlobal, 5);
  a->set_duplicated(false);
  b->set_duplicated(true);
  Frame* found = t.OldestMatching(
      100, 1.0, [](const Frame& f) { return f.duplicated(); });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->uid(), U(2));
  EXPECT_EQ(t.OldestMatching(100, 1.0,
                             [](const Frame& f) { return f.recirculation() > 3; }),
            nullptr);
}

TEST(FrameTableTest, ForEachVisitsAllInUse) {
  FrameTable t(8);
  for (uint32_t i = 0; i < 5; i++) {
    t.Allocate(U(i + 1), PageLocation::kLocal, i);
  }
  t.Free(t.Lookup(U(2)));
  int count = 0;
  t.ForEach([&](const Frame& f) {
    count++;
    EXPECT_NE(f.uid(), U(2));
  });
  EXPECT_EQ(count, 4);
}

TEST(FrameTableTest, ResetClearsEverything) {
  FrameTable t(8);
  for (uint32_t i = 0; i < 8; i++) {
    t.Allocate(U(i + 1), PageLocation::kLocal, i);
  }
  t.Reset();
  EXPECT_EQ(t.free_count(), 8u);
  EXPECT_EQ(t.used_count(), 0u);
  EXPECT_EQ(t.Lookup(U(1)), nullptr);
  EXPECT_NE(t.Allocate(U(9), PageLocation::kLocal, 1), nullptr);
}

// Parameterized stress: random allocate/free/touch sequences preserve the
// list invariants (counts sum to capacity; tail is the true minimum).
class FrameTableStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameTableStressTest, InvariantsHoldUnderRandomOps) {
  Rng rng(GetParam());
  FrameTable t(64);
  std::vector<Uid> resident;
  SimTime now = 0;
  for (int step = 0; step < 5000; step++) {
    now += 1 + static_cast<SimTime>(rng.NextBelow(100));
    const uint64_t action = rng.NextBelow(10);
    if (action < 4 && t.free_count() > 0) {
      const Uid uid = U(static_cast<uint32_t>(step) + 1000);
      t.Allocate(uid,
                 rng.NextBool(0.3) ? PageLocation::kGlobal
                                   : PageLocation::kLocal,
                 now);
      resident.push_back(uid);
    } else if (action < 7 && !resident.empty()) {
      const size_t i = rng.NextBelow(resident.size());
      t.Touch(t.Lookup(resident[i]), now);
    } else if (!resident.empty()) {
      const size_t i = rng.NextBelow(resident.size());
      t.Free(t.Lookup(resident[i]));
      resident[i] = resident.back();
      resident.pop_back();
    }
    ASSERT_EQ(t.used_count() + t.free_count(), 64u);
    ASSERT_EQ(t.used_count(), resident.size());
    // The reported oldest local page really is the minimum last_access.
    Frame* oldest = t.OldestLocal();
    if (oldest != nullptr) {
      SimTime min_access = oldest->last_access();
      t.ForEach([&](const Frame& f) {
        if (f.location() == PageLocation::kLocal) {
          ASSERT_GE(f.last_access(), min_access);
        }
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameTableStressTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

// The naive reference: one intrusive list per location, kept in age order by
// pushing accesses at the MRU head and placing aged links with a walk from
// the head; victim scans walk from the LRU tail past pinned (and, when
// required, dirty) frames. FrameTable must pick exactly the same frames.
class NaiveFrameTable {
 public:
  explicit NaiveFrameTable(uint32_t n) : slots_(n) {
    for (uint32_t i = n; i > 0; i--) {
      free_.push_back(i - 1);
    }
  }

  uint32_t free_count() const { return static_cast<uint32_t>(free_.size()); }
  uint32_t count(PageLocation loc) const { return lists_[Li(loc)].size; }

  bool Allocate(const Uid& uid, PageLocation loc, SimTime now) {
    const uint32_t i = Bind(uid, loc, now);
    if (i == kNil) {
      return false;
    }
    PushMru(i);
    return true;
  }

  bool AllocateWithAge(const Uid& uid, PageLocation loc, SimTime age) {
    const uint32_t i = Bind(uid, loc, age);
    if (i == kNil) {
      return false;
    }
    InsertByAge(i);
    return true;
  }

  void Free(const Uid& uid) {
    const uint32_t i = index_.at(uid);
    Unlink(i);
    index_.erase(uid);
    slots_[i] = Slot{};
    free_.push_back(i);
  }

  void Touch(const Uid& uid, SimTime now) {
    const uint32_t i = index_.at(uid);
    Unlink(i);
    slots_[i].age = now;
    PushMru(i);
  }

  void SetLocation(const Uid& uid, PageLocation loc, SimTime now) {
    const uint32_t i = index_.at(uid);
    Unlink(i);
    slots_[i].loc = loc;
    slots_[i].age = now;
    PushMru(i);
  }

  void MoveToList(const Uid& uid, PageLocation loc) {
    const uint32_t i = index_.at(uid);
    if (slots_[i].loc == loc) {
      return;
    }
    Unlink(i);
    slots_[i].loc = loc;
    InsertByAge(i);
  }

  void SetDirty(const Uid& uid, bool v) { slots_[index_.at(uid)].dirty = v; }
  void SetPinned(const Uid& uid, bool v) { slots_[index_.at(uid)].pinned = v; }
  void SetDuplicated(const Uid& uid, bool v) {
    slots_[index_.at(uid)].duplicated = v;
  }

  void Reset() { *this = NaiveFrameTable(static_cast<uint32_t>(slots_.size())); }

  // Uid of the oldest qualifying frame of one location, or kInvalidUid.
  Uid Oldest(PageLocation loc, bool require_clean) const {
    const uint32_t i = OldestOf(Li(loc), require_clean);
    return i == kNil ? kInvalidUid : slots_[i].uid;
  }

  Uid PickVictim(SimTime now, double boost, bool require_clean) const {
    const uint32_t local = OldestOf(0, require_clean);
    const uint32_t global = OldestOf(1, require_clean);
    if (global == kNil) {
      return local == kNil ? kInvalidUid : slots_[local].uid;
    }
    if (local == kNil) {
      return slots_[global].uid;
    }
    const double local_age = static_cast<double>(now - slots_[local].age);
    const double global_age =
        static_cast<double>(now - slots_[global].age) * boost;
    return slots_[global_age >= local_age ? global : local].uid;
  }

  // OldestMatching with the predicate "duplicated".
  Uid OldestDuplicated(SimTime now, double boost) const {
    uint32_t best = kNil;
    double best_age = -1;
    for (int li = 0; li < 2; li++) {
      for (uint32_t i = lists_[li].tail; i != kNil; i = slots_[i].prev) {
        if (!slots_[i].pinned && slots_[i].duplicated) {
          double age = static_cast<double>(now - slots_[i].age);
          if (li == 1) {
            age *= boost;
          }
          if (age > best_age) {
            best = i;
            best_age = age;
          }
          break;
        }
      }
    }
    return best == kNil ? kInvalidUid : slots_[best].uid;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  struct Slot {
    Uid uid;
    SimTime age = 0;
    PageLocation loc = PageLocation::kLocal;
    bool dirty = false;
    bool pinned = false;
    bool duplicated = false;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t size = 0;
  };

  static int Li(PageLocation loc) { return loc == PageLocation::kGlobal; }

  uint32_t Bind(const Uid& uid, PageLocation loc, SimTime age) {
    if (free_.empty()) {
      return kNil;
    }
    const uint32_t i = free_.back();
    free_.pop_back();
    slots_[i] = Slot{};
    slots_[i].uid = uid;
    slots_[i].loc = loc;
    slots_[i].age = age;
    index_.emplace(uid, i);
    return i;
  }

  void PushMru(uint32_t i) {
    List& list = lists_[Li(slots_[i].loc)];
    slots_[i].prev = kNil;
    slots_[i].next = list.head;
    if (list.head != kNil) {
      slots_[list.head].prev = i;
    } else {
      list.tail = i;
    }
    list.head = i;
    list.size++;
  }

  void InsertByAge(uint32_t i) {
    List& list = lists_[Li(slots_[i].loc)];
    uint32_t prev = kNil;
    uint32_t at = list.head;
    while (at != kNil && slots_[at].age > slots_[i].age) {
      prev = at;
      at = slots_[at].next;
    }
    slots_[i].prev = prev;
    slots_[i].next = at;
    (prev == kNil ? list.head : slots_[prev].next) = i;
    (at == kNil ? list.tail : slots_[at].prev) = i;
    list.size++;
  }

  void Unlink(uint32_t i) {
    List& list = lists_[Li(slots_[i].loc)];
    const uint32_t prev = slots_[i].prev;
    const uint32_t next = slots_[i].next;
    (prev == kNil ? list.head : slots_[prev].next) = next;
    (next == kNil ? list.tail : slots_[next].prev) = prev;
    list.size--;
  }

  uint32_t OldestOf(int li, bool require_clean) const {
    for (uint32_t i = lists_[li].tail; i != kNil; i = slots_[i].prev) {
      if (!slots_[i].pinned && !(require_clean && slots_[i].dirty)) {
        return i;
      }
    }
    return kNil;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::unordered_map<Uid, uint32_t> index_;
  List lists_[2];
};

Uid UidOf(const Frame* f) { return f == nullptr ? kInvalidUid : f->uid(); }

// Random operation streams through FrameTable and the naive reference: after
// every step both must name the same oldest, victim and matching frames and
// report the same counts. Ages repeat often so equal-age ties are exercised.
class FrameTableDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(FrameTableDifferentialTest, MatchesNaiveSingleListReference) {
  const auto [frames, seed] = GetParam();
  Rng rng(seed);
  FrameTable t(frames);
  NaiveFrameTable ref(frames);
  std::vector<Uid> resident;
  SimTime now = 1000;
  uint32_t next_uid = 1;
  auto loc = [&] {
    return rng.NextBool(0.5) ? PageLocation::kGlobal : PageLocation::kLocal;
  };
  auto pick = [&]() -> size_t { return rng.NextBelow(resident.size()); };
  for (int step = 0; step < 20000; step++) {
    now += static_cast<SimTime>(rng.NextBelow(4));  // 0 makes equal ages
    const uint64_t op = rng.NextBelow(100);
    std::string what;
    if (op < 20 && t.free_count() > 0) {
      const Uid uid = U(next_uid++);
      const PageLocation where = loc();
      what = "Allocate";
      ASSERT_NE(t.Allocate(uid, where, now), nullptr);
      ASSERT_TRUE(ref.Allocate(uid, where, now));
      resident.push_back(uid);
    } else if (op < 40 && t.free_count() > 0) {
      // A putpaged page: an arbitrary past age, often equal to a resident
      // frame's age.
      SimTime age = now - static_cast<SimTime>(rng.NextBelow(now));
      if (!resident.empty() && rng.NextBool(0.5)) {
        age = t.Lookup(resident[pick()])->last_access();
      }
      const Uid uid = U(next_uid++);
      const PageLocation where = loc();
      what = "AllocateWithAge";
      ASSERT_NE(t.AllocateWithAge(uid, where, age), nullptr);
      ASSERT_TRUE(ref.AllocateWithAge(uid, where, age));
      resident.push_back(uid);
    } else if (resident.empty()) {
      continue;
    } else if (op < 50) {
      const Uid uid = resident[pick()];
      what = "Touch";
      t.Touch(t.Lookup(uid), now);
      ref.Touch(uid, now);
    } else if (op < 55) {
      const Uid uid = resident[pick()];
      const PageLocation where = loc();
      what = "SetLocation";
      t.SetLocation(t.Lookup(uid), where, now);
      ref.SetLocation(uid, where, now);
    } else if (op < 62) {
      const Uid uid = resident[pick()];
      const PageLocation where = loc();
      what = "MoveToList";
      t.MoveToList(t.Lookup(uid), where);
      ref.MoveToList(uid, where);
    } else if (op < 72) {
      const Uid uid = resident[pick()];
      const bool v = rng.NextBool(0.5);
      what = "set_dirty";
      t.Lookup(uid)->set_dirty(v);
      ref.SetDirty(uid, v);
    } else if (op < 80) {
      const Uid uid = resident[pick()];
      const bool v = rng.NextBool(0.4);
      what = "set_pinned";
      t.Lookup(uid)->set_pinned(v);
      ref.SetPinned(uid, v);
    } else if (op < 84) {
      const Uid uid = resident[pick()];
      const bool v = rng.NextBool(0.5);
      what = "set_duplicated";
      t.Lookup(uid)->set_duplicated(v);
      ref.SetDuplicated(uid, v);
    } else if (op < 99) {
      const size_t i = pick();
      what = "Free";
      t.Free(t.Lookup(resident[i]));
      ref.Free(resident[i]);
      resident[i] = resident.back();
      resident.pop_back();
    } else if (rng.NextBool(0.1)) {
      what = "Reset";
      t.Reset();
      ref.Reset();
      resident.clear();
    }
    SCOPED_TRACE("step " + std::to_string(step) + " after " + what);
    ASSERT_EQ(t.free_count(), ref.free_count());
    ASSERT_EQ(t.local_count(), ref.count(PageLocation::kLocal));
    ASSERT_EQ(t.global_count(), ref.count(PageLocation::kGlobal));
    ASSERT_EQ(UidOf(t.OldestLocal()), ref.Oldest(PageLocation::kLocal, false));
    ASSERT_EQ(UidOf(t.OldestGlobal()),
              ref.Oldest(PageLocation::kGlobal, false));
    for (const double boost : {1.0, 1.5}) {
      for (const bool clean : {false, true}) {
        ASSERT_EQ(UidOf(t.PickVictim(now, boost, clean)),
                  ref.PickVictim(now, boost, clean));
      }
      ASSERT_EQ(UidOf(t.OldestMatching(
                    now, boost, [](const Frame& f) { return f.duplicated(); })),
                ref.OldestDuplicated(now, boost));
    }
    if (!resident.empty()) {
      const Uid uid = resident[pick()];
      ASSERT_NE(t.Lookup(uid), nullptr);
      ASSERT_EQ(t.Lookup(uid)->uid(), uid);
    }
    ASSERT_EQ(t.Lookup(U(next_uid)), nullptr);
  }
}

// Small tables stress ties and empty lists; the larger one grows skip-list
// towers several levels high.
INSTANTIATE_TEST_SUITE_P(
    Streams, FrameTableDifferentialTest,
    ::testing::Combine(::testing::Values(16u, 64u, 2048u),
                       ::testing::Values(1u, 7u, 9001u)));

}  // namespace
}  // namespace gms
