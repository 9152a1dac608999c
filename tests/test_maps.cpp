/**
 * @file
 * Map substrate tests: array/hash/LRU/LPM semantics, the stable-entry
 * contract behind tagged map-value pointers, the host (userspace) API of
 * paper section 6, and MapSet snapshots/equality.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ebpf/maps.hpp"

namespace ehdl::ebpf {
namespace {

std::vector<uint8_t>
key32(uint32_t v)
{
    std::vector<uint8_t> k(4);
    storeLe<uint32_t>(k.data(), v);
    return k;
}

std::vector<uint8_t>
val64(uint64_t v)
{
    std::vector<uint8_t> out(8);
    storeLe<uint64_t>(out.data(), v);
    return out;
}

TEST(ArrayMap, EntriesPreExistZeroed)
{
    ArrayMap map({"a", MapKind::Array, 4, 8, 4});
    for (uint32_t i = 0; i < 4; ++i) {
        const int64_t e = map.lookup(key32(i).data());
        ASSERT_EQ(e, i);
        EXPECT_EQ(loadLe<uint64_t>(map.valueAt(e)), 0u);
    }
    EXPECT_EQ(map.lookup(key32(4).data()), -1);
    EXPECT_EQ(map.count(), 4u);
}

TEST(ArrayMap, UpdateAndDeleteSemantics)
{
    ArrayMap map({"a", MapKind::Array, 4, 8, 4});
    EXPECT_EQ(map.update(key32(2).data(), val64(99).data(), kBpfAny), 0);
    EXPECT_EQ(loadLe<uint64_t>(map.valueAt(2)), 99u);
    // Arrays reject NOEXIST (entries always exist) and deletion.
    EXPECT_LT(map.update(key32(2).data(), val64(1).data(), kBpfNoExist), 0);
    EXPECT_LT(map.erase(key32(2).data()), 0);
    EXPECT_LT(map.update(key32(9).data(), val64(1).data(), kBpfAny), 0);
}

TEST(HashMap, InsertLookupDelete)
{
    HashMap map({"h", MapKind::Hash, 4, 8, 8});
    EXPECT_EQ(map.lookup(key32(7).data()), -1);
    ASSERT_EQ(map.update(key32(7).data(), val64(70).data(), kBpfAny), 0);
    const int64_t e = map.lookup(key32(7).data());
    ASSERT_GE(e, 0);
    EXPECT_EQ(loadLe<uint64_t>(map.valueAt(e)), 70u);
    EXPECT_EQ(map.count(), 1u);
    EXPECT_EQ(map.erase(key32(7).data()), 0);
    EXPECT_EQ(map.lookup(key32(7).data()), -1);
    EXPECT_LT(map.erase(key32(7).data()), 0);
}

TEST(HashMap, UpdateFlags)
{
    HashMap map({"h", MapKind::Hash, 4, 8, 8});
    EXPECT_LT(map.update(key32(1).data(), val64(1).data(), kBpfExist), 0);
    EXPECT_EQ(map.update(key32(1).data(), val64(1).data(), kBpfNoExist), 0);
    EXPECT_LT(map.update(key32(1).data(), val64(2).data(), kBpfNoExist), 0);
    EXPECT_EQ(map.update(key32(1).data(), val64(2).data(), kBpfExist), 0);
}

TEST(HashMap, CapacityAndReuse)
{
    HashMap map({"h", MapKind::Hash, 4, 8, 2});
    EXPECT_EQ(map.update(key32(1).data(), val64(1).data(), kBpfAny), 0);
    EXPECT_EQ(map.update(key32(2).data(), val64(2).data(), kBpfAny), 0);
    EXPECT_LT(map.update(key32(3).data(), val64(3).data(), kBpfAny), 0);
    EXPECT_EQ(map.erase(key32(1).data()), 0);
    EXPECT_EQ(map.update(key32(3).data(), val64(3).data(), kBpfAny), 0);
    EXPECT_EQ(map.count(), 2u);
}

TEST(HashMap, EntryIndexStableAcrossOtherOps)
{
    HashMap map({"h", MapKind::Hash, 4, 8, 16});
    ASSERT_EQ(map.update(key32(5).data(), val64(50).data(), kBpfAny), 0);
    const int64_t e = map.lookup(key32(5).data());
    for (uint32_t i = 20; i < 30; ++i)
        map.update(key32(i).data(), val64(i).data(), kBpfAny);
    map.erase(key32(22).data());
    EXPECT_EQ(map.lookup(key32(5).data()), e);
    EXPECT_EQ(loadLe<uint64_t>(map.valueAt(e)), 50u);
}

TEST(LruHashMap, EvictsLeastRecentlyUsed)
{
    LruHashMap map({"l", MapKind::LruHash, 4, 8, 3});
    for (uint32_t i = 1; i <= 3; ++i)
        ASSERT_EQ(map.update(key32(i).data(), val64(i).data(), kBpfAny), 0);
    // Touch 1 and 2; key 3 becomes the LRU victim.
    map.lookup(key32(1).data());
    map.lookup(key32(2).data());
    ASSERT_EQ(map.update(key32(4).data(), val64(4).data(), kBpfAny), 0);
    EXPECT_EQ(map.lookup(key32(3).data()), -1);
    EXPECT_GE(map.lookup(key32(1).data()), 0);
    EXPECT_GE(map.lookup(key32(4).data()), 0);
}

/** A hash-backed map that exposes its probe-table occupancy. */
template <class M>
struct ProbedMap : M
{
    using M::M;
    /** Live plus tombstone buckets. */
    size_t occupied() const { return this->tableOccupied_; }
    size_t buckets() const { return this->table_.size(); }
};

/**
 * Insert/delete churn over many distinct keys, never filling the map (so
 * LRU maps never evict), checked op by op against a std::map model.
 * Deleted keys leave tombstones; occupancy must climb past the 3/4
 * threshold and the rebuild must bring it back down, several times,
 * without losing or resurrecting an entry.
 */
template <class M>
void
churnAgainstModel(MapKind kind)
{
    ProbedMap<M> map(MapDef{"h", kind, 4, 8, 64});
    std::map<uint32_t, uint64_t> model;
    Rng rng(11);
    size_t rebuilds = 0;
    for (uint64_t op = 0; op < 20000; ++op) {
        const uint32_t key = static_cast<uint32_t>(rng.below(1u << 20));
        const bool full = model.size() == 64;
        if (!full && (model.empty() || rng.below(2) == 0)) {
            const size_t before = map.occupied();
            ASSERT_EQ(map.update(key32(key).data(), val64(op).data(),
                                 kBpfAny),
                      0);
            model[key] = op;
            // Only a rebuild lowers occupancy, and only past 3/4.
            if (map.occupied() < before) {
                EXPECT_GT((before + 1) * 4, map.buckets() * 3);
                ++rebuilds;
            }
        } else {
            auto victim = model.begin();
            std::advance(victim, rng.below(model.size()));
            ASSERT_EQ(map.erase(key32(victim->first).data()), 0);
            model.erase(victim);
        }
        // A fresh key probes across every tombstone on its chain.
        const bool present = model.count(key) != 0;
        const int64_t e = map.lookup(key32(key).data());
        ASSERT_EQ(e >= 0, present) << "op " << op << ", key " << key;
        if (present) {
            ASSERT_EQ(loadLe<uint64_t>(map.valueAt(e)), model[key]);
        }
    }
    EXPECT_GT(rebuilds, 2u);
    EXPECT_EQ(map.count(), model.size());
    std::map<std::vector<uint8_t>, std::vector<uint8_t>> want;
    for (const auto &[k, v] : model)
        want.emplace(key32(k), val64(v));
    EXPECT_EQ(map.snapshot(), want);
}

TEST(HashMap, TombstoneChurnRebuildsTable)
{
    churnAgainstModel<HashMap>(MapKind::Hash);
}

TEST(LruHashMap, TombstoneChurnRebuildsTable)
{
    churnAgainstModel<LruHashMap>(MapKind::LruHash);
}

std::vector<uint8_t>
lpmKey(uint32_t prefix_len, uint32_t addr_be)
{
    std::vector<uint8_t> key(8);
    storeLe<uint32_t>(key.data(), prefix_len);
    storeBe<uint32_t>(key.data() + 4, addr_be);
    return key;
}

TEST(LpmTrieMap, LongestPrefixWins)
{
    LpmTrieMap map({"r", MapKind::LpmTrie, 8, 8, 8});
    ASSERT_EQ(map.update(lpmKey(0, 0).data(), val64(1).data(), kBpfAny), 0);
    ASSERT_EQ(map.update(lpmKey(16, 0xc0a80000).data(), val64(2).data(),
                         kBpfAny), 0);
    ASSERT_EQ(map.update(lpmKey(24, 0xc0a85a00).data(), val64(3).data(),
                         kBpfAny), 0);

    auto lookup_val = [&map](uint32_t addr) -> uint64_t {
        const int64_t e = map.lookup(lpmKey(32, addr).data());
        EXPECT_GE(e, 0);
        return loadLe<uint64_t>(map.valueAt(e));
    };
    EXPECT_EQ(lookup_val(0x08080808), 1u);  // default route
    EXPECT_EQ(lookup_val(0xc0a80101), 2u);  // /16
    EXPECT_EQ(lookup_val(0xc0a85a07), 3u);  // /24
}

TEST(LpmTrieMap, ExactReplaceAndDelete)
{
    LpmTrieMap map({"r", MapKind::LpmTrie, 8, 8, 4});
    ASSERT_EQ(map.update(lpmKey(16, 0x0a000000).data(), val64(1).data(),
                         kBpfAny), 0);
    ASSERT_EQ(map.update(lpmKey(16, 0x0a000000).data(), val64(9).data(),
                         kBpfAny), 0);
    EXPECT_EQ(map.count(), 1u);
    const int64_t e = map.lookup(lpmKey(32, 0x0a000001).data());
    ASSERT_GE(e, 0);
    EXPECT_EQ(loadLe<uint64_t>(map.valueAt(e)), 9u);
    EXPECT_EQ(map.erase(lpmKey(16, 0x0a000000).data()), 0);
    EXPECT_EQ(map.lookup(lpmKey(32, 0x0a000001).data()), -1);
}

TEST(LpmTrieMap, RejectsOversizedPrefix)
{
    LpmTrieMap map({"r", MapKind::LpmTrie, 8, 8, 4});
    EXPECT_LT(map.update(lpmKey(33, 0).data(), val64(1).data(), kBpfAny), 0);
}

TEST(LpmTrieMap, NonByteAlignedPrefix)
{
    LpmTrieMap map({"r", MapKind::LpmTrie, 8, 8, 4});
    // 10.128.0.0/9
    ASSERT_EQ(map.update(lpmKey(9, 0x0a800000).data(), val64(5).data(),
                         kBpfAny), 0);
    EXPECT_GE(map.lookup(lpmKey(32, 0x0aff0001).data()), 0);
    EXPECT_EQ(map.lookup(lpmKey(32, 0x0a7f0001).data()), -1);
}

TEST(HostApi, LookupUpdateDelete)
{
    auto map = makeMap({"h", MapKind::Hash, 4, 8, 8});
    EXPECT_FALSE(map->hostLookup(key32(1)).has_value());
    EXPECT_EQ(map->hostUpdate(key32(1), val64(11)), 0);
    auto got = map->hostLookup(key32(1));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, val64(11));
    EXPECT_EQ(map->hostDelete(key32(1)), 0);
    EXPECT_FALSE(map->hostLookup(key32(1)).has_value());
    // Size validation.
    EXPECT_LT(map->hostUpdate({1, 2}, val64(1)), 0);
    EXPECT_FALSE(map->hostLookup({1}).has_value());
}

TEST(MapSet, EqualityAndDump)
{
    std::vector<MapDef> defs = {{"a", MapKind::Array, 4, 8, 2},
                                {"h", MapKind::Hash, 4, 8, 4}};
    MapSet s1(defs), s2(defs);
    EXPECT_TRUE(MapSet::equal(s1, s2));
    s1.at(1).update(key32(3).data(), val64(3).data(), kBpfAny);
    EXPECT_FALSE(MapSet::equal(s1, s2));
    s2.at(1).update(key32(3).data(), val64(3).data(), kBpfAny);
    EXPECT_TRUE(MapSet::equal(s1, s2));
    EXPECT_NE(s1.dump().find("'h'"), std::string::npos);
    EXPECT_NE(s1.byName("a"), nullptr);
    EXPECT_EQ(s1.byName("zzz"), nullptr);
}

TEST(MapSet, SnapshotOrderIndependent)
{
    std::vector<MapDef> defs = {{"h", MapKind::Hash, 4, 8, 8}};
    MapSet s1(defs), s2(defs);
    for (uint32_t i = 0; i < 5; ++i)
        s1.at(0).update(key32(i).data(), val64(i).data(), kBpfAny);
    for (uint32_t i = 5; i-- > 0;)
        s2.at(0).update(key32(i).data(), val64(i).data(), kBpfAny);
    EXPECT_TRUE(MapSet::equal(s1, s2));
}

/** Randomized hash map vs std::map reference model. */
class HashModelTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HashModelTest, MatchesReferenceModel)
{
    Rng rng(GetParam());
    HashMap map({"h", MapKind::Hash, 4, 8, 32});
    std::map<uint32_t, uint64_t> model;
    for (int step = 0; step < 500; ++step) {
        const uint32_t key = static_cast<uint32_t>(rng.below(48));
        switch (rng.below(3)) {
          case 0: {
            const uint64_t value = rng.next();
            const int rc =
                map.update(key32(key).data(), val64(value).data(), kBpfAny);
            if (model.size() < 32 || model.count(key)) {
                ASSERT_EQ(rc, 0);
                model[key] = value;
            } else {
                ASSERT_LT(rc, 0);
            }
            break;
          }
          case 1: {
            const int64_t e = map.lookup(key32(key).data());
            if (model.count(key)) {
                ASSERT_GE(e, 0);
                EXPECT_EQ(loadLe<uint64_t>(map.valueAt(e)), model[key]);
            } else {
                EXPECT_EQ(e, -1);
            }
            break;
          }
          case 2:
            if (model.count(key)) {
                EXPECT_EQ(map.erase(key32(key).data()), 0);
                model.erase(key);
            } else {
                EXPECT_LT(map.erase(key32(key).data()), 0);
            }
            break;
        }
        ASSERT_EQ(map.count(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashModelTest,
                         ::testing::Range<uint64_t>(0, 16));

TEST(MapFactory, RejectsBadConfigs)
{
    EXPECT_THROW(makeMap({"a", MapKind::Array, 8, 8, 2}), FatalError);
    EXPECT_THROW(makeMap({"l", MapKind::LpmTrie, 4, 8, 2}), FatalError);
}

TEST(MapSetCopy, DeepCopyPreservesContentsAndGeneration)
{
    const std::vector<MapDef> defs = {
        {"h", MapKind::Hash, 4, 8, 8},
        {"a", MapKind::Array, 4, 8, 4},
        {"r", MapKind::LpmTrie, 8, 8, 8},
    };
    MapSet src(defs);
    ASSERT_EQ(src.byName("h")->hostUpdate(key32(1), val64(10)), 0);
    ASSERT_EQ(src.byName("a")->hostUpdate(key32(2), val64(20)), 0);
    ASSERT_EQ(src.byName("r")->hostUpdate(lpmKey(16, 0xc0a80000),
                                          val64(30)),
              0);
    src.byName("h")->bumpGeneration();
    src.byName("h")->bumpGeneration();

    MapSet dst(defs);
    dst.copyContentsFrom(src);
    EXPECT_TRUE(MapSet::equal(src, dst));
    // The epoch counter travels with the contents; the source keeps its
    // own storage (mutating the copy must not leak back).
    EXPECT_EQ(dst.byName("h")->generation(),
              src.byName("h")->generation());
    ASSERT_EQ(dst.byName("h")->hostUpdate(key32(5), val64(50)), 0);
    EXPECT_FALSE(src.byName("h")->hostLookup(key32(5)).has_value());
}

TEST(MapSetCopy, LruCopyEvictsSameVictimAsSource)
{
    // The copy must replicate LRU recency, not just the key→value view:
    // after identical subsequent updates, source and copy evict the same
    // victim. This is what lets a sharded replica seeded from the loaded
    // state stay bit-identical to the reference under host churn.
    const std::vector<MapDef> defs = {{"l", MapKind::LruHash, 4, 8, 3}};
    MapSet src(defs);
    Map *sl = src.byName("l");
    for (uint32_t i = 1; i <= 3; ++i)
        ASSERT_EQ(sl->hostUpdate(key32(i), val64(i)), 0);
    // Touch 1 and 2 so key 3 is the LRU victim in the source.
    ASSERT_TRUE(sl->hostLookup(key32(1)).has_value());
    ASSERT_TRUE(sl->hostLookup(key32(2)).has_value());

    MapSet dst(defs);
    dst.copyContentsFrom(src);
    Map *dl = dst.byName("l");
    ASSERT_EQ(sl->hostUpdate(key32(4), val64(4)), 0);
    ASSERT_EQ(dl->hostUpdate(key32(4), val64(4)), 0);
    // Both evicted key 3, neither evicted anything else.
    EXPECT_FALSE(sl->hostLookup(key32(3)).has_value());
    EXPECT_FALSE(dl->hostLookup(key32(3)).has_value());
    for (uint32_t k : {1u, 2u, 4u}) {
        EXPECT_TRUE(sl->hostLookup(key32(k)).has_value()) << k;
        EXPECT_TRUE(dl->hostLookup(key32(k)).has_value()) << k;
    }
    EXPECT_TRUE(MapSet::equal(src, dst));
}

TEST(MapSetCopy, CopiesAreIdenticalUnderIdenticalBatches)
{
    // Shared-mode (one set) and sharded-mode (per-replica copies) must
    // expose identical contents after the same host batch lands on each.
    const std::vector<MapDef> defs = {{"h", MapKind::Hash, 4, 8, 8}};
    MapSet shared(defs);
    ASSERT_EQ(shared.byName("h")->hostUpdate(key32(1), val64(1)), 0);

    std::vector<MapSet> shards(3);
    for (MapSet &shard : shards) {
        shard = MapSet(defs);
        shard.copyContentsFrom(shared);
    }
    const auto batch = [](MapSet &m) {
        ASSERT_EQ(m.byName("h")->hostUpdate(key32(2), val64(2)), 0);
        ASSERT_EQ(m.byName("h")->hostDelete(key32(1)), 0);
        ASSERT_EQ(m.byName("h")->hostUpdate(key32(3), val64(3),
                                            kBpfNoExist),
                  0);
    };
    batch(shared);
    for (MapSet &shard : shards) {
        batch(shard);
        EXPECT_TRUE(MapSet::equal(shared, shard));
    }
}

}  // namespace
}  // namespace ehdl::ebpf
