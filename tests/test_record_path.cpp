// Record-path equivalence properties: the overhauled sort / group / join /
// combine primitives must be indistinguishable from the implementations they
// replaced. Each test pits the new code against a VERBATIM copy of the old
// one over generated corpora that stress the tricky inputs: duplicate keys,
// empty keys, keys absent from the static data, and keys sharing a >8-byte
// prefix (so the prefix fast path ties and must fall back correctly).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "imapreduce/static_store.h"
#include "mapreduce/engine.h"
#include "mapreduce/shuffle_util.h"
#include "tests/test_util.h"

namespace imr {
namespace {

// --- Verbatim pre-overhaul implementations (the oracles) --------------------

void sort_records_reference(KVVec& records, bool sort_values) {
  if (sort_values) {
    std::sort(records.begin(), records.end());
  } else {
    std::stable_sort(records.begin(), records.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
  }
}

// The (prefix, index) comparison sort sort_records shipped before the radix
// kernel. Its comparator is a strict total order on records plus arrival
// index, so it pins one exact permutation — the one the radix kernel must
// reproduce, down to which of two bitwise-equal records comes first.
struct PrefixEntry {
  uint64_t prefix;
  uint32_t index;
};

uint64_t prefix_reference(BytesView key) {
  uint64_t p = 0;
  const std::size_t n = key.size() < 8 ? key.size() : 8;
  for (std::size_t i = 0; i < n; ++i) {
    p |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
         << (56 - 8 * i);
  }
  return p;
}

void sort_records_prefix_reference(KVVec& records, bool sort_values) {
  const std::size_t n = records.size();
  if (n < 64 || n > UINT32_MAX) {
    sort_records_reference(records, sort_values);
    return;
  }

  std::vector<PrefixEntry> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = PrefixEntry{prefix_reference(records[i].key),
                           static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [&records, sort_values](const PrefixEntry& a,
                                    const PrefixEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const KV& x = records[a.index];
              const KV& y = records[b.index];
              int c = x.key.compare(y.key);
              if (c != 0) return c < 0;
              if (sort_values) {
                c = x.value.compare(y.value);
                if (c != 0) return c < 0;
              }
              return a.index < b.index;
            });
  KVVec sorted;
  sorted.reserve(n);
  for (const PrefixEntry& e : order) {
    sorted.push_back(std::move(records[e.index]));
  }
  records = std::move(sorted);
}

void for_each_group_reference(
    const KVVec& sorted,
    const std::function<void(const Bytes& key,
                             const std::vector<Bytes>& values)>& fn) {
  std::size_t i = 0;
  std::vector<Bytes> values;
  while (i < sorted.size()) {
    std::size_t j = i;
    values.clear();
    while (j < sorted.size() && sorted[j].key == sorted[i].key) {
      values.push_back(sorted[j].value);
      ++j;
    }
    fn(sorted[i].key, values);
    i = j;
  }
}

const Bytes* lower_bound_join(const KVVec& static_sorted, const Bytes& key) {
  auto it = std::lower_bound(
      static_sorted.begin(), static_sorted.end(), key,
      [](const KV& kv, const Bytes& k) { return kv.key < k; });
  if (it == static_sorted.end() || it->key != key) return nullptr;
  return &it->value;
}

// --- Corpus generation ------------------------------------------------------

// A deliberately nasty key mix: dup-heavy numeric keys, empty keys, short
// (<8 byte) keys, and long keys whose first 12 bytes are shared so the
// 8-byte prefix cannot distinguish them.
Bytes nasty_key(Rng& rng, std::size_t n) {
  const uint64_t r = rng.next_u64();
  switch (r % 5) {
    case 0:
      return u64_key(r % (n / 4 + 1));  // duplicate-heavy
    case 1:
      return Bytes();  // empty key
    case 2:
      return u64_key(r).substr(0, 1 + r % 7);  // shorter than the prefix
    case 3:
      return Bytes("shared-prefix") + u64_key(r % (n / 8 + 1));
    default:
      return u64_key(r);
  }
}

KVVec nasty_corpus(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes key = nasty_key(rng, n);
    out.emplace_back(std::move(key), f64_value(static_cast<double>(i)));
  }
  return out;
}

void expect_identical(const KVVec& a, const KVVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "record " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "record " << i;
  }
}

// --- Sort -------------------------------------------------------------------

TEST(RecordPathSort, MatchesReferenceAcrossCorpora) {
  // Sizes straddle the prefix-sort threshold (64) on purpose.
  for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 500u, 4096u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      for (bool sort_values : {false, true}) {
        KVVec expected = nasty_corpus(seed, n);
        KVVec actual = expected;
        sort_records_reference(expected, sort_values);
        sort_records(actual, sort_values);
        expect_identical(expected, actual);
      }
    }
  }
}

TEST(RecordPathSort, KeyOnlySortOfSortedInputIsIdentity) {
  // The one2all fast path skips the re-sort when the buffer is already
  // key-sorted; that is only sound if sorting sorted input is a no-op.
  KVVec records = nasty_corpus(7, 2000);
  sort_records(records, /*sort_values=*/false);
  KVVec again = records;
  sort_records(again, /*sort_values=*/false);
  expect_identical(records, again);
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const KV& a, const KV& b) { return a.key < b.key; }));
}

TEST(RecordPathSort, PrefixCollisionsFallBackToFullCompare) {
  // All keys share a 16-byte prefix: every prefix comparison ties.
  Rng rng(11);
  KVVec records;
  for (int i = 0; i < 1000; ++i) {
    records.emplace_back(Bytes("0123456789abcdef") + u64_key(rng.next_u64() % 50),
                         f64_value(static_cast<double>(i)));
  }
  KVVec expected = records;
  sort_records_reference(expected, true);
  sort_records(records, true);
  expect_identical(expected, records);
}

// --- Radix kernel vs the prefix sort: exact permutation ---------------------

// Arrival positions of the sorted records, read off heap buffer identity:
// moving a std::string that outgrew its small buffer keeps its data pointer,
// so a record whose value (or else key) is heap-allocated can be traced back
// to where it arrived. Records with two small strings read as -1 — their
// bytes are still compared by expect_identical.
template <typename Sort>
std::vector<long> sorted_origins(KVVec& records, Sort sort) {
  std::map<const char*, long> origin;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KV& kv = records[i];
    if (kv.value.capacity() > Bytes().capacity()) {
      origin[kv.value.data()] = static_cast<long>(i);
    } else if (kv.key.capacity() > Bytes().capacity()) {
      origin[kv.key.data()] = static_cast<long>(i);
    }
  }
  sort(records);
  std::vector<long> out;
  out.reserve(records.size());
  for (const KV& kv : records) {
    auto it = origin.find(kv.value.data());
    if (it == origin.end()) it = origin.find(kv.key.data());
    out.push_back(it == origin.end() ? -1 : it->second);
  }
  return out;
}

// Sorts copies of `input` with the prefix-sort oracle and with both
// sort_records overloads (the arena one on a reused arena), in both modes,
// and requires the same bytes and the same arrival permutation. Returns how
// many records were traceable by heap identity.
std::size_t expect_radix_matches_prefix(const KVVec& input, RecordArena& arena,
                                        const std::string& what) {
  std::size_t traced = 0;
  for (bool sort_values : {false, true}) {
    SCOPED_TRACE(what + (sort_values ? " sort_values" : " key-only"));
    KVVec expected = input;
    const std::vector<long> want = sorted_origins(expected, [&](KVVec& r) {
      sort_records_prefix_reference(r, sort_values);
    });
    KVVec plain = input;
    const std::vector<long> got_plain = sorted_origins(
        plain, [&](KVVec& r) { sort_records(r, sort_values); });
    KVVec pooled = input;
    const std::vector<long> got_arena = sorted_origins(
        pooled, [&](KVVec& r) { sort_records(r, sort_values, arena); });
    expect_identical(expected, plain);
    expect_identical(expected, pooled);
    EXPECT_EQ(want, got_plain);
    EXPECT_EQ(want, got_arena);
    traced = static_cast<std::size_t>(
        std::count_if(want.begin(), want.end(), [](long o) { return o >= 0; }));
  }
  return traced;
}

// Random byte string of 0..max_len bytes over a tiny alphabet that includes
// 0x00 and 0xff, so pads collide with real zero bytes and prefixes tie.
Bytes small_alphabet_bytes(Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] = {'\0', '\x01', 'a', '\xff'};
  Bytes b(rng.uniform(max_len + 1), '\0');
  for (char& c : b) c = kAlphabet[rng.uniform(4)];
  return b;
}

TEST(RecordPathRadix, MatchesPrefixSortAcrossSizes) {
  // Sizes straddle the 64-record direct-sort threshold; with four byte
  // values per digit, the first radix pass of n = 88/89 leaves buckets
  // around the 24-entry small-bucket cut-off.
  RecordArena arena;
  for (std::size_t n : {0u, 1u, 23u, 24u, 25u, 63u, 64u, 65u, 88u, 89u,
                        300u, 2000u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed * 1000 + n);
      KVVec input;
      for (std::size_t i = 0; i < n; ++i) {
        input.emplace_back(small_alphabet_bytes(rng, 16),
                           small_alphabet_bytes(rng, 16));
      }
      expect_radix_matches_prefix(input, arena,
                                  "n=" + std::to_string(n) +
                                      " seed=" + std::to_string(seed));
    }
  }
}

TEST(RecordPathRadix, SmallBucketCutoffBoundaries) {
  // 50 records with unique leading bytes plus one bucket of exactly
  // 23/24/25 records that share their first 7 bytes: the shared bucket is
  // either insertion-sorted whole or radix-split once more.
  RecordArena arena;
  for (std::size_t bucket : {23u, 24u, 25u}) {
    Rng rng(bucket);
    KVVec input;
    for (int i = 0; i < 50; ++i) {
      Bytes key = u64_key(rng.next_u64());
      key[0] = static_cast<char>(0x10 + i);
      input.emplace_back(std::move(key), f64_value(rng.uniform_real(0, 1)));
    }
    for (std::size_t i = 0; i < bucket; ++i) {
      Bytes key("\x80\x00\x00\x00\x00\x00\x00", 7);
      key.push_back(static_cast<char>(rng.uniform(5)));
      input.emplace_back(std::move(key), small_alphabet_bytes(rng, 9));
    }
    expect_radix_matches_prefix(input, arena,
                                "bucket=" + std::to_string(bucket));
  }
}

TEST(RecordPathRadix, PadCollisionsOrderByLength) {
  // "a" < "a\0" < "a\0\0": identical zero-padded prefixes, so only the
  // length digit separates them — as keys and as values.
  const Bytes variants[] = {Bytes("a"), Bytes("a\0", 2), Bytes("a\0\0", 3),
                            Bytes("a\0\0\0\0\0\0\0", 8),
                            Bytes("a\0\0\0\0\0\0\0\0", 9), Bytes(),
                            Bytes("\0", 1)};
  Rng rng(5);
  KVVec input;
  for (int i = 0; i < 500; ++i) {
    input.emplace_back(variants[rng.uniform(std::size(variants))],
                       variants[rng.uniform(std::size(variants))]);
  }
  RecordArena arena;
  expect_radix_matches_prefix(input, arena, "pad collisions");

  KVVec sorted = input;
  sort_records(sorted, /*sort_values=*/true);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(RecordPathRadix, LongKeysSharingFirstEightBytes) {
  // Every key is "prefix8!" + a tail: all key digits tie and the kernel
  // must fall back to full byte compares, in both the long-key and the
  // long-value position. Some tails are empty (8-byte keys), so long and
  // exactly-8 keys mix inside one prefix.
  Rng rng(6);
  KVVec input;
  for (int i = 0; i < 3000; ++i) {
    Bytes key = Bytes("prefix8!") + small_alphabet_bytes(rng, 8);
    Bytes value = Bytes("valprfx!") + small_alphabet_bytes(rng, 8);
    input.emplace_back(std::move(key), std::move(value));
  }
  RecordArena arena;
  expect_radix_matches_prefix(input, arena, "long keys");
}

TEST(RecordPathRadix, HotKeyExhaustsKeyDigits) {
  // 12k records of one u32 key among a scatter of others: the hot bucket
  // survives every key digit and is finished by the comparator, which in
  // key-only mode must keep arrival order and otherwise order values.
  Rng rng(7);
  KVVec input;
  for (int i = 0; i < 15000; ++i) {
    const bool hot = i % 5 != 0;
    input.emplace_back(u32_key(hot ? 42 : static_cast<uint32_t>(rng.uniform(1000))),
                       f64_value(rng.uniform_real(-1, 1)));
  }
  RecordArena arena;
  expect_radix_matches_prefix(input, arena, "hot key");

  // Shuffle-shaped input: u32 keys, ~8 records per key, random f64 values.
  KVVec shuffle;
  for (int i = 0; i < 16384; ++i) {
    shuffle.emplace_back(u32_key(static_cast<uint32_t>(rng.uniform(2048))),
                         f64_value(rng.uniform_real(0, 1)));
  }
  expect_radix_matches_prefix(shuffle, arena, "shuffle shape");
}

TEST(RecordPathRadix, BitwiseEqualRecordsKeepArrivalOrder) {
  // Few distinct (key, value) pairs, each repeated many times, with
  // heap-sized strings so every record's arrival slot stays traceable: the
  // index tiebreak must place equal records exactly as the oracle does.
  const Bytes keys[] = {Bytes(20, 'k'), Bytes(20, 'k') + "x", Bytes(17, 'j')};
  const Bytes values[] = {Bytes(16, 'v'), Bytes(18, 'v'), Bytes(16, 'u')};
  Rng rng(8);
  KVVec input;
  for (int i = 0; i < 2000; ++i) {
    input.emplace_back(keys[rng.uniform(3)], values[rng.uniform(3)]);
  }
  RecordArena arena;
  EXPECT_EQ(expect_radix_matches_prefix(input, arena,
                                        "bitwise-equal heap records"),
            input.size());

  // Short bitwise-equal records under a key-only sort: stability is visible
  // through the values, which differ.
  KVVec small;
  for (int i = 0; i < 1000; ++i) {
    small.emplace_back(u32_key(static_cast<uint32_t>(rng.uniform(4))),
                       u32_key(static_cast<uint32_t>(i)));
  }
  expect_radix_matches_prefix(small, arena, "key-only stability");
}

// --- Sorted index vs the in-place sort --------------------------------------

// The record order spelled out: arrival positions stably sorted by key (and
// value). Stability is the arrival tiebreak.
std::vector<uint32_t> order_reference(const KVVec& records, bool sort_values) {
  std::vector<uint32_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&records, sort_values](uint32_t a, uint32_t b) {
                     const KV& x = records[a];
                     const KV& y = records[b];
                     if (x.key != y.key) return x.key < y.key;
                     return sort_values && x.value < y.value;
                   });
  return order;
}

// sort_index must return exactly the permutation sort_records applies, in
// both modes: the reference order, the same bytes at every position, and
// for every record traceable by heap identity the same arrival slot.
void expect_index_matches_sort(const KVVec& input, RecordArena& arena,
                               const std::string& what) {
  for (bool sort_values : {false, true}) {
    SCOPED_TRACE(what + (sort_values ? " sort_values" : " key-only"));
    KVVec sorted = input;
    const std::vector<long> origins = sorted_origins(
        sorted, [&](KVVec& r) { sort_records(r, sort_values, arena); });
    const std::span<uint32_t> order = sort_index(input, sort_values, arena);
    ASSERT_EQ(order.size(), input.size());
    EXPECT_TRUE(std::ranges::equal(order, order_reference(input, sort_values)));
    std::size_t byte_mismatches = 0;
    std::size_t origin_mismatches = 0;
    for (std::size_t j = 0; j < order.size(); ++j) {
      const KV& kv = input[order[j]];
      if (kv.key != sorted[j].key || kv.value != sorted[j].value) {
        ++byte_mismatches;
      }
      if (origins[j] >= 0 && static_cast<long>(order[j]) != origins[j]) {
        ++origin_mismatches;
      }
    }
    EXPECT_EQ(byte_mismatches, 0u);
    EXPECT_EQ(origin_mismatches, 0u);
  }
}

// A value that outgrows the small-string buffer, so sorted_origins can trace
// every record: small-alphabet bytes padded past 15 bytes.
Bytes traceable_value(Rng& rng) {
  return small_alphabet_bytes(rng, 4) + Bytes(16, 'v');
}

TEST(RecordPathIndex, MatchesSortRecordsAcrossSizes) {
  // Both sides of the 64-record direct-sort threshold; short keys and
  // values over a tiny alphabet tie on prefixes and pad bytes.
  RecordArena arena;
  for (std::size_t n : {0u, 1u, 2u, 23u, 63u, 64u, 65u, 89u, 300u, 2000u}) {
    for (uint64_t seed : {1u, 2u}) {
      Rng rng(seed * 7919 + n);
      KVVec input;
      for (std::size_t i = 0; i < n; ++i) {
        input.emplace_back(small_alphabet_bytes(rng, 10),
                           i % 2 == 0 ? traceable_value(rng)
                                      : small_alphabet_bytes(rng, 6));
      }
      expect_index_matches_sort(input, arena,
                                "n=" + std::to_string(n) +
                                    " seed=" + std::to_string(seed));
    }
  }
}

TEST(RecordPathIndex, MatchesSortRecordsOver64k) {
  // Reduce-shaped: u32 keys, ~8 records per key, every value traceable.
  Rng rng(41);
  KVVec input;
  for (int i = 0; i < 70000; ++i) {
    input.emplace_back(u32_key(static_cast<uint32_t>(rng.uniform(8750))),
                       traceable_value(rng));
  }
  RecordArena arena;
  expect_index_matches_sort(input, arena, "n=70000");
}

TEST(RecordPathIndex, LongKeysWithTiedPrefixes) {
  // Keys over 8 bytes whose prefixes all tie, mixed with exactly-8-byte
  // ones: the order comes from full compares the index must reproduce.
  Rng rng(42);
  KVVec input;
  for (int i = 0; i < 3000; ++i) {
    input.emplace_back(Bytes("prefix8!") + small_alphabet_bytes(rng, 6),
                       i % 3 == 0 ? Bytes("valprfx!") +
                                        small_alphabet_bytes(rng, 4)
                                  : traceable_value(rng));
  }
  RecordArena arena;
  expect_index_matches_sort(input, arena, "long keys");
}

TEST(RecordPathIndex, HotKeyBucket) {
  // One key holds 4/5 of the records and exhausts every key digit; values
  // repeat, so exact (key, value) ties fall to the arrival order.
  Rng rng(43);
  KVVec input;
  for (int i = 0; i < 15000; ++i) {
    const bool hot = i % 5 != 0;
    input.emplace_back(
        u32_key(hot ? 42 : static_cast<uint32_t>(rng.uniform(1000))),
        Bytes(16 + rng.uniform(3), 'h'));
  }
  RecordArena arena;
  expect_index_matches_sort(input, arena, "hot key");
}

// Records each reduce call's key and values in call order.
class RecordingReducer : public Reducer {
 public:
  void reduce(const Bytes& key, const std::vector<Bytes>& values,
              Emitter& /*out*/) override {
    calls.emplace_back(key, values);
  }
  std::vector<std::pair<Bytes, std::vector<Bytes>>> calls;
};

TEST(RecordPathIndex, CursorFeedsReducerLikeGroupCursor) {
  RecordArena arena;
  for (std::size_t n : {0u, 1u, 63u, 64u, 3000u, 70000u}) {
    for (bool sort_values : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (sort_values ? " sort_values" : " key-only"));
      const KVVec input = nasty_corpus(44 + n, n);
      KVVec out;
      VectorEmitter emitter(out);

      KVVec sorted = input;
      sort_records(sorted, sort_values);
      RecordingReducer expected;
      GroupCursor groups(sorted);
      GroupValues vals;
      while (groups.next()) {
        expected.reduce(groups.key(), vals.take(sorted, groups), emitter);
      }

      KVVec arrived = input;
      RecordingReducer actual;
      IndexGroupCursor cursor(arrived, sort_index(arrived, sort_values, arena));
      while (cursor.next()) {
        actual.reduce(cursor.key(), cursor.take_values(), emitter);
      }
      EXPECT_EQ(expected.calls, actual.calls);
      // The records stayed where they arrived: keys intact, values taken.
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(arrived[i].key, input[i].key) << "record " << i;
      }
    }
  }
}

TEST(RecordPathCollect, ConcatenatesBatchesInArrivalOrder) {
  const KVVec input = nasty_corpus(45, 500);
  BatchCollector collected;
  EXPECT_TRUE(collected.empty());
  EXPECT_TRUE(collected.take().empty());
  // Uneven batches with empty ones between them, as shuffle senders ship.
  std::size_t at = 0;
  for (std::size_t len : {0u, 1u, 7u, 0u, 200u, 92u, 200u}) {
    collected.add(KVVec(input.begin() + static_cast<long>(at),
                        input.begin() + static_cast<long>(at + len)));
    at += len;
  }
  ASSERT_EQ(at, input.size());
  EXPECT_FALSE(collected.empty());
  expect_identical(input, collected.take());
  EXPECT_TRUE(collected.empty());

  // One batch is handed back as it came, without a copy.
  KVVec single = input;
  const KV* data = single.data();
  collected.add(std::move(single));
  const KVVec taken = collected.take();
  EXPECT_EQ(taken.data(), data);
  EXPECT_TRUE(collected.take().empty());
}

// --- Grouping ---------------------------------------------------------------

using GroupList = std::vector<std::pair<Bytes, std::vector<Bytes>>>;

GroupList reference_groups(const KVVec& sorted) {
  GroupList out;
  for_each_group_reference(
      sorted, [&](const Bytes& key, const std::vector<Bytes>& values) {
        out.emplace_back(key, values);
      });
  return out;
}

TEST(RecordPathGroup, CursorViewMatchesReference) {
  for (std::size_t n : {0u, 1u, 100u, 3000u}) {
    KVVec sorted = nasty_corpus(21, n);
    sort_records(sorted, true);
    GroupList expected = reference_groups(sorted);

    GroupList actual;
    GroupCursor groups(sorted);
    GroupValues vals;
    while (groups.next()) {
      actual.emplace_back(groups.key(), vals.view(groups));
      EXPECT_EQ(groups.size(), actual.back().second.size());
    }
    EXPECT_EQ(expected, actual);
  }
}

TEST(RecordPathGroup, CursorTakeMatchesReference) {
  KVVec sorted = nasty_corpus(22, 3000);
  sort_records(sorted, true);
  GroupList expected = reference_groups(sorted);

  GroupList actual;
  GroupCursor groups(sorted);
  GroupValues vals;
  while (groups.next()) {
    // take() moves values out of `sorted`; keys stay intact for the cursor.
    actual.emplace_back(groups.key(), vals.take(sorted, groups));
  }
  EXPECT_EQ(expected, actual);
}

TEST(RecordPathGroup, CompatEntryStillCopies) {
  KVVec sorted = nasty_corpus(23, 500);
  sort_records(sorted, true);
  KVVec before = sorted;
  GroupList expected = reference_groups(sorted);
  GroupList actual;
  for_each_group(sorted,
                 [&](const Bytes& key, const std::vector<Bytes>& values) {
                   actual.emplace_back(key, values);
                 });
  EXPECT_EQ(expected, actual);
  expect_identical(before, sorted);  // buffer untouched
}

// --- Static join index ------------------------------------------------------

TEST(RecordPathJoin, IndexMatchesLowerBound) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    KVVec static_data = nasty_corpus(seed, 2000);
    sort_records(static_data, /*sort_values=*/false);
    StaticStore store;
    store.build(static_data);  // copy: the vector doubles as the oracle

    Rng rng(seed + 100);
    // Present keys, absent keys, and the empty key all probe identically.
    std::vector<Bytes> probes;
    for (const KV& kv : static_data) probes.push_back(kv.key);
    for (int i = 0; i < 2000; ++i) probes.push_back(nasty_key(rng, 2000));
    probes.push_back(Bytes());

    for (const Bytes& key : probes) {
      const Bytes* expected = lower_bound_join(static_data, key);
      const Bytes* actual = store.find(key);
      ASSERT_EQ(expected == nullptr, actual == nullptr) << "key probe";
      if (expected) {
        EXPECT_EQ(*expected, *actual);
      }
    }
  }
}

TEST(RecordPathJoin, EmptyStoreFindsNothing) {
  StaticStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.find("anything"), nullptr);
  store.build(KVVec{});
  EXPECT_EQ(store.find(Bytes()), nullptr);
}

TEST(RecordPathJoin, DuplicateKeysResolveToFirstSortedRecord) {
  KVVec static_data;
  static_data.emplace_back(u64_key(5), f64_value(1.0));
  static_data.emplace_back(u64_key(5), f64_value(2.0));
  static_data.emplace_back(u64_key(9), f64_value(3.0));
  StaticStore store;
  store.build(static_data);
  ASSERT_NE(store.find(u64_key(5)), nullptr);
  EXPECT_EQ(*store.find(u64_key(5)), f64_value(1.0));
  EXPECT_EQ(*store.find(u64_key(9)), f64_value(3.0));
  EXPECT_EQ(store.find(u64_key(6)), nullptr);
}

// --- Combining --------------------------------------------------------------

// Order-sensitive combiner: records the exact value sequence it was fed, so
// any within-key reordering shows up in the output bytes.
CombineFn concat_combiner() {
  return [](const Bytes& key, const std::vector<Bytes>& values, KVVec& out) {
    Bytes all;
    for (const Bytes& v : values) {
      all += v;
      all += '|';
    }
    out.emplace_back(key, std::move(all));
  };
}

TEST(RecordPathCombine, SortedPathMatchesOldSortPlusGroupPipeline) {
  for (uint64_t seed : {41u, 42u}) {
    KVVec input = nasty_corpus(seed, 3000);
    CombineFn fn = concat_combiner();

    KVVec expected_buf = input;
    sort_records_reference(expected_buf, true);
    KVVec expected;
    for_each_group_reference(
        expected_buf, [&](const Bytes& key, const std::vector<Bytes>& values) {
          fn(key, values, expected);
        });

    KVVec actual = input;
    std::size_t saved = combine_records(actual, /*deterministic=*/true, fn);
    expect_identical(expected, actual);
    EXPECT_EQ(saved, input.size() - actual.size());
  }
}

TEST(RecordPathCombine, HashedPreservesWithinKeyArrivalOrder) {
  // The hashed path must feed each key the same value sequence a STABLE
  // key-only sort would have: that is what makes it byte-equivalent once the
  // reduce side re-sorts. Compare per-key outputs against that reference.
  for (uint64_t seed : {51u, 52u}) {
    KVVec input = nasty_corpus(seed, 3000);
    CombineFn fn = concat_combiner();

    KVVec ref_buf = input;
    sort_records_reference(ref_buf, /*sort_values=*/false);  // stable
    std::map<Bytes, Bytes> expected;
    for_each_group_reference(
        ref_buf, [&](const Bytes& key, const std::vector<Bytes>& values) {
          KVVec one;
          fn(key, values, one);
          for (KV& kv : one) expected[key] = std::move(kv.value);
        });

    KVVec actual_buf = input;
    std::size_t saved = combine_hashed(actual_buf, fn);
    EXPECT_EQ(saved, input.size() - actual_buf.size());
    ASSERT_EQ(expected.size(), actual_buf.size());
    for (const KV& kv : actual_buf) {
      ASSERT_TRUE(expected.count(kv.key));
      EXPECT_EQ(expected[kv.key], kv.value);
    }

    // First-appearance key order: the first occurrence index in the input
    // must be increasing across the hashed output.
    std::map<Bytes, std::size_t> first_at;
    for (std::size_t i = 0; i < input.size(); ++i) {
      first_at.emplace(input[i].key, i);
    }
    std::size_t prev = 0;
    bool first = true;
    for (const KV& kv : actual_buf) {
      std::size_t at = first_at[kv.key];
      if (!first) {
        EXPECT_GT(at, prev);
      }
      prev = at;
      first = false;
    }
  }
}

TEST(RecordPathCombine, EmptyBufferIsNoop) {
  KVVec empty;
  EXPECT_EQ(combine_records(empty, true, concat_combiner()), 0u);
  EXPECT_EQ(combine_records(empty, false, concat_combiner()), 0u);
  EXPECT_TRUE(empty.empty());
}

// --- Engine-level equivalence -----------------------------------------------

// A classic job whose final output must be byte-identical whether the
// map-side combiner runs the sorted path (deterministic_reduce on) or the
// hash path (off), and whether a combiner runs at all.
TEST(RecordPathEngine, CombinerPathChoiceDoesNotChangeJobOutput) {
  auto cluster = testutil::free_cluster();
  Rng rng(61);
  KVVec in;
  for (uint32_t i = 0; i < 400; ++i) {
    in.emplace_back(u32_key(i), u64_key(rng.next_u64() % 32));
  }
  cluster->dfs().write_file("in", in, 0, nullptr);

  MapperFactory fanout = make_mapper(
      [](const Bytes&, const Bytes& value, Emitter& out) {
        // Dup-heavy: 32 distinct intermediate keys.
        out.emit(value, u64_key(1));
      });
  ReducerFactory summer = make_reducer(
      [](const Bytes& key, const std::vector<Bytes>& values, Emitter& out) {
        uint64_t n = 0;
        for (const Bytes& v : values) {
          std::size_t pos = 0;
          n += decode_u64(v, pos);
        }
        out.emit(key, u64_key(n));
      });

  auto run = [&](bool combiner, bool deterministic, const std::string& out) {
    JobConf job;
    job.set_input("in", fanout);
    job.output_path = out;
    job.reducer = summer;
    if (combiner) job.combiner = summer;
    job.deterministic_reduce = deterministic;
    MapReduceEngine engine(*cluster);
    engine.run_job(job);
    std::map<Bytes, Bytes> result;
    for (const auto& part : resolve_input_paths(cluster->dfs(), out)) {
      for (const KV& kv : cluster->dfs().read_all(part, -1, nullptr)) {
        result[kv.key] = kv.value;
      }
    }
    return result;
  };

  auto plain = run(false, true, "out_plain");
  EXPECT_EQ(plain, run(true, true, "out_sorted_combine"));
  EXPECT_EQ(plain, run(true, false, "out_hashed_combine"));
  EXPECT_EQ(plain, run(false, false, "out_plain_nondet"));
}

}  // namespace
}  // namespace imr
