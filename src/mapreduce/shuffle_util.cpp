#include "mapreduce/shuffle_util.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/hash.h"

namespace imr {

namespace {

// Below this size a direct comparison sort beats building the packed
// entries; the radix kernel starts at this size.
constexpr std::size_t kDirectSortThreshold = 64;

// Radix buckets at or below this size finish with insertion sort under the
// full comparator: a 256-way counting pass costs more than a few dozen
// integer compares.
constexpr std::size_t kSmallBucket = 24;

// Digits of the key order: the 8 big-endian key-prefix bytes, then the
// clamped key length.
constexpr int kKeyDigits = 9;

// Clamped lengths: a key longer than its 8-byte prefix reads as 9, a value
// longer than its 4-byte prefix as 5. Such a string is ordered after every
// shorter string with the same padded prefix, and against another long one
// only by a full compare.
constexpr uint32_t kLongKey = 9;
constexpr uint32_t kLongValue = 5;

// The arrival index shares a word with the two 4-bit lengths.
constexpr std::size_t kMaxRadixRecords = std::size_t{1} << 24;

uint32_t clamped_len(const Bytes& b, uint32_t long_len) {
  return b.size() < long_len ? static_cast<uint32_t>(b.size()) : long_len;
}

// One record's sort handle: 16 bytes, the size of the (prefix, index) pair
// the comparison sort used, so a budgeted task's arena charge is unchanged.
// A byte string of at most w bytes is ordered exactly by (zero-padded
// big-endian w-byte prefix, length), so the comparator below touches the
// records only for keys over 8 bytes and values over 4 whose prefixes tie.
struct RadixEntry {
  uint64_t key_prefix;
  uint32_t value_prefix;  // first 4 value bytes; 0 unless values sort
  uint32_t meta;          // index << 8 | key length << 4 | value length

  uint32_t index() const { return meta >> 8; }
  uint32_t key_len() const { return (meta >> 4) & 0xf; }
  uint32_t value_len() const { return meta & 0xf; }
};
static_assert(sizeof(RadixEntry) == 16);

// The full record order: key, then value when `sort_values`, then arrival
// index. A strict total order on entries, so the sorted permutation is
// unique whatever algorithm produces it.
struct EntryLess {
  const KV* records;
  bool sort_values;

  bool operator()(const RadixEntry& a, const RadixEntry& b) const {
    if (a.key_prefix != b.key_prefix) return a.key_prefix < b.key_prefix;
    if (a.key_len() != b.key_len()) return a.key_len() < b.key_len();
    if (a.key_len() == kLongKey) {
      const int c = records[a.index()].key.compare(records[b.index()].key);
      if (c != 0) return c < 0;
    }
    if (sort_values) {
      if (a.value_prefix != b.value_prefix) {
        return a.value_prefix < b.value_prefix;
      }
      if (a.value_len() != b.value_len()) return a.value_len() < b.value_len();
      if (a.value_len() == kLongValue) {
        const int c =
            records[a.index()].value.compare(records[b.index()].value);
        if (c != 0) return c < 0;
      }
    }
    return a.index() < b.index();
  }
};

unsigned key_digit(const RadixEntry& e, int digit) {
  return digit < 8 ? static_cast<unsigned>(e.key_prefix >> (56 - 8 * digit)) &
                         0xffu
                   : e.key_len();
}

void insertion_sort(RadixEntry* a, std::size_t n, const EntryLess& less) {
  for (std::size_t i = 1; i < n; ++i) {
    const RadixEntry e = a[i];
    std::size_t j = i;
    for (; j > 0 && less(e, a[j - 1]); --j) a[j] = a[j - 1];
    a[j] = e;
  }
}

// In-place MSD radix (American flag) sort of a[0, n) on the key digits from
// `digit` on. `varies` has bit d set when digit d differs somewhere in the
// whole input: constant digits are skipped without a counting pass, and a
// digit on which this bucket does not vary is skipped after one.
void radix_sort(RadixEntry* a, std::size_t n, int digit, unsigned varies,
                const EntryLess& less) {
  while (true) {
    if (n <= kSmallBucket) {
      insertion_sort(a, n, less);
      return;
    }
    while (digit < kKeyDigits && !(varies & (1u << digit))) ++digit;
    if (digit == kKeyDigits) {
      // Key digits used up: every entry shares its prefix and clamped
      // length. Long keys, values and the index tiebreak decide.
      std::sort(a, a + n, less);
      return;
    }
    uint32_t count[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++count[key_digit(a[i], digit)];
    if (count[key_digit(a[0], digit)] == n) {
      ++digit;
      continue;
    }
    std::size_t next[256];
    std::size_t end[256];
    std::size_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += count[b];
      end[b] = sum;
    }
    // Permute by cycle leading: carry an entry to its bucket's next free
    // slot, pick up the entry found there, repeat until one belongs here.
    for (unsigned b = 0; b < 256; ++b) {
      while (next[b] < end[b]) {
        RadixEntry e = a[next[b]];
        unsigned d = key_digit(e, digit);
        while (d != b) {
          std::swap(e, a[next[d]++]);
          d = key_digit(e, digit);
        }
        a[next[b]++] = e;
      }
    }
    std::size_t start = 0;
    for (unsigned b = 0; b < 256; ++b) {
      if (count[b] > 1) radix_sort(a + start, count[b], digit + 1, varies, less);
      start += count[b];
    }
    return;
  }
}

// The same order as EntryLess, on arrival positions: sorts the inputs the
// radix kernel does not take.
void sort_index_direct(const KVVec& records, bool sort_values, uint32_t* order,
                       std::size_t n) {
  std::iota(order, order + n, uint32_t{0});
  std::sort(order, order + n, [&records, sort_values](uint32_t a, uint32_t b) {
    int c = records[a].key.compare(records[b].key);
    if (c != 0) return c < 0;
    if (sort_values) {
      c = records[a].value.compare(records[b].value);
      if (c != 0) return c < 0;
    }
    return a < b;
  });
}

// The in-place applier: sort_records' second step.
void apply_order(KVVec& records, std::span<uint32_t> order) {
  // Cycle by cycle: position i must receive records[order[i]]. Each cycle
  // rotates through one saved tmp; a placed slot is marked by pointing its
  // index at itself, so every record moves exactly once and no second
  // record buffer is needed. Consumes the index.
  const std::size_t n = order.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t src = order[i];
    if (src == i) continue;
    KV tmp = std::move(records[i]);
    std::size_t dst = i;
    while (src != i) {
      records[dst] = std::move(records[src]);
      order[dst] = static_cast<uint32_t>(dst);
      dst = src;
      src = order[dst];
    }
    records[dst] = std::move(tmp);
    order[dst] = static_cast<uint32_t>(dst);
  }
}

}  // namespace

std::span<uint32_t> sort_index(const KVVec& records, bool sort_values,
                               RecordArena& arena) {
  const std::size_t n = records.size();
  arena.reset();
  if (n < kDirectSortThreshold || n > kMaxRadixRecords) {
    uint32_t* order = arena.alloc_array<uint32_t>(n);
    sort_index_direct(records, sort_values, order, n);
    return {order, n};
  }

  RadixEntry* entries = arena.alloc_array<RadixEntry>(n);
  uint64_t prefix_diff = 0;
  bool len_differs = false;
  for (std::size_t i = 0; i < n; ++i) {
    const KV& kv = records[i];
    RadixEntry& e = entries[i];
    e.key_prefix = key_prefix_u64(kv.key);
    uint32_t meta = static_cast<uint32_t>(i) << 8 |
                    clamped_len(kv.key, kLongKey) << 4;
    if (sort_values) {
      e.value_prefix = static_cast<uint32_t>(key_prefix_u64(kv.value) >> 32);
      meta |= clamped_len(kv.value, kLongValue);
    } else {
      e.value_prefix = 0;
    }
    e.meta = meta;
    prefix_diff |= e.key_prefix ^ entries[0].key_prefix;
    len_differs |= e.key_len() != entries[0].key_len();
  }
  unsigned varies = len_differs ? 1u << 8 : 0u;
  for (int d = 0; d < 8; ++d) {
    if ((prefix_diff >> (56 - 8 * d)) & 0xff) varies |= 1u << d;
  }
  radix_sort(entries, n, 0, varies, EntryLess{records.data(), sort_values});

  // Compact the sorted entries into the front of their own block: index j
  // lands in bytes [4j, 4j + 4), inside entry j / 4 <= j, which has already
  // been read. The scratch stays the 16 bytes per record the sort needed.
  uint32_t* order = reinterpret_cast<uint32_t*>(entries);
  for (std::size_t j = 0; j < n; ++j) {
    const uint32_t index = entries[j].index();
    order[j] = index;
  }
  return {order, n};
}

void sort_records(KVVec& records, bool sort_values) {
  RecordArena scratch;  // unbudgeted, freed on return
  sort_records(records, sort_values, scratch);
}

void sort_records(KVVec& records, bool sort_values, RecordArena& arena) {
  apply_order(records, sort_index(records, sort_values, arena));
}

const std::vector<Bytes>& IndexGroupCursor::take_values() {
  vals_.clear();
  for (std::size_t j = begin_; j < end_; ++j) {
    vals_.push_back(std::move(data_[order_[j]].value));
  }
  return vals_;
}

KVVec BatchCollector::take() {
  if (batches_.empty()) return {};
  // The first batch becomes the buffer: senders reserve a full batch, so
  // a small iteration's input usually fits without moving a record.
  KVVec out = std::move(batches_.front());
  out.reserve(records_);
  for (std::size_t b = 1; b < batches_.size(); ++b) {
    KVVec& batch = batches_[b];
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
    batch = KVVec{};
  }
  batches_.clear();
  records_ = 0;
  return out;
}

// ---------------------------------------------------------------------------
// MergeCursor
// ---------------------------------------------------------------------------

bool MergeCursor::source_less(int a, int b) const {
  // An exhausted leaf loses to any live one (and ties with another
  // exhausted leaf resolve arbitrarily — next() checks alive_ before use).
  if (!alive_[static_cast<std::size_t>(a)]) return false;
  if (!alive_[static_cast<std::size_t>(b)]) return true;
  const KV& x = heads_[static_cast<std::size_t>(a)];
  const KV& y = heads_[static_cast<std::size_t>(b)];
  int c = x.key.compare(y.key);
  if (c != 0) return c < 0;
  if (compare_values_) {
    c = x.value.compare(y.value);
    if (c != 0) return c < 0;
  }
  return a < b;  // arrival-order tiebreak == sort_records' index tiebreak
}

MergeCursor::MergeCursor(std::vector<RecordSource*> sources,
                         bool compare_values)
    : sources_(std::move(sources)), compare_values_(compare_values) {
  const std::size_t k = sources_.size();
  padded_ = static_cast<int>(next_pow2(k == 0 ? 1 : k));
  heads_.resize(static_cast<std::size_t>(padded_));
  alive_.assign(static_cast<std::size_t>(padded_), 0);
  for (std::size_t i = 0; i < k; ++i) {
    alive_[i] = sources_[i]->next(heads_[i]) ? 1 : 0;
  }
  // Build the loser tree bottom-up: winner[node] propagates the smaller
  // head toward the root, each internal node keeping the loser. Leaves are
  // virtual nodes [padded_, 2*padded_) mapping to leaf index node - padded_.
  tree_.assign(static_cast<std::size_t>(padded_), 0);
  std::vector<int> winner(static_cast<std::size_t>(2 * padded_), 0);
  for (int i = 0; i < padded_; ++i) winner[static_cast<std::size_t>(padded_ + i)] = i;
  for (int node = padded_ - 1; node >= 1; --node) {
    int a = winner[static_cast<std::size_t>(2 * node)];
    int b = winner[static_cast<std::size_t>(2 * node + 1)];
    if (source_less(a, b)) {
      winner[static_cast<std::size_t>(node)] = a;
      tree_[static_cast<std::size_t>(node)] = b;
    } else {
      winner[static_cast<std::size_t>(node)] = b;
      tree_[static_cast<std::size_t>(node)] = a;
    }
  }
  tree_[0] = padded_ > 1 ? winner[1] : 0;
}

bool MergeCursor::next(KV& out) {
  const int w = tree_[0];
  if (!alive_[static_cast<std::size_t>(w)]) return false;
  out = std::move(heads_[static_cast<std::size_t>(w)]);
  alive_[static_cast<std::size_t>(w)] =
      sources_[static_cast<std::size_t>(w)]->next(
          heads_[static_cast<std::size_t>(w)])
          ? 1
          : 0;
  // Replay the path from w's leaf to the root: the new head fights each
  // stored loser; the winner bubbles up.
  int cur = w;
  for (int node = (padded_ + w) / 2; node >= 1; node /= 2) {
    int& loser = tree_[static_cast<std::size_t>(node)];
    if (source_less(loser, cur)) std::swap(cur, loser);
  }
  tree_[0] = cur;
  return true;
}

void merge_sorted_runs(const std::vector<RecordSource*>& sources,
                       bool compare_values, KVVec& out) {
  MergeCursor merge(sources, compare_values);
  KV kv;
  while (merge.next(kv)) out.push_back(std::move(kv));
}

void for_each_group(
    const KVVec& sorted,
    const std::function<void(const Bytes& key,
                             const std::vector<Bytes>& values)>& fn) {
  GroupCursor groups(sorted);
  GroupValues vals;
  while (groups.next()) {
    fn(groups.key(), vals.view(groups));
  }
}

std::size_t combine_sorted(KVVec& sorted, const CombineFn& fn) {
  KVVec combined;
  combined.reserve(sorted.size() / 2 + 1);
  GroupCursor groups(sorted);
  GroupValues vals;
  while (groups.next()) {
    fn(groups.key(), vals.take(sorted, groups), combined);
  }
  std::size_t saved = sorted.size() - combined.size();
  sorted = std::move(combined);
  return saved;
}

std::size_t combine_hashed(KVVec& records, const CombineFn& fn) {
  if (records.empty()) return 0;

  struct Group {
    std::size_t first;  // index of the group's first record (the key source)
    std::vector<Bytes> values;
  };
  std::vector<Group> groups;  // first-appearance order
  groups.reserve(records.size() / 2 + 1);

  // Open-addressed index: slot -> group id + 1, 0 = empty. Power-of-two
  // capacity at load factor <= 0.5 keeps probe chains short.
  const std::size_t capacity = next_pow2(2 * records.size());
  const std::size_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, 0);

  for (std::size_t i = 0; i < records.size(); ++i) {
    const Bytes& key = records[i].key;
    std::size_t s = static_cast<std::size_t>(fnv1a(key)) & mask;
    while (true) {
      uint32_t g = slots[s];
      if (g == 0) {
        slots[s] = static_cast<uint32_t>(groups.size()) + 1;
        groups.push_back(Group{i, {}});
        groups.back().values.push_back(std::move(records[i].value));
        break;
      }
      Group& grp = groups[g - 1];
      if (records[grp.first].key == key) {
        grp.values.push_back(std::move(records[i].value));
        break;
      }
      s = (s + 1) & mask;
    }
  }

  KVVec combined;
  combined.reserve(groups.size());
  for (const Group& g : groups) {
    fn(records[g.first].key, g.values, combined);
  }
  std::size_t saved = records.size() - combined.size();
  records = std::move(combined);
  return saved;
}

std::size_t combine_records(KVVec& records, bool deterministic,
                            const CombineFn& fn) {
  if (records.empty()) return 0;
  if (!deterministic) return combine_hashed(records, fn);
  sort_records(records, /*sort_values=*/true);
  return combine_sorted(records, fn);
}

CombineFn combine_fn(Reducer& combiner) {
  return [&combiner](const Bytes& key, const std::vector<Bytes>& values,
                     KVVec& out) {
    VectorEmitter emitter(out);
    combiner.reduce(key, values, emitter);
  };
}

}  // namespace imr
