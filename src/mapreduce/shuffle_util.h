// Sort/group/combine utilities shared by both engines' reduce sides.
//
// The record compute path is the per-iteration hot loop of every figure, so
// the primitives here avoid redundant byte-string work and record moves
// (DESIGN.md §6):
//   - sort_index packs each record into a 16-byte entry (big-endian key and
//     value prefixes, clamped lengths, arrival index), radix-sorts the
//     entries in place on the key digits, finishes small or exhausted
//     buckets with an integer comparator (a full byte compare only for
//     strings longer than their prefix), and compacts the sorted entries
//     into an arrival-position index in their own arena block. The records
//     do not move.
//   - Two appliers consume that index. sort_records permutes the records in
//     place (each moves once) for callers that need a sorted KVVec: spill
//     runs, state dumps, the static store, combine_sorted. IndexGroupCursor
//     walks the key runs through the index and moves each value straight
//     from its arrival slot into the reducer's vector — the reduce loops of
//     both engines group this way and never permute.
//   - BatchCollector keeps a reduce's shuffled batches as they arrive and
//     concatenates them once, sized exactly, instead of regrowing a buffer.
//   - GroupCursor iterates key runs of an already-sorted buffer as spans —
//     no value copies, one key compare per record.
//   - GroupValues adapts a run to the std::vector<Bytes> shape user
//     Reducer::reduce signatures expect, either borrowing (moving values out
//     of a consumed buffer — zero deep copies for heap-allocated values) or
//     copying (for buffers the caller still needs).
//   - combine_sorted / combine_hashed are the single combiner implementation
//     both engines ship through: run-length grouping over sorted input when
//     deterministic_reduce demands a stable order, hash aggregation with no
//     sort at all when it does not.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/record_source.h"
#include "mapreduce/api.h"

namespace imr {

// The record order both appliers below share: by key, then by value within
// equal keys when `sort_values` (deterministic reduce input independent of
// arrival order), then by arrival position. A strict total order, so the
// result is unique: key-only sorting is stable, and exact (key, value) ties
// keep their arrival order.
//
// Returns that order as arrival positions — entry j is the index in
// `records` of the j-th record — without moving any record. The index lives
// in `arena` (reset first) and stays valid until the arena's next reset;
// the radix kernel's 16 bytes of scratch per record are the whole charge.
std::span<uint32_t> sort_index(const KVVec& records, bool sort_values,
                               RecordArena& arena);

// Sorts `records` in place into sort_index's order: the index, then one
// move per record. Allocates its scratch from a local unbudgeted arena.
void sort_records(KVVec& records, bool sort_values);

// The same with the scratch from `arena` (reset first — the scratch is dead
// after the call), so once the arena's blocks are pooled the sort allocates
// nothing from the global heap.
void sort_records(KVVec& records, bool sort_values, RecordArena& arena);

// Iterates the key runs of `records` in the order sort_index returned for
// them, leaving the records where they arrived. take_values() MOVES the
// current run's values out of `records` (consumed by the pass) into a
// recycled vector, in the sorted order, so each value moves once — no
// permutation, no deep copies. The same (key, values) sequence as
// GroupCursor + GroupValues::take over the sort_records output.
//
//   IndexGroupCursor groups(records, sort_index(records, sv, arena));
//   while (groups.next()) reduce(groups.key(), groups.take_values());
class IndexGroupCursor {
 public:
  IndexGroupCursor(KVVec& records, std::span<const uint32_t> order)
      : data_(records.data()), order_(order) {}

  // Advances to the next key run; false when the index is exhausted.
  bool next() {
    begin_ = end_;
    const std::size_t n = order_.size();
    if (begin_ >= n) return false;
    const Bytes& k = data_[order_[begin_]].key;
    ++end_;
    while (end_ < n && data_[order_[end_]].key == k) ++end_;
    return true;
  }

  const Bytes& key() const { return data_[order_[begin_]].key; }
  const std::vector<Bytes>& take_values();

 private:
  KV* data_;
  std::span<const uint32_t> order_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::vector<Bytes> vals_;
};

// A reduce task's shuffled input as it arrives: the batches are kept as
// they came and concatenated once, with an exact reserve, when one buffer
// is needed (to sort and group, or to spill) — instead of regrowing a buffer
// batch by batch. Each batch is freed as it is drained, so the peak is the
// concatenated buffer plus one batch, and no capacity outlives a take().
class BatchCollector {
 public:
  void add(KVVec batch) {
    if (batch.empty()) return;
    records_ += batch.size();
    batches_.push_back(std::move(batch));
  }

  bool empty() const { return batches_.empty(); }

  // The collected records in arrival order; leaves the collector empty.
  KVVec take();

 private:
  std::vector<KVVec> batches_;
  std::size_t records_ = 0;
};

// ---------------------------------------------------------------------------
// Streaming k-way merge over sorted runs (out-of-core reduce, DESIGN.md §10)
// ---------------------------------------------------------------------------

// The RecordSource cursor interface (and VecSource, the in-memory tail
// source) live in common/record_source.h; dfs spill-run readers implement
// the same interface (SpillSet::sources).
//
// Loser-tree k-way merge. Given sources that are each sorted the way
// sort_records(run, compare_values) sorts — and whose records were split
// from one logical buffer in arrival order (source 0's records preceded
// source 1's, ...) — the merged stream is byte-identical to sorting the
// concatenated buffer: the comparator breaks exact ties by source index,
// which is precisely the original-position tiebreak sort_records applies.
// O(log k) compares per record, no buffering beyond one head per source.
class MergeCursor {
 public:
  MergeCursor(std::vector<RecordSource*> sources, bool compare_values);

  // Moves the globally-smallest head into `out`; false when all sources are
  // exhausted.
  bool next(KV& out);

 private:
  bool source_less(int a, int b) const;

  std::vector<RecordSource*> sources_;
  bool compare_values_;
  int padded_;              // next_pow2(sources): full-tree leaf count
  std::vector<KV> heads_;   // current head record per leaf
  std::vector<char> alive_; // leaf has a head (padding leaves never do)
  std::vector<int> tree_;   // tree_[0] = winner; tree_[1..] = loser nodes
};

// Convenience: drains a MergeCursor over `sources` into `out` (appending).
void merge_sorted_runs(const std::vector<RecordSource*>& sources,
                       bool compare_values, KVVec& out);

// Iterates a key-sorted buffer as runs of equal keys. Zero-copy: key() and
// run() reference the underlying records.
//
//   GroupCursor groups(sorted);
//   while (groups.next()) { use groups.key(), groups.run(); }
class GroupCursor {
 public:
  explicit GroupCursor(const KVVec& sorted)
      : data_(sorted.data()), n_(sorted.size()) {}

  // Advances to the next group; false when the buffer is exhausted.
  bool next() {
    begin_ = end_;
    if (begin_ >= n_) return false;
    const Bytes& k = data_[begin_].key;
    ++end_;
    while (end_ < n_ && data_[end_].key == k) ++end_;
    return true;
  }

  const Bytes& key() const { return data_[begin_].key; }
  std::span<const KV> run() const { return {data_ + begin_, end_ - begin_}; }
  std::size_t begin_index() const { return begin_; }
  std::size_t size() const { return end_ - begin_; }

 private:
  const KV* data_;
  std::size_t n_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

// Reusable adapter materializing one group's values in the
// std::vector<Bytes> shape Reducer::reduce takes. One instance serves a
// whole iteration loop; the scratch vector is recycled across groups.
class GroupValues {
 public:
  // Copies the current run's values (for buffers the caller keeps).
  const std::vector<Bytes>& view(const GroupCursor& g) {
    vals_.clear();
    for (const KV& kv : g.run()) vals_.push_back(kv.value);
    return vals_;
  }

  // MOVES the current run's values out of `records` (which must be the
  // buffer `g` iterates). Heap-allocated values transfer ownership instead
  // of being deep-copied; the donated slots are left empty. Use only when
  // the buffer is consumed by the grouping pass — both engines' reduce and
  // combiner loops discard it afterwards.
  const std::vector<Bytes>& take(KVVec& records, const GroupCursor& g) {
    vals_.clear();
    const std::size_t b = g.begin_index();
    for (std::size_t i = 0; i < g.size(); ++i) {
      vals_.push_back(std::move(records[b + i].value));
    }
    return vals_;
  }

 private:
  std::vector<Bytes> vals_;
};

// Compatibility entry: iterates sorted records as (key, values) groups,
// copying values. Records MUST already be sorted by key. Engine hot loops
// use GroupCursor/GroupValues directly; this remains for call sites that
// cannot donate their buffer.
void for_each_group(
    const KVVec& sorted,
    const std::function<void(const Bytes& key,
                             const std::vector<Bytes>& values)>& fn);

// One combiner invocation: reduce `values` for `key`, appending the
// combined records to `out`. Both engines bind their combiner (classic
// Reducer or IterReducer) through this shape, so the grouping/aggregation
// logic below exists exactly once.
using CombineFn = std::function<void(
    const Bytes& key, const std::vector<Bytes>& values, KVVec& out)>;

// Combines a buffer already sorted with sort_records(buf, true) in place,
// replacing it with the combined records (in key order). Returns the number
// of input records combined away. This is the deterministic_reduce path:
// byte-identical to sorting plus run-length grouping.
std::size_t combine_sorted(KVVec& sorted, const CombineFn& fn);

// Combines an UNSORTED buffer in place by hash aggregation — no sort, one
// fnv1a hash and (amortized) one probe per record. Groups are emitted in
// key-first-appearance order with within-key value order preserved, which is
// exactly the value order a stable key-only sort would have fed the
// combiner; only the cross-key output order differs, and the reduce side
// re-sorts anyway. Legal only when deterministic_reduce is off (the sorted
// path stays behind that flag).
std::size_t combine_hashed(KVVec& records, const CombineFn& fn);

// Dispatcher: sorts + run-combines when `deterministic`, hash-combines
// otherwise. Engines that charge sort CPU separately call the two phases
// directly.
std::size_t combine_records(KVVec& records, bool deterministic,
                            const CombineFn& fn);

// Binds a classic Reducer used as a combiner to the shared CombineFn shape.
CombineFn combine_fn(Reducer& combiner);

// An Emitter that appends into a vector.
class VectorEmitter : public Emitter {
 public:
  explicit VectorEmitter(KVVec& out) : out_(out) {}
  void emit(Bytes key, Bytes value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }

 private:
  KVVec& out_;
};

}  // namespace imr
