// Sort/group/combine utilities shared by both engines' reduce sides.
//
// The record compute path is the per-iteration hot loop of every figure, so
// the primitives here avoid redundant byte-string work:
//   - sort_records packs each record into a 16-byte entry (big-endian key
//     and value prefixes, clamped lengths, arrival index), radix-sorts the
//     entries in place on the key digits, finishes small or exhausted
//     buckets with an integer comparator (a full byte compare only for
//     strings longer than their prefix), and applies the permutation in
//     place by moving each record once (DESIGN.md §6).
//   - GroupCursor iterates key runs of a sorted buffer as spans — no value
//     copies, one key compare per record.
//   - GroupValues adapts a run to the std::vector<Bytes> shape user
//     Reducer::reduce signatures expect, either borrowing (moving values out
//     of a consumed buffer — zero deep copies for heap-allocated values) or
//     copying (for buffers the caller still needs).
//   - combine_sorted / combine_hashed are the single combiner implementation
//     both engines ship through: run-length grouping over sorted input when
//     deterministic_reduce demands a stable order, hash aggregation with no
//     sort at all when it does not.
#pragma once

#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/record_source.h"
#include "mapreduce/api.h"

namespace imr {

// Sorts records by key (and by value within equal keys when
// `sort_values` — deterministic reduce input independent of arrival order).
// Key-only sorting is stable; full sorting breaks exact (key, value) ties by
// original position, so the result is deterministic in both modes.
// Allocates its 16-byte-per-record scratch from a local unbudgeted arena.
void sort_records(KVVec& records, bool sort_values);

// The sort kernel: the entry array comes from `arena` (reset first — the
// scratch is dead after the call), so once the arena's blocks are pooled the
// sort allocates nothing from the global heap. Same result as the plain
// overload.
void sort_records(KVVec& records, bool sort_values, RecordArena& arena);

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
