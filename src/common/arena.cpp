#include "common/arena.h"

namespace imr {

RecordArena::~RecordArena() {
  if (budget_ != nullptr) {
    budget_->release(static_cast<int64_t>(total_block_bytes_));
  }
}

void* RecordArena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  while (cur_ < blocks_.size()) {
    Block& b = blocks_[cur_];
    const std::size_t aligned = (off_ + align - 1) & ~(align - 1);
    if (aligned + bytes <= b.size) {
      off_ = aligned + bytes;
      return b.data.get() + aligned;
    }
    // This block is exhausted for a request of this size; move on. Later
    // blocks (pooled from a previous generation) may still fit.
    ++cur_;
    off_ = 0;
  }
  // Map a fresh block. kBlockBytes is enough for the common case (the sort
  // order array for a full default send buffer); larger requests get an
  // exact-size block so one huge sort does not permanently inflate the pool
  // geometry. Blocks from new[] are max_align-aligned, so offset 0 is fine.
  const std::size_t size = bytes > kBlockBytes ? bytes : kBlockBytes;
  Block b;
  b.data = std::make_unique_for_overwrite<char[]>(size);
  b.size = size;
  blocks_.push_back(std::move(b));
  total_block_bytes_ += size;
  if (budget_ != nullptr) budget_->charge(static_cast<int64_t>(size));
  cur_ = blocks_.size() - 1;
  off_ = bytes;
  return blocks_[cur_].data.get();
}

void RecordArena::reset() {
  cur_ = 0;
  off_ = 0;
}

}  // namespace imr
