// IntervalSet: a coalescing set of half-open byte ranges [begin, end).
//
// The incremental swap engine tracks, per page-table entry, which byte
// ranges are dirty in each direction (device newer than swap / swap newer
// than the device) and which ranges of the swap area have ever been
// populated. Ranges are kept sorted, disjoint and maximal: adding a range
// that touches or overlaps existing ones merges them, so the set is always
// the minimal description of the covered bytes.
//
// The representation is a flat sorted vector: entries carry a handful of
// ranges (whole-buffer writes collapse to one), so linear merging beats a
// node-based tree, and iteration order is trivially deterministic -- a
// requirement for the chaos harness's bit-identical replays.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace gpuvm {

struct ByteRange {
  u64 begin = 0;
  u64 end = 0;  ///< exclusive

  u64 size() const { return end - begin; }
  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

/// Largest multiple of `page` at or below `x` (page > 0).
constexpr u64 page_floor(u64 x, u64 page) { return x / page * page; }
/// Smallest multiple of `page` at or above `x` (page > 0).
constexpr u64 page_ceil(u64 x, u64 page) { return (x + page - 1) / page * page; }

class IntervalSet {
 public:
  /// The set holding just [begin, end).
  static IntervalSet of(u64 begin, u64 end) {
    IntervalSet s;
    s.add(begin, end);
    return s;
  }

  /// Adds [begin, end), merging with any overlapping or adjacent range.
  void add(u64 begin, u64 end) {
    if (begin >= end) return;
    // First range that could touch [begin, end): the last one starting at or
    // before `end` is a merge candidate; everything strictly after is not.
    auto first = std::lower_bound(
        ranges_.begin(), ranges_.end(), begin,
        [](const ByteRange& r, u64 b) { return r.end < b; });
    auto last = first;
    while (last != ranges_.end() && last->begin <= end) {
      begin = std::min(begin, last->begin);
      end = std::max(end, last->end);
      ++last;
    }
    first = ranges_.erase(first, last);
    ranges_.insert(first, ByteRange{begin, end});
  }

  /// Removes [begin, end), splitting ranges that straddle the boundary.
  void erase(u64 begin, u64 end) {
    if (begin >= end || ranges_.empty()) return;
    std::vector<ByteRange> out;
    out.reserve(ranges_.size() + 1);
    for (const ByteRange& r : ranges_) {
      if (r.end <= begin || r.begin >= end) {
        out.push_back(r);
        continue;
      }
      if (r.begin < begin) out.push_back({r.begin, begin});
      if (r.end > end) out.push_back({end, r.end});
    }
    ranges_ = std::move(out);
  }

  void clear() { ranges_.clear(); }
  bool empty() const { return ranges_.empty(); }

  /// True iff every byte of [begin, end) is covered.
  bool contains(u64 begin, u64 end) const {
    if (begin >= end) return true;
    for (const ByteRange& r : ranges_) {
      if (r.begin <= begin && end <= r.end) return true;
    }
    return false;
  }

  /// True iff any byte of [begin, end) is covered.
  bool overlaps(u64 begin, u64 end) const {
    for (const ByteRange& r : ranges_) {
      if (r.begin < end && begin < r.end) return true;
    }
    return false;
  }

  /// Sum of covered bytes.
  u64 total_bytes() const {
    u64 n = 0;
    for (const ByteRange& r : ranges_) n += r.size();
    return n;
  }

  const std::vector<ByteRange>& ranges() const { return ranges_; }

  /// Transfer plan: ranges with gaps of at most `max_gap` bytes bridged into
  /// one span (the paper's transfer-consolidation idea -- a short clean gap
  /// is cheaper to ship than a second per-transfer PCIe latency). Callers
  /// must only use this where overwriting the gap bytes with an identical
  /// copy is harmless (both sides in sync), which the one-direction-dirty
  /// discipline of the memory manager guarantees.
  std::vector<ByteRange> coalesced(u64 max_gap) const {
    std::vector<ByteRange> out;
    for (const ByteRange& r : ranges_) {
      if (!out.empty() && r.begin - out.back().end <= max_gap) {
        out.back().end = r.end;
      } else {
        out.push_back(r);
      }
    }
    return out;
  }

  /// Set intersection: the bytes covered by both sets.
  IntervalSet intersected(const IntervalSet& other) const {
    IntervalSet out;
    auto a = ranges_.begin();
    auto b = other.ranges_.begin();
    while (a != ranges_.end() && b != other.ranges_.end()) {
      const u64 begin = std::max(a->begin, b->begin);
      const u64 end = std::min(a->end, b->end);
      if (begin < end) out.add(begin, end);
      // Advance whichever range ends first; the other may still overlap
      // the next one.
      if (a->end < b->end) ++a;
      else ++b;
    }
    return out;
  }

  /// Page-granular rounding: every range expanded outward to `page_bytes`
  /// boundaries and clamped to `limit` (the entry size, so the final
  /// partial page never rounds past the allocation). Adjacent pages that
  /// meet after rounding coalesce into one range. The paged swap engine
  /// moves data at this granularity.
  IntervalSet page_rounded(u64 page_bytes, u64 limit) const {
    IntervalSet out;
    for (const ByteRange& r : ranges_) {
      const u64 begin = page_floor(std::min(r.begin, limit), page_bytes);
      const u64 end = std::min(page_ceil(r.end, page_bytes), limit);
      out.add(begin, end);
    }
    return out;
  }

  /// Indices of every `page_bytes`-sized page (of a `limit`-byte entry)
  /// this set touches, ascending. The TLB model and the per-page last-use
  /// stamps key on these indices.
  std::vector<u64> pages(u64 page_bytes, u64 limit) const {
    std::vector<u64> out;
    for (const ByteRange& r : ranges_) {
      if (r.begin >= limit) continue;
      const u64 first = r.begin / page_bytes;
      const u64 last = (std::min(r.end, limit) - 1) / page_bytes;
      for (u64 p = first; p <= last; ++p) {
        if (out.empty() || out.back() != p) out.push_back(p);
      }
    }
    return out;
  }

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<ByteRange> ranges_;  // sorted, disjoint, non-adjacent
};

}  // namespace gpuvm
