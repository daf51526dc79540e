// Calendar queue: a two-level timer wheel for discrete-event scheduling.
//
// The vt::Domain advance loop and the vt::TaskRunner event pump both need a
// priority queue of (virtual deadline, payload) pairs where the access
// pattern is "insert mostly-near-future deadlines, repeatedly pop everything
// due at the next instant". A comparison-based structure (std::multimap,
// binary heap) pays O(log n) per operation and, worse, one cache-missing
// pointer chase per level; a calendar queue (Brown 1988) exploits the
// monotone clock to make both operations amortized O(1):
//
//   - a ring of `buckets` vectors, each covering `bucket_width` ns, spans a
//     "horizon" of buckets*width ns starting at `base_` (which only moves
//     forward, tracking the pop frontier);
//   - deadlines inside the horizon drop into their bucket unsorted;
//   - deadlines beyond it wait in a sorted overflow map and migrate into
//     the ring when the frontier reaches within one horizon of them
//     (the "hierarchical" second level);
//   - popping walks the ring from the frontier to the target instant --
//     amortized one bucket per width of elapsed virtual time.
//
// Determinism contract: pop_due returns entries sorted by (deadline, seq)
// where seq is the global insertion counter -- exactly the order a
// std::multimap yields for equal keys (insertion order), so same-instant
// wakeups are released in the order they slept. The chaos determinism suite
// depends on it; CalendarQueue.MatchesMultimapReferenceOnRandomOps
// (tests/test_vt.cpp) checks it against a multimap reference.
//
// Not thread-safe; callers (the Domain, the TaskRunner) hold their own lock.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace gpuvm {

template <typename T>
class CalendarQueue {
 public:
  struct Entry {
    i64 deadline = 0;  ///< ns
    u64 seq = 0;       ///< global insertion order (tie-break)
    T value;
  };

  /// `bucket_width_ns` trades migration churn against walk length: sleeps
  /// shorter than the horizon (width * buckets) never touch the overflow
  /// map. The defaults cover ~67ms of virtual time at 64us resolution --
  /// wider than every recurring timer in the tree (heartbeats, quanta,
  /// migration watches) so the steady-state hot path stays in the ring.
  explicit CalendarQueue(i64 bucket_width_ns = 65536, size_t buckets = 1024)
      : width_(bucket_width_ns), ring_(round_up_pow2(buckets)) {
    assert(width_ > 0);
    mask_ = ring_.size() - 1;
    horizon_ = width_ * static_cast<i64>(ring_.size());
  }

  /// Inserts and returns the entry's seq (needed only for erase()).
  u64 insert(i64 deadline, T value) {
    const u64 seq = next_seq_++;
    place(Entry{deadline, seq, std::move(value)});
    ++size_;
    return seq;
  }

  /// Removes the entry with this (deadline, seq); no-op if absent (it was
  /// already popped). Used by cancellable sleeps; never on the hot path.
  bool erase(i64 deadline, u64 seq) {
    const i64 clamped = std::max(deadline, base_);
    if (clamped >= base_ + horizon_) {
      auto [lo, hi] = overflow_.equal_range(deadline);
      for (auto it = lo; it != hi; ++it) {
        if (it->second.seq == seq) {
          overflow_.erase(it);
          --size_;
          return true;
        }
      }
      return false;
    }
    auto& bucket = ring_[bucket_index(clamped)];
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (it->seq == seq && it->deadline == deadline) {
        bucket.erase(it);
        --ring_count_;
        --size_;
        return true;
      }
    }
    return false;
  }

  /// Earliest pending deadline, or nullopt when empty.
  std::optional<i64> earliest() const {
    std::optional<i64> best;
    if (ring_count_ > 0) {
      for (size_t k = 0; k < ring_.size(); ++k) {
        const auto& bucket = ring_[bucket_index(base_ + static_cast<i64>(k) * width_)];
        if (bucket.empty()) continue;
        i64 min = bucket.front().deadline;
        for (const Entry& e : bucket) min = std::min(min, e.deadline);
        best = min;
        break;  // buckets are walked in time order; the first hit wins
      }
    }
    if (!overflow_.empty()) {
      const i64 o = overflow_.begin()->first;
      if (!best || o < *best) best = o;
    }
    return best;
  }

  /// Moves every entry with deadline <= t into `out` (appended), sorted by
  /// (deadline, seq), and advances the frontier to t.
  void pop_due(i64 t, std::vector<Entry>& out) {
    const size_t first_new = out.size();
    // Overflow entries can be due directly when the ring is empty and the
    // next event is further than one horizon away.
    while (!overflow_.empty() && overflow_.begin()->first <= t) {
      out.push_back(std::move(overflow_.begin()->second));
      overflow_.erase(overflow_.begin());
      --size_;
    }
    if (ring_count_ > 0) {
      const i64 last = std::min(t, base_ + horizon_ - 1);
      for (i64 bt = base_; bt <= last; bt += width_) {
        auto& bucket = ring_[bucket_index(bt)];
        if (bucket.empty()) continue;
        auto keep = bucket.begin();
        for (auto it = bucket.begin(); it != bucket.end(); ++it) {
          if (it->deadline <= t) {
            out.push_back(std::move(*it));
            --ring_count_;
            --size_;
          } else {
            if (keep != it) *keep = std::move(*it);
            ++keep;
          }
        }
        bucket.erase(keep, bucket.end());
      }
    }
    // Frontier forward; never backward (t below base_ pops nothing).
    if (t >= base_ + width_) {
      base_ = align_down(t);
      // Second level: far-future entries now within one horizon of the
      // frontier drop into the ring.
      while (!overflow_.empty() && overflow_.begin()->first < base_ + horizon_) {
        Entry e = std::move(overflow_.begin()->second);
        overflow_.erase(overflow_.begin());
        ring_[bucket_index(e.deadline)].push_back(std::move(e));
        ++ring_count_;
      }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first_new), out.end(),
              [](const Entry& a, const Entry& b) {
                return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
              });
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  i64 horizon_ns() const { return horizon_; }

 private:
  static size_t round_up_pow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  i64 align_down(i64 t) const { return (t / width_) * width_; }
  size_t bucket_index(i64 t) const {
    return static_cast<size_t>(t / width_) & mask_;
  }

  void place(Entry e) {
    // Deadlines at/behind the frontier are still popped correctly: clamping
    // parks them in the frontier bucket, and pop_due compares real deadlines.
    const i64 clamped = std::max(e.deadline, base_);
    if (clamped >= base_ + horizon_) {
      const i64 key = e.deadline;
      overflow_.emplace(key, std::move(e));
      return;
    }
    ring_[bucket_index(clamped)].push_back(std::move(e));
    ++ring_count_;
  }

  i64 width_;
  size_t mask_ = 0;
  i64 horizon_ = 0;
  i64 base_ = 0;  ///< inclusive lower bound of ring coverage; monotone
  std::vector<std::vector<Entry>> ring_;
  size_t ring_count_ = 0;                ///< entries in the ring
  std::multimap<i64, Entry> overflow_;   ///< deadlines >= base_ + horizon_
  u64 next_seq_ = 0;
  size_t size_ = 0;
};

}  // namespace gpuvm
