#include "core/paging_policy.hpp"

#include <map>

#include "common/tuning.hpp"

namespace gpuvm::core {

namespace {

// ---- Built-in eviction policies --------------------------------------------

/// A page's own last-use stamp; an unstamped page is as warm as its entry.
i64 page_stamp(const EvictionCandidate& c, u64 page) {
  const i64 stamp = page < c.page_use_ns.size() ? c.page_use_ns[page] : 0;
  return stamp != 0 ? stamp : c.entry_last_use_ns;
}

/// Page recency: a page is as warm as its own stamp. Pages with no stamp
/// (never touched through a hint, or an entry-engine entry's one page)
/// fall back to the entry LRU stamp, which makes "page-lru" over unhinted
/// workloads rank exactly like an LRU walk over entries.
class PageLruEviction : public EvictionPolicy {
 public:
  const char* name() const override { return "page-lru"; }
  double page_score(const EvictionCandidate& c, u64 page, i64 now_ns) const override {
    (void)now_ns;
    return static_cast<double>(page_stamp(c, page));
  }
};

/// Working-set size: evict the entry with the fewest pages touched inside
/// the window -- a mostly-cold buffer with one hot page loses to a buffer
/// that streams through all of its pages, even if the hot page is more
/// recent. Page-LRU breaks ties.
class WorkingSetEviction : public EvictionPolicy {
 public:
  /// Virtual-time working-set window; see common/tuning.hpp for how the
  /// default was chosen.
  static constexpr i64 kWindowNs = tuning::kWorkingSetWindowNs;

  const char* name() const override { return "working-set"; }
  double page_score(const EvictionCandidate& c, u64 page, i64 now_ns) const override {
    return rank(in_window(c, now_ns), page_stamp(c, page));
  }

 private:
  static i64 in_window(const EvictionCandidate& c, i64 now_ns) {
    i64 n = 0;
    for (const i64 stamp : c.page_use_ns) {
      if (stamp != 0 && now_ns - stamp <= kWindowNs) ++n;
    }
    return n;
  }
  // Window population dominates; the stamp (ns, far below 1e15 in any
  // simulated horizon) only breaks ties within a population class.
  static double rank(i64 population, i64 stamp) {
    return static_cast<double>(population) * 1e15 + static_cast<double>(stamp);
  }
};

// ---- Built-in prefetch policies --------------------------------------------

class NoPrefetch : public PrefetchPolicy {
 public:
  const char* name() const override { return "none"; }
  void predict(const PrefetchQuery& q, u64 lookahead, std::vector<u64>* out) override {
    (void)q;
    (void)lookahead;
    (void)out;
  }
};

/// Sequential readahead: predict the pages immediately after the highest
/// page this launch touched.
class SequentialPrefetch : public PrefetchPolicy {
 public:
  const char* name() const override { return "sequential"; }
  void predict(const PrefetchQuery& q, u64 lookahead, std::vector<u64>* out) override {
    if (q.accessed_pages.empty()) return;
    const u64 last = q.accessed_pages.back();
    for (u64 k = 1; k <= lookahead; ++k) {
      if (last + k >= q.page_count) break;
      out->push_back(last + k);
    }
  }
};

/// Stride detection: a uniform page stride inside the launch's access set
/// wins; a launch touching a single page falls back to the stride between
/// consecutive launches against the same entry. No stride, no prediction
/// (never degrades to blind readahead).
class StridePrefetch : public PrefetchPolicy {
 public:
  const char* name() const override { return "stride"; }
  void predict(const PrefetchQuery& q, u64 lookahead, std::vector<u64>* out) override {
    if (q.accessed_pages.empty()) return;
    i64 stride = 0;
    if (q.accessed_pages.size() >= 2) {
      stride = static_cast<i64>(q.accessed_pages[1]) - static_cast<i64>(q.accessed_pages[0]);
      for (size_t i = 2; i < q.accessed_pages.size(); ++i) {
        const i64 d =
            static_cast<i64>(q.accessed_pages[i]) - static_cast<i64>(q.accessed_pages[i - 1]);
        if (d != stride) {
          stride = 0;
          break;
        }
      }
    } else if (const auto it = last_page_.find(q.virtual_ptr); it != last_page_.end()) {
      stride = static_cast<i64>(q.accessed_pages[0]) - it->second;
    }
    last_page_[q.virtual_ptr] = static_cast<i64>(q.accessed_pages.back());
    if (stride == 0) return;
    i64 next = static_cast<i64>(q.accessed_pages.back());
    for (u64 k = 0; k < lookahead; ++k) {
      next += stride;
      if (next < 0 || next >= static_cast<i64>(q.page_count)) break;
      out->push_back(static_cast<u64>(next));
    }
  }

 private:
  std::map<u64, i64> last_page_;  ///< entry vptr -> last accessed page
};

// ---- Built-in tables --------------------------------------------------------

template <typename Base, typename Policy>
std::unique_ptr<Base> create() {
  return std::make_unique<Policy>();
}

/// A fixed name -> factory table (std::map keeps the names sorted).
template <typename Base>
using Table = std::map<std::string, std::unique_ptr<Base> (*)()>;

const Table<EvictionPolicy>& eviction_table() {
  static const Table<EvictionPolicy> t{
      {"page-lru", create<EvictionPolicy, PageLruEviction>},
      {"working-set", create<EvictionPolicy, WorkingSetEviction>},
  };
  return t;
}

const Table<PrefetchPolicy>& prefetch_table() {
  static const Table<PrefetchPolicy> t{
      {"none", create<PrefetchPolicy, NoPrefetch>},
      {"sequential", create<PrefetchPolicy, SequentialPrefetch>},
      {"stride", create<PrefetchPolicy, StridePrefetch>},
  };
  return t;
}

template <typename Base>
StatusOr<std::unique_ptr<Base>> make_from(const Table<Base>& table, const std::string& name) {
  const auto it = table.find(name);
  if (it == table.end()) return Status::ErrorInvalidValue;
  return it->second();
}

template <typename Base>
std::vector<std::string> names_of(const Table<Base>& table) {
  std::vector<std::string> names;
  names.reserve(table.size());
  for (const auto& [name, factory] : table) names.push_back(name);
  return names;
}

}  // namespace

StatusOr<std::unique_ptr<EvictionPolicy>> make_eviction_policy(const std::string& name) {
  return make_from(eviction_table(), name);
}

StatusOr<std::unique_ptr<PrefetchPolicy>> make_prefetch_policy(const std::string& name) {
  return make_from(prefetch_table(), name);
}

std::vector<std::string> eviction_policy_names() { return names_of(eviction_table()); }
std::vector<std::string> prefetch_policy_names() { return names_of(prefetch_table()); }

}  // namespace gpuvm::core
