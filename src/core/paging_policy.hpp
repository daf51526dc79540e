// Pluggable paging policies for the memory engine.
//
// Mirrors core/sched_policy.hpp: a policy is an object behind a fixed
// factory table keyed by a short name, selected by name from MemoryConfig
// (and the gpuvmd / bench command lines). Two policy kinds plug into the
// memory manager:
//
//   EvictionPolicy -- ranks page victims. Both engines map and evict
//   pages and ask for a page score; an entry-engine entry is one page and
//   carries no page stamps, so its score is the entry LRU stamp. The paged
//   engine (MemoryConfig::paging) maintains per-page last-use stamps.
//
//   PrefetchPolicy -- predicts the pages a context will touch next, from
//   the (deterministic) sequence of hinted page accesses. Predicted pages
//   page-in asynchronously, overlapping the kernel that triggered the
//   prediction -- content lands immediately, only modeled time is
//   overlapped, so predictions can never change results, only costs.
//
// Determinism contract: policies must derive decisions only from the
// inputs below (never wall-clock or randomness), so chaos replays stay
// bit-identical with paging enabled.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace gpuvm::core {

/// Snapshot of the allocated page-table entry owning a candidate page.
struct EvictionCandidate {
  u64 virtual_ptr = 0;
  u64 size = 0;
  u64 page_bytes = 0;
  /// Entry-level LRU stamp (ns of the last launch referencing it).
  i64 entry_last_use_ns = 0;
  /// Per-page last-use stamps (ns); 0 = page never touched by a hinted
  /// access. Empty when the entry predates paged tracking.
  std::span<const i64> page_use_ns;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// The table name this policy was created under.
  virtual const char* name() const = 0;

  /// Page victim score for page `page` of the candidate entry: the page
  /// with the *smallest* score is evicted first. Callers break ties
  /// deterministically (entry LRU order, then page index).
  virtual double page_score(const EvictionCandidate& c, u64 page, i64 now_ns) const = 0;
};

/// The page-access outcome of one hinted launch against one entry.
struct PrefetchQuery {
  u64 virtual_ptr = 0;
  u64 page_bytes = 0;
  u64 page_count = 0;  ///< pages in the entry
  /// Pages this launch touched (ascending, deduplicated).
  std::span<const u64> accessed_pages;
};

class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;

  virtual const char* name() const = 0;

  /// Appends up to `lookahead` predicted page indices to `out`. Out-of-
  /// range or duplicate predictions are tolerated (the engine drops them).
  /// May keep internal per-entry state keyed by virtual_ptr.
  virtual void predict(const PrefetchQuery& q, u64 lookahead, std::vector<u64>* out) = 0;
};

/// Built-in policies, fixed name tables. Eviction:
///   page-lru    -- evict the coldest page; an unstamped page ranks by the
///                  entry LRU stamp (so the entry engine evicts its least
///                  recently used entry)
///   working-set -- evict a page of the entry with the fewest pages
///                  touched inside the working-set window, page-LRU on
///                  ties
/// Prefetch:
///   none       -- demand paging only
///   sequential -- page in the pages following the highest accessed page
///   stride     -- detect a uniform page stride (within a launch, or
///                 between consecutive launches) and page in along it
///
/// Creates a fresh policy instance by name. Unknown names are a typed
/// error (Status::ErrorInvalidValue), never a silent fallback.
StatusOr<std::unique_ptr<EvictionPolicy>> make_eviction_policy(const std::string& name);
StatusOr<std::unique_ptr<PrefetchPolicy>> make_prefetch_policy(const std::string& name);

/// Built-in policy names, sorted (CLI help / error messages).
std::vector<std::string> eviction_policy_names();
std::vector<std::string> prefetch_policy_names();

}  // namespace gpuvm::core
