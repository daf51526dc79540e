// Pluggable paging policies for the page-granular memory engine.
//
// Mirrors core/sched_policy.hpp: a policy is an object behind a fixed
// factory table keyed by a short name, selected by name from MemoryConfig
// (and the gpuvmd / bench command lines). Two policy kinds plug into the
// memory manager:
//
//   EvictionPolicy -- ranks intra-application swap victims, in both the
//   entry-granular and the paged engine (MemoryConfig::paging). The device
//   allocation stays whole-entry contiguous (kernel bodies address one
//   span), so the policy ranks *entries*, but it sees the per-page
//   last-use stamps the paged engine maintains and may rank by page
//   temperature instead of the entry-level LRU stamp.
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

/// Snapshot of one eviction candidate: an allocated page-table entry the
/// pending launch does not reference.
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

  /// Victim score: the candidate with the *smallest* score is evicted
  /// first. Callers break ties deterministically (entry LRU order).
  virtual double score(const EvictionCandidate& c, i64 now_ns) const = 0;
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
///   page-lru    -- evict the entry whose hottest page is coldest; entries
///                  without page stamps rank by their entry LRU stamp
///                  (bit-identical to the entry-granular LRU baseline)
///   working-set -- evict the entry with the fewest pages touched inside
///                  the working-set window, page-LRU on ties
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
