// A multi-version page cache.
//
// §1.3 notes that state graphs "permit us to consider regimes that
// maintain multiple versions of variables", and §5 shows what the usual
// single-copy cache costs: collapsing all writers of a page into one
// write-graph node makes intermediate recoverable states inaccessible
// (Figure 7) and can force large atomic writes.
//
// This cache keeps up to K retained versions per page, each tagged with
// the LSN that produced it. Installation can then pick *any* retained
// version (in LSN order), realizing write-graph nodes that a single-copy
// cache has already merged away — the uncollapsed write graph, live.
// The versioned_cache_test demonstrates the Figure 4/7 contrast
// concretely.

#ifndef REDO_STORAGE_VERSIONED_CACHE_H_
#define REDO_STORAGE_VERSIONED_CACHE_H_

#include <functional>
#include <map>
#include <vector>

#include "storage/disk.h"
#include "storage/page.h"
#include "util/status.h"

namespace redo::storage {

/// Multi-version page cache over a Disk. Single-threaded, unbounded page
/// set; the version count per page is bounded by `versions_per_page`
/// (oldest retained versions are merged away first, which is exactly the
/// write-graph Collapse of the oldest nodes).
class VersionedCache {
 public:
  /// `versions_per_page` >= 1: how many *retained* versions (snapshots)
  /// may coexist besides the live copy. 0 degenerates to single-copy.
  VersionedCache(Disk* disk, size_t versions_per_page);

  /// WAL hook, as in BufferPool: forced before any version reaches disk.
  using WalHook = std::function<Status(core::Lsn)>;
  void set_wal_hook(WalHook hook) { wal_hook_ = std::move(hook); }

  /// Mutable live copy of the page (read from disk on first access).
  Result<Page*> Fetch(PageId id);

  /// Tags the live copy with `lsn` after an update, first *retaining*
  /// the previous version so it stays individually installable.
  Status MarkDirty(PageId id, core::Lsn lsn);

  /// The LSNs of installable versions of `id`, oldest first (retained
  /// snapshots plus the live copy).
  std::vector<core::Lsn> InstallableVersions(PageId id) const;

  /// Writes the newest version with lsn <= `max_lsn` to disk. Fails if
  /// no such version is retained (it was merged away or never existed).
  /// Installing an old version does not discard newer ones.
  Status InstallVersion(PageId id, core::Lsn max_lsn);

  /// Drops all cached state (the crash).
  void Crash();

  size_t num_cached_pages() const { return entries_.size(); }

 private:
  struct Entry {
    Page live;
    bool live_dirty = false;
    /// Retained snapshots, oldest first, each tagged by its page LSN.
    std::vector<Page> retained;
  };

  Disk* disk_;
  size_t versions_per_page_;
  std::map<PageId, Entry> entries_;
  WalHook wal_hook_;
};

}  // namespace redo::storage

#endif  // REDO_STORAGE_VERSIONED_CACHE_H_
