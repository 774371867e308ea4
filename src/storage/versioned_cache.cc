#include "storage/versioned_cache.h"

#include <algorithm>

namespace redo::storage {

VersionedCache::VersionedCache(Disk* disk, size_t versions_per_page)
    : disk_(disk), versions_per_page_(versions_per_page) {
  REDO_CHECK(disk != nullptr);
}

Result<Page*> VersionedCache::Fetch(PageId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    Result<Page> from_disk = disk_->ReadPage(id);
    if (!from_disk.ok()) return from_disk.status();
    Entry entry;
    entry.live = std::move(from_disk).value();
    it = entries_.emplace(id, std::move(entry)).first;
  }
  return &it->second.live;
}

Status VersionedCache::MarkDirty(PageId id, core::Lsn lsn) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::FailedPrecondition("versioned cache: page not cached");
  }
  Entry& entry = it->second;
  // Retain the newly tagged state as an installable version (every
  // update path tags via MarkDirty, so the retained list is exactly the
  // last K post-operation versions of the page — the uncollapsed
  // write-graph nodes for this variable).
  entry.live.set_lsn(lsn);
  entry.live_dirty = true;
  if (versions_per_page_ > 0) {
    entry.retained.push_back(entry.live);
    if (entry.retained.size() > versions_per_page_) {
      // Merge away the oldest retained version (write-graph Collapse of
      // the two oldest nodes: the older value disappears).
      entry.retained.erase(entry.retained.begin());
    }
  }
  return Status::Ok();
}

std::vector<core::Lsn> VersionedCache::InstallableVersions(PageId id) const {
  std::vector<core::Lsn> versions;
  const auto it = entries_.find(id);
  if (it == entries_.end()) return versions;
  for (const Page& page : it->second.retained) versions.push_back(page.lsn());
  return versions;
}

Status VersionedCache::InstallVersion(PageId id, core::Lsn max_lsn) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("versioned cache: page not cached");
  }
  const Entry& entry = it->second;
  const Page* chosen = nullptr;
  for (const Page& page : entry.retained) {
    if (page.lsn() <= max_lsn && (chosen == nullptr || page.lsn() > chosen->lsn())) {
      chosen = &page;
    }
  }
  if (chosen == nullptr) {
    return Status::NotFound(
        "versioned cache: no retained version at or below the requested LSN");
  }
  if (wal_hook_) {
    REDO_RETURN_IF_ERROR(wal_hook_(chosen->lsn()));
  }
  return disk_->WritePage(id, *chosen);
}

void VersionedCache::Crash() { entries_.clear(); }

}  // namespace redo::storage
