#include "engine/merge_cursor.h"

#include <algorithm>
#include <utility>

namespace backsort {

uint32_t MergeCursor::AddSource() {
  keys_.push_back({});
  sources_.emplace_back();
  return static_cast<uint32_t>(sources_.size() - 1);
}

Status MergeCursor::AddChunk(const SealedFileMeta& file,
                             const std::string& sensor,
                             const ChunkLocator& locator, ChunkCache* cache) {
  const uint32_t i = AddSource();
  if (locator.points == 0 || t_min_ > t_max_) return Status::OK();
  Source& s = sources_[i];
  s.file = &file;
  s.sensor = sensor;
  s.locator = locator;
  s.cache = cache;
  if (!stats_ || locator.min_t < t_min_ || locator.max_t > t_max_ ||
      !locator.stats_usable()) {
    return OpenPages(i);
  }
  // Keyed on its footer statistics; the page index opens only if the
  // chunk cannot fold whole.
  keys_[i] = {locator.min_t, i};
  size_hint_ += locator.points;
  return Status::OK();
}

Status MergeCursor::OpenPages(uint32_t i) {
  Source& s = sources_[i];
  std::shared_ptr<const FileHandle> handle;
  RETURN_NOT_OK(s.file->Handle(&handle));
  RETURN_NOT_OK(ChunkPages::Open(std::move(handle), s.sensor, s.locator,
                                 s.cache, &s.pages));
  // Pages of a chunk are time-ordered: the in-range ones are one span.
  const std::vector<PageLocator>& pages = s.pages.index().pages;
  const auto first = std::partition_point(
      pages.begin(), pages.end(),
      [&](const PageLocator& p) { return p.max_t < t_min_; });
  const auto last = std::partition_point(
      first, pages.end(),
      [&](const PageLocator& p) { return p.min_t <= t_max_; });
  s.next_page = static_cast<size_t>(first - pages.begin());
  s.end_page = static_cast<size_t>(last - pages.begin());
  if (Done(i)) {  // not yet counted at a statistics entry
    for (auto it = first; it != last; ++it) size_hint_ += it->count;
  }
  s.file = nullptr;
  return NextBlock(i);
}

void MergeCursor::AddRun(std::shared_ptr<const DecodedPage> run) {
  const uint32_t i = AddSource();
  if (TakeBlock(i, std::move(run))) {
    size_hint_ += sources_[i].end - sources_[i].pos;
    merged_ = true;
  }
}

Status MergeCursor::NextBlock(uint32_t i, bool fetch) {
  Source& s = sources_[i];
  if (s.block != nullptr) {
    resident_ -= s.block->ts.size();
    s.block.reset();
  }
  keys_[i] = {std::numeric_limits<Timestamp>::max(), kDone | i};
  while (s.next_page < s.end_page) {
    const PageLocator& pg = s.pages.index().pages[s.next_page];
    if (!fetch && stats_ && s.locator.has_stats && pg.min_t >= t_min_ &&
        pg.max_t <= t_max_ && pg.stats_usable()) {
      keys_[i] = {pg.min_t, i};
      break;
    }
    fetch = false;
    std::shared_ptr<const DecodedPage> page;
    RETURN_NOT_OK(s.pages.Page(s.next_page++, &page));
    ++pages_read_;
    if (TakeBlock(i, std::move(page))) break;
  }
  return Status::OK();
}

bool MergeCursor::TakeBlock(uint32_t i,
                            std::shared_ptr<const DecodedPage> block) {
  const std::vector<Timestamp>& ts = block->ts;
  auto lo = ts.begin();
  auto hi = ts.end();
  if (lo != hi && ts.front() < t_min_) lo = std::lower_bound(lo, hi, t_min_);
  if (lo != hi && ts.back() > t_max_) hi = std::upper_bound(lo, hi, t_max_);
  if (lo >= hi) return false;
  Source& s = sources_[i];
  s.begin = s.pos = static_cast<size_t>(lo - ts.begin());
  s.end = static_cast<size_t>(hi - ts.begin());
  keys_[i] = {*lo, i};
  resident_ += ts.size();
  peak_resident_ = std::max(peak_resident_, resident_);
  s.block = std::move(block);
  return true;
}

Status MergeCursor::Aggregate(bool dedup, RangeStats* out) {
  *out = RangeStats{};
  auto fold = [out](Timestamp t, double v) { out->Fold(t, v); };
  BuildTree();
  Status st = dedup ? Drain<true, true>(fold, out)
                    : Drain<false, true>(fold, out);
  // Every later contribution sorts after a folded page, so the page was
  // the last contributor iff the last time is still its max_t; its last
  // point then holds the last value the header lacks.
  if (st.ok() && stats_page_src_ != kNone) {
    const ChunkPages& pages = sources_[stats_page_src_].pages;
    if (out->last_time == pages.index().pages[stats_page_].max_t) {
      std::shared_ptr<const DecodedPage> page;
      st = pages.Page(stats_page_, &page);
      ++pages_read_;
      if (st.ok() && !page->values.empty()) out->last = page->values.back();
    }
  }
  if (!st.ok()) *out = RangeStats{};
  return st;
}

void MergeCursor::BuildTree() {
  const uint32_t k = static_cast<uint32_t>(sources_.size());
  tree_.assign(std::max<uint32_t>(k, 1), kNone);
  if (k <= 1) {
    tree_[0] = 0;
    return;
  }
  // Seat each leaf: walk toward the root, playing a match at every
  // occupied node (winner moves up, loser stays) and parking at the first
  // empty one. After all k leaves, tree_[0] holds the champion and every
  // internal node the loser of its match.
  for (uint32_t leaf = 0; leaf < k; ++leaf) {
    uint32_t candidate = leaf;
    uint32_t node = (leaf + k) / 2;
    while (node > 0 && tree_[node] != kNone) {
      if (Less(tree_[node], candidate)) std::swap(tree_[node], candidate);
      node /= 2;
    }
    tree_[node] = candidate;
  }
}

void MergeCursor::Replay(uint32_t w) {
  const uint32_t k = static_cast<uint32_t>(sources_.size());
  uint32_t candidate = w;
  for (uint32_t node = (w + k) / 2; node > 0; node /= 2) {
    if (Less(tree_[node], candidate)) std::swap(tree_[node], candidate);
  }
  tree_[0] = candidate;
}

}  // namespace backsort
