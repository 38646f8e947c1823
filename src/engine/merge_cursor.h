#ifndef BACKSORT_ENGINE_MERGE_CURSOR_H_
#define BACKSORT_ENGINE_MERGE_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/chunk_cache.h"
#include "common/chunk_locator.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/file_registry.h"
#include "tsfile/tsfile.h"

namespace backsort {

/// The one last-write-wins merge of the engine: a streaming k-way merge of
/// sorted sources restricted to [t_min, t_max], used by Query (ForEach
/// appending points), AggregateFast (Aggregate) and compaction (ForEach
/// writing pages).
///
/// Sources are added in priority order, oldest first: sealed chunks in
/// file-list order, then memtable snapshots (flushing tables, working
/// unsequence, working sequence). A sealed chunk is read page by page
/// through ChunkPages — only the pages its page index says overlap the
/// range — so each chunk source holds one decoded page; a memtable
/// snapshot is one sorted block.
///
/// Tie rule: equal timestamps resolve to the source added later (higher
/// rank), and inside one source to the later element. A loser tree keyed
/// inline on (timestamp, rank) picks the next source. A new winner takes
/// its points at the head timestamp, so interleaved sources cost one tree
/// replay per point; a source that wins twice in a row drains every point
/// that sorts before the runner-up in one tight loop, so non-overlapping
/// sources (the common case) cost one replay per page, not per point.
///
/// Statistics fold (EnableStats, then Aggregate): a chunk fully inside
/// the range whose footer statistics are usable enters keyed on its
/// footer min_t without opening its page index, and a page fully inside
/// the range (of a chunk whose footer carries statistics) is keyed on its
/// header's min_t without being fetched. Such a winner folds from its
/// statistics when no other source can touch its span — its max_t sorts
/// strictly before the runner-up's head, and with dedup it sorts after
/// the pending lookahead point — and is opened or fetched and merged
/// point by point otherwise. A page header has no first or last value, so
/// a page never folds as the first contributor, and when one folds as
/// the last, that page is fetched at the end for its last value. Sealed
/// chunks hold one point per timestamp (flush and compaction seal only
/// survivors), which is what lets their statistics stand for their
/// points.
class MergeCursor {
 public:
  explicit MergeCursor(
      Timestamp t_min = std::numeric_limits<Timestamp>::min(),
      Timestamp t_max = std::numeric_limits<Timestamp>::max())
      : t_min_(t_min), t_max_(t_max) {}

  MergeCursor(const MergeCursor&) = delete;
  MergeCursor& operator=(const MergeCursor&) = delete;

  /// Lets chunks and pages enter keyed on their statistics, for
  /// Aggregate. Called before the first Add; ForEach is then unavailable.
  void EnableStats() { stats_ = true; }

  /// Adds `sensor`'s chunk of `file` (`locator` from its footer), read
  /// through `cache` (null: no cache): builds (or fetches) its page index
  /// and loads its first in-range page, unless the chunk enters on its
  /// footer statistics. An empty locator never touches the file. `file`
  /// must outlive the drain. Corruption / IOError from the page reader
  /// surface here or from the drain.
  Status AddChunk(const SealedFileMeta& file, const std::string& sensor,
                  const ChunkLocator& locator, ChunkCache* cache);

  /// Adds a sorted block (a memtable snapshot); points outside the range
  /// are skipped. Not null.
  void AddRun(std::shared_ptr<const DecodedPage> run);

  /// Drains the merge in time order, calling `sink(t, v)` once per output
  /// point. `dedup` true applies the tie rule (one point per timestamp);
  /// false keeps every duplicate, ordered by rank, then source order.
  /// Called once, after the last Add, and only without EnableStats.
  template <typename Sink>
  Status ForEach(bool dedup, Sink&& sink) {
    BuildTree();
    return dedup ? Drain<true, false>(sink, nullptr)
                 : Drain<false, false>(sink, nullptr);
  }

  /// Folds the merge into `*out` (reset first): the same answer as
  /// ForEach folding every point with RangeStats::Fold, up to the order
  /// of the sum, with statistics-keyed chunks and pages folded whole
  /// where the rule above allows. Called once, after the last Add. On
  /// error `*out` is reset.
  Status Aggregate(bool dedup, RangeStats* out);

  /// Upper bound on the points the drain emits (points of the in-range
  /// pages plus in-range run points); sizes output buffers.
  size_t size_hint() const { return size_hint_; }
  /// Peak decoded points resident in the sources' current blocks at any
  /// instant — the streaming memory bound, independent of the range
  /// size.
  size_t peak_resident_points() const { return peak_resident_; }
  /// Chunk pages fetched (from the cache or decoded).
  size_t pages_read() const { return pages_read_; }
  /// Chunks and pages Aggregate folded from their statistics.
  size_t stats_hits() const { return stats_hits_; }
  /// True when a run held points in range or Aggregate merged points of
  /// two sources: a different source won while a decoded block was partly
  /// drained, or its head tied the pending point.
  bool merged() const { return merged_; }

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  /// Set in a key's tie-break once its source is exhausted.
  static constexpr uint32_t kDone = 1u << 31;

  /// A live source's key stands for its decoded block's head point or,
  /// with no block, for a chunk (`file` set) or page (`next_page`)
  /// entered on its statistics and not yet read.
  struct Source {
    // Chunk sources: the page reader and the half-open range of in-range
    // pages still to load; the chunk's file until its page index is open,
    // and its footer locator (pages may enter on their statistics when it
    // has statistics).
    ChunkPages pages;
    size_t next_page = 0;
    size_t end_page = 0;
    const SealedFileMeta* file = nullptr;
    std::string sensor;
    ChunkLocator locator;
    ChunkCache* cache = nullptr;
    // Current block: points [pos, end) of `block` are still to merge;
    // `begin` is where its in-range points start.
    std::shared_ptr<const DecodedPage> block;
    size_t begin = 0;
    size_t pos = 0;
    size_t end = 0;
  };

  /// A source's tournament key, kept apart from the (large) Source so the
  /// tree's comparisons stay within a few cache lines: the head timestamp
  /// and the rank, with kDone set once the source is exhausted.
  struct Key {
    Timestamp t = std::numeric_limits<Timestamp>::max();
    uint32_t tie = kDone;
  };

  /// Adds a source of the next rank (exhausted until a block is taken)
  /// and returns its index.
  uint32_t AddSource();
  /// Opens source `s`'s page index and moves to its first in-range page.
  Status OpenPages(uint32_t s);
  /// Releases source `s`'s block and moves to its next page holding
  /// points in range: keyed on its statistics when it may enter so and
  /// `fetch` is false, else loaded. Marks the source exhausted when none
  /// is left.
  Status NextBlock(uint32_t s, bool fetch = false);
  /// Makes `block` source `s`'s current one if it holds points in range;
  /// false otherwise.
  bool TakeBlock(uint32_t s, std::shared_ptr<const DecodedPage> block);
  /// The best loser on winner `w`'s leaf-to-root path: the runner-up.
  uint32_t RunnerUp(uint32_t w) const {
    const uint32_t k = static_cast<uint32_t>(sources_.size());
    uint32_t r = kNone;
    for (uint32_t node = (w + k) / 2; node > 0; node /= 2) {
      if (r == kNone || Less(tree_[node], r)) r = tree_[node];
    }
    return r;
  }
  bool Less(uint32_t a, uint32_t b) const {
    const Key& x = keys_[a];
    const Key& y = keys_[b];
    return x.t < y.t || (x.t == y.t && x.tie < y.tie);
  }
  bool Done(uint32_t s) const { return (keys_[s].tie & kDone) != 0; }
  void BuildTree();
  /// Replays the matches on `w`'s leaf-to-root path after its key moved.
  void Replay(uint32_t w);

  template <bool kDedup, bool kFold, typename Sink>
  Status Drain(Sink& sink, RangeStats* stats);

  Timestamp t_min_;
  Timestamp t_max_;
  bool stats_ = false;
  std::vector<Source> sources_;
  std::vector<Key> keys_;  // parallel to sources_
  /// tree_[0] = current winner; tree_[1..k-1] = match losers; leaf s
  /// enters at node (s + k) / 2.
  std::vector<uint32_t> tree_;
  size_t resident_ = 0;
  size_t peak_resident_ = 0;
  size_t pages_read_ = 0;
  size_t size_hint_ = 0;
  size_t stats_hits_ = 0;
  bool merged_ = false;
  /// The last page folded from its statistics: (source, page).
  uint32_t stats_page_src_ = kNone;
  size_t stats_page_ = 0;
};

template <bool kDedup, bool kFold, typename Sink>
Status MergeCursor::Drain(Sink& sink, RangeStats* stats) {
  const uint32_t k = static_cast<uint32_t>(sources_.size());
  if (k == 0) return Status::OK();
  bool pending = false;  // dedup lookahead: a later tie may replace it
  Timestamp pending_t = 0;
  double pending_v = 0.0;
  auto take = [&](Timestamp t, double v) {
    if constexpr (kDedup) {
      if (pending && t == pending_t) {
        pending_v = v;
        return;
      }
      if (pending) sink(pending_t, pending_v);
      pending = true;
      pending_t = t;
      pending_v = v;
    } else {
      sink(t, v);
    }
  };
  uint32_t last = kNone;
  while (!Done(tree_[0])) {
    const uint32_t w = tree_[0];
    Source& s = sources_[w];
    if constexpr (kFold) {
      if (w != last && last != kNone) {
        const Source& prev = sources_[last];
        merged_ |= (prev.block != nullptr && prev.pos > prev.begin) ||
                   (pending && pending_t == keys_[w].t);
      }
      if (s.block == nullptr) {
        // A statistics-keyed winner folds whole when no other source can
        // touch its span and it is not the first contributor (pages only);
        // otherwise it is opened or fetched and merged point by point.
        last = w;
        const bool chunk = s.file != nullptr;
        const PageLocator* page =
            chunk ? nullptr : &s.pages.index().pages[s.next_page];
        const Timestamp max_t = chunk ? s.locator.max_t : page->max_t;
        const uint32_t r = RunnerUp(w);
        if ((r == kNone || Done(r) || max_t < keys_[r].t) &&
            (!pending || pending_t < keys_[w].t) &&
            (chunk || pending || stats->count > 0)) {
          if (pending) sink(pending_t, pending_v);
          pending = false;
          ++stats_hits_;
          if (chunk) {
            stats->FoldChunk(s.locator);
            s.file = nullptr;
          } else {
            stats->FoldPage(*page);
            stats_page_src_ = w;
            stats_page_ = s.next_page++;
          }
          RETURN_NOT_OK(NextBlock(w));
        } else if (chunk) {
          RETURN_NOT_OK(OpenPages(w));
        } else {
          RETURN_NOT_OK(NextBlock(w, /*fetch=*/true));
        }
        Replay(w);
        continue;
      }
    }
    // A new winner takes only its points at the head timestamp (one point
    // unless it holds duplicates): interleaved sources cost one replay per
    // point, as in a plain loser tree. The same winner twice in a row
    // drains every point that sorts before the runner-up — the best of
    // the losers on its path — in one loop, so disjoint sources cost a
    // replay per page. The winner keeps equal timestamps only when it
    // ranks below the runner-up.
    const bool repeat = w == last;
    last = w;
    const uint32_t r = repeat ? RunnerUp(w) : kNone;
    const bool bounded = !repeat || (r != kNone && !Done(r));
    const Timestamp bound = !repeat ? keys_[w].t : bounded ? keys_[r].t : 0;
    const bool keep_ties = !repeat || r > w;
    for (;;) {
      const Timestamp* ts = s.block->ts.data();
      const double* vs = s.block->values.data();
      const size_t end = s.end;
      size_t i = s.pos;
      if (!bounded) {
        for (; i < end; ++i) take(ts[i], vs[i]);
      } else if (keep_ties) {
        for (; i < end && ts[i] <= bound; ++i) take(ts[i], vs[i]);
      } else {
        for (; i < end && ts[i] < bound; ++i) take(ts[i], vs[i]);
      }
      s.pos = i;
      if (i < end) {
        keys_[w].t = ts[i];
        break;
      }
      RETURN_NOT_OK(NextBlock(w));
      if (s.block == nullptr) break;  // exhausted, or keyed on statistics
    }
    Replay(w);
  }
  if (pending) sink(pending_t, pending_v);
  return Status::OK();
}

}  // namespace backsort

#endif  // BACKSORT_ENGINE_MERGE_CURSOR_H_
