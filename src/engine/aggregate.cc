#include "engine/aggregate.h"

#include <cmath>

namespace backsort {

namespace {

AggregateResult AggregateSortedRun(const std::vector<TvPairDouble>& points,
                                   size_t begin, size_t end) {
  RangeStats s;  // the engine's one fold, NaN contract included
  size_t finite = 0;
  for (size_t i = begin; i < end; ++i) {
    s.Fold(points[i].t, points[i].v);
    finite += std::isnan(points[i].v) ? 0 : 1;
  }
  if (s.count == 0) return {};
  const double mean =
      finite == 0 ? std::nan("") : s.sum / static_cast<double>(finite);
  return {s.count, s.sum,  s.min,        s.max,       mean,
          s.first, s.last, s.first_time, s.last_time};
}

}  // namespace

Status AggregateRange(StorageEngine& engine, const std::string& sensor,
                      Timestamp t_min, Timestamp t_max,
                      AggregateResult* result) {
  std::vector<TvPairDouble> points;
  RETURN_NOT_OK(engine.Query(sensor, t_min, t_max, &points));
  *result = AggregateSortedRun(points, 0, points.size());
  return Status::OK();
}

Status SlidingAggregate(StorageEngine& engine, const std::string& sensor,
                        Timestamp t_min, Timestamp t_max, Timestamp width,
                        Timestamp step,
                        std::vector<WindowAggregate>* results) {
  results->clear();
  if (width <= 0 || step <= 0) {
    return Status::InvalidArgument("window width and step must be positive");
  }
  if (t_max < t_min) {
    return Status::InvalidArgument("t_max before t_min");
  }
  std::vector<TvPairDouble> points;
  RETURN_NOT_OK(engine.Query(sensor, t_min, t_max + width - 1, &points));

  // Two monotone cursors over the sorted points: windows advance by step,
  // so begin/end only ever move right. O(points + windows) total.
  size_t begin = 0;
  size_t end = 0;
  for (Timestamp start = t_min;; start += step) {
    const Timestamp stop = start + width;  // exclusive
    while (begin < points.size() && points[begin].t < start) ++begin;
    if (end < begin) end = begin;
    while (end < points.size() && points[end].t < stop) ++end;
    WindowAggregate w;
    w.window_start = start;
    w.agg = AggregateSortedRun(points, begin, end);
    results->push_back(w);
    if (start > t_max - step) break;  // next start would exceed t_max
  }
  return Status::OK();
}

Status WindowedAggregate(StorageEngine& engine, const std::string& sensor,
                         Timestamp t_min, Timestamp t_max, Timestamp width,
                         std::vector<WindowAggregate>* results) {
  results->clear();
  if (width <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  if (t_max < t_min) {
    return Status::InvalidArgument("t_max before t_min");
  }
  std::vector<TvPairDouble> points;
  RETURN_NOT_OK(engine.Query(sensor, t_min, t_max, &points));

  size_t cursor = 0;
  for (Timestamp start = t_min; start <= t_max; start += width) {
    const Timestamp stop = start + width;  // exclusive
    const size_t begin = cursor;
    while (cursor < points.size() && points[cursor].t < stop) {
      ++cursor;
    }
    WindowAggregate w;
    w.window_start = start;
    w.agg = AggregateSortedRun(points, begin, cursor);
    results->push_back(w);
    if (start > t_max - width) break;  // avoid Timestamp overflow on +=
  }
  return Status::OK();
}

}  // namespace backsort
