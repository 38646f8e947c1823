#ifndef BACKSORT_ENGINE_FLUSH_POOL_H_
#define BACKSORT_ENGINE_FLUSH_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace backsort {

class EngineShard;

/// Shared pool of flush workers draining one common queue of sealed
/// memtables from every shard, so the sort+encode+I/O of different shards
/// overlaps. Each Submit corresponds to exactly one sealed memtable in the
/// shard's own FIFO; a worker pops a shard ticket and executes that shard's
/// oldest pending job. The pool pops tickets FIFO, which guarantees that
/// for any single shard, job N starts no later than job N+1 — the shard's
/// publish sequencing (EngineShard::FlushTable) relies on this to wait for
/// job N without deadlock.
class FlushPool {
 public:
  FlushPool() = default;
  ~FlushPool() { Stop(); }

  FlushPool(const FlushPool&) = delete;
  FlushPool& operator=(const FlushPool&) = delete;

  void Start(size_t workers);

  /// Enqueues one flush ticket for `shard`. Called with the shard lock
  /// held; the pool lock never wraps a shard lock, so the nesting is
  /// one-way (shard → pool).
  void Submit(EngineShard* shard);

  /// Drains the remaining queue, then joins all workers. Idempotent.
  void Stop();

  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EngineShard*> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(worker, task) for every task in [0, tasks) on `workers` threads
/// started for this call, each claiming the next unclaimed task, and
/// returns once all are done; `worker` (< workers) indexes per-worker
/// scratch. With workers <= 1 the tasks run inline, in order, as worker 0.
/// The seal path's per-sensor sort+encode fan-out (flush_parallelism).
void RunTaskGroup(size_t workers, size_t tasks,
                  const std::function<void(size_t worker, size_t task)>& fn);

}  // namespace backsort

#endif  // BACKSORT_ENGINE_FLUSH_POOL_H_
