// Deterministic fork/join pool with fixed-order reduction.
//
// The determinism contract ("same seed, byte-identical output") survives
// parallelism only if thread scheduling can never influence observable state.
// TaskPool enforces the one safe shape: a caller submits `count` independent
// work items addressed by stable index, workers claim indices in any order,
// and every result is committed to a caller-owned slot `out[i]` — never
// appended, never folded in completion order.  Reductions over the results
// happen after the join, on the calling thread, in index order.  Under that
// contract the output bytes are invariant to the thread count, which the
// thread-count-invariance goldens in tests/test_parallel.cpp pin down.
//
// A pool of size <= 1 runs every item inline on the calling thread in index
// order — bit-identical to a plain `for` loop, and the default: the global
// pool is serial unless `DRAGSTER_THREADS` (env) or `--threads` (via
// set_global_threads) says otherwise.
//
// Nested submission is rejected.  A work item that fans out again would make
// throughput depend on sibling scheduling and invites deadlock, so call
// sites that may run inside a worker (the controller under a fleet step)
// must check `TaskPool::in_worker()` and fall back to a serial loop.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace dragster::parallel {

class TaskPool {
 public:
  /// `threads` is the total number of lanes, the calling thread included:
  /// 0 and 1 both mean serial, n > 1 spawns n - 1 workers.
  explicit TaskPool(std::size_t threads = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Number of lanes (>= 1).  threads() == 1 means the serial inline path.
  [[nodiscard]] std::size_t threads() const noexcept;

  /// Runs fn(0) .. fn(count - 1), each exactly once, and joins.  The caller
  /// participates, so the pool is never idle while the submitter spins.  If
  /// any item throws, the lowest-index failure is rethrown on the caller as
  /// dragster::Error after the join.  Throws dragster::Error when invoked
  /// from inside a worker (nested submission).
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Index-ordered map: out[i] = fn(i).  The canonical fixed-order
  /// reduction — results land in submission order no matter which lane
  /// finishes first.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(std::size_t count, Fn&& fn) {
    std::vector<T> out(count);
    for_each(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// True while the current thread is executing a work item (on any pool).
  [[nodiscard]] static bool in_worker() noexcept;

  /// Process-wide pool.  Sized from `DRAGSTER_THREADS` on first use (absent
  /// or unparsable means serial); `set_global_threads` re-sizes it.  Do not
  /// cache the reference across a set_global_threads call.
  [[nodiscard]] static TaskPool& global();
  static void set_global_threads(std::size_t threads);

  /// min(hardware concurrency, cap), at least 1 — for transient pools whose
  /// callers want "one lane per core" (micro_kernels' fan-out timing).
  [[nodiscard]] static std::size_t hardware_threads(std::size_t cap);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dragster::parallel
