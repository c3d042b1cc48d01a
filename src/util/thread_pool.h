#ifndef MAD_UTIL_THREAD_POOL_H_
#define MAD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mad {

/// A small work-stealing thread pool for the partitioned evaluator (no
/// external dependencies). A pool of `num_threads` *participants* owns
/// `num_threads - 1` OS threads: the thread that calls ParallelFor always
/// participates as well, so a pool of 1 spawns nothing and runs everything
/// inline — the serial fast path costs one branch.
///
/// Scheduling discipline: every participant owns a deque of tasks. A
/// participant looking for work pops from the *back* of its own deque (LIFO,
/// cache-warm) and, when that is empty, steals from the *front* of another
/// participant's deque (FIFO — the oldest, typically largest piece of work).
/// ParallelFor splits its iteration space into several contiguous range
/// tasks per participant and scatters them round-robin across the deques;
/// imbalance between items then migrates between threads through stealing
/// rather than through any per-item locking.
///
/// Nesting is supported: a range task may itself call ParallelFor on the
/// same pool. The waiting participant keeps draining tasks (its own, then
/// stolen) until its batch completes, so a pool thread is never parked
/// while runnable work exists, and the caller's own drain loop guarantees
/// progress even when every worker is busy elsewhere — ParallelFor cannot
/// deadlock.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` participants (min 1); spawns
  /// `num_threads - 1` workers.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. All ParallelFor calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers plus the calling thread.
  int num_participants() const { return static_cast<int>(deques_.size()); }

  /// Runs `body(participant, i)` for every i in [0, n), distributed across
  /// the pool; blocks until all n items completed. `participant` is the
  /// stable id (0 .. num_participants()-1) of the thread executing the item:
  /// a given participant runs at most one item at a time, so per-participant
  /// scratch state (executors, buffers) needs no synchronization. Item order
  /// within a participant is ascending within each stolen range, but the
  /// assignment of ranges to participants is nondeterministic.
  void ParallelFor(int64_t n, const std::function<void(int, int64_t)>& body);

  /// The participant id of the current thread in this pool: workers report
  /// their slot, every other thread (including the pool's creator) reports 0.
  int ParticipantId() const;

 private:
  struct WorkDeque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int participant);
  /// Pops one task (own back, else steal another front) and runs it.
  bool RunOneTask(int participant);
  void Push(int participant, std::function<void()> task);

  std::vector<std::unique_ptr<WorkDeque>> deques_;  ///< one per participant
  std::vector<std::thread> workers_;                ///< participants 1..P-1
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace mad

#endif  // MAD_UTIL_THREAD_POOL_H_
