//===- support/ThreadPool.h - Shared worker pool --------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool with a sharded ready-queue and work stealing.
/// Its one user is the in-process `csdf batch` threads mode
/// (api::Analyzer::runBatch), which runs whole analysis sessions as tasks
/// sharing one cross-session ClosureMemo. That is the granularity where
/// parallelism pays (Section IX(5)); single pCFG steps cost microseconds,
/// too little to hand to a pool.
///
/// Each worker owns one deque shard; submissions are distributed
/// round-robin and an idle worker steals from the back of other shards, so
/// a burst of slow tasks on one shard cannot starve the rest. The pool is
/// deliberately policy-free: tasks are plain closures, and every
/// isolation concern (budget scopes, recovery scopes) belongs to the
/// caller.
///
/// Thread-local context does NOT propagate onto workers: a task that needs
/// an AnalysisBudget must install it itself with BudgetScope (every batch
/// session installs its own budget when it starts).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_THREADPOOL_H
#define CSDF_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace csdf {

class ThreadPool {
public:
  /// Starts \p Workers worker threads (at least 1).
  explicit ThreadPool(unsigned Workers);

  /// Waits for running tasks to finish; tasks still queued are discarded.
  /// Callers that must observe every result (futures, batch reports) wait
  /// for them before destroying the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workerCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues a fire-and-forget task.
  void run(std::function<void()> Task);

  /// Enqueues \p Fn and returns a future for its result.
  template <typename Fn> auto submit(Fn &&F) {
    using R = std::invoke_result_t<Fn>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Out = Task->get_future();
    run([Task] { (*Task)(); });
    return Out;
  }

  /// The machine's hardware thread count (at least 1).
  static unsigned hardwareThreads();

private:
  struct Shard {
    std::mutex M;
    std::deque<std::function<void()>> Tasks;
  };

  void workerMain(unsigned Me);
  bool popTask(unsigned Me, std::function<void()> &Out);

  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<std::thread> Workers;
  std::mutex IdleM;
  std::condition_variable IdleCv;
  std::atomic<bool> Stop{false};
  /// Tasks queued but not yet picked up; lets sleeping workers avoid a
  /// scan of every shard on spurious wakeups.
  std::atomic<int> Queued{0};
  std::atomic<unsigned> NextShard{0};
};

} // namespace csdf

#endif // CSDF_SUPPORT_THREADPOOL_H
