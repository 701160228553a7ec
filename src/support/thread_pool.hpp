// Work-stealing thread pool for measurement campaigns.
//
// Campaign workloads are thousands of equally expensive simulation blocks
// plus the occasional heterogeneous task (building a per-worker simulator
// replica takes much longer than running one block).  Each worker owns a
// deque: tasks submitted from a worker push to its own queue and are
// popped LIFO (cache-warm), while idle workers steal FIFO from the other
// end of a victim's queue -- the classic Chase-Lev discipline, here with a
// small per-queue mutex because campaign tasks are coarse (milliseconds,
// not nanoseconds) and contention is negligible.
//
// Determinism note: the pool itself makes no ordering promises -- all
// campaign determinism comes from eval/parallel_campaign.hpp, which gives
// every trace a counter-derived RNG stream and merges block accumulators
// in a fixed tree, so the *schedule* is free to be as racy as it likes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/cancel.hpp"

namespace glitchmask {

class ThreadPool {
public:
    using Task = std::function<void()>;

    /// `workers` == 0 means default_worker_count().
    explicit ThreadPool(unsigned workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] unsigned size() const noexcept {
        return static_cast<unsigned>(queues_.size());
    }

    /// Enqueues a task.  From a pool worker the task goes to that worker's
    /// own deque (stolen by others when it falls behind); from outside it
    /// is dealt round-robin.
    void submit(Task task);

    /// Index of the calling pool worker in [0, size()), or -1 when the
    /// caller is not one of this pool's threads.
    [[nodiscard]] int current_worker() const noexcept;

    /// GLITCHMASK_WORKERS when set (> 0), else hardware_concurrency().
    [[nodiscard]] static unsigned default_worker_count();

private:
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void worker_loop(unsigned id);
    bool try_pop_own(unsigned id, Task& out);
    bool try_steal(unsigned id, Task& out);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> threads_;

    std::mutex sleep_mutex_;
    std::condition_variable wake_;
    std::size_t queued_ = 0;  // guarded by sleep_mutex_
    bool stop_ = false;       // guarded by sleep_mutex_
    std::size_t next_queue_ = 0;  // round-robin cursor for external submits
};

/// Tracks a batch of tasks submitted to a pool and waits for all of them.
/// The first exception thrown by a task is captured and rethrown from
/// wait(); the remaining tasks still run to completion.  Must be waited on
/// from outside the pool (a worker waiting on its own pool would deadlock).
///
/// An optional CancelToken makes the group cooperative: tasks that have
/// not started when the token fires are skipped (they still count towards
/// wait()), while tasks already running finish normally -- the "finish
/// in-flight work, drop queued work" discipline the campaign runtime's
/// graceful shutdown is built on.  skipped() reports how many were
/// dropped.
class TaskGroup {
public:
    explicit TaskGroup(ThreadPool& pool, const CancelToken* cancel = nullptr)
        : pool_(pool), cancel_(cancel) {}
    ~TaskGroup() { wait_no_throw(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void run(ThreadPool::Task task);

    /// Blocks until every run() task finished; rethrows the first failure.
    void wait();

    /// Blocks until `ready()` holds, a task has failed, or every run()
    /// task has settled (finished, failed or been skipped).  Returns true
    /// only when `ready()` holds and no task has failed; a failure stays
    /// queued for wait() to rethrow.  `ready` is re-checked under the
    /// group's lock each time a task settles, so it must read what tasks
    /// publish through its own synchronization (e.g. release/acquire
    /// atomics).  Lets a caller consume results as they land instead of
    /// only after the whole batch.
    template <class Ready>
    [[nodiscard]] bool wait_until(Ready ready) {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return error_ != nullptr || pending_ == 0 || ready();
        });
        return error_ == nullptr && ready();
    }

    /// Tasks skipped because the cancel token fired before they started.
    /// Only meaningful after wait() returned.
    [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }

private:
    void wait_no_throw() noexcept;

    ThreadPool& pool_;
    const CancelToken* cancel_ = nullptr;
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t pending_ = 0;     // guarded by mutex_
    std::size_t skipped_ = 0;     // guarded by mutex_
    std::exception_ptr error_;    // guarded by mutex_
};

}  // namespace glitchmask
