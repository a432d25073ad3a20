#include "exec/thread_pool.h"

#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace cspdb::exec {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  // Pool instances are numbered so worker track names stay unique even
  // when benchmarks spin up one pool per thread count.
  static std::atomic<int> next_pool_id{0};
  const int pool_id = next_pool_id.fetch_add(1, std::memory_order_relaxed);
  queues_.reserve(num_threads);
  worker_names_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    worker_names_.push_back("exec.worker." + std::to_string(pool_id) + "." +
                            std::to_string(i));
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  // Wait until every worker has entered its loop (and registered its
  // trace track): callers may start a trace session or tear the pool
  // down immediately after construction, and both must observe fully
  // started workers.
  util::MutexLock lock(idle_mu_);
  while (started_ != num_threads) started_cv_.Wait(idle_mu_);
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(idle_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  idle_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // Every scheduling primitive is blocking or group-scoped, so a
  // destroyed pool must have drained; dropped tasks would be a bug.
  CSPDB_CHECK_MSG(queued_.load(std::memory_order_relaxed) == 0,
                  "ThreadPool destroyed with tasks still queued");
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::Submit(std::function<void()> fn) {
  CSPDB_DCHECK(fn != nullptr);
  // Carry the submitter's request context across the thread hop. Only
  // wrap when a context is actually installed: the common engine-internal
  // fan-out (no request id) keeps the unwrapped fast path.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (ctx.request_id != 0) {
    fn = [ctx, inner = std::move(fn)] {
      obs::TraceContextScope scope(ctx);
      inner();
    };
  }
  const std::size_t target =
      submit_cursor_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    util::MutexLock lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Lock/unlock pairs with the worker's predicate check so a worker that
  // just found the queues empty cannot sleep through this submit.
  { util::MutexLock lock(idle_mu_); }
  idle_cv_.NotifyOne();
}

std::function<void()> ThreadPool::TakeTask(int home) {
  const int n = static_cast<int>(queues_.size());
  if (home >= 0) {
    WorkerQueue& own = *queues_[home];
    util::MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      std::function<void()> fn = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acquire);
      return fn;
    }
  }
  for (int k = 0; k < n; ++k) {
    const int victim = (home < 0 ? k : (home + 1 + k) % n);
    if (victim == home) continue;
    WorkerQueue& q = *queues_[victim];
    util::MutexLock lock(q.mu);
    if (!q.tasks.empty()) {
      std::function<void()> fn = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acquire);
      return fn;
    }
  }
  return nullptr;
}

bool ThreadPool::RunOneTask() {
  std::function<void()> fn = TakeTask(-1);
  if (fn == nullptr) return false;
  fn();
  return true;
}

void ThreadPool::WorkerLoop(int worker_index) {
  obs::TraceSession::SetCurrentThreadName(
      worker_names_[worker_index].c_str());
  {
    util::MutexLock lock(idle_mu_);
    ++started_;
  }
  started_cv_.NotifyOne();
  while (true) {
    std::function<void()> fn = TakeTask(worker_index);
    if (fn != nullptr) {
      fn();
      continue;
    }
    util::MutexLock lock(idle_mu_);
    while (!stop_.load(std::memory_order_relaxed) &&
           queued_.load(std::memory_order_acquire) <= 0) {
      idle_cv_.Wait(idle_mu_);
    }
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    util::MutexLock lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    fn();
    util::MutexLock lock(mu_);
    // Notify while still holding mu_: the moment the lock is released a
    // waiter may observe pending_ == 0 and destroy the group, so the
    // broadcast must finish first (cv destroy-while-notify race).
    if (--pending_ == 0) cv_.NotifyAll();
  });
}

void TaskGroup::Wait() {
  while (true) {
    {
      util::MutexLock lock(mu_);
      if (pending_ == 0) return;
    }
    // Help instead of blocking so nested Wait() inside pool tasks cannot
    // starve the pool; fall back to a short timed sleep when every queue
    // is empty (our tasks are in flight on other threads). A spurious
    // wake just loops back around to helping — no predicate needed.
    if (pool_->RunOneTask()) continue;
    util::MutexLock lock(mu_);
    if (pending_ == 0) return;
    cv_.WaitFor(mu_, std::chrono::milliseconds(1));
    if (pending_ == 0) return;
  }
}

}  // namespace cspdb::exec
