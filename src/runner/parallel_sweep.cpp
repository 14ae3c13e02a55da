// vstream-lint-file: allow(thread): src/runner is the one sanctioned home for threads — shared-nothing fan-out over independent session worlds.
#include "runner/parallel_sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "check/thread_safety.hpp"

namespace vstream::runner {

namespace {

// Which pool worker the current thread is: set by the chunk drain before a
// worker starts claiming, reset after. Thread-local so nested tools that
// query it off-pool see a stable 0 (the caller's thread is worker 0).
// Allowlisted in tools/vstream_ast_lint.py: harness-side attribution only,
// never read inside a session world.
thread_local std::size_t t_worker_index = 0;

// First-error capture shared by the pool's workers — the one piece of
// lock-protected state in a sweep (everything else is partitioned per
// worker). Errors after the first are not silently discarded: they are
// counted, the count is appended to the rethrown error's message, and the
// pool exposes it via errors_dropped() so multi-failure sweeps stay
// diagnosable. The clang thread-safety annotations let -Wthread-safety
// prove at compile time that no path touches the state without the lock.
class ErrorCollector {
 public:
  /// Record `error`: the first one seen is kept for rethrow, every later
  /// one increments the dropped count (the sweep still drains every chunk,
  /// and rethrowing one exception is all the fan-out entry points promise).
  void capture(std::exception_ptr error) VSTREAM_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (!first_) {
      first_ = std::move(error);
    } else {
      ++dropped_;
    }
  }

  /// Errors recorded beyond the first.
  [[nodiscard]] std::size_t dropped() const VSTREAM_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock{mutex_};
    return dropped_;
  }

  /// Rethrow the captured error, if any. A single failure rethrows the
  /// original exception untouched; with further failures dropped, a
  /// std::exception is rewrapped with the drop count appended to its
  /// message (non-std exceptions propagate unchanged — the count is still
  /// readable off the pool). Called after the pool has joined, but takes
  /// the lock anyway — uncontended at that point, and it keeps the
  /// annotated invariant unconditional instead of "true after join".
  void rethrow_if_any() VSTREAM_EXCLUDES(mutex_) {
    std::exception_ptr error;
    std::size_t dropped = 0;
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      error = first_;
      dropped = dropped_;
    }
    if (!error) return;
    if (dropped == 0) std::rethrow_exception(error);
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      throw std::runtime_error{std::string{e.what()} + " (sweep dropped " +
                               std::to_string(dropped) + " further worker error(s))"};
    }
  }

 private:
  mutable std::mutex mutex_;
  std::exception_ptr first_ VSTREAM_GUARDED_BY(mutex_);
  std::size_t dropped_ VSTREAM_GUARDED_BY(mutex_){0};
};

/// Automatic chunk size: ~16 claims per worker amortizes the shared counter
/// and keeps per-worker staging runs long (cache-friendly appends), while
/// the cap keeps chunks small enough that a straggler's tail can still be
/// stolen. Small sweeps degrade to chunk 1 — exactly the old per-index
/// claiming, which is ideal when individual sessions are expensive.
std::size_t auto_chunk(std::size_t count, std::size_t workers) {
  return std::clamp<std::size_t>(count / (workers * 16), 1, 64);
}

}  // namespace

std::size_t ParallelSweep::current_worker() { return t_worker_index; }

std::size_t job_count(std::size_t requested) {
  if (requested > 0) return std::min(requested, kMaxJobs);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once on the caller's thread
  // before any pool thread exists; nothing in the tree calls setenv.
  if (const char* env = std::getenv("VSTREAM_JOBS")) {
    char* end = nullptr;
    const long long n = std::strtoll(env, &end, 10);
    // Garbage, zero and negative fall through to the hardware count; huge
    // values (including strtoll saturation) clamp to kMaxJobs.
    if (end != env && n > 0) {
      return std::min<std::size_t>(static_cast<unsigned long long>(n), kMaxJobs);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ParallelSweep::ParallelSweep(std::size_t jobs) : jobs_{job_count(jobs)} {}

void ParallelSweep::for_each_chunk(
    std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) const {
  errors_dropped_.store(0, std::memory_order_relaxed);
  if (count == 0) return;
  const std::size_t workers = std::min(jobs_, count);
  if (chunk == 0) chunk = auto_chunk(count, workers);

  ErrorCollector errors;
  const auto run_chunk = [&fn, &errors](std::size_t begin, std::size_t end, std::size_t worker) {
    try {
      fn(begin, end, worker);
    } catch (...) {
      errors.capture(std::current_exception());
    }
  };

  if (workers <= 1) {
    // Serial path: no threads, same chunk walk on the caller's thread.
    for (std::size_t begin = 0; begin < count; begin += chunk) {
      run_chunk(begin, std::min(begin + chunk, count), 0);
    }
  } else {
    // Dynamic chunk stealing off a shared counter: sessions vary a lot in
    // cost (180 s Netflix worlds vs 30 s Flash clips), so static striping
    // would leave workers idle at the tail; per-index claiming would bounce
    // the counter's cache line once per session. Chunks are the middle
    // ground — one fetch_add buys a contiguous run of indices.
    std::atomic<std::size_t> next{0};
    const auto drain = [&](std::size_t worker) {
      t_worker_index = worker;
      for (;;) {
        const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) break;
        run_chunk(begin, std::min(begin + chunk, count), worker);
      }
      t_worker_index = 0;
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain, w);
    drain(0);  // the caller's thread is worker 0
    for (auto& t : pool) t.join();
  }

  errors_dropped_.store(errors.dropped(), std::memory_order_relaxed);
  errors.rethrow_if_any();
}

}  // namespace vstream::runner
