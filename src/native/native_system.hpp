// NativeSystem: the repo's second execution engine.
//
// The simulator (runtime::System<V>) interleaves coroutine steps under a
// deterministic scheduler; NativeSystem runs the SAME coroutine programs on
// a pool of real OS threads over atomicmem::AtomicMemory<V>. Because
// DirectCtx's awaiters are immediately ready, a program resumed once runs to
// completion synchronously on its worker thread — every co_await compiles
// down to an atomic register operation, so the execution is a genuine
// hardware-speed concurrent history, scheduled by the OS and the memory
// system rather than by us.
//
// Correctness transfers by post-hoc checking (the Haldar–Vitányi move:
// validate the recorded history, not the scheduler): programs record each
// completed call into a native::HistoryRecorder arena, stamped from the one
// shared atomic clock, and the merged log feeds the exact same property
// checkers as simulated runs. NativeSystem itself is policy-free — it maps
// P programs onto W workers (work claimed off an atomic counter, so W < P
// just serializes some programs per worker), joins, quiesces the memory's
// retirement stacks, and reports RunStats.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "atomicmem/atomic_memory.hpp"
#include "runtime/coro.hpp"
#include "util/assert.hpp"

namespace stamped::native {

/// Floor for RunStats::elapsed_seconds. Tiny runs (a handful of programs on
/// a fast machine) can finish inside one steady_clock tick; dividing ops by
/// a zero or sub-tick elapsed yields inf or garbage-of-ten rates. One
/// microsecond is far below anything a thread spawn costs, so the clamp
/// never distorts a real measurement — it only keeps degenerate runs finite.
inline constexpr double kMinElapsedSeconds = 1e-6;

/// What one run() did, for ScenarioReport's native fields and the T12 bench.
struct RunStats {
  int threads = 0;               ///< workers actually spawned
  /// Spawn-to-join wall time, clamped to >= kMinElapsedSeconds so rate math
  /// (ops / elapsed) stays finite on degenerate runs.
  double elapsed_seconds = 0.0;
  std::uint64_t ops = 0;         ///< register operations (sum of my_steps)
  std::uint64_t calls = 0;       ///< completed getTS calls (note_call_complete)
  std::vector<std::uint64_t> per_thread_calls;  ///< calls by worker index
  std::uint64_t retired_nodes = 0;      ///< memory retirees left post-quiesce
  std::uint64_t memory_arena_bytes = 0; ///< AtomicMemory heap after quiesce

  [[nodiscard]] double ops_per_sec() const {
    return static_cast<double>(ops) /
           std::max(elapsed_seconds, kMinElapsedSeconds);
  }
  [[nodiscard]] double calls_per_sec() const {
    return static_cast<double>(calls) /
           std::max(elapsed_seconds, kMinElapsedSeconds);
  }
};

/// Runs one program per process on a pool of real threads. Single-use: build,
/// run once, harvest the recorder. The memory lives here; programs reach it
/// through the per-process DirectCtx handed to them at spawn time.
template <class V>
class NativeSystem {
 public:
  using Ctx = atomicmem::DirectCtx<V>;
  using Program = std::function<runtime::ProcessTask(Ctx&)>;

  NativeSystem(int num_registers, const V& initial,
               std::vector<Program> programs)
      : mem_(num_registers, initial), programs_(std::move(programs)) {
    STAMPED_ASSERT_MSG(!programs_.empty(),
                       "a native run needs at least one program");
  }

  [[nodiscard]] atomicmem::AtomicMemory<V>& memory() { return mem_; }
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(programs_.size());
  }

  /// Executes every program to completion on `threads` workers (0 = hardware
  /// concurrency; requests are honored even beyond the core count — the OS
  /// time-slices, which is exactly the adversary we want — but never more
  /// workers than programs). Rethrows the first program exception after the
  /// pool joins. Single-use.
  RunStats run(int threads = 0) {
    STAMPED_ASSERT_MSG(!ran_, "NativeSystem::run is single-use");
    ran_ = true;

    const int n = num_processes();
    int pool = threads;
    if (pool <= 0) {
      pool = static_cast<int>(std::thread::hardware_concurrency());
      if (pool < 1) pool = 1;
    }
    if (pool > n) pool = n;

    // One ctx per process (not per worker): my_steps/calls_completed are
    // per-process facts, and a worker running several processes must not
    // blend their counters.
    std::vector<std::unique_ptr<Ctx>> ctxs;
    ctxs.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      ctxs.push_back(std::make_unique<Ctx>(&mem_, p, &clock_));
    }
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> per_thread_calls(
        static_cast<std::size_t>(pool), 0);
    std::atomic<int> next{0};

    const auto started = std::chrono::steady_clock::now();
    {
      std::vector<std::jthread> workers;
      workers.reserve(static_cast<std::size_t>(pool));
      for (int w = 0; w < pool; ++w) {
        workers.emplace_back([&, w] {
          // Workers claim processes off the shared counter; per_thread_calls
          // slot w is written by worker w alone.
          for (;;) {
            const int p = next.fetch_add(1, std::memory_order_relaxed);
            if (p >= n) return;
            auto& ctx = *ctxs[static_cast<std::size_t>(p)];
            runtime::ProcessTask task =
                programs_[static_cast<std::size_t>(p)](ctx);
            task.handle().resume();
            // Immediately-ready awaiters: one resume runs the whole program.
            STAMPED_ASSERT_MSG(task.done(),
                               "native program suspended; DirectCtx awaiters "
                               "must be immediately ready");
            errors[static_cast<std::size_t>(p)] = task.exception();
            per_thread_calls[static_cast<std::size_t>(w)] +=
                ctx.calls_completed();
          }
        });
      }
    }  // jthreads join here
    const auto finished = std::chrono::steady_clock::now();

    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    // The run's quiesce point: workers are joined, so nobody is pinned in
    // this memory — free the whole retirement backlog.
    mem_.quiesce();

    RunStats stats;
    stats.threads = pool;
    stats.elapsed_seconds =
        std::max(std::chrono::duration<double>(finished - started).count(),
                 kMinElapsedSeconds);
    for (const auto& ctx : ctxs) {
      stats.ops += ctx->my_steps();
      stats.calls += ctx->calls_completed();
    }
    stats.per_thread_calls = std::move(per_thread_calls);
    stats.retired_nodes = mem_.retired_nodes();
    stats.memory_arena_bytes = mem_.arena_bytes();
    return stats;
  }

 private:
  atomicmem::AtomicMemory<V> mem_;
  std::vector<Program> programs_;
  std::atomic<std::uint64_t> clock_{0};
  bool ran_ = false;
};

}  // namespace stamped::native
