// Per-layer micro-loops of the traced run.
//
// Each probe times calls into one layer's public functions in isolation —
// AtomicMemory and DirectCtx ops, the snapshot scans, a NativeSystem run of
// trivial programs, getTS through FamilyInstance::run_native on 1 and 4
// workers, and solo sharded vs plain runs — and reports the median of
// several repeats. Nothing here re-implements library internals.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "atomicmem/atomic_memory.hpp"
#include "core/timestamp.hpp"
#include "native/native_system.hpp"
#include "shard/sharded_instance.hpp"
#include "snapshot/double_collect.hpp"
#include "snapshot/versioned_collect.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace atomicmem = stamped::atomicmem;
namespace runtime = stamped::runtime;

/// Per-layer metric values by name; the caller fills in zeros for layers a
/// workload does not measure.
using LayerValues = std::map<std::string, double>;

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Keeps `v` observable so the compiler cannot drop the loop producing it.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

/// Median over `reps` repeats of body() time divided by `ops`, in ns.
template <class Body>
[[nodiscard]] double median_ns_per_op(int reps, std::uint64_t ops,
                                      Body&& body) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    per_op.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(per_op);
}

namespace detail {

constexpr int kReps = 7;

inline runtime::ProcessTask one_read_program(
    atomicmem::DirectCtx<std::int64_t>& ctx) {
  keep(co_await ctx.read(0));
}

template <bool kVersioned>
runtime::ProcessTask scan_program(atomicmem::DirectCtx<std::int64_t>& ctx,
                                  int regs, int scans,
                                  std::uint64_t* collects) {
  for (int s = 0; s < scans; ++s) {
    auto r = kVersioned
                 ? co_await stamped::snapshot::versioned_double_collect_scan(
                       ctx, regs)
                 : co_await stamped::snapshot::double_collect_scan(ctx, regs);
    *collects += r.collects;
  }
}

/// Runs a DirectCtx program to completion on this thread (DirectCtx awaiters
/// are immediately ready, so one resume finishes it).
inline void run_inline(runtime::ProcessTask task) {
  task.handle().resume();
  STAMPED_ASSERT_MSG(task.done(), "DirectCtx program suspended");
  if (task.exception()) std::rethrow_exception(task.exception());
}

}  // namespace detail

/// atomicmem.*: inline int64 cells solo, a heap (node) cell, and the bare
/// std::atomic reference every ratio is taken against.
inline void probe_atomicmem(LayerValues& out, Gate& gate, Tracer& tr,
                            bool tiny) {
  Tracer::Scope span(tr, "ledger.atomicmem");
  const std::uint64_t ops = tiny ? 20000 : 1000000;
  std::atomic<std::int64_t> raw{0};
  out["atomicmem.raw_fetch_add_ns"] =
      median_ns_per_op(detail::kReps, ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i) keep(raw.fetch_add(1));
      });
  atomicmem::AtomicMemory<std::int64_t> mem(4, 0);
  out["atomicmem.read_ns"] = median_ns_per_op(detail::kReps, ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) keep(mem.read(int(i & 3)));
  });
  out["atomicmem.write_ns"] = median_ns_per_op(detail::kReps, ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      mem.write(int(i & 3), static_cast<std::int64_t>(i));
    }
  });
  out["atomicmem.fetch_add_ns"] = median_ns_per_op(detail::kReps, ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(mem.fetch_add(int(i & 3), 1));
    }
  });
  // Heap cell: every write allocates a node and retires the old one; the
  // memory trims its retirement list as it goes.
  atomicmem::AtomicMemory<stamped::core::TsRecord> nodes(
      4, stamped::core::TsRecord::bottom());
  const auto rec = stamped::core::TsRecord::make({{0, 0}, {1, 0}}, 1);
  const std::uint64_t node_ops = ops / 10;
  out["atomicmem.node_write_ns"] =
      median_ns_per_op(detail::kReps, node_ops, [&] {
        for (std::uint64_t i = 0; i < node_ops; ++i) {
          nodes.write(int(i & 3), rec);
        }
      });
  nodes.quiesce();
  const std::uint64_t retired = nodes.retired_nodes();
  out["atomicmem.retired_after_quiesce"] = static_cast<double>(retired);
  if (retired != 0) {
    gate.fail("atomicmem: " + std::to_string(retired) +
              " nodes retired after quiesce");
  } else {
    gate.pass();
  }
}

/// native.ctx_* and native.run_fixed_us: DirectCtx bookkeeping around one
/// read, and a NativeSystem run of four trivial programs on four workers
/// (spawn, join, quiesce).
inline void probe_native(LayerValues& out, Tracer& tr, bool tiny) {
  Tracer::Scope span(tr, "ledger.native");
  const std::uint64_t ops = tiny ? 20000 : 1000000;
  atomicmem::AtomicMemory<std::int64_t> mem(4, 0);
  std::atomic<std::uint64_t> clock{0};
  atomicmem::DirectCtx<std::int64_t> ctx(&mem, 0, &clock);
  out["native.ctx_read_ns"] = median_ns_per_op(detail::kReps, ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(ctx.read(int(i & 3)).await_resume());
    }
  });
  if (out["atomicmem.read_ns"] > 0) {
    out["native.ctx_over_mem_x"] =
        out["native.ctx_read_ns"] / out["atomicmem.read_ns"];
  }
  const int runs = tiny ? 5 : 200;
  std::vector<double> us;
  for (int r = 0; r < runs; ++r) {
    using Sys = stamped::native::NativeSystem<std::int64_t>;
    std::vector<Sys::Program> programs(4, detail::one_read_program);
    Sys sys(1, 0, std::move(programs));
    const auto t0 = Clock::now();
    (void)sys.run(4);
    us.push_back(seconds_since(t0) * 1e6);
  }
  out["native.run_fixed_us"] = median(us);
}

/// snapshot.*: both scans over 16 quiet registers (the register count of
/// Algorithm 4 at n = 64), per register read.
inline void probe_snapshot(LayerValues& out, Tracer& tr, bool tiny) {
  Tracer::Scope span(tr, "ledger.snapshot");
  constexpr int kRegs = 16;
  const int scans = tiny ? 500 : 20000;
  atomicmem::AtomicMemory<std::int64_t> mem(kRegs, 0);
  std::atomic<std::uint64_t> clock{0};
  atomicmem::DirectCtx<std::int64_t> ctx(&mem, 0, &clock);
  const auto per_reg = [&](auto program) {
    std::vector<double> v;
    for (int r = 0; r < detail::kReps; ++r) {
      std::uint64_t collects = 0;
      const auto t0 = Clock::now();
      detail::run_inline(program(ctx, kRegs, scans, &collects));
      v.push_back(seconds_since(t0) * 1e9 /
                  static_cast<double>(collects * kRegs));
    }
    return median(v);
  };
  out["snapshot.double_collect_ns_per_reg"] =
      per_reg(detail::scan_program<false>);
  out["snapshot.versioned_collect_ns_per_reg"] =
      per_reg(detail::scan_program<true>);
}

/// Median over `reps` fresh runs of per-worker ns per completed call
/// (spawn-to-join time x workers / calls). `run()` builds an instance and
/// returns its NativeRunStats; construction falls outside the run's clock.
template <class Run>
[[nodiscard]] double median_call_ns(int reps, Run&& run) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const api::NativeRunStats st = run();
    v.push_back(st.elapsed_seconds * 1e9 * st.threads /
                static_cast<double>(std::max<std::uint64_t>(st.calls, 1)));
  }
  return median(v);
}

/// core.*: getTS of every registry family through make_native/run_native on
/// 1 and 4 workers. Long-lived families run n = 4 processes; one-shot
/// families n = 256, so one thread spawn is spread over 256 calls.
inline void probe_core(LayerValues& out, Tracer& tr, bool tiny) {
  Tracer::Scope span(tr, "ledger.core");
  const int threads = worker_threads();
  for (const api::TimestampFamily& fam : api::registry()) {
    api::ScenarioSpec spec;
    const bool one_shot = fam.lifetime == api::Lifetime::kOneShot;
    spec.n = one_shot ? (tiny ? 16 : 256) : 4;
    spec.calls_per_process = one_shot ? 1 : (tiny ? 200 : 5000);
    spec.backend = api::Backend::kNative;
    const auto on = [&](int workers) {
      return median_call_ns(detail::kReps, [&] {
        return fam.make_native(spec)->run_native(workers);
      });
    };
    const double solo = on(1);
    const double par = on(threads);
    out["core.getts_solo_ns." + fam.name] = solo;
    out["core.getts_4t_ns." + fam.name] = par;
    out["core.contention_x." + fam.name] = solo > 0 ? par / solo : 0.0;
  }
  if (out["atomicmem.raw_fetch_add_ns"] > 0) {
    out["core.tax_x.fetchadd"] = out["core.getts_solo_ns.fetchadd"] /
                                 out["atomicmem.raw_fetch_add_ns"];
  }
}

/// shard.route_epoch_ns.*: one solo worker, sharded (4 shards, default
/// ShardSpec) minus plain, per call.
inline void probe_shard_route(LayerValues& out, Tracer& tr, bool tiny) {
  Tracer::Scope span(tr, "ledger.shard");
  for (const char* name : {"maxscan", "fetchadd"}) {
    const api::TimestampFamily& fam = api::family(name);
    api::ScenarioSpec spec;
    spec.n = 4;
    spec.calls_per_process = tiny ? 200 : 5000;
    spec.backend = api::Backend::kNative;
    const double plain = median_call_ns(detail::kReps, [&] {
      return fam.make_native(spec)->run_native(1);
    });
    api::ScenarioSpec sharded = spec;
    sharded.shard.shards = 4;
    const double routed = median_call_ns(detail::kReps, [&] {
      return fam.make_sharded(sharded)->run_native(1);
    });
    out[std::string("shard.route_epoch_ns.") + name] = routed - plain;
  }
}

}  // namespace perfbench
