// Planted bugs shared by the checker tests: histories the timestamp
// property checkers must flag.
//
//  - buggy_bounded_family(): a test-local bounded variant with a stale-epoch
//    recycling bug that fair schedules never trip (the coverage fuzzer's
//    seeded-bug differential in test_coverage_fuzzer.cpp).
//  - run_section61_interleaving(): the paper's Section 6.1 interleaving run
//    against a variant of Algorithm 4 (test_mutation.cpp explains the cast);
//    the kNeverOverwrite mutant violates the property under it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "api/family.hpp"
#include "core/growing_oneshot.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/coro.hpp"
#include "runtime/history.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/system.hpp"

namespace stamped::planted {

// ---- the seeded bug -------------------------------------------------------
//
// A bounded-universe variant: labels live in Z_K (collect/max+1 over n label
// registers), and when the label space is exhausted the caller recycles —
// clears every label register and opens the next epoch by bumping register n.
// Timestamps are epoch*K + label, compared as integers.
//
// The planted bug is in the recycling path: the epoch it writes is derived
// from the value read at the START of the call. If two other wraps complete
// between that read and the wrap write, the stale write REGRESSES the epoch
// register, and a later call returns a timestamp at or below one that already
// completed — a timestamp-property violation. Fair schedules (sequential,
// round-robin) never stall a caller across two full wraps, so the bug is
// invisible to them; only an adversarial stall between the epoch read and the
// wrap write exposes it.

constexpr std::int64_t kBuggyModulus = 4;

using BuggySys = runtime::System<std::int64_t>;

inline runtime::SubTask<std::int64_t> buggy_getts(
    BuggySys::Ctx& ctx, int pid, int n, int call_index,
    runtime::CallLog<std::int64_t>* log) {
  const std::uint64_t invoked = ctx.stamp();
  const std::int64_t e = co_await ctx.read(n);  // epoch, read once (the bug)
  std::int64_t mx = 0;
  for (int i = 0; i < n; ++i) {
    mx = std::max(mx, co_await ctx.read(i));
  }
  std::int64_t label = mx + 1;
  std::int64_t epoch = e;
  if (label >= kBuggyModulus) {
    // Recycle: clear the exhausted labels and open the next epoch. `e` is
    // stale by now if other wraps completed since the call started — the
    // write below can move the epoch register backwards.
    label = 0;
    epoch = e + 1;
    for (int i = 0; i < n; ++i) co_await ctx.write(i, 0);
    co_await ctx.write(n, epoch);
  } else {
    co_await ctx.write(pid, label);
  }
  const std::int64_t ts = epoch * kBuggyModulus + label;
  if (log != nullptr) log->record({pid, call_index, ts, invoked, ctx.stamp()});
  ctx.note_call_complete();
  co_return ts;
}

inline runtime::ProcessTask buggy_program(
    BuggySys::Ctx& ctx, int pid, int n, int num_calls,
    runtime::CallLog<std::int64_t>* log) {
  for (int k = 0; k < num_calls; ++k) {
    co_await buggy_getts(ctx, pid, n, k, log);
  }
}

inline api::TimestampFamily buggy_bounded_family() {
  api::TimestampFamily fam;
  fam.name = "buggy-bounded";
  fam.summary = "test-local bounded variant with a stale-epoch recycling bug";
  fam.paper_ref = "none (seeded bug for the fuzzer differential)";
  fam.lifetime = api::Lifetime::kLongLived;
  fam.universe = "epoch*K + label, compared as integers";
  fam.max_calls_per_process = 0;
  fam.registers_allocated = [](const api::ScenarioSpec& spec) {
    return static_cast<std::int64_t>(spec.n) + 1;
  };
  fam.writes_full_allocation = true;
  fam.make =
      [](const api::ScenarioSpec& spec) -> std::unique_ptr<api::FamilyInstance> {
    auto inst = std::make_unique<api::TypedFamilyInstance<
        std::int64_t, std::int64_t, std::less<std::int64_t>>>();
    std::vector<BuggySys::Program> programs;
    for (int p = 0; p < spec.n; ++p) {
      programs.push_back(
          [p, n = spec.n, calls = spec.calls_per_process,
           log = &inst->log()](BuggySys::Ctx& ctx) {
            return buggy_program(ctx, p, n, calls, log);
          });
    }
    inst->adopt(std::make_unique<BuggySys>(spec.n + 1, std::int64_t{0},
                                           std::move(programs)));
    return inst;
  };
  return fam;
}

inline api::ScenarioSpec buggy_spec() {
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 8;
  spec.seed = 5;
  return spec;
}

// ---- the Section 6.1 interleaving -----------------------------------------

/// The records of one run of the interleaving, and whether every solo run
/// of the orchestration reached its target.
struct ScenarioResult {
  std::vector<runtime::CallRecord<core::PairTimestamp>> records;
  bool orchestration_ok = true;
};

// Runs a process solo until its (first) pending write targets register
// `reg` (0-based). The write is not executed.
inline bool pause_before_write_to(runtime::ISystem& sys, int pid, int reg) {
  std::unordered_set<int> covered;
  for (int r = 0; r < sys.num_registers(); ++r) {
    if (r != reg) covered.insert(r);
  }
  return runtime::run_solo_until_poised_outside(sys, pid, covered, 100000);
}

/// Drives an n = 8 system of Algorithm 4's `variant` through the paper's
/// Section 6.1 interleaving (test_mutation.cpp lists the cast).
inline ScenarioResult run_section61_interleaving(core::SqrtVariant variant) {
  ScenarioResult out;
  const int n = 8;
  runtime::CallLog<core::PairTimestamp> log;
  auto sys = core::make_sqrt_oneshot_system(
      n, &log, nullptr, core::growing_pool_registers(n), variant);
  auto complete = [&](int pid) {
    // A preceding step() may have resumed the process through to completion
    // (one-shot programs finish right after their last write).
    if (sys->finished(pid)) return;
    out.orchestration_ok &=
        runtime::run_solo_until_calls_complete(*sys, pid, 1, 100000);
  };

  complete(0);                                     // phase 1: R1 written
  complete(1);                                     // phase 2: R2 written
  out.orchestration_ok &= pause_before_write_to(*sys, 2, 0);  // C stalls at R1
  complete(3);                                     // D invalidates R1, (2,1)
  out.orchestration_ok &= pause_before_write_to(*sys, 4, 2);  // p scanned, at R3
  sys->step(2);                                    // C's stale write lands
  complete(2);                                     // C returns (2,1)
  out.orchestration_ok &= pause_before_write_to(*sys, 5, 2);  // q scanned, at R3
  sys->step(4);                                    // p writes R3
  complete(4);                                     // p returns (3,0)
  complete(6);                                     // a — the key witness
  sys->step(5);                                    // q's late R3 write
  complete(5);                                     // q returns (3,0)
  complete(7);                                     // b — the second witness
  runtime::check_no_failures(*sys);
  out.records = log.snapshot();
  return out;
}

}  // namespace stamped::planted
