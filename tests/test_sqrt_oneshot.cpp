// Tests: Algorithm 4 (Section 6) — correctness, invariants, space bound,
// phase structure, wait-freedom, the bounded-M generalization, and the
// Section 7 growing variant.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "core/growing_oneshot.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"
#include "util/math.hpp"
#include "verify/hb_checker.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace stamped;
using core::PairTimestamp;

TEST(SqrtOneShot, RegisterAllocationMatchesTheorem13) {
  EXPECT_EQ(core::sqrt_oneshot_registers(1), 2);
  EXPECT_EQ(core::sqrt_oneshot_registers(4), 4);
  EXPECT_EQ(core::sqrt_oneshot_registers(16), 8);
  EXPECT_EQ(core::sqrt_oneshot_registers(100), 20);
  auto sys = core::make_sqrt_oneshot_system(16, nullptr);
  EXPECT_EQ(sys->num_registers(), 8);
}

TEST(SqrtOneShot, SequentialExecutionFollowsPhaseSchema) {
  // Sequential calls: the phase-k starter returns (k, 0) and the j-th
  // invalidator after it returns (k, j) — Section 6.1's sequential analysis.
  const int n = 10;
  runtime::CallLog<PairTimestamp> log;
  auto sys = core::make_sqrt_oneshot_system(n, &log);
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(*sys, p, 1, 100000));
  }
  runtime::check_no_failures(*sys);
  auto records = log.snapshot();
  ASSERT_EQ(static_cast<int>(records.size()), n);
  const std::vector<PairTimestamp> expected{
      {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1},
      {3, 2}, {4, 0}, {4, 1}, {4, 2}, {4, 3},
  };
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].ts.rnd,
              expected[static_cast<std::size_t>(i)].rnd) << "call " << i;
    EXPECT_EQ(records[static_cast<std::size_t>(i)].ts.turn,
              expected[static_cast<std::size_t>(i)].turn) << "call " << i;
  }
}

TEST(SqrtOneShot, SequentialSpaceIsSqrtTwoM) {
  // Sequential execution fills phases 1,2,...: after M calls about
  // sqrt(2M) registers are non-bottom — comfortably below ceil(2*sqrt(M)).
  const int n = 50;
  auto sys = core::make_sqrt_oneshot_system(n, nullptr);
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(*sys, p, 1, 100000));
  }
  const int used = sys->registers_written();
  EXPECT_LE(used, core::sqrt_oneshot_registers(n) - 1);  // sentinel untouched
  EXPECT_GE(used, util::isqrt(2 * n) - 1);
}

// Property sweep over (n, seed): correctness + invariants + space bound under
// random schedules, with the invariant checker validating every single step.
class SqrtOneShotProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SqrtOneShotProperty, CorrectInvariantsAndSpace) {
  const auto [n, seed] = GetParam();
  runtime::CallLog<PairTimestamp> log;
  core::SqrtStats stats;
  auto sys = core::make_sqrt_oneshot_system(n, &log, &stats);
  verify::SqrtInvariantChecker checker;
  checker.attach(*sys);
  util::Rng rng(seed);
  runtime::run_random(*sys, rng, 1 << 24);
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  EXPECT_EQ(checker.steps_checked(), sys->steps_taken());

  // Correctness: the timestamp property.
  ASSERT_EQ(static_cast<int>(log.size()), n);
  auto report = verify::check_timestamp_property(log.snapshot(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Space: at most ceil(2*sqrt(n)) registers, sentinel never written.
  EXPECT_LE(sys->registers_written(), core::sqrt_oneshot_registers(n) - 1);
  EXPECT_FALSE(sys->register_written(sys->num_registers() - 1));

  // Phase analysis: Phi < 2*sqrt(M), invalidations <= 2M, Claim 6.8.
  auto analysis = verify::analyze_phases(*sys, stats, n);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SqrtOneShotProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 9, 16, 25, 40, 64),
                       ::testing::Values(11u, 12u, 13u, 14u, 15u)),
    [](const auto& info) {
      std::ostringstream name;
      name << "n" << std::get<0>(info.param) << "_seed"
           << std::get<1>(info.param);
      return name.str();
    });

TEST(SqrtOneShot, WaitFreeStepBound) {
  // Lemma 6.14: the while-loop <= m-1 iterations, the for-loop <= m-2, and
  // the scan's collects are bounded by interfering writes. We assert a
  // generous concrete bound: every call finishes within O(m * (m + M)) steps.
  for (int n : {8, 32, 64}) {
    core::SqrtStats stats;
    auto sys = core::make_sqrt_oneshot_system(n, nullptr, &stats);
    util::Rng rng(static_cast<std::uint64_t>(1000 + n));
    runtime::run_random(*sys, rng, 1 << 24);
    ASSERT_TRUE(sys->all_finished());
    const std::uint64_t m =
        static_cast<std::uint64_t>(core::sqrt_oneshot_registers(n));
    const std::uint64_t bound =
        4 * m * (m + static_cast<std::uint64_t>(n)) + 64;
    for (const auto& call : stats.calls()) {
      EXPECT_LE(call.steps, bound) << "call by " << call.id.repr();
    }
  }
}

TEST(SqrtOneShot, AdversarialStallersStillCorrect) {
  // Schedule half the processes to the brink of their first write, then let
  // the rest run, then release the stalled writers — exercising the stale
  // invalidation paths (lines 10-12).
  const int n = 16;
  runtime::CallLog<PairTimestamp> log;
  core::SqrtStats stats;
  auto sys = core::make_sqrt_oneshot_system(n, &log, &stats);
  verify::SqrtInvariantChecker checker;
  checker.attach(*sys);
  std::unordered_set<int> nothing;
  for (int p = 0; p < n / 2; ++p) {
    runtime::run_solo_until_poised_outside(*sys, p, nothing, 100000);
  }
  for (int p = n / 2; p < n; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(*sys, p, 1, 100000));
  }
  for (int p = 0; p < n / 2; ++p) {
    ASSERT_TRUE(runtime::run_solo_until_calls_complete(*sys, p, 1, 100000));
  }
  runtime::check_no_failures(*sys);
  auto report = verify::check_timestamp_property(log.snapshot(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(sys->registers_written(), core::sqrt_oneshot_registers(n) - 1);
}

TEST(SqrtOneShot, BoundedMGeneralization) {
  // M = n * calls per process; IDs are "p.k"; the register budget follows M.
  const int n = 6;
  const int calls = 4;
  runtime::CallLog<PairTimestamp> log;
  core::SqrtStats stats;
  auto sys = core::make_sqrt_bounded_system(n, calls, &log, &stats);
  EXPECT_EQ(sys->num_registers(), core::sqrt_oneshot_registers(n * calls));
  verify::SqrtInvariantChecker checker;
  checker.attach(*sys);
  util::Rng rng(77);
  runtime::run_random(*sys, rng, 1 << 24);
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  ASSERT_EQ(static_cast<int>(log.size()), n * calls);
  auto report = verify::check_timestamp_property(log.snapshot(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  auto mono = verify::check_per_process_monotonicity(log.snapshot(),
                                                     core::Compare{});
  EXPECT_TRUE(mono.ok()) << mono.to_string();
  auto analysis = verify::analyze_phases(*sys, stats, n * calls);
  EXPECT_TRUE(analysis.bounds_ok()) << analysis.to_string();
}

TEST(SqrtOneShot, GrowingVariantUnboundedPool) {
  // Section 7: same algorithm, register pool sized by actual invocations.
  const int n = 12;
  runtime::CallLog<PairTimestamp> log;
  auto sys = core::make_growing_oneshot_system(n, &log);
  EXPECT_EQ(sys->num_registers(), core::growing_pool_registers(n));
  util::Rng rng(5);
  runtime::run_random(*sys, rng, 1 << 24);
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  auto report = verify::check_timestamp_property(log.snapshot(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The pool is larger, but usage stays within the Lemma 6.5 bound.
  EXPECT_LE(sys->registers_written(), core::sqrt_oneshot_registers(n));
}

TEST(SqrtOneShot, AlwaysOverwriteAblationStillCorrect) {
  const int n = 20;
  runtime::CallLog<PairTimestamp> log;
  core::SqrtStats stats;
  // Give the ablated variant a generous register pool: it may exceed the
  // paper's space bound (that is the point of the ablation).
  auto sys = core::make_sqrt_oneshot_system(
      n, &log, &stats, core::growing_pool_registers(n),
      core::SqrtVariant::kAlwaysOverwrite);
  util::Rng rng(123);
  runtime::run_random(*sys, rng, 1 << 24);
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  auto report = verify::check_timestamp_property(log.snapshot(), core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SqrtOneShot, ScanCollectCountsRecorded) {
  core::SqrtStats stats;
  auto sys = core::make_sqrt_oneshot_system(8, nullptr, &stats);
  util::Rng rng(9);
  runtime::run_random(*sys, rng, 1 << 22);
  ASSERT_TRUE(sys->all_finished());
  ASSERT_FALSE(stats.scans().empty());
  for (const auto& scan : stats.scans()) {
    EXPECT_GE(scan.collects, 2u);  // a successful double collect needs two
  }
}

}  // namespace
