// The coverage-guided schedule fuzzer: unit tests for the op-pair coverage
// map, plus the seeded-bug differential — a bounded variant with a planted
// label-recycling bug (planted_bugs.hpp) that fair schedules never trip,
// which the fuzzer must find within a fixed budget. A same-budget seeded-random sweep
// runs for comparison but carries no obligation to find it: that asymmetry
// is the point of coverage guidance.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/harness.hpp"
#include "planted_bugs.hpp"
#include "verify/coverage.hpp"

namespace {

using namespace stamped;

runtime::StepInfo step(int pid, runtime::OpKind kind, int reg) {
  return {pid, kind, reg};
}

TEST(CoverageMap, SignatureDistinguishesOpKindRegisterAndAliasing) {
  const auto rd = [](int pid, int reg) {
    return step(pid, runtime::OpKind::kRead, reg);
  };
  const auto wr = [](int pid, int reg) {
    return step(pid, runtime::OpKind::kWrite, reg);
  };
  // Orientation matters: who steps first is part of the interleaving.
  EXPECT_NE(verify::CoverageMap::signature(rd(0, 0), wr(1, 1)),
            verify::CoverageMap::signature(wr(1, 1), rd(0, 0)));
  // Op kind matters.
  EXPECT_NE(verify::CoverageMap::signature(rd(0, 0), rd(1, 1)),
            verify::CoverageMap::signature(rd(0, 0), wr(1, 1)));
  // Register matters.
  EXPECT_NE(verify::CoverageMap::signature(rd(0, 0), wr(1, 1)),
            verify::CoverageMap::signature(rd(0, 0), wr(1, 2)));
  // The low bit is the same-register (conflict) flag.
  EXPECT_EQ(verify::CoverageMap::signature(rd(0, 3), wr(1, 3)) & 1u, 1u);
  EXPECT_EQ(verify::CoverageMap::signature(rd(0, 3), wr(1, 4)) & 1u, 0u);
  // The signature ignores pids — only the op shapes and their aliasing
  // matter, so coverage transfers across symmetric processes.
  EXPECT_EQ(verify::CoverageMap::signature(rd(0, 2), wr(1, 2)),
            verify::CoverageMap::signature(rd(2, 2), wr(0, 2)));
}

TEST(CoverageMap, AddExecutionCountsFreshCrossProcessPairsOnly) {
  verify::CoverageMap cov;
  const std::vector<runtime::StepInfo> steps = {
      step(0, runtime::OpKind::kRead, 0),   // p0,p0: same pid — no signature
      step(0, runtime::OpKind::kWrite, 0),  //
      step(1, runtime::OpKind::kRead, 1),   // p0->p1 boundary: 1 signature
      step(0, runtime::OpKind::kRead, 0),   // p1->p0 boundary: 1 signature
  };
  EXPECT_EQ(cov.add_execution(steps), 2u);
  EXPECT_EQ(cov.size(), 2u);
  // Replaying the same execution visits nothing new.
  EXPECT_EQ(cov.add_execution(steps), 0u);
  EXPECT_EQ(cov.size(), 2u);
  EXPECT_EQ(cov.add_execution({}), 0u);
}

using planted::buggy_bounded_family;
using planted::buggy_spec;

constexpr std::uint64_t kFuzzSeed = 11;
constexpr std::uint64_t kFuzzBudget = 64;

TEST(SeededBug, FairSchedulesDoNotTripTheBug) {
  // The differential's baseline: the bug is schedule-dependent, not a plain
  // logic error — sequential and round-robin runs are clean.
  const auto fam = buggy_bounded_family();
  for (const auto& source : {api::sequential(), api::round_robin()}) {
    const auto report = api::Harness{}.run_scenario(fam, buggy_spec(), source);
    EXPECT_TRUE(report.ok()) << source.name << ": " << report.summary();
    EXPECT_TRUE(report.all_finished);
  }
}

TEST(SeededBug, CoverageFuzzerFindsTheViolationWithinBudget) {
  const auto fam = buggy_bounded_family();
  const auto report = api::Harness{}.run_scenario(
      fam, buggy_spec(), api::coverage_fuzzer(kFuzzSeed, kFuzzBudget));
  EXPECT_FALSE(report.ok())
      << "planted recycling bug not found in " << kFuzzBudget
      << " executions: " << report.summary();
  EXPECT_GT(report.coverage_signatures, 0u);
  EXPECT_GE(report.corpus_size, 1u);
  EXPECT_EQ(report.executions, kFuzzBudget);
}

TEST(SeededBug, RandomAtEqualBudgetCarriesNoObligation) {
  // The same budget of independent seeded-random executions. Whether it
  // stumbles onto the bug is seed luck — the differential asserts nothing
  // about it beyond well-formedness, and reports the count for the curious.
  const auto fam = buggy_bounded_family();
  std::uint64_t found = 0;
  for (std::uint64_t e = 0; e < kFuzzBudget; ++e) {
    auto spec = buggy_spec();
    spec.seed = kFuzzSeed + e;
    const auto report =
        api::Harness{}.run_scenario(fam, spec, api::seeded_random());
    EXPECT_TRUE(report.all_finished);
    if (!report.ok()) ++found;
  }
  RecordProperty("random_violations_found", static_cast<int>(found));
}

}  // namespace
