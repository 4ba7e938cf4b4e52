// Mutation test: the paper's Section 6.1 discussion, executed.
//
// "A more serious potential problem due to concurrency occurs when [scan and
// write are not atomic]. ... getTS(b) beginning after getTS(a) completes
// would invalidate R[1] and return timestamp (k, 1), which is incorrect
// because it is less than getTS(a)'s timestamp. This problem is eliminated
// by ensuring that when getTS(a) determines that a register R[i] is invalid,
// it will remain invalid for the duration of the phase [the line 10-11
// overwrite when rnd < myrnd]."
//
// We run the paper's exact interleaving against
//   (a) the kNeverOverwrite mutant — the violation must appear;
//   (b) the real algorithm — the same orchestration must stay correct.
// Notably, 24,000 random-schedule runs of the mutant found no violation
// (measured during development): this interleaving is genuinely surgical,
// which is why the invariant matters.
//
// Cast (n = 8, phase numbers are the paper's 1-based rounds):
//   P0  starts phase 1: writes R1 = <(P0), 1>, returns (1,0)
//   P1  starts phase 2: writes R2 = <(P0,P1), 2>, returns (2,0)
//   P2  "old writer" C: myrnd=2, sees R1 valid, STALLS poised to write
//       R1 = <(C), 2> (the stale line-8 write)
//   P3  D: invalidates R1 = <(D), 2>, returns (2,1)
//   P4  p: slow phase-3 starter; scans BEFORE C's stale write lands
//   P5  q: second phase-3 starter; scans AFTER C's stale write lands
//   P6  a: must return (3,2) — R1 looks invalid to it (mutant: not re-asserted)
//   P7  b: after q's R3 write re-validates R1, returns (3,1) < (3,2) although
//       a completed before b began. VIOLATION (mutant only).
#include <gtest/gtest.h>

#include "core/sqrt_oneshot.hpp"
#include "planted_bugs.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using core::PairTimestamp;
using core::SqrtVariant;

using planted::ScenarioResult;

ScenarioResult run_scenario(SqrtVariant variant) {
  return planted::run_section61_interleaving(variant);
}

PairTimestamp ts_of(const ScenarioResult& r, int pid) {
  for (const auto& rec : r.records) {
    if (rec.pid == pid) return rec.ts;
  }
  ADD_FAILURE() << "no record for pid " << pid;
  return {};
}

TEST(Mutation, NeverOverwriteMutantViolatesExactlyAsThePaperPredicts) {
  auto result = run_scenario(SqrtVariant::kNeverOverwrite);
  ASSERT_TRUE(result.orchestration_ok);
  ASSERT_EQ(result.records.size(), 8u);

  // The witnesses receive the paper's predicted timestamps.
  EXPECT_EQ(ts_of(result, 6), (PairTimestamp{3, 2}));  // a
  EXPECT_EQ(ts_of(result, 7), (PairTimestamp{3, 1}));  // b — too small!

  auto report =
      verify::check_timestamp_property(result.records, core::Compare{});
  EXPECT_FALSE(report.ok())
      << "the mutant should violate the timestamp property";
}

TEST(Mutation, PaperAlgorithmSurvivesTheSameInterleaving) {
  auto result = run_scenario(SqrtVariant::kPaper);
  ASSERT_TRUE(result.orchestration_ok);
  ASSERT_EQ(result.records.size(), 8u);

  // With the line 10-11 re-assertion, a still gets (3,2) but b is pushed to
  // the next round.
  EXPECT_EQ(ts_of(result, 6), (PairTimestamp{3, 2}));  // a
  EXPECT_EQ(ts_of(result, 7), (PairTimestamp{4, 0}));  // b

  auto report =
      verify::check_timestamp_property(result.records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Mutation, AlwaysOverwriteSurvivesTheSameInterleaving) {
  auto result = run_scenario(SqrtVariant::kAlwaysOverwrite);
  ASSERT_TRUE(result.orchestration_ok);
  auto report =
      verify::check_timestamp_property(result.records, core::Compare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
