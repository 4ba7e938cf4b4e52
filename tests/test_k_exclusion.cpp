// Tests: FIFO k-exclusion built on the timestamp object (src/apps/).
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "adversary/longlived_builder.hpp"
#include "apps/k_exclusion.hpp"
#include "core/sqrt_oneshot.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace stamped;

class KExclusionSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(KExclusionSweep, AtMostKOccupantsUnderRandomSchedules) {
  const auto [n, k, seed] = GetParam();
  apps::BakeryLog log;
  auto sys = apps::make_kexclusion_system(n, k, 2, &log);
  apps::attach_kexclusion_checker(*sys, n, k);  // throws on >k occupancy
  util::Rng rng(seed);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys->all_finished()) << "no progress under a fair schedule?";
  runtime::check_no_failures(*sys);
  auto records = log.snapshot();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n * 2));
  const std::string verdict = apps::check_k_overlap(records, k);
  EXPECT_TRUE(verdict.empty()) << verdict;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KExclusionSweep,
    ::testing::Combine(::testing::Values(3, 5, 8), ::testing::Values(1, 2, 3),
                       ::testing::Values(81u, 82u)),
    [](const auto& info) {
      std::ostringstream name;
      name << "n" << std::get<0>(info.param) << "_k" << std::get<1>(info.param)
           << "_seed" << std::get<2>(info.param);
      return name.str();
    });

TEST(KExclusion, KEqualOneIsMutualExclusion) {
  apps::BakeryLog log;
  auto sys = apps::make_kexclusion_system(4, 1, 2, &log);
  apps::attach_kexclusion_checker(*sys, 4, 1);
  util::Rng rng(5);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys->all_finished());
  EXPECT_TRUE(apps::check_cs_disjoint(log.snapshot()).empty());
}

TEST(KExclusion, LargeKNeverBlocks) {
  // k >= n: everyone may enter immediately; still safe and live.
  apps::BakeryLog log;
  auto sys = apps::make_kexclusion_system(4, 8, 3, &log);
  apps::attach_kexclusion_checker(*sys, 4, 8);
  util::Rng rng(6);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 26);
  ASSERT_TRUE(sys->all_finished());
  EXPECT_EQ(log.snapshot().size(), 12u);
}

TEST(KExclusion, CheckerDetectsOverflow) {
  // Three fully-overlapping sections violate k = 2.
  std::vector<apps::BakeryAcquisition> fake;
  for (int p = 0; p < 3; ++p) {
    apps::BakeryAcquisition a;
    a.pid = p;
    a.cs_enter = 10;
    a.cs_exit = 20;
    fake.push_back(a);
  }
  EXPECT_FALSE(apps::check_k_overlap(fake, 2).empty());
  EXPECT_TRUE(apps::check_k_overlap(fake, 3).empty());
}

TEST(LongLivedBuilder, WorksAgainstBoundedAlgorithm4) {
  // The Section 3 machinery applied to a *multi-writer* long-lived object:
  // Algorithm 4 in its bounded-M form, each process performing several
  // calls. Multiple processes can cover the same register here, so the
  // builder's <=3-per-register constraint is actually exercised.
  const int n = 12;
  const int calls = 6;
  auto factory = [n, calls]() -> std::unique_ptr<runtime::ISystem> {
    return core::make_sqrt_bounded_system(n, calls, nullptr, nullptr);
  };
  adversary::LongLivedBuilderOptions opts;
  opts.recurrence_rounds = 12;
  auto result = adversary::build_longlived_covering(factory, n, n / 2, opts);
  EXPECT_GE(result.k_reached, 1) << result.summary();
  EXPECT_TRUE(result.is_3k) << result.summary();
  // Some register must be covered by 2+ processes at some point across the
  // recorded signatures (multi-writer coverage), unlike the SWMR max-scan.
  bool multi_cover_seen = false;
  for (const auto& sig : result.signature_history) {
    for (int s : sig) multi_cover_seen |= s >= 2;
  }
  EXPECT_TRUE(multi_cover_seen) << result.summary();
}

}  // namespace
