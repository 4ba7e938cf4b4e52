// Tests: the bounded-universe long-lived timestamp object
// (core/bounded_longlived.hpp, Haldar–Vitányi style).
//
// Coverage mirrors the unbounded objects' suites: compare sanity on the whole
// finite universe, space accounting, the timestamp property under sequential
// / random / exhaustively-explored schedules (within the recycling window),
// per-process monotonicity, and — the part no unbounded object has — long
// runs that wrap the label universe, checked against the windowed property.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <tuple>

#include "core/bounded_longlived.hpp"
#include "runtime/scheduler.hpp"
#include "verify/explorer.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using core::BoundedCompare;
using core::BoundedTimestamp;

BoundedTimestamp ts(std::int32_t modulus, std::vector<std::int32_t> comps) {
  return {modulus, std::move(comps)};
}

// -- compare on the finite universe -----------------------------------------

TEST(BoundedCompare, IrreflexiveAndAsymmetricOnWholeUniverse) {
  // K = 5, n = 2: all 25 labels. Irreflexivity and asymmetry must hold
  // globally, not just within a window.
  const std::int32_t k = 5;
  std::vector<BoundedTimestamp> universe;
  for (std::int32_t a = 0; a < k; ++a) {
    for (std::int32_t b = 0; b < k; ++b) {
      universe.push_back(ts(k, {a, b}));
    }
  }
  for (const auto& a : universe) {
    EXPECT_FALSE(bounded_before(a, a)) << a.repr();
    for (const auto& b : universe) {
      EXPECT_FALSE(bounded_before(a, b) && bounded_before(b, a))
          << a.repr() << " vs " << b.repr();
    }
  }
}

TEST(BoundedCompare, StrictPartialOrderOnWindowCoherentSets) {
  // Transitivity within the window: whenever a < b, b < c, and (a, c) are
  // window-coherent (every forward difference <= W), a < c must hold. This is
  // the sense in which compare is a strict partial order on labels
  // simultaneously in circulation.
  const std::int32_t k = 5;
  const std::int32_t w = core::bounded_window(k);  // 2
  std::vector<BoundedTimestamp> universe;
  for (std::int32_t a = 0; a < k; ++a) {
    for (std::int32_t b = 0; b < k; ++b) {
      universe.push_back(ts(k, {a, b}));
    }
  }
  auto coherent = [&](const BoundedTimestamp& a, const BoundedTimestamp& b) {
    for (std::size_t i = 0; i < a.comps.size(); ++i) {
      if (((b.comps[i] - a.comps[i]) % k + k) % k > w) return false;
    }
    return true;
  };
  int triples_checked = 0;
  for (const auto& a : universe) {
    for (const auto& b : universe) {
      if (!bounded_before(a, b)) continue;
      for (const auto& c : universe) {
        if (!bounded_before(b, c) || !coherent(a, c)) continue;
        EXPECT_TRUE(bounded_before(a, c))
            << a.repr() << " < " << b.repr() << " < " << c.repr();
        ++triples_checked;
      }
    }
  }
  EXPECT_GT(triples_checked, 100);
}

// The % formula bounded_before used before its branch reduction, as the
// reference: windowed cyclic dominance with ((b_i - a_i) % K + K) % K.
bool modulo_before(const BoundedTimestamp& a, const BoundedTimestamp& b) {
  if (a.modulus != b.modulus || a.comps.size() != b.comps.size()) return false;
  const std::int32_t k = a.modulus;
  if (k < 3 || a.comps.empty()) return false;
  const std::int32_t w = core::bounded_window(k);
  bool strict = false;
  for (std::size_t i = 0; i < a.comps.size(); ++i) {
    const std::int32_t diff = (((b.comps[i] - a.comps[i]) % k) + k) % k;
    if (diff > w) return false;
    if (diff >= 1) strict = true;
  }
  return strict;
}

TEST(BoundedCompare, BranchReductionEqualsModuloFormula) {
  // Every pair of 2-component vectors with components in [-2K, 3K): labels
  // proper ([0, K)) and components outside it, which take the % fallback.
  for (std::int32_t k = 3; k <= 7; ++k) {
    auto a = ts(k, {0, 0});
    auto b = ts(k, {0, 0});
    for (a.comps[0] = -2 * k; a.comps[0] < 3 * k; ++a.comps[0]) {
      for (a.comps[1] = -2 * k; a.comps[1] < 3 * k; ++a.comps[1]) {
        for (b.comps[0] = -2 * k; b.comps[0] < 3 * k; ++b.comps[0]) {
          for (b.comps[1] = -2 * k; b.comps[1] < 3 * k; ++b.comps[1]) {
            ASSERT_EQ(core::bounded_before(a, b), modulo_before(a, b))
                << a.repr() << " vs " << b.repr();
          }
        }
      }
    }
  }
}

TEST(BoundedCompare, RecyclingWrapsForward) {
  // Value K-1 recycles to 0: with K = 5, W = 2, the wrapped label still
  // dominates within the window.
  const std::int32_t k = 5;
  EXPECT_TRUE(bounded_before(ts(k, {4, 4}), ts(k, {0, 0})));   // +1, +1 (wrap)
  EXPECT_FALSE(bounded_before(ts(k, {0, 0}), ts(k, {4, 4})));  // reverse
  EXPECT_TRUE(bounded_before(ts(k, {3, 4}), ts(k, {0, 1})));   // +2, +2
  // Outside the window: incomparable in both directions is allowed — but
  // never comparable both ways.
  EXPECT_FALSE(bounded_before(ts(k, {0, 0}), ts(k, {3, 0})));  // diff 3 > W
}

TEST(BoundedCompare, MismatchedShapesIncomparable) {
  EXPECT_FALSE(bounded_before(ts(5, {1, 1}), ts(7, {2, 2})));
  EXPECT_FALSE(bounded_before(ts(5, {1, 1}), ts(5, {2, 2, 2})));
}

TEST(BoundedCompare, ModulusAndBitsHelpers) {
  EXPECT_EQ(core::bounded_modulus_for(1), 3);
  EXPECT_EQ(core::bounded_modulus_for(3), 7);
  EXPECT_EQ(core::bounded_window(5), 2);
  EXPECT_EQ(core::bounded_window(7), 3);
  // K = 5: 3 bits for val (0..4) + 3 bits for gen (0..5).
  EXPECT_EQ(core::bounded_bits_per_register(5), 6);
  // K = 3: 2 + 2.
  EXPECT_EQ(core::bounded_bits_per_register(3), 4);
}

// -- the simulated object ----------------------------------------------------

TEST(Bounded, UsesExactlyNRegistersAndBoundedValues) {
  const int n = 6;
  const int calls = 3;
  runtime::CallLog<BoundedTimestamp> log;
  auto sys = core::make_bounded_system(n, calls, 0, &log);
  EXPECT_EQ(sys->num_registers(), n);
  util::Rng rng(11);
  runtime::run_random(*sys, rng, 1 << 22);
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  EXPECT_EQ(sys->registers_written(), n);
  const std::int32_t k = core::bounded_modulus_for(calls);
  for (const auto& rec : log.snapshot()) {
    EXPECT_EQ(rec.ts.modulus, k);
    ASSERT_EQ(static_cast<int>(rec.ts.comps.size()), n);
    for (std::int32_t c : rec.ts.comps) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, k);
    }
  }
}

TEST(Bounded, SequentialCallsAreStrictlyOrdered) {
  const int n = 4;
  const int calls = 2;
  runtime::CallLog<BoundedTimestamp> log;
  auto sys = core::make_bounded_system(n, calls, 0, &log);
  for (int round = 0; round < calls; ++round) {
    for (int p = 0; p < n; ++p) {
      ASSERT_TRUE(runtime::run_solo_until_calls_complete(*sys, p, 1, 1000));
    }
  }
  runtime::check_no_failures(*sys);
  auto records = log.snapshot();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n * calls));
  // In a fully sequential run every pair of calls is ordered; compare must
  // agree with the execution order over the whole history.
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_TRUE(bounded_before(records[i].ts, records[i + 1].ts))
        << records[i].ts.repr() << " -> " << records[i + 1].ts.repr();
  }
}

// NOTE: the (n, calls, seed) property sweep that used to live here is now
// part of the registry-wide conformance suite (test_api_conformance.cpp),
// which runs the same check for every family under every schedule source
// (the bounded family's windowed obligation is applied via its pair filter).

TEST(Bounded, ConcurrentCallsMayShareTimestamps) {
  // Both processes scan before either writes: identical vectors except the
  // own component — concurrent, and legal under the weak specification.
  const int n = 2;
  runtime::CallLog<BoundedTimestamp> log;
  auto sys = core::make_bounded_system(n, 1, 0, &log);
  // Each getTS: 2 collects x 2 reads, then 1 write = 5 steps.
  runtime::run_script(*sys, std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1, 0, 1});
  ASSERT_TRUE(sys->all_finished());
  runtime::check_no_failures(*sys);
  auto records = log.snapshot();
  ASSERT_EQ(records.size(), 2u);
  auto report = verify::check_timestamp_property(log.snapshot(),
                                                 BoundedCompare{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// -- exhaustive exploration (model checking) ---------------------------------

verify::ExplorationInstance bounded_instance(int n, int calls) {
  auto log = std::make_shared<runtime::CallLog<BoundedTimestamp>>();
  verify::ExplorationInstance inst;
  inst.sys = core::make_bounded_system(n, calls, 0, log.get());
  inst.check = [log, n, calls]() -> std::optional<std::string> {
    if (static_cast<int>(log->size()) != n * calls) {
      return "expected " + std::to_string(n * calls) + " calls, saw " +
             std::to_string(log->size());
    }
    auto report =
        verify::check_timestamp_property(log->snapshot(), BoundedCompare{});
    if (!report.ok()) return report.to_string();
    auto mono = verify::check_per_process_monotonicity(log->snapshot(),
                                                       BoundedCompare{});
    if (!mono.ok()) return mono.to_string();
    return std::nullopt;
  };
  return inst;
}

TEST(BoundedExplorer, ExhaustiveN2C1) {
  // EVERY interleaving of two one-call processes satisfies the property
  // (scan retries make the tree irregular, like Algorithm 4's).
  auto result =
      verify::explore_all_executions([]() { return bounded_instance(2, 1); });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.depth_exceeded);
  EXPECT_GT(result.executions, 100u);
  EXPECT_TRUE(result.ok()) << result.violations.front();
}

TEST(BoundedExplorer, BudgetedN2C2AndN3C1) {
  // Larger systems are budget-capped prefixes of the schedule tree.
  for (auto [n, calls] : {std::pair{2, 2}, std::pair{3, 1}}) {
    verify::ExploreOptions opts;
    opts.max_executions = 20000;
    auto result = verify::explore_all_executions(
        [n = n, calls = calls]() { return bounded_instance(n, calls); }, opts);
    EXPECT_FALSE(result.depth_exceeded);
    EXPECT_GT(result.executions, 1000u);
    EXPECT_TRUE(result.ok()) << result.violations.front();
  }
}

// -- label recycling beyond the window ---------------------------------------

TEST(BoundedRecycling, LongRunWrapsAndSatisfiesWindowedProperty) {
  // K = 5 but 12 calls per process: own components wrap the universe at
  // least twice. The windowed property must hold: every ordered pair whose
  // interim activity fits the window is correctly ordered; pairs separated
  // by more than W generations carry no obligation (and are counted).
  const int n = 3;
  const int calls = 12;
  const std::int32_t k = 5;
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    runtime::CallLog<BoundedTimestamp> log;
    core::BoundedStats stats;
    auto sys = core::make_bounded_system(n, calls, k, &log, &stats);
    util::Rng rng(seed);
    runtime::run_random(*sys, rng, 1 << 24);
    ASSERT_TRUE(sys->all_finished());
    runtime::check_no_failures(*sys);
    ASSERT_EQ(static_cast<int>(log.size()), n * calls);
    EXPECT_GT(stats.wraps(), 0u);  // labels actually recycled
    auto records = log.snapshot();
    auto filter = [&records, k](const runtime::CallRecord<BoundedTimestamp>& a,
                                const runtime::CallRecord<BoundedTimestamp>& b) {
      return core::bounded_pair_within_window(records, a, b, k);
    };
    auto report = verify::check_timestamp_property_filtered(
        records, BoundedCompare{}, filter);
    EXPECT_TRUE(report.ok()) << "seed=" << seed << " " << report.to_string();
    EXPECT_GT(report.ordered_pairs_checked, 0u);
    EXPECT_GT(report.filtered_pairs, 0u);  // the window bit: some released
    auto mono = verify::check_per_process_monotonicity_filtered(
        records, BoundedCompare{}, filter);
    EXPECT_TRUE(mono.ok()) << "seed=" << seed << " " << mono.to_string();
  }
}

TEST(BoundedRecycling, StatsCountCallsAndCollects) {
  const int n = 3;
  const int calls = 4;
  core::BoundedStats stats;
  auto sys = core::make_bounded_system(n, calls, 0, nullptr, &stats);
  util::Rng rng(3);
  runtime::run_random(*sys, rng, 1 << 22);
  ASSERT_TRUE(sys->all_finished());
  EXPECT_EQ(stats.calls(), static_cast<std::uint64_t>(n * calls));
  // Every scan performs at least two collects.
  EXPECT_GE(stats.collects(), 2 * stats.calls());
}

TEST(Bounded, FactoryIsDeterministic) {
  auto factory = core::bounded_factory(3, 2);
  auto a = factory();
  auto b = factory();
  const std::vector<int> script{0, 1, 2, 0, 1, 2, 0, 0, 1, 2};
  runtime::run_script(*a, script);
  runtime::run_script(*b, script);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(a->register_repr(r), b->register_repr(r));
  }
}

TEST(Bounded, ReprFormsAreInjectiveOnSmallUniverse) {
  std::set<std::string> reprs;
  for (std::int32_t v = 0; v < 5; ++v) {
    for (std::int32_t g = 0; g < 6; ++g) {
      reprs.insert(core::BoundedLabel{v, g}.repr());
    }
  }
  EXPECT_EQ(reprs.size(), 30u);
  EXPECT_EQ(ts(5, {1, 0, 4}).repr(), "<1 0 4>%5");
  // The reprs are the text streaming the integers gives, extremes included.
  for (const std::int32_t v : {0, 7, -3, 2147483647, -2147483647 - 1}) {
    std::ostringstream label;
    label << v << '#' << -v / 2;
    EXPECT_EQ((core::BoundedLabel{v, -v / 2}.repr()), label.str());
    std::ostringstream stamp;
    stamp << '<' << v << ' ' << 1 << ">%" << v;
    EXPECT_EQ(ts(v, {v, 1}).repr(), stamp.str());
  }
  EXPECT_EQ(ts(3, {}).repr(), "<>%3");
}

}  // namespace
