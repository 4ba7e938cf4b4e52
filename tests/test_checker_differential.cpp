// Differential test of the one-pass history checker (verify::check_history,
// reached through GenericCallLog::check) against the two quadratic loops it
// replaced, kept here as the oracle together with the handle shim that ran
// them over type-erased logs. Violation lists must be equal element by
// element and in the same order (the explorer reports violations.front()),
// and the ordered, concurrent and filtered pair counts must be equal.
//
// Histories: every registered family under seeded-random, crash/restart
// (restarted processes repeat a call_index) and jitter schedules; the
// bounded family with a small universe_bound, whose pair filter releases
// pairs; every execution of small exhaustive explorations; the planted bugs
// of planted_bugs.hpp; mutant comparators on real histories; and random
// hand-built histories, some with inverted intervals. The cross-shard
// checker, which now visits only same-client pairs, is diffed against its
// own former all-pairs loop on random multi-client histories.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"
#include "core/maxscan_longlived.hpp"
#include "core/timestamp.hpp"
#include "planted_bugs.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"
#include "verify/cross_shard.hpp"
#include "verify/hb_checker.hpp"

namespace {

using namespace stamped;
using runtime::CallRecord;
using verify::HbReport;

// ---- the oracle: the quadratic loops the one-pass checker replaced ---------

template <class Ts, class Cmp, class PairFilter>
HbReport oracle_property(const std::vector<CallRecord<Ts>>& records, Cmp cmp,
                         PairFilter pair_filter) {
  HbReport report;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (cmp(records[i].ts, records[i].ts)) {
      report.violations.push_back("compare(t,t) true for " +
                                  verify::detail::describe_call(records[i]));
    }
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (i == k) continue;
      const auto& a = records[i];
      const auto& b = records[k];
      if (a.happens_before(b)) {
        if (!pair_filter(a, b)) {
          ++report.filtered_pairs;
          continue;
        }
        ++report.ordered_pairs_checked;
        if (!cmp(a.ts, b.ts)) {
          report.violations.push_back("ordered pair but !compare(t1,t2): " +
                                      verify::detail::describe_call(a) +
                                      " -> " +
                                      verify::detail::describe_call(b));
        }
        if (cmp(b.ts, a.ts)) {
          report.violations.push_back("ordered pair but compare(t2,t1): " +
                                      verify::detail::describe_call(a) +
                                      " -> " +
                                      verify::detail::describe_call(b));
        }
      } else if (i < k && !b.happens_before(a)) {
        ++report.concurrent_pairs;
        if (cmp(a.ts, b.ts) && cmp(b.ts, a.ts)) {
          report.violations.push_back("compare true both ways: " +
                                      verify::detail::describe_call(a) +
                                      " || " +
                                      verify::detail::describe_call(b));
        }
      }
    }
  }
  return report;
}

template <class Ts, class Cmp, class PairFilter>
HbReport oracle_monotonicity(const std::vector<CallRecord<Ts>>& records,
                             Cmp cmp, PairFilter pair_filter) {
  HbReport report;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t k = 0; k < records.size(); ++k) {
      const auto& a = records[i];
      const auto& b = records[k];
      if (a.pid != b.pid || i == k || !a.happens_before(b)) continue;
      if (!pair_filter(a, b)) {
        ++report.filtered_pairs;
        continue;
      }
      ++report.ordered_pairs_checked;
      if (!cmp(a.ts, b.ts)) {
        std::ostringstream os;
        os << "process p" << a.pid << " calls " << a.call_index << " and "
           << b.call_index << " not increasing: !compare("
           << runtime::value_repr(a.ts) << ", " << runtime::value_repr(b.ts)
           << ") — " << verify::detail::describe_call(a) << " -> "
           << verify::detail::describe_call(b);
        report.violations.push_back(os.str());
      }
    }
  }
  return report;
}

// The shim that ran the oracle over a type-erased log: a timestamp handle
// dressed up as a value, compared and filtered through the log's closures.
struct OpaqueTs {
  std::size_t idx = 0;
  const api::GenericCallLog* log = nullptr;

  friend bool operator==(const OpaqueTs&, const OpaqueTs&) = default;

  [[nodiscard]] std::string repr() const { return log->ts_repr(idx); }
};

struct OpaqueCompare {
  [[nodiscard]] bool operator()(const OpaqueTs& a, const OpaqueTs& b) const {
    return a.log->before(a.idx, b.idx);
  }
};

api::GenericCallRecord to_generic(const CallRecord<OpaqueTs>& r) {
  return {r.pid, r.call_index, r.ts.idx, r.invoked_at, r.responded_at};
}

verify::HistoryReport oracle_on_log(const api::GenericCallLog& log) {
  std::vector<CallRecord<OpaqueTs>> records;
  for (const auto& r : log.records) {
    records.push_back({r.pid, r.call_index, OpaqueTs{r.ts, &log}, r.invoked_at,
                       r.responded_at});
  }
  const auto pair_filter = [&log](const CallRecord<OpaqueTs>& a,
                                  const CallRecord<OpaqueTs>& b) {
    return log.obligated(to_generic(a), to_generic(b));
  };
  return {oracle_property(records, OpaqueCompare{}, pair_filter),
          oracle_monotonicity(records, OpaqueCompare{}, pair_filter)};
}

template <class Ts, class Cmp, class ShardOf>
HbReport oracle_cross_shard(const std::vector<CallRecord<Ts>>& records,
                            Cmp cmp, ShardOf shard_of) {
  HbReport report;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (i == k) continue;
      const auto& a = records[i];
      const auto& b = records[k];
      if (a.pid != b.pid || !a.happens_before(b)) continue;
      if (shard_of(a) == shard_of(b)) continue;
      ++report.ordered_pairs_checked;
      if (!cmp(a.ts, b.ts)) {
        report.violations.push_back(
            "cross-shard hop not monotone (!compare(t1,t2)): " +
            verify::detail::describe_call(a) + " -> " +
            verify::detail::describe_call(b));
      }
      if (cmp(b.ts, a.ts)) {
        report.violations.push_back(
            "cross-shard hop reversed (compare(t2,t1)): " +
            verify::detail::describe_call(a) + " -> " +
            verify::detail::describe_call(b));
      }
    }
  }
  return report;
}

// ---- comparing the two ------------------------------------------------------

/// What the diffed histories of one test contained, so each test can assert
/// that it exercised what it claims to (violations, filtered pairs, ...).
struct Tally {
  std::size_t histories = 0;
  std::size_t violations = 0;
  std::size_t ordered = 0;
  std::size_t concurrent = 0;
  std::size_t filtered = 0;
  std::size_t mono_violations = 0;
  std::size_t duplicate_call_index = 0;
};

void same_report(const HbReport& want, const HbReport& got,
                 const std::string& what) {
  EXPECT_EQ(want.violations, got.violations) << what;
  EXPECT_EQ(want.ordered_pairs_checked, got.ordered_pairs_checked) << what;
  EXPECT_EQ(want.concurrent_pairs, got.concurrent_pairs) << what;
  EXPECT_EQ(want.filtered_pairs, got.filtered_pairs) << what;
}

template <class Record>
bool has_duplicate_call_index(const std::vector<Record>& records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t k = i + 1; k < records.size(); ++k) {
      if (records[i].pid == records[k].pid &&
          records[i].call_index == records[k].call_index) {
        return true;
      }
    }
  }
  return false;
}

/// Diffs the oracle against one pass with both checks, and against each
/// check selected alone (the other report must then stay empty).
void diff_reports(const verify::HistoryReport& want,
                  const std::function<verify::HistoryReport(bool, bool)>& run,
                  const std::string& what, Tally& tally) {
  const verify::HistoryReport both = run(true, true);
  same_report(want.property, both.property, what + " [property]");
  same_report(want.monotonicity, both.monotonicity,
              what + " [monotonicity]");
  const verify::HistoryReport prop_only = run(true, false);
  same_report(want.property, prop_only.property, what + " [property only]");
  same_report(HbReport{}, prop_only.monotonicity, what + " [property only]");
  const verify::HistoryReport mono_only = run(false, true);
  same_report(want.monotonicity, mono_only.monotonicity,
              what + " [monotonicity only]");
  same_report(HbReport{}, mono_only.property, what + " [monotonicity only]");

  ++tally.histories;
  tally.violations += want.property.violations.size();
  tally.mono_violations += want.monotonicity.violations.size();
  tally.ordered += want.property.ordered_pairs_checked;
  tally.concurrent += want.property.concurrent_pairs;
  tally.filtered += want.property.filtered_pairs;
}

void diff_log(const api::GenericCallLog& log, const std::string& what,
              Tally& tally) {
  diff_reports(oracle_on_log(log), log.check, what, tally);
  if (has_duplicate_call_index(log.records)) ++tally.duplicate_call_index;
}

template <class Ts, class Cmp, class PairFilter>
void diff_typed(const std::vector<CallRecord<Ts>>& records, Cmp cmp,
                PairFilter pair_filter, const std::string& what,
                Tally& tally) {
  const verify::HistoryReport want{
      oracle_property(records, cmp, pair_filter),
      oracle_monotonicity(records, cmp, pair_filter)};
  diff_reports(
      want,
      [&](bool property, bool monotonicity) {
        return verify::check_history(records, cmp, pair_filter, property,
                                     monotonicity);
      },
      what, tally);
  if (has_duplicate_call_index(records)) ++tally.duplicate_call_index;
}

constexpr auto kAllPairs = [](const auto&, const auto&) { return true; };

// ---- harness-level differential --------------------------------------------

/// A family instance whose calls() diffs every history before handing it to
/// the harness checkers, so any schedule source can feed the differential.
class DiffedInstance final : public api::FamilyInstance {
 public:
  DiffedInstance(std::unique_ptr<api::FamilyInstance> inner,
                 std::shared_ptr<Tally> tally, std::string what)
      : inner_(std::move(inner)),
        tally_(std::move(tally)),
        what_(std::move(what)) {
    sys_ = inner_->take_system();
  }

  [[nodiscard]] api::GenericCallLog calls() const override {
    api::GenericCallLog log = inner_->calls();
    diff_log(log, what_, *tally_);
    return log;
  }

  [[nodiscard]] api::Metrics metrics() const override {
    return inner_->metrics();
  }

 private:
  std::unique_ptr<api::FamilyInstance> inner_;
  std::shared_ptr<Tally> tally_;
  std::string what_;
};

api::TimestampFamily diffed(api::TimestampFamily fam,
                            std::shared_ptr<Tally> tally) {
  fam.make = [make = fam.make, tally,
              name = fam.name](const api::ScenarioSpec& spec)
      -> std::unique_ptr<api::FamilyInstance> {
    return std::make_unique<DiffedInstance>(
        make(spec), tally, name + " seed " + std::to_string(spec.seed));
  };
  return fam;
}

api::ScenarioSpec spec_for(const api::TimestampFamily& fam, int n, int calls,
                           std::uint64_t seed) {
  api::ScenarioSpec spec;
  spec.n = n;
  spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : calls;
  spec.seed = seed;
  return spec;
}

std::vector<api::ScheduleSource> simulated_sources() {
  runtime::CrashPlan crash;
  crash.crashes = 3;
  crash.restart = true;
  return {api::seeded_random(), api::crash_restart(crash), api::jittered()};
}

TEST(CheckerDifferential, EveryFamilyUnderRandomCrashAndJitterSchedules) {
  // Reports may carry violations (a restarted bounded process outruns the
  // call budget its modulus was sized for); the differential holds either way.
  Tally all;
  for (const api::TimestampFamily& base : api::registry()) {
    auto tally = std::make_shared<Tally>();
    const api::TimestampFamily fam = diffed(base, tally);
    for (const api::ScheduleSource& source : simulated_sources()) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        (void)api::Harness{}.run_scenario(fam, spec_for(fam, 6, 5, seed),
                                          source);
      }
    }
    EXPECT_EQ(tally->histories, 12u) << base.name;
    EXPECT_GT(tally->concurrent, 0u) << base.name;
    all.ordered += tally->ordered;
    all.duplicate_call_index += tally->duplicate_call_index;
  }
  EXPECT_GT(all.ordered, 0u);
  // Restarted processes rerun calls under the same call_index.
  EXPECT_GT(all.duplicate_call_index, 0u);
}

TEST(CheckerDifferential, BoundedWithSmallUniverseReleasesPairs) {
  auto tally = std::make_shared<Tally>();
  const api::TimestampFamily fam = diffed(api::family("bounded"), tally);
  for (const api::ScheduleSource& source : simulated_sources()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      api::ScenarioSpec spec = spec_for(fam, 3, 8, seed);
      spec.universe_bound = 5;  // window 2: pairs beyond it are released
      const api::ScenarioReport rep =
          api::Harness{}.run_scenario(fam, spec, source);
      EXPECT_TRUE(rep.ok()) << source.name << ": " << rep.summary();
    }
  }
  EXPECT_EQ(tally->histories, 12u);
  EXPECT_GT(tally->filtered, 0u);
  EXPECT_GT(tally->ordered, 0u);
}

TEST(CheckerDifferential, EveryExecutionOfSmallExplorations) {
  struct Model {
    const char* family;
    int n, calls;
  };
  for (const Model& m : {Model{"maxscan", 2, 2}, Model{"simple-oneshot", 3, 1},
                         Model{"bounded", 2, 1}}) {
    auto tally = std::make_shared<Tally>();
    const api::TimestampFamily fam = diffed(api::family(m.family), tally);
    api::ScenarioSpec spec = spec_for(fam, m.n, m.calls, 1);
    spec.explore_threads = 1;
    const api::ScenarioReport rep =
        api::Harness{}.run_scenario(fam, spec, api::exhaustive_explorer());
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GT(rep.executions, 1u);
    EXPECT_EQ(tally->histories, rep.executions) << m.family;
  }
}

TEST(CheckerDifferential, CoverageFuzzerFindsThePlantedRecyclingBug) {
  auto tally = std::make_shared<Tally>();
  const api::TimestampFamily fam =
      diffed(planted::buggy_bounded_family(), tally);
  const api::ScenarioReport rep = api::Harness{}.run_scenario(
      fam, planted::buggy_spec(), api::coverage_fuzzer(11, 64));
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(tally->histories, 64u);
  EXPECT_GT(tally->violations, 0u);
}

// ---- typed differential ------------------------------------------------------

TEST(CheckerDifferential, SectionSixOneMutantAndPaperVariant) {
  Tally tally;
  for (const core::SqrtVariant v :
       {core::SqrtVariant::kNeverOverwrite, core::SqrtVariant::kPaper,
        core::SqrtVariant::kAlwaysOverwrite}) {
    const planted::ScenarioResult r = planted::run_section61_interleaving(v);
    ASSERT_TRUE(r.orchestration_ok);
    diff_typed(r.records, core::Compare{}, kAllPairs, "section 6.1", tally);
  }
  EXPECT_GT(tally.violations, 0u);  // the kNeverOverwrite mutant's
}

std::vector<CallRecord<std::int64_t>> maxscan_history(int n, int calls,
                                                      std::uint64_t seed) {
  runtime::CallLog<std::int64_t> log;
  auto sys = core::make_maxscan_system(n, calls, &log);
  util::Rng rng(seed);
  runtime::run_random(*sys, rng, std::uint64_t{1} << 22);
  return log.snapshot();
}

TEST(CheckerDifferential, MutantComparatorsOnRealHistories) {
  // Broken compares put violations of every kind, many per history, into
  // the reports, so the order of the lists is exercised hard.
  using Ts = std::int64_t;
  const std::vector<std::pair<std::string, std::function<bool(Ts, Ts)>>>
      mutants = {
          {"less", std::less<Ts>{}},
          {"less_equal", std::less_equal<Ts>{}},
          {"greater", std::greater<Ts>{}},
          {"always", [](Ts, Ts) { return true; }},
          {"never", [](Ts, Ts) { return false; }},
          {"mod3", [](Ts a, Ts b) { return a % 3 < b % 3 || a > b + 4; }},
      };
  const auto some_pairs = [](const CallRecord<Ts>& a, const CallRecord<Ts>& b) {
    return (a.call_index * 7 + b.call_index * 3 + a.pid + 2 * b.pid) % 4 != 0;
  };
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto records = maxscan_history(5, 4, seed);
    for (const auto& [name, cmp] : mutants) {
      diff_typed(records, cmp, kAllPairs, name, tally);
      diff_typed(records, cmp, some_pairs, name + " filtered", tally);
    }
  }
  EXPECT_GT(tally.violations, 0u);
  EXPECT_GT(tally.mono_violations, 0u);
  EXPECT_GT(tally.filtered, 0u);
}

TEST(CheckerDifferential, RandomHandBuiltHistoriesIncludingInvertedIntervals) {
  // Stamps drawn from a tiny range give ties and shared endpoints; every
  // fifth history also has calls whose response stamp precedes the
  // invocation, which the classification must still treat like the oracle.
  Tally tally;
  util::Rng rng(2718);
  for (int h = 0; h < 300; ++h) {
    const std::size_t m = rng.next_below(48);
    std::vector<CallRecord<std::int64_t>> records;
    for (std::size_t i = 0; i < m; ++i) {
      CallRecord<std::int64_t> r;
      r.pid = static_cast<int>(rng.next_below(4));
      r.call_index = static_cast<int>(rng.next_below(3));
      r.ts = static_cast<std::int64_t>(rng.next_below(12));
      r.invoked_at = rng.next_below(40);
      r.responded_at = r.invoked_at + 1 + rng.next_below(10);
      if (h % 5 == 0 && rng.next_below(4) == 0) {
        std::swap(r.invoked_at, r.responded_at);
      }
      records.push_back(r);
    }
    const auto filter = [](const CallRecord<std::int64_t>& a,
                           const CallRecord<std::int64_t>& b) {
      return (a.ts + 2 * b.ts + a.pid) % 5 != 0;
    };
    diff_typed(records, std::less<std::int64_t>{}, kAllPairs, "random", tally);
    diff_typed(records, std::less_equal<std::int64_t>{}, filter,
               "random filtered", tally);
  }
  EXPECT_GT(tally.violations, 0u);
  EXPECT_GT(tally.filtered, 0u);
  EXPECT_GT(tally.concurrent, 0u);
}

TEST(CheckerDifferential, CrossShardVisitsOnlySameClientPairs) {
  // Interleaved clients, shards and timestamps drawn at random so hops go
  // both ways; pid gaps and a lone client give groups of every size.
  Tally tally;
  util::Rng rng(11);
  for (int h = 0; h < 200; ++h) {
    const std::size_t m = rng.next_below(40);
    std::vector<CallRecord<std::int64_t>> records;
    std::vector<int> shard;
    for (std::size_t i = 0; i < m; ++i) {
      CallRecord<std::int64_t> r;
      r.pid = 3 * static_cast<int>(rng.next_below(5));
      r.call_index = static_cast<int>(i);
      r.ts = static_cast<std::int64_t>(rng.next_below(16));
      r.invoked_at = rng.next_below(60);
      r.responded_at = r.invoked_at + 1 + rng.next_below(8);
      records.push_back(r);
      shard.push_back(static_cast<int>(rng.next_below(3)));
    }
    // call_index is unique per history, so it keys the shard of a record.
    const auto shard_of = [&shard](const CallRecord<std::int64_t>& r) {
      return shard[static_cast<std::size_t>(r.call_index)];
    };
    for (const auto& cmp : std::vector<std::function<bool(std::int64_t,
                                                          std::int64_t)>>{
             std::less<std::int64_t>{}, std::less_equal<std::int64_t>{}}) {
      const HbReport want = oracle_cross_shard(records, cmp, shard_of);
      const HbReport got =
          verify::check_cross_shard_monotonicity(records, cmp, shard_of);
      same_report(want, got, "cross-shard history " + std::to_string(h));
      tally.violations += want.violations.size();
      tally.ordered += want.ordered_pairs_checked;
    }
  }
  EXPECT_GT(tally.violations, 0u);
  EXPECT_GT(tally.ordered, 0u);
}

}  // namespace
