// T11 — Footprint-driven persistent sets: exact static write maps vs the
// pending-op heuristic, with a blessed baseline and a certification gate.
//
// ExploreOptions::footprints feeds each family's DECLARED static write map
// (analysis::write_footprints, linted against observed executions by the
// conformance suite) into the persistent-set closure. At every branching
// node the engine takes the smaller of the static closure and the pending-op
// closure, so the footprint-driven tree can never branch wider — the T11
// gate enforces the global consequence (exact nodes <= heuristic nodes on
// every row) plus the semantic half of the bargain: a full-vs-reduced
// crosscheck_por per row must certify the identical violation set.
//
// The interesting rows are the SWMR families (maxscan, bounded): their
// static maps pin each register to one writer, so read-poised processes
// whose registers are not pending stop being pulled into write closures.
// MWMR families (fetchadd's single counter, Algorithm 4's frontier) declare
// everyone a writer — the static closure degenerates to the full candidate
// set, the min falls back to the heuristic, and the rows come out equal:
// the gate proves "never worse", the SWMR rows show the win.
//
// Baselines live in bench/baselines/t11/ and are diffed by the release-bench
// CI job:
//   bench_t11_footprints --table-only
//   tools/bench_diff.py --baseline-dir bench/baselines/t11 --measured-dir .
#include "bench_common.hpp"

#include <optional>
#include <string>

#include "analysis/footprint.hpp"
#include "api/registry.hpp"
#include "util/table.hpp"
#include "verify/explorer.hpp"

namespace {

using namespace stamped;

struct Model {
  const char* family;
  int n;
  int calls;

  [[nodiscard]] std::string label() const {
    return std::string(family) + " n=" + std::to_string(n) +
           " c=" + std::to_string(calls);
  }
};

// Every registry family appears; SWMR rows carry the reduction, MWMR rows
// pin the fallback-to-heuristic equality.
constexpr Model kT11Models[] = {
    {"maxscan", 2, 1},        {"maxscan", 2, 2},
    {"maxscan", 3, 1},        {"bounded", 2, 1},
    {"bounded", 2, 2},        {"simple-oneshot", 2, 1},
    {"simple-oneshot", 3, 1}, {"sqrt-oneshot", 2, 1},
    {"growing-oneshot", 2, 1}, {"fetchadd", 2, 2},
};

struct RowRuns {
  verify::ExploreResult heuristic;
  verify::ExploreResult exact;
  bool crosscheck_agrees = false;
};

RowRuns run_row(const Model& m) {
  api::ScenarioSpec spec;
  spec.n = m.n;
  spec.calls_per_process = m.calls;
  const api::TimestampFamily& fam = api::family(m.family);
  const runtime::SystemFactory sys_factory = fam.factory(spec);
  const verify::InstanceFactory factory = [&sys_factory]() {
    verify::ExplorationInstance inst;
    inst.sys = sys_factory();
    inst.check = []() -> std::optional<std::string> { return std::nullopt; };
    return inst;
  };

  verify::ExploreOptions opts;
  opts.max_executions = 0;
  opts.por = true;
  opts.persistent = true;
  RowRuns runs;
  runs.heuristic = verify::explore_all_executions(factory, opts);
  opts.footprints = analysis::write_footprints(fam, spec);
  runs.exact = verify::explore_all_executions(factory, opts);
  runs.crosscheck_agrees = verify::crosscheck_por(factory, opts).agree();
  return runs;
}

// ---- timing section --------------------------------------------------------

void footprint_bench(benchmark::State& state, bool exact) {
  const Model m{"maxscan", 3, 1};
  api::ScenarioSpec spec;
  spec.n = m.n;
  spec.calls_per_process = m.calls;
  const api::TimestampFamily& fam = api::family(m.family);
  const runtime::SystemFactory sys_factory = fam.factory(spec);
  const verify::InstanceFactory factory = [&sys_factory]() {
    verify::ExplorationInstance inst;
    inst.sys = sys_factory();
    inst.check = []() -> std::optional<std::string> { return std::nullopt; };
    return inst;
  };
  verify::ExploreOptions opts;
  opts.max_executions = 0;
  opts.por = true;
  opts.persistent = true;
  if (exact) opts.footprints = analysis::write_footprints(fam, spec);
  for (auto _ : state) {
    const auto result = verify::explore_all_executions(factory, opts);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(result.executions));
  }
}

void BM_PersistentHeuristic(benchmark::State& state) {
  footprint_bench(state, false);
}
BENCHMARK(BM_PersistentHeuristic)->Unit(benchmark::kMillisecond);

void BM_PersistentExactFootprints(benchmark::State& state) {
  footprint_bench(state, true);
}
BENCHMARK(BM_PersistentExactFootprints)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  util::Table table(
      "T11: footprint-driven persistent sets (static write map) vs "
      "pending-op heuristic",
      {"model", "heur_nodes", "heur_execs", "exact_nodes", "exact_execs",
       "exact_deferred", "nodes_saved_pct", "crosscheck"});
  bool never_wider = true;
  bool all_certified = true;
  bool violations_match = true;
  for (const Model& m : kT11Models) {
    const RowRuns runs = run_row(m);
    if (runs.exact.nodes > runs.heuristic.nodes) never_wider = false;
    if (!runs.crosscheck_agrees) all_certified = false;
    if (runs.exact.violations != runs.heuristic.violations) {
      violations_match = false;
    }
    const double saved =
        runs.heuristic.nodes > 0
            ? 100.0 *
                  static_cast<double>(runs.heuristic.nodes -
                                      runs.exact.nodes) /
                  static_cast<double>(runs.heuristic.nodes)
            : 0.0;
    table.add_row(
        {m.label(),
         util::Table::fmt(static_cast<std::int64_t>(runs.heuristic.nodes)),
         util::Table::fmt(
             static_cast<std::int64_t>(runs.heuristic.executions)),
         util::Table::fmt(static_cast<std::int64_t>(runs.exact.nodes)),
         util::Table::fmt(static_cast<std::int64_t>(runs.exact.executions)),
         util::Table::fmt(
             static_cast<std::int64_t>(runs.exact.persistent_deferred)),
         util::Table::fmt(saved, 1),
         runs.crosscheck_agrees ? "agree" : "DIVERGED"});
  }
  stamped::bench::emit(table);

  std::cout << "T11 monotonicity gate: footprint-driven tree explores no "
            << "more nodes than the heuristic tree on every row: "
            << (never_wider ? "PASS" : "FAIL") << "\n";
  std::cout << "T11 violation gate: identical violation sets on every row: "
            << (violations_match ? "PASS" : "FAIL") << "\n";
  std::cout << "T11 certification gate: crosscheck_por full-vs-reduced "
            << "agrees on every row: " << (all_certified ? "PASS" : "FAIL")
            << "\n\n";

  // All three gates are exact counter/set comparisons — no timing columns,
  // so the baseline diff runs with zero tolerance and this exit code guards
  // the whole bargain: never a wider tree, never a different verdict.
  if (stamped::bench::table_only(argc, argv)) {
    return (never_wider && violations_match && all_certified) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
