// T10 — Adversarial scenario engine: crash-sweep survival and coverage-guided
// fuzzing vs seeded-random, with blessed baselines so the adversary work is
// tracked, not anecdotal.
//
//   T10a — crash/restart sweep across every registry family: a fixed crash
//          plan under a fixed seed, reporting crash events fired, restarts,
//          processes left down, and the wait-freedom verdict. Everything is
//          deterministic (the crash driver draws from the one seeded rng) and
//          exact-diffed. The GATE: survivors finished and zero checker
//          violations on every row — a crash adversary that strands a
//          survivor or breaks the timestamp property fails --table-only.
//   T10b — coverage-guided fuzzer vs seeded-random at EQUAL execution
//          budget: distinct op-pair interleaving signatures reached on the
//          reference models. Both columns are deterministic and
//          exact-diffed. The GATE: the fuzzer reaches strictly more
//          signatures than random on the reference row (the last row) — the
//          claim that guidance buys breadth, enforced per commit.
//
// Baselines live in bench/baselines/t10/ and are diffed by the release-bench
// and fuzz-smoke CI jobs:
//   bench_t10_adversary --table-only
//   tools/bench_diff.py --baseline-dir bench/baselines/t10 --measured-dir .
#include "bench_common.hpp"

#include <cstdint>
#include <string>

#include "api/registry.hpp"
#include "util/table.hpp"
#include "verify/coverage.hpp"

namespace {

using namespace stamped;

// ---- T10a ------------------------------------------------------------------

/// Prints T10a; returns true when every family survived its crash sweep with
/// a clean checker verdict.
bool print_t10a() {
  util::Table table(
      "T10a: crash/restart sweep (crashes=3, restart for long-lived, seed=71)",
      {"family", "n", "calls", "crashes", "restarts", "down", "calls_done",
       "survived", "violations"});
  bool all_survived = true;
  const api::Harness harness;
  for (const auto& fam : api::registry()) {
    api::ScenarioSpec spec;
    spec.n = 8;
    spec.calls_per_process = fam.max_calls_per_process == 0 ? 3 : 1;
    spec.seed = 71;
    runtime::CrashPlan plan;
    plan.crashes = 3;
    plan.restart = fam.lifetime == api::Lifetime::kLongLived;
    if (plan.restart && fam.name == "bounded") {
      // Restart re-runs the victim's whole program, so a process can perform
      // up to (crashes+1)*calls_per_process calls — more than the auto
      // modulus K = 2*calls+1 was sized for. Size the universe for the
      // inflated count to keep the UNCONDITIONAL obligation in force (see
      // docs/runtime.md, adversary semantics).
      spec.universe_bound =
          2 * (plan.crashes + 1) * spec.calls_per_process + 1;
    }
    const auto report =
        harness.run_scenario(fam, spec, api::crash_restart(plan));
    const bool survived = report.survivors_finished && report.ok();
    all_survived = all_survived && survived;
    table.add_row(
        {fam.name, util::Table::fmt(static_cast<std::int64_t>(spec.n)),
         util::Table::fmt(static_cast<std::int64_t>(spec.calls_per_process)),
         util::Table::fmt(static_cast<std::int64_t>(report.crashes)),
         util::Table::fmt(static_cast<std::int64_t>(report.restarts)),
         util::Table::fmt(static_cast<std::int64_t>(report.crashed_down)),
         util::Table::fmt(static_cast<std::int64_t>(report.calls)),
         survived ? "yes" : "NO",
         util::Table::fmt(static_cast<std::int64_t>(report.violations.size()))});
  }
  bench::emit(table);
  return all_survived;
}

// ---- T10b ------------------------------------------------------------------

struct FuzzModel {
  const char* family;
  int n;
  int calls;
  std::uint64_t budget;

  [[nodiscard]] std::string label() const {
    return std::string(family) + " n=" + std::to_string(n) +
           " c=" + std::to_string(calls);
  }
};

/// Signatures reached by `budget` independent seeded-random executions — the
/// unguided baseline the fuzzer must beat. Draws from one rng stream, like
/// the fuzzer's random tails, so the comparison is stream-for-stream fair.
std::uint64_t random_signatures(const api::TimestampFamily& fam,
                                const api::ScenarioSpec& spec,
                                std::uint64_t budget) {
  verify::CoverageMap cov;
  util::Rng rng(spec.seed);
  for (std::uint64_t e = 0; e < budget; ++e) {
    auto inst = fam.make(spec);
    runtime::run_random(inst->system(), rng, std::uint64_t{1} << 32);
    runtime::check_no_failures(inst->system());
    cov.add_execution(inst->system().step_infos());
  }
  return cov.size();
}

// The last row is the reference for the strictly-greater gate: the largest
// signature space, where guidance has the most room to matter.
constexpr FuzzModel kT10bModels[] = {
    {"maxscan", 4, 2, 32},
    {"bounded", 4, 3, 32},
    {"sqrt-oneshot", 12, 1, 8},
    {"sqrt-oneshot", 16, 1, 12},
};

/// Prints T10b; returns whether the fuzzer reached strictly more signatures
/// than random on the reference (last) row.
bool print_t10b() {
  util::Table table(
      "T10b: coverage-guided fuzzer vs seeded-random signatures at equal "
      "budget",
      {"model", "budget", "fuzzer_sigs", "random_sigs", "advantage_pct"});
  bool reference_strictly_greater = false;
  const api::Harness harness;
  for (const FuzzModel& m : kT10bModels) {
    const auto& fam = api::family(m.family);
    api::ScenarioSpec spec;
    spec.n = m.n;
    spec.calls_per_process = m.calls;
    spec.seed = 71;
    // Checkers off: T10b measures coverage breadth; the conformance suite
    // owns the verdicts.
    const auto report = harness.run_scenario(
        fam, spec, api::coverage_fuzzer(/*seed=*/9, m.budget),
        api::Checkers::none());
    const std::uint64_t random_sigs = random_signatures(fam, spec, m.budget);
    reference_strictly_greater =
        report.coverage_signatures > random_sigs;  // last row = reference
    const double advantage =
        random_sigs > 0
            ? 100.0 *
                  (static_cast<double>(report.coverage_signatures) -
                   static_cast<double>(random_sigs)) /
                  static_cast<double>(random_sigs)
            : 0.0;
    table.add_row(
        {m.label(), util::Table::fmt(static_cast<std::int64_t>(m.budget)),
         util::Table::fmt(
             static_cast<std::int64_t>(report.coverage_signatures)),
         util::Table::fmt(static_cast<std::int64_t>(random_sigs)),
         util::Table::fmt(advantage, 1)});
  }
  bench::emit(table);
  return reference_strictly_greater;
}

// ---- timing section --------------------------------------------------------

void BM_CrashRestartSweep(benchmark::State& state) {
  const auto& fam = api::family("maxscan");
  api::ScenarioSpec spec;
  spec.n = 8;
  spec.calls_per_process = 3;
  spec.seed = 71;
  runtime::CrashPlan plan;
  plan.crashes = 3;
  plan.restart = true;
  const api::Harness harness;
  for (auto _ : state) {
    const auto report =
        harness.run_scenario(fam, spec, api::crash_restart(plan));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(report.calls));
  }
}
BENCHMARK(BM_CrashRestartSweep)->Unit(benchmark::kMicrosecond);

void BM_CoverageFuzzerBudget32(benchmark::State& state) {
  const auto& fam = api::family("maxscan");
  api::ScenarioSpec spec;
  spec.n = 3;
  spec.calls_per_process = 2;
  spec.seed = 71;
  const api::Harness harness;
  for (auto _ : state) {
    const auto report = harness.run_scenario(
        fam, spec, api::coverage_fuzzer(9, 32), api::Checkers::none());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(report.executions));
  }
}
BENCHMARK(BM_CoverageFuzzerBudget32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool survived = print_t10a();
  const bool fuzzer_ahead = print_t10b();
  std::cout << "T10 survival gate: every family survived its crash sweep "
            << "with a clean verdict: " << (survived ? "PASS" : "FAIL")
            << "\n";
  std::cout << "T10 coverage gate: fuzzer strictly ahead of seeded-random on "
            << "the reference model ("
            << kT10bModels[std::size(kT10bModels) - 1].label()
            << "): " << (fuzzer_ahead ? "PASS" : "FAIL") << "\n\n";

  // Both tables are fully deterministic, so the baseline diff is exact; this
  // exit code is what stands between an adversary regression and a green
  // build in --table-only (CI) mode.
  if (stamped::bench::table_only(argc, argv)) {
    return (survived && fuzzer_ahead) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
