// T13 — Sharded timestamp service: composition correctness.
//
// The sharded service (src/shard/) routes clients across independent family
// instances and composes global timestamps as (epoch, shard, local label).
//
//   T13a (gated, exact): simulated round-robin run of every registry family
//        at shards in {1, 2, 4} with per-call rehash routing, full checkers
//        on (composed property, per-shard property, cross-shard
//        monotonicity). Every column is a deterministic integer and the
//        binary exits non-zero if any row's checks fail.
//
// Steady-state native throughput of the service is measured by perfbench's
// native-sharded workload; the Google Benchmark section below is a quick
// local timing only.
#include "bench_common.hpp"
#include "generic_driver.hpp"

#include "api/registry.hpp"
#include "util/table.hpp"

namespace {

using namespace stamped;

bool print_t13a() {
  util::Table table(
      "T13a: sharded service self-check (sim round-robin, n=8, rehash)",
      {"family", "shards", "calls", "regs", "cross_pairs", "ok"});
  bool all_ok = true;
  for (const api::TimestampFamily& fam : api::registry()) {
    for (int s : {1, 2, 4}) {
      api::ScenarioSpec spec;
      spec.n = 8;
      spec.calls_per_process = fam.max_calls_per_process == 1 ? 1 : 4;
      spec.shard.shards = s;
      // Per-call rehash routing makes consecutive calls of one client hop
      // shards, so the cross-shard checker has real obligations to hold
      // (one-shot families make one call and legitimately report 0 pairs).
      spec.shard.rehash_calls = true;
      const api::ScenarioReport rep =
          api::Harness{}.run_scenario(fam, spec, api::round_robin());
      const bool ok = rep.ok() && rep.all_finished;
      all_ok = all_ok && ok;
      table.add_row(
          {fam.name, util::Table::fmt(static_cast<std::int64_t>(s)),
           util::Table::fmt(static_cast<std::int64_t>(rep.calls)),
           util::Table::fmt(rep.registers_allocated),
           util::Table::fmt(static_cast<std::int64_t>(rep.cross_shard_pairs)),
           util::Table::fmt(static_cast<std::int64_t>(ok ? 1 : 0))});
    }
  }
  bench::emit(table);
  return all_ok;
}

void BM_ShardedMaxscan(benchmark::State& state) {
  for (auto _ : state) {
    api::ScenarioSpec spec;
    spec.n = 16;
    spec.calls_per_process = 64;
    spec.backend = api::Backend::kNative;
    spec.native_threads = 0;  // hardware concurrency
    spec.shard.shards = static_cast<int>(state.range(0));
    const auto rep =
        api::Harness{}.run_scenario(api::family("maxscan"), spec,
                                    api::native_os(), api::Checkers::none());
    benchmark::DoNotOptimize(rep.calls);
  }
  state.SetItemsProcessed(state.iterations() * 16 * 64);
}
BENCHMARK(BM_ShardedMaxscan)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  const bool t13a_ok = print_t13a();
  std::cout << "T13a self-check gate: every family x shard row checked "
            << "clean: " << (t13a_ok ? "PASS" : "FAIL") << "\n\n";
  if (stamped::bench::table_only(argc, argv)) return t13a_ok ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
