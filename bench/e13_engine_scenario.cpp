// E13 as a scenario: the engine_bench router sweep rendered as a table.
// Not a paper experiment; it establishes that the laptop-scale sweeps in
// E01–E12 are feasible and tracks regressions in the hot path. The
// machine-readable BENCH_engine.json record
// (`meshroute_bench --engine-record=PATH`) is built from the same
// router_sweep(), so its steps/moves stay bit-identical to this table.
#include "engine_bench.hpp"
#include "scenarios.hpp"

namespace mr::scenarios {

void register_e13(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E13";
  spec.label = "engine-throughput";
  spec.title = "engine stepping throughput";
  spec.paper_ref = "not a paper claim; simulator hot-path record";
  spec.body = [](ScenarioReport& ctx) {
    const bool smoke = ctx.scale() == Scale::Small;
    Table table({"router", "layout", "n", "steps", "moves", "Kmoves/s",
                 "delivered", "stalled"});
    bool none_stalled = true;
    bool all_delivered = true;
    for (const engine_bench::RunStats& best :
         engine_bench::router_sweep(smoke)) {
      none_stalled = none_stalled && !best.stalled;
      all_delivered = all_delivered && best.delivered == best.packets;
      table.row()
          .add(best.router)
          .add(best.layout)
          .add(std::int64_t(best.n))
          .add(best.steps)
          .add(best.moves)
          .add(best.moves_per_sec / 1e3, 2)
          .add(std::to_string(best.delivered) + "/" +
               std::to_string(best.packets))
          .add(best.stalled ? "STALLED" : "no");
    }
    ctx.table(table);
    ctx.note(
        "Same router_sweep() as `meshroute_bench --engine-record` (queue "
        "capacity " +
        std::to_string(engine_bench::kQueueCapacity) +
        ", best of " + std::to_string(engine_bench::sweep_reps(smoke)) +
        "); only Kmoves/s is timing-sensitive — steps and moves are "
        "deterministic.");
    ctx.check("no-router-stalled", none_stalled);
    ctx.check("monotone-traffic-all-delivered", all_delivered);

    // Sharded-engine determinism at benchmark scale (DESIGN.md §9): the
    // same run in sequential and sharded mode must agree on every
    // deterministic column. The speedup itself is machine-dependent and
    // only meaningful on a multi-core runner, so it is reported, not
    // checked.
    const std::int32_t pn = smoke ? 8 : 120;
    const std::int64_t budget = smoke ? 0 : 64;
    const engine_bench::RunStats seq = engine_bench::run_once(
        "bounded-dimension-order", pn, 1, 1, budget);
    Table ptable({"mode", "steps", "moves", "delivered", "Kmoves/s"});
    ptable.row()
        .add("sequential")
        .add(seq.steps)
        .add(seq.moves)
        .add(std::int64_t(seq.delivered))
        .add(seq.moves_per_sec / 1e3, 2);
    bool par_identical = true;
    for (const int shards : {4, 8}) {
      const engine_bench::RunStats par = engine_bench::run_once(
          "bounded-dimension-order", pn, shards, shards, budget);
      par_identical = par_identical && par.steps == seq.steps &&
                      par.moves == seq.moves &&
                      par.delivered == seq.delivered;
      ptable.row()
          .add("shards=" + std::to_string(shards) + " threads=" +
               std::to_string(shards))
          .add(par.steps)
          .add(par.moves)
          .add(std::int64_t(par.delivered))
          .add(par.moves_per_sec / 1e3, 2);
    }
    ctx.table(ptable);
    ctx.check("sharded-engine-deterministic", par_identical);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
