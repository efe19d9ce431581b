// Section 3.3.2 ablation: dynamic chunk scheduling (our StaticLF) vs the
// Eedi et al. style fixed per-thread partition. The paper reports its
// dynamically scheduled implementation 14% faster than Eedi et al.'s
// No-Sync; beyond speed, the fixed partition's unpaced stripes let
// per-vertex converged flags latch early, degrading accuracy under
// oversubscription — both effects are quantified here. A drifted static
// run comes back with converged = no, so the column tells drift apart
// from a certified result.
#include "bench_common.hpp"

#include "pagerank/reference.hpp"

using namespace lfpr;

int main() {
  const bench::BenchConfig cfg;
  bench::printHeader(
      "Ablation (Section 3.3.2): dynamic chunks vs static partition (StaticLF)",
      "dynamic scheduling is faster (paper: +14% over Eedi et al. No-Sync) "
      "and keeps asynchronous drift bounded; static partitions drift",
      cfg);

  const auto specs = representativeDatasets(cfg.scale);
  Table table({"dataset", "schedule", "runtime_ms", "iterations", "converged",
               "err_vs_ref"});
  for (const auto& spec : specs) {
    const auto g = bench::loadCsr(spec, cfg);
    const auto opt = bench::benchOptions(cfg, g.numVertices());
    const auto ref = referenceRanks(g, opt.alpha);
    for (bool staticSched : {false, true}) {
      auto o = opt;
      o.staticSchedule = staticSched;
      PageRankResult r;
      const double ms = bench::timedMs(cfg, [&] { r = staticLF(g, o); });
      table.addRow({spec.name, staticSched ? "static-partition" : "dynamic-chunks",
                    bench::fmtMs(ms),
                    Table::count(static_cast<std::uint64_t>(r.iterations)),
                    r.converged ? "yes" : "no",
                    Table::sci(linfNorm(r.ranks, ref), 2)});
    }
  }
  table.print(std::cout);
  return 0;
}
