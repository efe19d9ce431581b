// One-shot entry points for every engine in pagerank.hpp, plus the
// runApproach dispatch over them.
//
// The lock-free engines wrap the resumable step API
// (detail/engine_step.hpp): a fresh LfEngineState seeded with the
// warm-start ranks, exactly one step, ranks copied out. Long-lived
// callers (service/rank_service.cpp) keep the state across steps
// instead. The barrier-based engines run powerIterateBB
// (detail/power_bb.hpp), after a marking phase for DT/DF.
#include <stdexcept>
#include <string>
#include <vector>

#include "pagerank/atomics.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/marking.hpp"
#include "pagerank/detail/power_bb.hpp"
#include "pagerank/pagerank.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/thread_team.hpp"
#include "util/timer.hpp"

namespace lfpr {

namespace {

std::vector<double> uniformRanks(std::size_t n) {
  return std::vector<double>(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
}

void checkPrevRanks(const CsrGraph& curr, std::span<const double> prevRanks,
                    const char* name) {
  if (prevRanks.size() != curr.numVertices())
    throw std::invalid_argument(std::string(name) +
                                ": prevRanks size must match graph");
}

/// Fresh state seeded with `init` (empty: left at zero), one `step`,
/// ranks copied out.
template <typename Step>
PageRankResult oneShotLF(const CsrGraph& curr, std::span<const double> init,
                         Step step) {
  detail::LfEngineState state(curr.numVertices());
  state.seedRanks(init);
  PageRankResult result = step(state);
  result.ranks = state.ranks.toVector();
  return result;
}

/// DTBB / DFBB: the batch-marking phase (with the same helping workers
/// as the LF engines), then a synchronous iterate restricted to the
/// affected vertices.
PageRankResult incrementalBB(const CsrGraph& prev, const CsrGraph& curr,
                             const BatchUpdate& batch,
                             std::span<const double> prevRanks,
                             const PageRankOptions& opt, FaultInjector* fault,
                             bool traverse, const char* name) {
  checkPrevRanks(curr, prevRanks, name);
  detail::validateBatchInputs(prev, curr, batch, name);
  const std::size_t n = curr.numVertices();
  if (n == 0) {
    PageRankResult result;
    result.converged = true;
    return result;
  }

  const std::vector<Edge> edges = detail::concatBatch(batch);
  AtomicU8Vector affected(n, 0);
  AtomicU8Vector notConverged(n, 0);  // unused by BB iterate; fed by marking
  AtomicU8Vector checked(n, 0);
  ChunkCursor markCursor(edges.size(), detail::kEdgeChunkSize);

  ThreadTeam team(opt.numThreads);
  const Stopwatch markTimer;
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    const detail::MarkShared shared{prev,       curr,         edges,
                                    checked,    affected,     notConverged,
                                    nullptr,    opt.chunkSize, markCursor,
                                    traverse,   fault};
    detail::markAffectedWorker(shared, tid);
  });
  const double markMs = markTimer.elapsedMs();

  detail::BBParams params;
  params.affected = &affected;
  params.expandFrontier = !traverse;
  PageRankResult result = detail::powerIterateBB(
      curr, {prevRanks.begin(), prevRanks.end()}, opt, fault, params);
  result.timeMs += markMs;
  result.affectedVertices = affected.countNonZero();
  return result;
}

/// DTLF / DFLF: one lfDynamicStep.
PageRankResult incrementalLF(const CsrGraph& prev, const CsrGraph& curr,
                             const BatchUpdate& batch,
                             std::span<const double> prevRanks,
                             const PageRankOptions& opt, FaultInjector* fault,
                             bool traverse, const char* name) {
  checkPrevRanks(curr, prevRanks, name);
  return oneShotLF(curr, prevRanks, [&](detail::LfEngineState& state) {
    return detail::lfDynamicStep(state, prev, curr, batch, opt, fault,
                                 traverse, /*expandFrontier=*/!traverse, name);
  });
}

}  // namespace

PageRankResult staticBB(const CsrGraph& curr, const PageRankOptions& opt,
                        FaultInjector* fault) {
  return detail::powerIterateBB(curr, uniformRanks(curr.numVertices()), opt,
                                fault);
}

PageRankResult staticLF(const CsrGraph& curr, const PageRankOptions& opt,
                        FaultInjector* fault) {
  return oneShotLF(curr, uniformRanks(curr.numVertices()),
                   [&](detail::LfEngineState& state) {
                     return detail::lfFullStep(state, curr, opt, fault);
                   });
}

PageRankResult ndBB(const CsrGraph& curr, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  checkPrevRanks(curr, prevRanks, "ndBB");
  return detail::powerIterateBB(curr, {prevRanks.begin(), prevRanks.end()},
                                opt, fault);
}

PageRankResult ndLF(const CsrGraph& curr, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  checkPrevRanks(curr, prevRanks, "ndLF");
  return oneShotLF(curr, prevRanks, [&](detail::LfEngineState& state) {
    return detail::lfFullStep(state, curr, opt, fault);
  });
}

PageRankResult dtBB(const CsrGraph& prev, const CsrGraph& curr,
                    const BatchUpdate& batch, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  return incrementalBB(prev, curr, batch, prevRanks, opt, fault,
                       /*traverse=*/true, "dtBB");
}

PageRankResult dtLF(const CsrGraph& prev, const CsrGraph& curr,
                    const BatchUpdate& batch, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  return incrementalLF(prev, curr, batch, prevRanks, opt, fault,
                       /*traverse=*/true, "dtLF");
}

PageRankResult dfBB(const CsrGraph& prev, const CsrGraph& curr,
                    const BatchUpdate& batch, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  return incrementalBB(prev, curr, batch, prevRanks, opt, fault,
                       /*traverse=*/false, "dfBB");
}

PageRankResult dfLF(const CsrGraph& prev, const CsrGraph& curr,
                    const BatchUpdate& batch, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  return incrementalLF(prev, curr, batch, prevRanks, opt, fault,
                       /*traverse=*/false, "dfLF");
}

PageRankResult deltaPush(const CsrGraph& prev, const CsrGraph& curr,
                         const BatchUpdate& batch,
                         std::span<const double> prevRanks,
                         const PageRankOptions& opt, FaultInjector* fault) {
  checkPrevRanks(curr, prevRanks, "deltaPush");
  return oneShotLF(curr, prevRanks, [&](detail::LfEngineState& state) {
    return detail::lfDeltaPushStep(state, prev, curr, batch, opt, fault,
                                   "deltaPush");
  });
}

PageRankResult monteCarlo(const CsrGraph& prev, const CsrGraph& curr,
                          const BatchUpdate& batch, const PageRankOptions& opt,
                          FaultInjector* fault) {
  // No seed: the ranks are derived from the walks.
  return oneShotLF(curr, {}, [&](detail::LfEngineState& state) {
    return detail::lfMonteCarloStep(state, prev, curr, batch, opt, fault,
                                    "monteCarlo");
  });
}

PageRankResult runApproach(Approach approach, const CsrGraph& prev,
                           const CsrGraph& curr, const BatchUpdate& batch,
                           std::span<const double> prevRanks,
                           const PageRankOptions& opt, FaultInjector* fault) {
  switch (approach) {
    case Approach::StaticBB: return staticBB(curr, opt, fault);
    case Approach::StaticLF: return staticLF(curr, opt, fault);
    case Approach::NDBB: return ndBB(curr, prevRanks, opt, fault);
    case Approach::NDLF: return ndLF(curr, prevRanks, opt, fault);
    case Approach::DTBB: return dtBB(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DTLF: return dtLF(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DFBB: return dfBB(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DFLF: return dfLF(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DeltaPush:
      return deltaPush(prev, curr, batch, prevRanks, opt, fault);
    case Approach::MonteCarlo:
      return monteCarlo(prev, curr, batch, opt, fault);  // prevRanks unused
  }
  throw std::invalid_argument("runApproach: unknown approach");
}

}  // namespace lfpr
