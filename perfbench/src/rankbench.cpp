// rankbench: the repository's benchmark. Drives one real RankService
// through a named workload for a fixed time, checks that what readers
// saw was correct, and prints one JSON result line.
//
//   rankbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spans-out FILE] [--commit ID]
//   rankbench --prepare --workload NAME   build the dataset cache only
//   rankbench --self-check                test the measurement helpers
//
// --trace 0 reports the end-to-end metrics of the untraced service run.
// --trace 1 makes the same untraced run (for the service counters and
// the untraced latency) and then replays the run's exact step sequence
// through the public calls RankService::stepOnce makes, one span per
// call, and reports per-layer metrics. perfbench/README.md documents the
// workloads, the metrics and which layer should move which metric.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "generate/batch_gen.hpp"
#include "harness/datasets.hpp"
#include "harness/scenario.hpp"
#include "measure.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/reference.hpp"
#include "service/checkpoint.hpp"
#include "service/ingest_journal.hpp"
#include "service/rank_service.hpp"
#include "util/rng.hpp"

#ifndef RANKBENCH_BUILD_TYPE
#define RANKBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace lfpr;
using namespace rankbench;
using StepEngine = ServiceOptions::StepEngine;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr int kScale = 1;                   // registry scale-1 stand-ins
constexpr std::uint64_t kRegistrySeed = 1;  // the seed every bench builds them with
constexpr double kBatchFraction = 1e-4;     // batch = 1e-4 |E|, 50/50 del/ins
constexpr int kSetupRepeats = 9;            // setup_s is the median of these
constexpr int kQueriesPerSample = 64;       // one query sample = mean of a burst
constexpr auto kThinkTime = std::chrono::milliseconds(30);
constexpr std::size_t kPprK = 10;
constexpr std::size_t kReaderInputs = std::size_t{1} << 16;
constexpr int kAcquireBurst = 64;
// A step that publishes nothing for this long stops the run as failed.
constexpr auto kStallLimit = std::chrono::seconds(30);

struct Workload {
  std::string_view name;
  std::string_view dataset;
  StepEngine engine;
  bool durable;
  bool closedLoop;
  // Batches generated per measured second. Inputs are generated before
  // the service exists, so this caps the rate a run can reach; a run
  // that uses them all stops early and says so in its record.
  double batchesPerSecond;
};

constexpr Workload kWorkloads[] = {
    {"web-trickle", "indochina-2004-sim", StepEngine::Pull, false, true, 40},
    {"web-backlog-durable", "indochina-2004-sim", StepEngine::Pull, true, false, 200},
    {"road-ppr-durable", "asia_osm-sim", StepEngine::MonteCarlo, true, true, 80},
};

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

DatasetSpec findDataset(std::string_view name) {
  for (DatasetSpec& s : staticDatasets(kScale))
    if (s.name == name) return std::move(s);
  throw std::runtime_error("unknown dataset " + std::string(name));
}

int hostThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

PageRankOptions solverOptions(VertexId n, int threads) {
  PageRankOptions opt = scaledOptions(n);
  opt.numThreads = threads;
  // The bench protocol's chunk size: enough chunks per thread to balance.
  opt.chunkSize = std::clamp<std::size_t>(n / static_cast<std::size_t>(8 * threads), 64, 2048);
  return opt;
}

/// Everything the program receives, generated from the seed before any
/// service exists: the stand-in graph (registry seed), the batch
/// sequence (workload seed, paper protocol against an offline twin) and
/// the reader's vertices or PPR roots.
struct Inputs {
  CsrGraph initial;
  std::vector<BatchUpdate> batches;
  std::vector<VertexId> readerVertices;
  double generateS = 0.0;
};

Inputs makeInputs(const Workload& w, std::uint64_t seed, int seconds) {
  const auto t0 = Clock::now();
  Inputs in;
  DynamicDigraph twin = loadDatasetGraph(findDataset(w.dataset), kScale, kRegistrySeed);
  twin.ensureSelfLoops();
  in.initial = twin.toCsr();
  Rng rng(seed);
  const auto count = static_cast<std::size_t>(std::ceil(w.batchesPerSecond * seconds));
  in.batches.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BatchUpdate b = generateBatchFraction(twin, kBatchFraction, rng);
    twin.applyBatch(b);
    in.batches.push_back(std::move(b));
  }
  Rng readerRng(seed ^ 0x9e3779b97f4a7c15ULL);
  in.readerVertices.resize(kReaderInputs);
  for (VertexId& v : in.readerVertices)
    v = static_cast<VertexId>(readerRng.below(in.initial.numVertices()));
  in.generateS = msBetween(t0, Clock::now()) / 1e3;
  return in;
}

// ---------------------------------------------------------------------------
// The untraced service run
// ---------------------------------------------------------------------------

/// (batchesApplied, time) of every publish, recorded by onPublish on the
/// ingest thread just before the snapshot becomes visible.
struct PublishLog {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> entries;
};

/// Stops the service when a wait it guards makes no progress for
/// kStallLimit, so a lost batch fails the run instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(RankService& s) : service_(s), thread_([this] { run(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      deadline_ = Clock::now() + kStallLimit;
      armed_ = true;
    }
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
  }
  [[nodiscard]] bool fired() const { return fired_.load(); }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      if (armed_ && Clock::now() >= deadline_) {
        armed_ = false;
        fired_ = true;
        lock.unlock();
        service_.stop();
        lock.lock();
      } else if (armed_) {
        cv_.wait_until(lock, deadline_);
      } else {
        cv_.wait(lock);
      }
    }
  }

  RankService& service_;
  std::mutex mu_;
  std::condition_variable cv_;
  Clock::time_point deadline_{};
  bool armed_ = false;
  bool done_ = false;
  std::atomic<bool> fired_{false};
  std::thread thread_;  // last: starts after the members it reads
};

struct ReaderResult {
  std::vector<double> sampleUs;  // mean per-query time of each burst
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t epochRegressions = 0;
  std::uint64_t unconverged = 0;
  std::uint64_t emptyPpr = 0;
  double sink = 0.0;
};

/// Read side of the replay: the same queries against the replay's own
/// SnapshotBox, so the replayed steps share the host with a reader as the
/// service's steps do.
struct BoxSource {
  const SnapshotBox& box;
  [[nodiscard]] SnapshotView snapshot() const { return box.acquire(); }
  [[nodiscard]] std::vector<PprEntry> pprTopK(VertexId root, std::size_t k) const {
    const SnapshotView snap = box.acquire();
    return snap->ppr == nullptr ? std::vector<PprEntry>{} : snap->ppr->topK(root, k);
  }
};

/// The reader: bursts of kQueriesPerSample lookups separated by a fixed
/// think time. Every query checks what it saw: the epoch never goes
/// backwards, every epoch >= 1 is converged, and a PPR query answers.
/// `Source` is a RankService or a BoxSource.
template <typename Source>
void readerLoop(const Source& source, const std::vector<VertexId>& inputs, bool ppr,
                const std::atomic<bool>& stop, ReaderResult& out) {
  std::uint64_t lastEpoch = 0;
  std::size_t next = 0;
  double sink = 0.0;
  const auto check = [&](const RankSnapshot& snap) {
    bool ok = true;
    if (snap.epoch < lastEpoch) {
      ++out.epochRegressions;
      ok = false;
    }
    if (snap.epoch >= 1 && !snap.converged) {
      ++out.unconverged;
      ok = false;
    }
    lastEpoch = std::max(lastEpoch, snap.epoch);
    return ok;
  };
  out.sampleUs.reserve(1 << 16);
  while (!stop.load(std::memory_order_relaxed)) {
    std::uint64_t failed = 0;
    const auto t0 = Clock::now();
    for (int q = 0; q < kQueriesPerSample; ++q) {
      const VertexId v = inputs[next++ % inputs.size()];
      if (ppr) {
        const std::vector<PprEntry> top = source.pprTopK(v, kPprK);
        if (top.empty()) {
          ++out.emptyPpr;
          ++failed;
        } else {
          sink += top.front().score;
        }
      } else {
        const SnapshotView snap = source.snapshot();
        sink += snap->rank(v);
        if (!check(*snap)) ++failed;
      }
    }
    const auto t1 = Clock::now();
    out.sampleUs.push_back(msBetween(t0, t1) * 1e3 / kQueriesPerSample);
    if (ppr) {
      // pprTopK does not expose its epoch: check the snapshot the next
      // queries will see, outside the timed burst.
      const SnapshotView snap = source.snapshot();
      if (!check(*snap)) ++failed;
    }
    out.queries += kQueriesPerSample;
    out.failed += failed;
    std::this_thread::sleep_for(kThinkTime);
  }
  out.sink = sink;
}

/// The reader on its own thread until finish() or destruction, so an
/// exception on the driving thread never leaves it running. An exception
/// inside the reader is rethrown by finish().
class ReaderThread {
 public:
  template <typename Source>
  ReaderThread(const Source& source, const std::vector<VertexId>& inputs, bool ppr)
      : thread_([this, &source, &inputs, ppr] {
          try {
            readerLoop(source, inputs, ppr, stop_, result_);
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~ReaderThread() { join(); }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

  ReaderResult& finish() {
    join();
    if (error_) std::rethrow_exception(error_);
    return result_;
  }

 private:
  void join() noexcept {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  std::atomic<bool> stop_{false};
  ReaderResult result_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses
};

struct ServiceRun {
  std::vector<double> setupS;
  std::vector<double> visibleMs;  // per accepted-and-visible batch
  std::vector<double> submitUs;   // per submit() call
  ReaderResult reader;
  std::uint64_t attemptedBatches = 0;
  std::uint64_t acceptedBatches = 0;
  std::uint64_t visibleBatches = 0;
  std::uint64_t edgesSubmitted = 0;
  double ingestS = 0.0;  // first submit -> last batch visible
  bool inputsExhausted = false;
  bool stalled = false;
  ServiceStats before;
  ServiceStats after;
  std::vector<std::size_t> groups;  // batches folded into each publish after epoch 1
  std::vector<double> finalRanks;
  bool finalMonteCarlo = false;
  bool finalConverged = false;
  double finalBound = std::numeric_limits<double>::infinity();
  std::uint64_t finalBatches = 0;
  std::uint64_t finalEpoch = 0;
  double peakRssMb = 0.0;
  // Sampled after each visible batch (closed loop) or each submit (backlog).
  std::vector<double> heapMb;
};

/// Bytes the process has allocated and not freed (malloc arenas plus
/// mmapped chunks). Unlike the resident set it does not depend on how
/// much freed memory the allocator keeps, which varies from run to run.
double liveHeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ServiceRun runService(const Workload& w, const Inputs& in, const PageRankOptions& solver,
                      const fs::path& workDir, int seconds) {
  ServiceRun run;
  std::unique_ptr<PublishLog> log;
  std::unique_ptr<RankService> service;  // after log: destroyed first
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    log = std::make_unique<PublishLog>();
    ServiceOptions opt;
    opt.solver = solver;
    opt.stepEngine = w.engine;
    if (w.durable) {
      const fs::path dir = workDir / ("service-" + std::to_string(r));
      fs::remove_all(dir);
      opt.durability.directory = dir.string();
      opt.durability.fsync = FsyncPolicy::Batch;  // default checkpoint cadence
    }
    opt.onPublish = [l = log.get()](const RankSnapshot& snap) {
      std::lock_guard<std::mutex> lock(l->mu);
      l->entries.emplace_back(snap.batchesApplied, Clock::now());
    };
    const auto t0 = Clock::now();
    service = std::make_unique<RankService>(in.initial, std::move(opt));
    const std::uint64_t epoch = service->waitForEpoch(1);
    run.setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
    if (epoch < 1) throw std::runtime_error("service stopped before epoch 1");
  }

  RankService& svc = *service;
  run.before = svc.stats();
  ReaderThread reader(svc, in.readerVertices, w.engine == StepEngine::MonteCarlo);

  Clock::time_point first{};
  Clock::time_point lastVisible{};
  std::vector<Clock::time_point> submittedAt;
  {
    Watchdog watchdog(svc);
    const auto deadline = Clock::now() + std::chrono::seconds(seconds);
    std::uint64_t epoch = svc.publishedEpoch();
    std::size_t i = 0;
    for (; i < in.batches.size() && Clock::now() < deadline; ++i) {
      BatchUpdate batch = in.batches[i];
      const std::size_t edges = batch.size();
      ++run.attemptedBatches;
      watchdog.arm();
      const auto t0 = Clock::now();
      const bool accepted = svc.submit(std::move(batch));
      const auto t1 = Clock::now();
      run.submitUs.push_back(msBetween(t0, t1) * 1e3);
      if (i == 0) first = t0;
      if (!accepted) break;
      ++run.acceptedBatches;
      run.edgesSubmitted += edges;
      submittedAt.push_back(t0);
      if (!w.closedLoop) {
        run.heapMb.push_back(liveHeapMb());
        continue;
      }
      // Closed loop: the client waits until its batch is visible.
      const std::uint64_t now = svc.waitForEpoch(epoch + 1);
      const auto t2 = Clock::now();
      if (now <= epoch || svc.snapshot()->batchesApplied < run.acceptedBatches) break;
      epoch = now;
      run.visibleMs.push_back(msBetween(t0, t2));
      lastVisible = t2;
      run.heapMb.push_back(liveHeapMb());
    }
    run.inputsExhausted = i == in.batches.size();
    if (!w.closedLoop) {
      // Backlog: wait for the queue to drain into published epochs.
      for (;;) {
        watchdog.arm();
        const SnapshotView snap = svc.snapshot();
        if (snap->batchesApplied >= run.acceptedBatches) break;
        const std::uint64_t seen = snap->epoch;
        if (svc.waitForEpoch(seen + 1) <= seen) break;  // stopped
      }
    }
    watchdog.disarm();
    run.stalled = watchdog.fired();
  }
  run.reader = std::move(reader.finish());
  run.after = svc.stats();
  run.peakRssMb = peakRssMb();

  {
    std::lock_guard<std::mutex> lock(log->mu);
    const auto& entries = log->entries;
    for (std::size_t k = 1; k < entries.size(); ++k)
      run.groups.push_back(entries[k].first - entries[k - 1].first);
    if (!w.closedLoop) {
      // Visibility of backlog batch j: the first publish covering it.
      std::size_t k = 0;
      for (std::size_t j = 0; j < submittedAt.size(); ++j) {
        while (k < entries.size() && entries[k].first < j + 1) ++k;
        if (k == entries.size()) break;
        run.visibleMs.push_back(msBetween(submittedAt[j], entries[k].second));
        lastVisible = entries[k].second;
      }
    }
  }
  run.visibleBatches = run.visibleMs.size();
  if (run.visibleBatches > 0) run.ingestS = msBetween(first, lastVisible) / 1e3;

  {
    const SnapshotView snap = svc.snapshot();
    run.finalRanks = snap->ranks;
    run.finalMonteCarlo = snap->monteCarlo;
    run.finalConverged = snap->converged;
    run.finalBound = snap->toleranceBound;
    run.finalBatches = snap->batchesApplied;
    run.finalEpoch = snap->epoch;
  }
  service.reset();
  return run;
}

/// The offline twin after the accepted prefix of the batch sequence.
CsrGraph twinAfter(const Inputs& in, std::uint64_t batches) {
  DynamicDigraph twin = DynamicDigraph::fromCsr(in.initial);
  twin.ensureSelfLoops();
  for (std::uint64_t i = 0; i < batches; ++i) twin.applyBatch(in.batches[i]);
  return twin.toCsr();
}

// ---------------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------------

struct Replay {
  Tracer tracer;
  std::size_t steps = 0;
  std::vector<PageRankResult> results;
  std::vector<double> acquireNs;
  std::vector<double> journalBytes;
  std::vector<double> checkpointBytes;
  std::vector<std::uint32_t> checkpointSteps;  // steps that wrote a checkpoint
  std::uint64_t unconvergedSteps = 0;
  double csrBytes = 0.0;
  double checksum = 0.0;  // keeps the timed reads observable
};

/// Bytes of one CSR snapshot: two offset arrays, two adjacency arrays and
/// the 1/outdegree cache (graph/csr.hpp Storage).
double csrBytes(const CsrGraph& g) {
  const double n = g.numVertices();
  const double m = static_cast<double>(g.numEdges());
  return 2.0 * (n + 1) * sizeof(EdgeId) + 2.0 * m * sizeof(VertexId) + n * sizeof(double);
}

/// Replays the run's step sequence (same batches, same coalescing) with
/// the calls RankService::stepOnce, publishConverged, maybeCheckpoint and
/// the journal append make, in that order, one span per call. The one-shot
/// ndLF on the same step is timed outside the step's spans. Stops after
/// `budgetS` seconds of replay.
Replay replaySteps(const Workload& w, const Inputs& in, const PageRankOptions& solver,
                   const std::vector<std::size_t>& groups, const fs::path& dir,
                   double budgetS) {
  const std::uint64_t kCheckpointEvery = DurabilityOptions{}.checkpointEverySolves;
  const bool mc = w.engine == StepEngine::MonteCarlo;
  const VertexId n = in.initial.numVertices();
  Replay out;

  DynamicDigraph graph = DynamicDigraph::fromCsr(in.initial);
  graph.ensureSelfLoops();
  CsrGraph curr = graph.toCsr();
  detail::LfEngineState state(n);
  state.seedUniform();
  const PageRankResult initial =
      mc ? detail::lfMonteCarloStep(state, curr, curr, BatchUpdate{}, solver, nullptr, "replay")
         : detail::lfFullStep(state, curr, solver, nullptr);
  if (!initial.converged) throw std::runtime_error("replay: initial solve did not converge");
  SnapshotBox box;
  std::uint64_t epoch = 1;
  {
    auto snap = std::make_unique<RankSnapshot>();
    snap->epoch = epoch;
    snap->ranks = state.ranks.toVector();
    snap->converged = true;
    if (mc) {
      snap->monteCarlo = true;
      snap->ppr = std::make_shared<const PprIndex>(
          detail::buildPprIndex(*state.monteCarlo, solver.numThreads));
    }
    box.publish(std::move(snap));
  }
  const BoxSource source{box};
  ReaderThread reader(source, in.readerVertices, mc);
  std::unique_ptr<IngestJournal> journal;
  if (w.durable) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    journal = std::make_unique<IngestJournal>((dir / "journal").string(), n,
                                              IngestJournal::Options{});
  }
  std::uint64_t publishesSinceCheckpoint = 1;  // the initial publish counts
  std::uint64_t lastSeq = 0;
  std::uint64_t batchesApplied = 0;
  double sink = 0.0;

  const auto start = Clock::now();
  std::size_t cursor = 0;
  for (const std::size_t groupSize : groups) {
    if (cursor + groupSize > in.batches.size() || msBetween(start, Clock::now()) > budgetS * 1e3)
      break;
    const auto step = static_cast<std::uint32_t>(out.steps);
    std::vector<double> prevRanks;
    if (!mc) prevRanks = state.ranks.toVector();  // ndLF's seed, outside the step
    CsrGraph prev;
    PageRankResult result;
    std::optional<fs::path> checkpointed;
    out.tracer.beginStep(step);
    {
      Tracer::Scope stepSpan(out.tracer, "step");
      // Spans open at each call site even where the layer is off, so a
      // bypassed layer reports its call site's check instead of nothing.
      for (std::size_t b = 0; b < groupSize; ++b) {
        Tracer::Scope span(out.tracer, "service.journal_append");
        if (journal) {
          lastSeq = journal->append(in.batches[cursor + b]);
          journal->waitDurable(lastSeq);
        }
      }
      {
        Tracer::Scope span(out.tracer, "graph.csr_copy");
        prev = curr;
      }
      BatchUpdate merged;
      {
        Tracer::Scope span(out.tracer, "graph.apply");
        for (std::size_t b = 0; b < groupSize; ++b) {
          const BatchUpdate& batch = in.batches[cursor + b];
          graph.applyBatch(batch);
          merged.deletions.insert(merged.deletions.end(), batch.deletions.begin(),
                                  batch.deletions.end());
          merged.insertions.insert(merged.insertions.end(), batch.insertions.begin(),
                                   batch.insertions.end());
        }
      }
      {
        Tracer::Scope span(out.tracer, "graph.csr_build");
        curr = graph.toCsr();
      }
      {
        Tracer::Scope span(out.tracer, "pagerank.solve");
        result = mc ? detail::lfMonteCarloStep(state, prev, curr, merged, solver, nullptr,
                                               "replay")
                    : detail::lfDynamicStep(state, prev, curr, merged, solver, nullptr,
                                            /*traverse=*/false, /*expandFrontier=*/true,
                                            "replay");
      }
      if (!result.converged) {
        // The service's recovery: a full re-solve before anything publishes.
        ++out.unconvergedSteps;
        Tracer::Scope span(out.tracer, "pagerank.recovery");
        result = detail::lfFullStep(state, curr, solver, nullptr);
      }
      batchesApplied += groupSize;
      {
        Tracer::Scope span(out.tracer, "service.publish");
        auto snap = std::make_unique<RankSnapshot>();
        snap->epoch = ++epoch;
        snap->ranks = state.ranks.toVector();
        snap->converged = result.converged;
        snap->iterations = result.iterations;
        snap->toleranceBound = result.toleranceBound;
        snap->batchesApplied = batchesApplied;
        snap->publishedAt = Clock::now();
        snap->monteCarlo =
            result.monteCarlo && state.monteCarloValid && state.monteCarlo != nullptr;
        {
          Tracer::Scope span(out.tracer, "pagerank.mc_fingerprint");
          if (snap->monteCarlo) snap->mcFingerprint = state.monteCarlo->fingerprint();
        }
        {
          Tracer::Scope span(out.tracer, "pagerank.ppr_index");
          if (snap->monteCarlo)
            snap->ppr = std::make_shared<const PprIndex>(
                detail::buildPprIndex(*state.monteCarlo, solver.numThreads));
        }
        box.publish(std::move(snap));
      }
      Tracer::Scope checkpointSpan(out.tracer, "service.checkpoint");
      if (journal && ++publishesSinceCheckpoint >= kCheckpointEvery) {
        CheckpointData data;
        data.epoch = epoch;
        data.journalSeq = lastSeq;
        data.batchesApplied = batchesApplied;
        data.iterations = result.iterations;
        data.toleranceBound = result.toleranceBound;
        data.ranks = state.ranks.toVector();
        data.graph = curr;
        if (mc && state.monteCarloValid && state.monteCarlo != nullptr)
          data.walks = detail::mcSerializeStore(*state.monteCarlo);
        writeCheckpoint(dir.string(), data);
        pruneCheckpoints(dir.string(), data.epoch);
        journal->resetIfCovered(lastSeq);
        publishesSinceCheckpoint = 0;
        checkpointed = dir / ("ckpt-" + std::to_string(epoch));
        out.checkpointSteps.push_back(step);
      }
    }
    out.results.push_back(result);
    if (journal) {
      for (std::size_t b = 0; b < groupSize; ++b)
        out.journalBytes.push_back(static_cast<double>(
            sizeof(JournalRecordHeader) + sizeof(Edge) * in.batches[cursor + b].size()));
    }
    if (checkpointed) {
      double bytes = 0.0;
      for (const char* ext : {".csr", ".meta", ".walks"}) {
        const fs::path p = checkpointed->string() + ext;
        if (fs::exists(p)) bytes += static_cast<double>(fs::file_size(p));
      }
      out.checkpointBytes.push_back(bytes);
    }
    if (!mc) {
      // A root span of its own: timed for nd_ratio, outside the step.
      Tracer::Scope span(out.tracer, "pagerank.nd_solve");
      sink += ndLF(curr, prevRanks, solver).iterations;
    }
    {
      const auto t0 = Clock::now();
      for (int k = 0; k < kAcquireBurst; ++k) sink += static_cast<double>(box.acquire()->epoch);
      out.acquireNs.push_back(msBetween(t0, Clock::now()) * 1e6 / kAcquireBurst);
    }
    cursor += groupSize;
    ++out.steps;
  }
  reader.finish();
  out.csrBytes = csrBytes(curr);
  out.checksum = sink;
  if (journal) {
    journal.reset();
    fs::remove_all(dir);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// JSON object body of a flat string -> scalar map.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) { return raw(k, jsonNumber(v)); }
  JsonObject& integer(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  JsonObject& str(const std::string& k, const std::string& v) { return raw(k, "\"" + v + "\""); }
  JsonObject& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonObject& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + k + "\": " + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Writes the replay's spans as a Chrome trace-event file (load it in
/// Perfetto or chrome://tracing); times are microseconds from the first span.
void writeSpans(const Tracer& tracer, const fs::path& path) {
  if (!path.parent_path().empty()) fs::create_directories(path.parent_path());
  std::ofstream f(path);
  const std::vector<Span>& spans = tracer.spans();
  const Clock::time_point origin = spans.empty() ? Clock::time_point{} : spans.front().start;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string args =
        JsonObject().integer("step", s.step).raw("parent", std::to_string(s.parent)).str();
    f << (i == 0 ? "" : ",\n")
      << JsonObject()
             .str("name", s.name)
             .str("ph", "X")
             .num("ts", msBetween(origin, s.start) * 1e3)
             .num("dur", msBetween(s.start, s.end) * 1e3)
             .integer("pid", 1)
             .integer("tid", 1)
             .raw("args", args)
             .str();
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write spans to " + path.string());
}

std::string statsJson(const ServiceStats& s) {
  return JsonObject()
      .integer("publishes", s.publishes)
      .integer("batches_applied", s.batchesApplied)
      .integer("edges_ingested", s.edgesIngested)
      .integer("solves", s.solves)
      .integer("monte_carlo_steps", s.monteCarloSteps)
      .integer("recoveries", s.recoveries)
      .integer("failed_steps", s.failedSteps)
      .integer("journaled_batches", s.journaledBatches)
      .integer("checkpoints", s.checkpoints)
      .integer("walk_checkpoints", s.walkCheckpoints)
      .integer("io_failures", s.ioFailures)
      .str();
}

std::string tailJson(const Tail& t) {
  return JsonObject()
      .num("value", t.value)
      .num("percentile", t.percentile)
      .integer("beyond", t.beyond)
      .integer("samples", t.samples)
      .str();
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  std::string a, b, c;
  f >> a >> b >> c;
  return a + " " + b + " " + c;
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

bool optimizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif !defined(NDEBUG)
  return false;
#else
  return std::string_view(RANKBENCH_BUILD_TYPE) == "Release";
#endif
}

const std::vector<std::pair<std::string, std::string>>& endToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"visible_p50_ms", "ms"},       {"visible_tail_ms", "ms"}, {"ingest_edges_per_s", "edges/s"},
      {"query_p50_us", "us"},         {"query_tail_us", "us"},   {"setup_s", "s"},
      {"heap_p50_mb", "MB"}};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"graph.csr_build_ms", "ms"},
      {"graph.csr_copy_ms", "ms"},
      {"graph.apply_ms", "ms"},
      {"graph.csr_bytes", "bytes"},
      {"pagerank.solve_ms", "ms"},
      {"pagerank.iterations", "count"},
      {"pagerank.affected_share", "ratio"},
      {"pagerank.rank_updates", "count"},
      {"pagerank.updates_per_affected", "ratio"},
      {"pagerank.nd_ratio", "ratio"},
      {"pagerank.ppr_index_ms", "ms"},
      {"pagerank.mc_fingerprint_ms", "ms"},
      {"sched.wait_share", "ratio"},
      {"service.submit_us", "us"},
      {"service.journal_append_us", "us"},
      {"service.journal_bytes", "bytes"},
      {"service.checkpoint_ms", "ms"},
      {"service.checkpoint_bytes", "bytes"},
      {"service.publish_us", "us"},
      {"service.acquire_ns", "ns"},
      {"service.batches_per_step", "count"},
      {"service.recoveries", "count"},
      {"service.failed_steps", "count"},
      {"service.unaccounted_share", "ratio"},
      {"trace.overhead_ms", "ms"}};
  return names;
}

std::string resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::map<std::string, double>& values,
                       const std::vector<std::pair<std::string, std::string>>& names) {
  JsonObject metrics;
  for (const auto& [name, unit] : names)
    metrics.raw(name, JsonObject().num("value", values.at(name)).str("unit", unit).str());
  return JsonObject()
      .boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("metrics", metrics.str())
      .str();
}

std::map<std::string, double> perLayerMetrics(const Workload& w, const ServiceRun& run,
                                              const Replay& rp, VertexId n) {
  const auto steps = rp.steps;
  const auto perStep = [&](const char* name) { return rp.tracer.perStepSelfMs(name, steps); };
  const auto diff = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  std::vector<double> iterations, affected, updates, perAffected;
  double waitMs = 0.0, timeMs = 0.0;
  for (const PageRankResult& r : rp.results) {
    iterations.push_back(r.iterations);
    affected.push_back(static_cast<double>(r.affectedVertices) / n);
    updates.push_back(static_cast<double>(r.rankUpdates));
    perAffected.push_back(static_cast<double>(r.rankUpdates) /
                          static_cast<double>(std::max<std::uint64_t>(r.affectedVertices, 1)));
    waitMs += r.waitMs;
    timeMs += r.timeMs;
  }
  // The step root's duration minus its own self time = the sum of the
  // replayed layer spans of that step.
  std::vector<double> layerSum(steps, 0.0), stepMs(steps, 0.0);
  const std::vector<double> self = rp.tracer.selfMs();
  for (std::size_t i = 0; i < rp.tracer.spans().size(); ++i) {
    const Span& s = rp.tracer.spans()[i];
    if (std::string_view(s.name) != "step") continue;
    stepMs[s.step] = msBetween(s.start, s.end);
    layerSum[s.step] = stepMs[s.step] - self[i];
  }
  const double solveMs = median(perStep("pagerank.solve"));
  const double visibleP50 = median(run.visibleMs);
  const double publishes = diff(run.after.publishes, run.before.publishes);
  const double untracedStepMs = publishes > 0 ? run.ingestS * 1e3 / publishes : 0.0;
  const double tracedStepMs =
      steps > 0 ? std::accumulate(stepMs.begin(), stepMs.end(), 0.0) / steps : 0.0;

  std::map<std::string, double> m;
  m["graph.csr_build_ms"] = median(perStep("graph.csr_build"));
  m["graph.csr_copy_ms"] = median(perStep("graph.csr_copy"));
  m["graph.apply_ms"] = median(perStep("graph.apply"));
  m["graph.csr_bytes"] = rp.csrBytes;
  m["pagerank.solve_ms"] = solveMs;
  m["pagerank.iterations"] = median(iterations);
  m["pagerank.affected_share"] = median(affected);
  m["pagerank.rank_updates"] = median(updates);
  m["pagerank.updates_per_affected"] = median(perAffected);
  const double ndMs = median(perStep("pagerank.nd_solve"));
  m["pagerank.nd_ratio"] = solveMs > 0 ? ndMs / solveMs : 0.0;
  m["pagerank.ppr_index_ms"] = median(perStep("pagerank.ppr_index"));
  m["pagerank.mc_fingerprint_ms"] = median(perStep("pagerank.mc_fingerprint"));
  m["sched.wait_share"] = timeMs > 0 ? waitMs / timeMs : 0.0;
  m["service.submit_us"] = median(run.submitUs);
  m["service.journal_append_us"] = median(rp.tracer.eachSelfMs("service.journal_append")) * 1e3;
  m["service.journal_bytes"] = median(rp.journalBytes);
  // Per checkpoint written; the call site's check when none was.
  const std::vector<double> checkpointMs = perStep("service.checkpoint");
  std::vector<double> written;
  for (const std::uint32_t step : rp.checkpointSteps) written.push_back(checkpointMs[step]);
  m["service.checkpoint_ms"] = median(written.empty() ? checkpointMs : written);
  m["service.checkpoint_bytes"] = median(rp.checkpointBytes);
  m["service.publish_us"] = median(perStep("service.publish")) * 1e3;
  m["service.acquire_ns"] = median(rp.acquireNs);
  m["service.batches_per_step"] =
      publishes > 0 ? diff(run.after.batchesApplied, run.before.batchesApplied) / publishes : 0.0;
  m["service.recoveries"] = diff(run.after.recoveries, run.before.recoveries);
  m["service.failed_steps"] = diff(run.after.failedSteps, run.before.failedSteps);
  m["service.unaccounted_share"] =
      w.closedLoop && visibleP50 > 0 ? 1.0 - median(layerSum) / visibleP50 : 0.0;
  m["trace.overhead_ms"] = tracedStepMs - untracedStepMs;
  return m;
}

// ---------------------------------------------------------------------------
// Self-check
// ---------------------------------------------------------------------------

/// Tests the helpers every reported number depends on. Returns the first
/// failure, or an empty string.
std::string selfCheck() {
  const auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
    return v;
  };
  struct TailCase {
    std::size_t n;
    double percentile;
    std::size_t beyond;
    double value;
  };
  for (const TailCase c : {TailCase{100, 90.0, 10, 90.0}, TailCase{999, 90.0, 99, 900.0},
                           TailCase{1000, 99.0, 10, 990.0}, TailCase{20, 50.0, 10, 10.0},
                           TailCase{19, 100.0, 0, 19.0}}) {
    const Tail t = tailOf(ramp(c.n));
    if (t.percentile != c.percentile || t.beyond != c.beyond || t.value != c.value ||
        t.samples != c.n)
      return "tail rule on " + std::to_string(c.n) + " samples picked p" +
             jsonNumber(t.percentile) + " with " + std::to_string(t.beyond) + " beyond";
    if (t.beyond < kMinBeyond && c.n >= 2 * kMinBeyond)
      return "tail rule left fewer than 10 samples beyond";
  }
  if (median(ramp(101)) != 51.0) return "median of 1..101 is not 51";

  for (const auto* names : {&endToEndNames(), &perLayerNames()})
    for (const auto& [name, unit] : *names)
      if (!validName(name)) return "emitted metric name '" + name + "' is malformed";
  for (const Workload& w : kWorkloads)
    if (!validName(w.name)) return "workload name '" + std::string(w.name) + "' is malformed";
  for (const char* bad : {"", "has space", "-lead", "x/y", "q\"uote"})
    if (validName(bad)) return std::string("name check accepted '") + bad + "'";

  // The accuracy gate: passes the reference itself, trips on a vector
  // perturbed past the bound (both norms) and on a non-finite entry.
  std::vector<double> ref(1000, 1.0 / 1000);
  for (const bool mc : {false, true}) {
    const double bound = mc ? 0.5 : 1e-7;
    if (!checkAccuracy(ref, ref, mc, bound).ok) return "accuracy gate rejected the reference";
    std::vector<double> bad = ref;
    bad[17] += 2 * bound;
    if (checkAccuracy(bad, ref, mc, bound).ok) return "accuracy gate passed a perturbed vector";
    bad = ref;
    bad[3] = std::numeric_limits<double>::quiet_NaN();
    if (checkAccuracy(bad, ref, mc, bound).ok) return "accuracy gate passed a NaN";
  }

  // Self time: a parent's self time plus its children's durations is its
  // duration.
  Tracer t;
  {
    Tracer::Scope outer(t, "outer");
    Tracer::Scope inner(t, "inner");
  }
  const std::vector<double> self = t.selfMs();
  const double outerMs = msBetween(t.spans()[0].start, t.spans()[0].end);
  if (t.spans().size() != 2 || t.spans()[1].parent != 0 || self[0] < 0 ||
      std::abs(self[0] + self[1] - outerMs) > 1e-9)
    return "span self time does not add up";
  return {};
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool prepare = false;
  bool selfCheckOnly = false;
  std::string workDir = ".bench_build/work";
  std::string spansOut;  // --trace 1: Chrome trace-event file of the replay's spans
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rankbench: %s\nusage: rankbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans-out FILE] [--commit ID]\n"
               "       rankbench --prepare --workload NAME\n"
               "       rankbench --self-check\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", std::string(w.name).c_str());
  std::fputc('\n', stderr);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + std::string(k));
      return argv[++i];
    };
    const auto number = [&](long long lo, long long hi) {
      const std::string v = value();
      char* end = nullptr;
      const long long x = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || x < lo || x > hi)
        usage("bad value '" + v + "' for " + std::string(k));
      return x;
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed")
      a.seed = static_cast<std::uint64_t>(number(0, std::numeric_limits<long long>::max()));
    else if (k == "--seconds") a.seconds = static_cast<int>(number(1, 3600));
    else if (k == "--trace") a.trace = static_cast<int>(number(0, 1));
    else if (k == "--work-dir") a.workDir = value();
    else if (k == "--commit") a.commit = value();
    else if (k == "--spans-out") a.spansOut = value();
    else if (k == "--prepare") a.prepare = true;
    else if (k == "--self-check") a.selfCheckOnly = true;
    else usage("unknown argument " + std::string(k));
  }
  return a;
}

int runWorkload(const Args& args, const Workload& w) {
  const std::string loadBefore = loadavg();
  const int threads = hostThreads();
  const Inputs in = makeInputs(w, args.seed, args.seconds);
  const VertexId n = in.initial.numVertices();
  const PageRankOptions solver = solverOptions(n, threads);
  const fs::path workDir = fs::path(args.workDir) / std::to_string(::getpid());
  fs::remove_all(workDir);
  fs::create_directories(workDir);

  const ServiceRun run = runService(w, in, solver, workDir, args.seconds);
  const auto referenceStart = Clock::now();
  const CsrGraph twin = twinAfter(in, run.acceptedBatches);
  const std::vector<double> reference = referenceRanks(twin, solver.alpha);
  const double referenceS = msBetween(referenceStart, Clock::now()) / 1e3;
  const AccuracyCheck accuracy =
      checkAccuracy(run.finalRanks, reference, run.finalMonteCarlo, run.finalBound);
  // Prove the gate is live on this run's own output: the final vector
  // pushed 2x the bound away from the reference must fail it.
  std::vector<double> perturbed = run.finalRanks;
  if (!perturbed.empty()) perturbed[perturbed.size() / 2] += 2.0 * run.finalBound;
  const bool gateLive =
      !checkAccuracy(perturbed, reference, run.finalMonteCarlo, run.finalBound).ok;

  std::optional<Replay> replay;
  if (args.trace == 1)
    replay = replaySteps(w, in, solver, run.groups, workDir / "replay", args.seconds / 2.0);
  fs::remove_all(workDir);

  const bool engineMatches = run.finalMonteCarlo == (w.engine == StepEngine::MonteCarlo);
  const bool finalOk = run.finalConverged && run.finalEpoch >= 1 && engineMatches &&
                       run.finalBatches == run.acceptedBatches && accuracy.ok && gateLive;
  const std::uint64_t lostBatches = run.attemptedBatches - run.visibleBatches;
  const std::uint64_t attempted = run.attemptedBatches + run.reader.queries + 1;
  const std::uint64_t failed = lostBatches + run.reader.failed + (finalOk ? 0 : 1);
  const bool correct = failed == 0 && !run.stalled && run.visibleBatches > 0;

  const Tail visibleTail = tailOf(run.visibleMs);
  const Tail queryTail = tailOf(run.reader.sampleUs);
  const std::size_t batchEdges = in.batches.empty() ? 0 : in.batches.front().size();

  JsonObject record;
  record.str("workload", std::string(w.name))
      .integer("seed", args.seed)
      .integer("seconds", static_cast<std::uint64_t>(args.seconds))
      .integer("trace", static_cast<std::uint64_t>(args.trace))
      .str("commit", args.commit)
      .str("build_type", RANKBENCH_BUILD_TYPE)
      .integer("nproc", static_cast<std::uint64_t>(threads))
      .integer("cpu_count", std::thread::hardware_concurrency())
      .integer("solver_threads", static_cast<std::uint64_t>(solver.numThreads))
      .integer("bench_threads", 2)  // one submitter, one reader
      .str("loadavg_before", loadBefore)
      .str("loadavg_after", loadavg())
      .num("cpu_s", cpuSeconds())
      .str("dataset", std::string(w.dataset))
      .integer("vertices", n)
      .integer("edges", in.initial.numEdges())
      .integer("batch_edges", batchEdges)
      .integer("batches_generated", in.batches.size())
      .num("generate_s", in.generateS)
      .num("reference_s", referenceS)
      .boolean("inputs_exhausted", run.inputsExhausted)
      .raw("setup_samples_s", [&] {
        std::string s = "[";
        for (double x : run.setupS) s += (s.size() > 1 ? ", " : "") + jsonNumber(x);
        return s + "]";
      }())
      .num("peak_rss_mb", run.peakRssMb)
      .num("heap_max_mb", percentile(run.heapMb, 100.0))
      .integer("batches_attempted", run.attemptedBatches)
      .integer("batches_visible", run.visibleBatches)
      .raw("visible_tail", tailJson(visibleTail))
      .raw("query_tail", tailJson(queryTail))
      .integer("queries", run.reader.queries)
      .integer("epoch_regressions", run.reader.epochRegressions)
      .integer("unconverged_reads", run.reader.unconverged)
      .integer("empty_ppr_reads", run.reader.emptyPpr)
      .str("accuracy_norm", accuracy.norm)
      .num("accuracy_error", accuracy.error)
      .num("accuracy_bound", accuracy.bound)
      .boolean("accuracy_gate_live", gateLive)
      .boolean("stalled", run.stalled)
      .num("failed_fraction", static_cast<double>(failed) / static_cast<double>(attempted))
      .raw("stats_before", statsJson(run.before))
      .raw("stats_after", statsJson(run.after));
  if (replay) {
    record.integer("replayed_steps", replay->steps)
        .integer("replay_unconverged_steps", replay->unconvergedSteps);
    if (!args.spansOut.empty()) {
      writeSpans(replay->tracer, args.spansOut);
      record.str("spans", args.spansOut);
    }
  }
  std::printf("record %s\n", record.str().c_str());

  if (!correct)
    std::fprintf(stderr, "rankbench: correctness check FAILED on %s (see record)\n",
                 std::string(w.name).c_str());

  if (args.trace == 0) {
    std::map<std::string, double> m;
    m["visible_p50_ms"] = median(run.visibleMs);
    m["visible_tail_ms"] = visibleTail.value;
    m["ingest_edges_per_s"] =
        run.ingestS > 0 ? static_cast<double>(run.edgesSubmitted) / run.ingestS : 0.0;
    m["query_p50_us"] = median(run.reader.sampleUs);
    m["query_tail_us"] = queryTail.value;
    m["setup_s"] = median(run.setupS);
    m["heap_p50_mb"] = median(run.heapMb);
    std::printf("%s\n", resultLine(correct, attempted, failed, m, endToEndNames()).c_str());
  } else {
    const auto m = perLayerMetrics(w, run, *replay, n);
    std::printf("%s\n", resultLine(correct, attempted, failed, m, perLayerNames()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (const std::string why = selfCheck(); !why.empty()) {
    std::fprintf(stderr, "rankbench: self-check failed: %s\n", why.c_str());
    return 1;
  }
  if (args.selfCheckOnly) {
    std::puts("self-check passed");
    return 0;
  }
  const Workload* w = findWorkload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  try {
    if (args.prepare) {
      (void)loadDatasetCsr(findDataset(w->dataset), kScale, kRegistrySeed);
      return 0;
    }
    if (args.seconds <= 0 || args.trace < 0) usage("--seed, --seconds and --trace are required");
    if (!optimizedBuild()) {
      std::fprintf(stderr,
                   "rankbench: refusing to report numbers from a '%s' build "
                   "(need Release, NDEBUG, no sanitizer)\n",
                   RANKBENCH_BUILD_TYPE);
      return 3;
    }
    return runWorkload(args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rankbench: %s\n", e.what());
    return 1;
  }
}
