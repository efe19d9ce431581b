// Measurement helpers of the RankService benchmark: percentile rules,
// metric-name validation, the accuracy gate, the in-memory span tracer
// and the JSON number format. Everything here is exercised by
// `rankbench --self-check`, which every run executes first.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pagerank/error.hpp"

namespace rankbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// A tail latency: the highest percentile of the ladder that still has at
/// least kMinBeyond samples above its nearest rank, reported together
/// with that percentile and the count beyond it so a reader can tell a
/// p90 from a p99.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

inline Tail tailOf(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  Tail t;
  t.samples = v.size();
  for (const double p : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (v.size() >= rank + kMinBeyond && rank > 0) {
      t.percentile = p;
      t.beyond = v.size() - rank;
      t.value = percentile(v, p);
      return t;
    }
  }
  // Fewer than 2 * kMinBeyond samples: no percentile qualifies; report
  // the maximum and say so (beyond = 0).
  t.percentile = 100.0;
  t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  return t;
}

/// Emitted metric names: 1..64 of [A-Za-z0-9_.-], starting alphanumeric.
inline bool validName(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(s.front())) return false;
  return std::all_of(s.begin(), s.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

/// The accuracy gate on the final published snapshot: L-inf against the
/// reference for exact engines (bound = the snapshot's §4.5 certificate),
/// L1 for Monte Carlo epochs (bound = mcL1ErrorBound). A size mismatch or
/// a non-finite error fails.
struct AccuracyCheck {
  const char* norm = "linf";
  double error = 0.0;
  double bound = 0.0;
  bool ok = false;
};

inline AccuracyCheck checkAccuracy(std::span<const double> got,
                                   std::span<const double> reference,
                                   bool monteCarlo, double bound) {
  AccuracyCheck c;
  c.norm = monteCarlo ? "l1" : "linf";
  c.bound = bound;
  if (got.size() != reference.size() || got.empty()) {
    c.error = INFINITY;
    return c;
  }
  // linfNorm's running max skips NaN entries, so finiteness is checked
  // separately.
  const bool finite =
      std::all_of(got.begin(), got.end(), [](double x) { return std::isfinite(x); });
  c.error = monteCarlo ? lfpr::l1Norm(got, reference) : lfpr::linfNorm(got, reference);
  c.ok = finite && std::isfinite(c.error) && std::isfinite(bound) && c.error <= bound;
  return c;
}

/// Spans recorded around the benchmark's calls into each layer. Kept in
/// memory; summarised (self time per name) when the run ends.
struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::int32_t parent = -1;
  std::uint32_t step = 0;  // batch id shared by every span of one step
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), index_(t.open(name)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_;
  };

  void beginStep(std::uint32_t step) { step_ = step; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children never overlap: the tracer is single-threaded).
  [[nodiscard]] std::vector<double> selfMs() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = msBetween(spans_[i].start, spans_[i].end);
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= msBetween(s.start, s.end);
    return self;
  }

  /// Per step: total self time of the spans called `name` (0 when the
  /// step has none). `steps` is the number of steps replayed.
  [[nodiscard]] std::vector<double> perStepSelfMs(std::string_view name,
                                                  std::size_t steps) const {
    std::vector<double> out(steps, 0.0);
    const std::vector<double> self = selfMs();
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name && spans_[i].step < steps) out[spans_[i].step] += self[i];
    return out;
  }

  /// Self time of each individual span called `name`.
  [[nodiscard]] std::vector<double> eachSelfMs(std::string_view name) const {
    std::vector<double> out;
    const std::vector<double> self = selfMs();
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name) out.push_back(self[i]);
    return out;
  }

 private:
  std::int32_t open(const char* name) {
    spans_.push_back(Span{name, Clock::now(), {}, current_, step_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = Clock::now();
    current_ = s.parent;
  }

  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t step_ = 0;
};

/// Shortest round-trip decimal form of `x` (JSON has no inf/nan: those
/// print as null and make the line fail validation downstream).
inline std::string jsonNumber(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, r.ptr);
}

}  // namespace rankbench
