//===----------------------------------------------------------------------===//
//
// Shared pieces of the MS2 benchmark harness: command-line settings, the
// result record printed as the last line of stdout, sample statistics,
// and the in-memory span recorder used by traced runs.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace msq {
class Engine;
struct SourceUnit;
} // namespace msq

namespace pb {

struct Settings {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-test: corrupt one oracle form; the run must then report errors.
  bool PlantMismatch = false;
  /// The build tree this harness was built in; msqd and msq-lsp are found
  /// under it (daemon workload).
  std::string BuildDir;
  /// Scratch directory inside the checkout (sockets, span files).
  std::string WorkDir;
  /// Worker threads for batch expansion: nproc, at most 4.
  unsigned Threads = 1;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The result object: {"correct":B,"attempted":N,"failed":N,"metrics":{...}}.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Counts one checked operation; \p Ok false counts it as failed.
  void check(bool Ok) {
    ++Attempted;
    Failed += !Ok;
  }
  std::string json() const;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

/// Quantile \p Q of \p V (nearest rank on a sorted copy); 0 when empty.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(Q * double(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();

/// Span names: one per public-layer call the benchmark times.
enum class SpanKind : uint8_t {
  Unit,         ///< one unit or request; parent of the spans below
  Lexer,        ///< Lexer::lexAll
  Parser,       ///< Parser::parseTranslationUnitFromTokens
  SexprParse,   ///< SyntaxBase::parseUnit (S-expression base)
  Expand,       ///< Expander::expandTranslationUnit
  Printer,      ///< SyntaxBase::print (C base)
  SexprPrint,   ///< SyntaxBase::print (S-expression base)
  ApiUnit,      ///< Engine::expandUnrecorded
  Restore,      ///< Engine::restoreCheckpoint
  WorkerBuild,  ///< BatchDriver::buildWorkerEngine
  Fingerprint,  ///< Engine::stateFingerprint
  CacheKey,     ///< expansionCacheKey
  CacheLookup,  ///< ExpansionCache::lookup
  CacheStore,   ///< ExpansionCache::store
  Decode,       ///< parseRequest
  ServerExpand, ///< Server::expand
  Encode,       ///< makeExpandResponse
  ServerReload, ///< Server::reloadLibrary
  IncrSetLib,   ///< IncrementalDriver::setLibrary
  IncrRun,      ///< IncrementalDriver::run
  Count
};

const char *spanName(SpanKind K);

/// In-memory span log. Spans nest strictly (one recording thread), so a
/// span's self time is its duration minus its direct children's.
class Tracer {
public:
  struct Span {
    uint64_t Start = 0, End = 0;
    uint64_t Id = 0;     ///< unit index or request sequence number
    int32_t Parent = -1; ///< index into spans(), -1 at top level
    SpanKind Kind = SpanKind::Unit;
  };

  size_t begin(SpanKind K, uint64_t Id) {
    Span S;
    S.Kind = K;
    S.Id = Id;
    S.Parent = Open.empty() ? -1 : int32_t(Open.back());
    S.Start = nowNs();
    Spans.push_back(S);
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void end(size_t Idx) {
    Spans[Idx].End = nowNs();
    Open.pop_back();
  }

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, SpanKind K, uint64_t Id) : T(T), Idx(T.begin(K, Id)) {}
    ~Scope() { T.end(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    uint64_t nanos() const { return nowNs() - T.Spans[Idx].Start; }

  private:
    Tracer &T;
    size_t Idx;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per kind, in seconds, over spans whose index is at least
  /// \p From.
  std::vector<double> selfSeconds(size_t From = 0) const;
  /// Durations (microseconds) of every span of kind \p K.
  std::vector<double> durationsUs(SpanKind K) const;
  /// Writes one JSON object per span to \p Path. False on I/O failure.
  bool write(const std::string &Path) const;

  /// Measured cost of one recorded span (begin + end), in nanoseconds.
  static double costPerSpanNs();

private:
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// Every per-layer metric a traced run reports, in output order, with its
/// unit. Layers a workload does not exercise report 0.
struct LayerMetric {
  const char *Name;
  const char *Unit;
};
const std::vector<LayerMetric> &layerMetrics();

/// Per-layer values by name; emit() checks every name against
/// layerMetrics() and adds all of them, in order, to a report.
class Layers {
public:
  void set(const std::string &Name, double V);
  void emit(Report &R) const;

private:
  std::vector<std::pair<std::string, double>> Values;
};

/// A fresh engine with the standard library and variant \p Variant of the
/// benchmark library (tally_up's constant is Variant + 1) loaded; the
/// session every batch and worker snapshots. Null (with a message) when
/// loading failed.
std::unique_ptr<msq::Engine> libraryEngine(int Variant);

/// Deterministic work counters of the decomposed pipeline.
struct PhaseCounts {
  uint64_t Tokens = 0;
  uint64_t ParserBytes = 0;
  uint64_t ParserAllocs = 0;
  uint64_t PrintBytes = 0;
  uint64_t Invocations = 0;
  uint64_t Nodes = 0;
  uint64_t ExpandBytes = 0;
  uint64_t MetaSteps = 0;
  uint64_t Gensyms = 0;
  double MacroBodyS = 0; ///< the expander's inclusive per-macro profile
};

/// Expands \p U on engine \p W one public layer at a time — lexer, parser
/// (or the S-expression reader), expander, printer — each call under its
/// own span with id \p Id, the way Engine::expandUnrecorded chains them.
/// Returns the printed output; \p Ok is false when a phase diagnosed an
/// error.
std::string decomposedExpand(msq::Engine &W, const msq::SourceUnit &U,
                             Tracer &T, uint64_t Id, PhaseCounts &C,
                             bool &Ok);

/// Copies the phase counters and the spans' per-pass self times into
/// per-layer metrics (times divided by \p Passes).
void setPhaseLayers(Layers &L, const PhaseCounts &C,
                    const std::vector<double> &Self, double Passes);

/// Workload entry points; each fills \p R and returns false when the run
/// could not be carried out at all (the caller exits non-zero).
bool runCold(const Settings &S, Report &R);
bool runDaemon(const Settings &S, Report &R);

} // namespace pb

#endif // PERFBENCH_BENCH_H
