//===----------------------------------------------------------------------===//
//
// msq-perfbench — the MS2 benchmark harness.
//
//   msq-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --build-dir DIR --work-dir DIR [--plant-mismatch]
//
// Workloads: cold_frontend, cold_macros, daemon_mixed (see NOTES.md).
// The last line of stdout is one JSON object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,
//    "unit":U},...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status is 0 only when every checked output was correct.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <sys/resource.h>

using namespace pb;

namespace {

std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof Buf, V);
  if (Ec != std::errc())
    return "0";
  return std::string(Buf, End);
}

int usage() {
  std::fprintf(stderr,
               "usage: msq-perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --build-dir DIR --work-dir DIR [--plant-mismatch]\n");
  return 2;
}

} // namespace

std::string Report::json() const {
  std::string Out = "{\"correct\":";
  Out += Failed == 0 ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(Attempted);
  Out += ",\"failed\":" + std::to_string(Failed);
  Out += ",\"metrics\":{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ',';
    Out += "\"" + Metrics[I].Name + "\":{\"value\":" + number(Metrics[I].Value) +
           ",\"unit\":\"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double pb::selfPeakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

const char *pb::spanName(SpanKind K) {
  static const char *Names[] = {
      "unit",          "lexer.lexAll",     "parser.parseTranslationUnit",
      "sexpr.parse",   "expander.expand",  "printer.print",
      "sexpr.print",   "api.expandUnrecorded", "driver.restoreCheckpoint",
      "driver.buildWorkerEngine", "cache.stateFingerprint",
      "cache.expansionCacheKey",  "cache.lookup", "cache.store",
      "protocol.parseRequest",    "server.expand",
      "protocol.makeExpandResponse", "server.reloadLibrary",
      "incr.setLibrary",          "incr.run"};
  static_assert(sizeof(Names) / sizeof(Names[0]) == size_t(SpanKind::Count));
  return Names[size_t(K)];
}

std::vector<double> Tracer::selfSeconds(size_t From) const {
  std::vector<double> Self(size_t(SpanKind::Count), 0.0);
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      ChildNs[size_t(Spans[I].Parent)] += Spans[I].End - Spans[I].Start;
  for (size_t I = From; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].End - Spans[I].Start;
    uint64_t Kids = std::min(ChildNs[I], Dur);
    Self[size_t(Spans[I].Kind)] += double(Dur - Kids) * 1e-9;
  }
  return Self;
}

std::vector<double> Tracer::durationsUs(SpanKind K) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Kind == K)
      Out.push_back(double(S.End - S.Start) * 1e-3);
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  for (const Span &S : Spans)
    Out << "{\"name\":\"" << spanName(S.Kind) << "\",\"start_ns\":" << S.Start
        << ",\"end_ns\":" << S.End << ",\"parent\":" << S.Parent
        << ",\"id\":" << S.Id << "}\n";
  return bool(Out);
}

double Tracer::costPerSpanNs() {
  constexpr int N = 200000;
  Tracer T;
  T.Spans.reserve(N);
  uint64_t T0 = nowNs();
  for (int I = 0; I != N; ++I)
    T.end(T.begin(SpanKind::Unit, uint64_t(I)));
  return double(nowNs() - T0) / N;
}

const std::vector<LayerMetric> &pb::layerMetrics() {
  static const std::vector<LayerMetric> L = {
      {"lexer.time_s", "s"},
      {"lexer.tokens", "count"},
      {"parser.time_s", "s"},
      {"parser.arena_bytes", "bytes"},
      {"parser.arena_allocs", "count"},
      {"printer.time_s", "s"},
      {"printer.bytes_out", "bytes"},
      {"expand.time_s", "s"},
      {"expand.invocations", "count"},
      {"expand.nodes_produced", "count"},
      {"expand.arena_bytes", "bytes"},
      {"interp.meta_steps", "count"},
      {"interp.gensyms", "count"},
      {"interp.macro_body_s", "s"},
      {"sexpr.parse_s", "s"},
      {"sexpr.print_s", "s"},
      {"api.unit_s", "s"},
      {"api.residual_s", "s"},
      {"driver.restore_s", "s"},
      {"driver.worker_build_s", "s"},
      {"driver.parallel_speedup", "ratio"},
      {"cache.key_s", "s"},
      {"cache.fingerprint_s", "s"},
      {"cache.lookup_s", "s"},
      {"cache.store_s", "s"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.bytes_read", "bytes"},
      {"cache.bytes_written", "bytes"},
      {"server.reload_rekeyed", "count"},
      {"server.reload_invalidated", "count"},
      {"server.reload_s", "s"},
      {"server.latency_p50_us", "us"},
      {"server.latency_p99_us", "us"},
      {"server.rejected", "count"},
      {"server.inproc_p50_us", "us"},
      {"server.inproc_p99_us", "us"},
      {"protocol.decode_s", "s"},
      {"protocol.encode_s", "s"},
      {"protocol.bytes", "bytes"},
      {"transport.overhead_p50_us", "us"},
      {"incr.set_library_s", "s"},
      {"incr.run_s", "s"},
      {"incr.warm_ratio", "ratio"},
      {"incr.clean", "count"},
      {"incr.tree", "count"},
      {"incr.token", "count"},
      {"incr.cold", "count"},
      {"lsp.edit_overhead_p50_us", "us"},
      {"daemon.req_per_s", "1/s"},
      {"daemon.expand_p50_us", "us"},
      {"daemon.expand_p99_us", "us"},
      {"daemon.reload_p50_ms", "ms"},
      {"daemon.rss_end_mb", "MB"},
      {"lsp.edit_p50_us", "us"},
      {"lsp.edit_p99_us", "us"},
      {"lsp.hover_p50_us", "us"},
      {"lsp.hover_p99_us", "us"},
      {"e2e.setup_s", "s"},
      {"e2e.src_lines_per_s", "lines/s"},
      {"e2e.latency_p50_us", "us"},
      {"e2e.latency_p99_us", "us"},
      {"e2e.peak_rss_mb", "MB"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"trace.passes", "count"},
      {"bench.error_rate", "ratio"},
  };
  return L;
}

void Layers::set(const std::string &Name, double V) {
  for (auto &[N, Old] : Values)
    if (N == Name) {
      Old = V;
      return;
    }
  Values.emplace_back(Name, V);
}

void Layers::emit(Report &R) const {
  for (const auto &[N, V] : Values) {
    bool Known = false;
    for (const LayerMetric &L : layerMetrics())
      Known |= N == L.Name;
    if (!Known) {
      std::fprintf(stderr, "msq-perfbench: unlisted layer metric '%s'\n",
                   N.c_str());
      std::abort();
    }
  }
  for (const LayerMetric &L : layerMetrics()) {
    double V = 0;
    for (const auto &[N, Val] : Values)
      if (N == L.Name)
        V = Val;
    R.add(L.Name, V, L.Unit);
  }
}

int main(int argc, char **argv) {
  Settings S;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--plant-mismatch") {
      S.PlantMismatch = true;
      continue;
    }
    if (!(V = Next()))
      return usage();
    if (A == "--workload")
      S.Workload = V;
    else if (A == "--seed")
      S.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      S.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      S.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--build-dir")
      S.BuildDir = V;
    else if (A == "--work-dir")
      S.WorkDir = V;
    else
      return usage();
  }
  if (S.Workload.empty() || S.WorkDir.empty() || S.Seconds <= 0)
    return usage();
  S.Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  Report R;
  bool Ran;
  if (S.Workload == "cold_frontend" || S.Workload == "cold_macros")
    Ran = runCold(S, R);
  else if (S.Workload == "daemon_mixed")
    Ran = runDaemon(S, R);
  else {
    std::fprintf(stderr, "msq-perfbench: unknown workload '%s'\n",
                 S.Workload.c_str());
    return 2;
  }
  if (!Ran)
    return 1;
  std::printf("%s\n", R.json().c_str());
  std::fflush(stdout);
  return R.Failed == 0 ? 0 : 1;
}
