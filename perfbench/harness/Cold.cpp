//===----------------------------------------------------------------------===//
//
// Cold workloads: cold_frontend and cold_macros. A batch of generated units
// goes through Engine::expandSources with the expansion cache off, as a
// build would run it; every output is compared with the printed parse of
// the unit's macro-free form.
//
// The traced run re-drives the same units one public layer at a time on a
// worker engine built from the same snapshot, and checks that the pieces
// assemble to exactly what Engine::expandUnrecorded prints.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "api/Msq.h"
#include "driver/BatchDriver.h"
#include "lexer/Lexer.h"
#include "synbase/SyntaxBase.h"

#include <cstdio>
#include <memory>

using namespace pb;

std::string pb::decomposedExpand(msq::Engine &W, const msq::SourceUnit &U,
                                 Tracer &T, uint64_t Id, PhaseCounts &C,
                                 bool &Ok) {
  using namespace msq;
  const Engine::Options &O = W.options();
  CompilationContext &CC = W.context();
  Interpreter &Interp = W.interpreter();
  const SyntaxBase *SB = syntaxBaseByName(U.Base.empty() ? O.Base : U.Base);
  const unsigned ErrorsBefore = CC.Diags.errorCount();
  const size_t Steps0 = Interp.stepsExecuted();
  const size_t Gensyms0 = Interp.gensymCount();
  Interp.beginUnit(O.MaxMetaSteps, O.UnitTimeoutMillis, U.Name);
  const uint32_t Buf = W.sourceManager().addBuffer(U.Name, U.Source);

  TranslationUnit *TU = nullptr;
  const size_t ParseBytes0 = CC.Ast.bytesAllocated();
  const size_t ParseAllocs0 = CC.Ast.numAllocations();
  if (SB->supportsTokenReuse()) {
    std::vector<Token> Toks;
    {
      Tracer::Scope Sp(T, SpanKind::Lexer, Id);
      Lexer Lex(Buf, CC.SM.bufferContents(Buf), CC.Interner, CC.Diags);
      Toks = Lex.lexAll();
    }
    C.Tokens += Toks.size();
    Parser::Options PO;
    PO.UseCompiledPatterns = O.UseCompiledPatterns;
    Parser P(CC, PO);
    Tracer::Scope Sp(T, SpanKind::Parser, Id);
    TU = P.parseTranslationUnitFromTokens(std::move(Toks));
  } else {
    SyntaxBase::ParseOptions PO;
    PO.UseCompiledPatterns = O.UseCompiledPatterns;
    Tracer::Scope Sp(T, SpanKind::SexprParse, Id);
    TU = SB->parseUnit(CC, Buf, PO, nullptr);
  }
  C.ParserBytes += CC.Ast.bytesAllocated() - ParseBytes0;
  C.ParserAllocs += CC.Ast.numAllocations() - ParseAllocs0;
  Ok = CC.Diags.errorCount() == ErrorsBefore;
  if (!Ok)
    return "";

  Expander::Options EO;
  EO.MaxExpansionDepth = O.MaxExpansionDepth;
  EO.CollectProfile = O.CollectProfile;
  Expander Exp(CC, Interp, EO);
  const size_t ExpandBytes0 = CC.Ast.bytesAllocated();
  TranslationUnit *Out;
  {
    Tracer::Scope Sp(T, SpanKind::Expand, Id);
    Out = Exp.expandTranslationUnit(TU);
  }
  C.ExpandBytes += CC.Ast.bytesAllocated() - ExpandBytes0;
  C.Invocations += Exp.stats().InvocationsExpanded;
  C.Nodes += Exp.stats().NodesProduced;
  C.MacroBodyS += double(Exp.takeProfile().totalNanos()) * 1e-9;
  C.MetaSteps += Interp.stepsExecuted() - Steps0;
  C.Gensyms += Interp.gensymCount() - Gensyms0;
  Ok = CC.Diags.errorCount() == ErrorsBefore;
  if (!Ok)
    return "";

  PrintOptions PP;
  PP.AllowPlaceholders = false;
  std::string Text;
  {
    Tracer::Scope Sp(T,
                     SB->supportsTokenReuse() ? SpanKind::Printer
                                              : SpanKind::SexprPrint,
                     Id);
    Text = SB->print(Out, PP);
  }
  C.PrintBytes += Text.size();
  return Text;
}

void pb::setPhaseLayers(Layers &L, const PhaseCounts &C,
                        const std::vector<double> &Self, double Passes) {
  auto Per = [&](SpanKind K) { return Self[size_t(K)] / Passes; };
  L.set("lexer.time_s", Per(SpanKind::Lexer));
  L.set("lexer.tokens", double(C.Tokens));
  L.set("parser.time_s", Per(SpanKind::Parser));
  L.set("parser.arena_bytes", double(C.ParserBytes));
  L.set("parser.arena_allocs", double(C.ParserAllocs));
  L.set("printer.time_s", Per(SpanKind::Printer));
  L.set("printer.bytes_out", double(C.PrintBytes));
  L.set("expand.time_s", Per(SpanKind::Expand));
  L.set("expand.invocations", double(C.Invocations));
  L.set("expand.nodes_produced", double(C.Nodes));
  L.set("expand.arena_bytes", double(C.ExpandBytes));
  L.set("interp.meta_steps", double(C.MetaSteps));
  L.set("interp.gensyms", double(C.Gensyms));
  L.set("sexpr.parse_s", Per(SpanKind::SexprParse));
  L.set("sexpr.print_s", Per(SpanKind::SexprPrint));
  L.set("driver.restore_s", Per(SpanKind::Restore));
  L.set("driver.worker_build_s", Per(SpanKind::WorkerBuild));
}

std::unique_ptr<msq::Engine> pb::libraryEngine(int Variant) {
  auto E = std::make_unique<msq::Engine>();
  if (!E->loadStandardLibrary() ||
      !E->expandSource(benchLibraryName(), benchLibrary(Variant + 1))
           .Success) {
    std::fprintf(stderr, "perfbench: library failed to load\n");
    return nullptr;
  }
  return E;
}

namespace {

struct BatchStats {
  std::vector<double> WallUs;
  std::vector<double> SetupS;
  double LinesPerBatch = 0;
  /// Lines per second of the median batch: one slow batch (another
  /// tenant's burst on this machine) does not move it.
  double linesPerS() const {
    return LinesPerBatch / (quantile(WallUs, 0.5) * 1e-6);
  }
};

/// Loads the library into a fresh engine and expands one expandSources
/// batch from it, repeatedly, for \p Budget seconds (at least once); each
/// step is timed on its own. Set-up is sampled before every batch so its
/// median spans the whole run. Every result is checked against its oracle
/// outside the timed regions. \p Keep, when given, receives the last
/// engine.
bool runBatches(const std::vector<msq::SourceUnit> &Units,
                const std::vector<GenUnit> &Gen, unsigned Threads,
                double Budget, BatchStats &BS, Report &R,
                std::unique_ptr<msq::Engine> *Keep = nullptr) {
  msq::BatchOptions BO;
  BO.ThreadCount = Threads;
  BS.LinesPerBatch = 0;
  for (const GenUnit &G : Gen)
    BS.LinesPerBatch += double(G.Lines);
  bool Reported = false;
  std::unique_ptr<msq::Engine> E;
  Clock::time_point Start = Clock::now();
  do {
    // Set-up is timed on the second of two back-to-back loads: the first
    // refills the allocator and caches the batch emptied, so the sample
    // measures the load itself rather than page faults.
    E.reset();
    if (!libraryEngine(0))
      return false;
    Clock::time_point T0 = Clock::now();
    E = libraryEngine(0);
    BS.SetupS.push_back(secondsSince(T0));
    if (!E)
      return false;
    std::vector<msq::SourceUnit> Batch = Units;
    T0 = Clock::now();
    msq::BatchResult B = E->expandSources(std::move(Batch), BO);
    BS.WallUs.push_back(secondsSince(T0) * 1e6);
    for (size_t I = 0; I != Gen.size(); ++I) {
      const msq::ExpandResult &Res = B.Results[I];
      bool Ok = Res.Success && Res.Output == Gen[I].Expected[0];
      R.check(Ok);
      if (!Ok && !Reported) {
        Reported = true;
        std::fprintf(stderr,
                     "perfbench: %s: output differs from its oracle\n"
                     "%s--- got ---\n%s--- want ---\n%s",
                     Gen[I].Name.c_str(), Res.DiagnosticsText.c_str(),
                     Res.Output.c_str(), Gen[I].Expected[0].c_str());
      }
    }
  } while (secondsSince(Start) < Budget);
  if (Keep)
    *Keep = std::move(E);
  return true;
}

} // namespace

bool pb::runCold(const Settings &S, Report &R) {
  const bool Frontend = S.Workload == "cold_frontend";
  std::vector<GenUnit> Gen = Frontend ? genColdFrontend(S.Seed, 8)
                                      : genColdMacros(S.Seed, 256);
  if (!resolveOracles(Gen))
    return false;
  if (S.PlantMismatch)
    Gen[0].Expected[0] += "int planted_mismatch;\n";
  std::vector<msq::SourceUnit> Units;
  for (const GenUnit &G : Gen)
    Units.push_back({G.Name, G.Source, G.Base});

  // One unmeasured batch on a single worker, which expands every unit in
  // one engine whose arena only grows. The peak resident set is read right
  // after it: a fixed amount of work, unlike the timed loop, whose
  // per-thread malloc arenas make the high-water mark vary run to run.
  BatchStats Warm;
  if (!runBatches(Units, Gen, 1, 0, Warm, R))
    return false;
  const double PeakMb = selfPeakRssMb();

  if (!S.Trace) {
    BatchStats BS;
    if (!runBatches(Units, Gen, S.Threads, S.Seconds, BS, R))
      return false;
    R.add("setup_s", quantile(BS.SetupS, 0.5), "s");
    R.add("src_lines_per_s", BS.linesPerS(), "lines/s");
    R.add("latency_p50_us", quantile(BS.WallUs, 0.5), "us");
    R.add("peak_rss_mb", PeakMb, "MB");
    return true;
  }

  // Traced run: the untraced batch loop first (its own end-to-end
  // numbers), then traced single-thread passes over the same units.
  BatchStats BS;
  std::unique_ptr<msq::Engine> E;
  if (!runBatches(Units, Gen, S.Threads, S.Seconds / 2, BS, R, &E))
    return false;

  Tracer T;
  PhaseCounts First;
  double Passes = 0;
  double UnitSumS = 0;
  double MacroBodyS = 0;
  msq::BatchOptions BO;
  BO.ThreadCount = S.Threads;
  Clock::time_point Start = Clock::now();
  uint64_t TracedNs0 = nowNs();
  do {
    // Two workers from one snapshot: one runs the decomposed pipeline, the
    // other Engine::expandUnrecorded. The order alternates per unit so
    // neither side always finds the unit already in the CPU caches.
    PhaseCounts C;
    std::unique_ptr<msq::Engine> W;
    {
      Tracer::Scope Sp(T, SpanKind::WorkerBuild, 0);
      W = msq::BatchDriver::buildWorkerEngine(E->snapshot(), BO);
    }
    std::unique_ptr<msq::Engine> Api =
        msq::BatchDriver::buildWorkerEngine(E->snapshot(), BO);
    msq::Engine::SessionCheckpoint Baseline = W->checkpoint();
    msq::Engine::SessionCheckpoint ApiBaseline = Api->checkpoint();
    for (size_t I = 0; I != Units.size(); ++I) {
      Tracer::Scope UnitSpan(T, SpanKind::Unit, I);
      bool Ok = false;
      std::string Pieces;
      auto RunPieces = [&] {
        {
          Tracer::Scope Sp(T, SpanKind::Restore, I);
          W->restoreCheckpoint(Baseline);
        }
        Pieces = decomposedExpand(*W, Units[I], T, I, C, Ok);
      };
      msq::ExpandResult Whole;
      auto RunWhole = [&] {
        Api->restoreCheckpoint(ApiBaseline);
        Tracer::Scope Sp(T, SpanKind::ApiUnit, I);
        Whole = Api->expandUnrecorded(Units[I]);
        UnitSumS += double(Sp.nanos()) * 1e-9;
      };
      if (I % 2) {
        RunPieces();
        RunWhole();
      } else {
        RunWhole();
        RunPieces();
      }
      // The decomposed pipeline must assemble byte-identical output.
      R.check(Ok && Whole.Success && Pieces == Whole.Output &&
              Whole.Output == Gen[I].Expected[0]);
    }
    if (Passes == 0)
      First = C;
    MacroBodyS += C.MacroBodyS;
    ++Passes;
  } while (secondsSince(Start) < S.Seconds / 2 && Passes < 20);
  double TracedS = double(nowNs() - TracedNs0) * 1e-9;

  std::vector<double> Self = T.selfSeconds();
  Layers L;
  setPhaseLayers(L, First, Self, Passes);
  L.set("interp.macro_body_s", MacroBodyS / Passes);
  double ApiUnit = Self[size_t(SpanKind::ApiUnit)] / Passes;
  double PhaseSum = 0;
  for (SpanKind K : {SpanKind::Lexer, SpanKind::Parser, SpanKind::Expand,
                     SpanKind::Printer, SpanKind::SexprParse,
                     SpanKind::SexprPrint})
    PhaseSum += Self[size_t(K)] / Passes;
  L.set("api.unit_s", ApiUnit);
  L.set("api.residual_s", ApiUnit - PhaseSum);
  double BatchS = quantile(BS.WallUs, 0.5) * 1e-6;
  double SingleThreadS = UnitSumS / Passes +
                         Self[size_t(SpanKind::Restore)] / Passes +
                         Self[size_t(SpanKind::WorkerBuild)] / Passes;
  L.set("driver.parallel_speedup", BatchS > 0 ? SingleThreadS / BatchS : 0);
  L.set("e2e.setup_s", quantile(BS.SetupS, 0.5));
  L.set("e2e.peak_rss_mb", PeakMb);
  L.set("e2e.src_lines_per_s", BS.linesPerS());
  L.set("e2e.latency_p50_us", quantile(BS.WallUs, 0.5));
  L.set("e2e.latency_p99_us", quantile(BS.WallUs, 0.99));
  L.set("trace.spans", double(T.spans().size()));
  L.set("trace.passes", Passes);
  L.set("trace.overhead_pct", 100.0 * double(T.spans().size()) *
                                  Tracer::costPerSpanNs() * 1e-9 / TracedS);
  L.set("bench.error_rate",
        R.Attempted ? double(R.Failed) / double(R.Attempted) : 0);
  T.write(S.WorkDir + "/spans-" + S.Workload + "-" + std::to_string(S.Seed) +
          ".jsonl");
  L.emit(R);
  return true;
}
