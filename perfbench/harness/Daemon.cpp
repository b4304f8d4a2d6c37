//===----------------------------------------------------------------------===//
//
// daemon_mixed: a real msqd (memory cache, 2 workers) on a Unix socket,
// driven closed-loop over two connections at once:
//
//  * build — expand requests over a Zipf-popular unit set (mostly cache
//    hits) plus a share of fresh units (misses that expand and store);
//    every ReloadEvery requests a reload_library that edits tally_up's
//    body, so the server rekeys the entries the edit cannot reach and
//    invalidates the rest;
//  * editor — msq-lsp --debounce-ms 0 on the same daemon: didChange edits
//    (every fourth re-sends the current text unchanged, and some versions
//    fail to expand) each timed to their publishDiagnostics, plus hovers.
//
// Every response is checked against the oracle. Every child is drained
// with SIGTERM (msqd) or shutdown/exit (msq-lsp) and must exit 0.
//
// The traced run also replays a fixed, seed-determined prefix of the same
// streams in process — parseRequest, Server::expand, makeExpandResponse,
// Server::reloadLibrary, a shadow cache key/lookup/store, the engine
// phases of every server miss, and IncrementalDriver for the edits — so
// its work counters repeat exactly for a given seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "api/Msq.h"
#include "api/StdMacros.h"
#include "cache/ExpansionCache.h"
#include "driver/BatchDriver.h"
#include "driver/Incremental.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Socket.h"

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pb;

namespace {

constexpr unsigned PopularUnits = 128;
constexpr unsigned FreshPool = 32;
constexpr unsigned FreshPercent = 4;
constexpr double ZipfS = 0.9;
constexpr unsigned ReloadEvery = 1000;
constexpr unsigned EditorDocs = 3;
constexpr unsigned DocVersions = 8;
constexpr unsigned ErrorEvery = 4; ///< every 4th document version fails
constexpr unsigned Setups = 3;
constexpr unsigned ReplayBuildOps = 12000;
constexpr unsigned ReplayEdits = 600;
constexpr int ChildTimeoutMs = 20000;

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Inputs {
  std::vector<GenUnit> Popular;
  std::vector<GenUnit> Fresh;
  /// Versions[d][v]: version v of editor document d.
  std::vector<std::vector<GenUnit>> Versions;
  std::vector<double> ZipfCdf;
};

bool makeInputs(uint64_t Seed, bool Plant, Inputs &In) {
  In.Popular = genDaemonUnits(Seed, PopularUnits, "pop", 35);
  In.Fresh = genDaemonUnits(Seed, FreshPool, "fresh", 100);
  if (!resolveOracles(In.Popular) || !resolveOracles(In.Fresh))
    return false;
  for (unsigned D = 0; D != EditorDocs; ++D) {
    In.Versions.push_back(genEditorVersions(
        Seed, "/w/doc" + std::to_string(D) + ".c", DocVersions, ErrorEvery));
    if (!resolveOracles(In.Versions.back()))
      return false;
  }
  if (Plant)
    In.Popular[0].Expected[0] += "int planted_mismatch;\n";
  double Sum = 0;
  for (unsigned I = 0; I != PopularUnits; ++I)
    Sum += 1.0 / std::pow(double(I + 1), ZipfS);
  double Acc = 0;
  for (unsigned I = 0; I != PopularUnits; ++I) {
    Acc += 1.0 / std::pow(double(I + 1), ZipfS) / Sum;
    In.ZipfCdf.push_back(Acc);
  }
  return true;
}

/// One step of the build connection's request stream.
struct BuildOp {
  bool Reload = false;
  int Variant = 0; ///< library variant in force (tally_up constant - 1)
  bool Fresh = false;
  size_t Unit = 0;
  uint64_t Seq = 0;
};

class BuildStream {
public:
  BuildStream(uint64_t Seed, const Inputs &In) : R(Seed ^ 0xB111ull), In(In) {}

  BuildOp next() {
    BuildOp Op;
    Op.Seq = N++;
    if (N % ReloadEvery == 0) {
      Variant ^= 1;
      Op.Reload = true;
      Op.Variant = Variant;
      return Op;
    }
    Op.Variant = Variant;
    if (R.chance(FreshPercent)) {
      Op.Fresh = true;
      Op.Unit = R.below(FreshPool);
      return Op;
    }
    double U = R.unit();
    Op.Unit = size_t(std::lower_bound(In.ZipfCdf.begin(), In.ZipfCdf.end(), U) -
                     In.ZipfCdf.begin());
    Op.Unit = std::min<size_t>(Op.Unit, PopularUnits - 1);
    return Op;
  }

private:
  Rng R;
  const Inputs &In;
  uint64_t N = 0;
  int Variant = 0;
};

const GenUnit &unitOf(const Inputs &In, const BuildOp &Op) {
  return Op.Fresh ? In.Fresh[Op.Unit] : In.Popular[Op.Unit];
}

std::string nameOf(const Inputs &In, const BuildOp &Op) {
  // Fresh requests reuse a pool source under a never-seen name: the name
  // is part of the cache key, so each one misses and stores.
  return Op.Fresh ? "fresh_" + std::to_string(Op.Seq) + ".c"
                  : In.Popular[Op.Unit].Name;
}

std::vector<msq::SourceUnit> libraryUnits(int Variant) {
  return {{benchLibraryName(), benchLibrary(Variant + 1), ""}};
}

/// One step of the editor's stream: which document, and which version it
/// is sent at (a touch re-sends the current version).
struct EditOp {
  unsigned Doc = 0;
  unsigned Version = 0;
  bool Hover = false;
};

class EditStream {
public:
  EditOp next() {
    EditOp Op;
    Op.Doc = I % EditorDocs;
    bool Touch = I % 4 == 3;
    if (!Touch)
      Cur[Op.Doc] = (Cur[Op.Doc] + 1) % DocVersions;
    Op.Version = Cur[Op.Doc];
    Op.Hover = I % 2 == 0 && Op.Version % ErrorEvery != ErrorEvery - 1;
    ++I;
    return Op;
  }

private:
  unsigned I = 0;
  unsigned Cur[EditorDocs] = {};
};

//===----------------------------------------------------------------------===//
// Child processes and transports
//===----------------------------------------------------------------------===//

struct Child {
  pid_t Pid = -1;
  int In = -1;  ///< write end of the child's stdin (or -1)
  int Out = -1; ///< read end of the child's stdout
};

bool spawnChild(const std::string &Exe, const std::vector<std::string> &Args,
                bool PipeIn, Child &C) {
  int InP[2] = {-1, -1}, OutP[2];
  if ((PipeIn && ::pipe2(InP, O_CLOEXEC) != 0) || ::pipe2(OutP, O_CLOEXEC) != 0)
    return false;
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Exe.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    // A harness that dies unexpectedly must not leave daemons behind.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (PipeIn)
      ::dup2(InP[0], 0);
    ::dup2(OutP[1], 1);
    ::execv(Exe.c_str(), Argv.data());
    std::_Exit(127);
  }
  if (PipeIn) {
    ::close(InP[0]);
    C.In = InP[1];
  }
  ::close(OutP[1]);
  C.Out = OutP[0];
  C.Pid = Pid;
  return true;
}

/// Waits up to \p TimeoutMs for \p Pid; true when it exited with status 0.
/// A child that does not exit in time is killed and counts as a failure.
bool reap(pid_t Pid, int TimeoutMs) {
  Clock::time_point T0 = Clock::now();
  int Status = 0;
  for (;;) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid)
      return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    if (R < 0)
      return false;
    if (secondsSince(T0) * 1000 > TimeoutMs) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Reads one '\n'-terminated line from \p Fd within \p TimeoutMs.
bool readLine(int Fd, std::string &Line, int TimeoutMs) {
  Line.clear();
  Clock::time_point T0 = Clock::now();
  char Ch;
  for (;;) {
    int Left = TimeoutMs - int(secondsSince(T0) * 1000);
    struct pollfd P = {Fd, POLLIN, 0};
    if (Left <= 0 || ::poll(&P, 1, Left) <= 0 || ::read(Fd, &Ch, 1) != 1)
      return false;
    if (Ch == '\n')
      return true;
    Line += Ch;
  }
}

/// The msq-lsp side: Content-Length framed JSON-RPC over the child's
/// stdin/stdout.
class LspPipe {
public:
  explicit LspPipe(Child &C) : C(C) {}

  bool send(const std::string &Body) {
    return msq::writeAll(C.In, "Content-Length: " + std::to_string(Body.size()) +
                                   "\r\n\r\n" + Body);
  }

  /// Next message body, within \p TimeoutMs.
  bool recv(std::string &Body, int TimeoutMs) {
    Clock::time_point T0 = Clock::now();
    for (;;) {
      size_t HeaderEnd = Buf.find("\r\n\r\n");
      if (HeaderEnd != std::string::npos) {
        size_t At = Buf.find("Content-Length:");
        if (At == std::string::npos || At > HeaderEnd)
          return false;
        size_t Len = std::strtoul(Buf.c_str() + At + 15, nullptr, 10);
        if (Buf.size() >= HeaderEnd + 4 + Len) {
          Body = Buf.substr(HeaderEnd + 4, Len);
          Buf.erase(0, HeaderEnd + 4 + Len);
          return true;
        }
      }
      int Left = TimeoutMs - int(secondsSince(T0) * 1000);
      struct pollfd P = {C.Out, POLLIN, 0};
      if (Left <= 0 || ::poll(&P, 1, Left) <= 0)
        return false;
      char Chunk[65536];
      ssize_t N = ::read(C.Out, Chunk, sizeof Chunk);
      if (N <= 0)
        return false;
      Buf.append(Chunk, size_t(N));
    }
  }

  /// Reads until a message satisfying \p Match arrives (others are
  /// dropped); false on timeout or a closed pipe.
  template <typename Fn>
  bool await(msq::json::Value &Msg, Fn Match) {
    std::string Body;
    while (recv(Body, ChildTimeoutMs)) {
      if (msq::json::parse(Body, Msg, nullptr) && Match(Msg))
        return true;
    }
    return false;
  }

private:
  Child &C;
  std::string Buf;
};

std::string uriOf(unsigned Doc) {
  return "file:///w/doc" + std::to_string(Doc) + ".c";
}

bool isDiagnosticsFor(const msq::json::Value &M, const std::string &Uri) {
  const msq::json::Value *Method = M.get("method");
  const msq::json::Value *Params = M.get("params");
  const msq::json::Value *U = Params ? Params->get("uri") : nullptr;
  return Method && Method->Str == "textDocument/publishDiagnostics" && U &&
         U->Str == Uri;
}

bool isResponseTo(const msq::json::Value &M, unsigned Id) {
  const msq::json::Value *V = M.get("id");
  return V && V->K == msq::json::Value::Kind::Number && V->Num == double(Id);
}

/// A publishDiagnostics payload matches its version: no diagnostics for a
/// clean version, at least one error for a broken one.
bool diagnosticsMatch(const msq::json::Value &M, const GenUnit &V) {
  const msq::json::Value *D = M.get("params")->get("diagnostics");
  if (!D || !D->isArray())
    return false;
  if (!V.ExpectError)
    return D->Arr.empty();
  for (const msq::json::Value &X : D->Arr)
    if (const msq::json::Value *Sev = X.get("severity"); Sev && Sev->Num == 1)
      return true;
  return false;
}

double vmHwmMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

double numberAt(const msq::json::Value &Root,
                std::initializer_list<const char *> Path) {
  const msq::json::Value *V = &Root;
  for (const char *Key : Path)
    if (!(V = V->get(Key)))
      return 0;
  return V->Num;
}

//===----------------------------------------------------------------------===//
// One live daemon + editor
//===----------------------------------------------------------------------===//

struct Live {
  Child Daemon, Editor;
  msq::FdHandle BuildFd;
  std::unique_ptr<msq::FrameReader> Reader;
  std::unique_ptr<LspPipe> Lsp;
  unsigned NextLspId = 1;
  uint64_t NextReqId = 1;

  bool rpc(const std::string &Frame, std::string &Resp) {
    return msq::writeFrame(BuildFd.get(), Frame) &&
           Reader->next(Resp) == msq::FrameReader::Status::Frame;
  }
};

struct Samples {
  std::vector<double> ExpandUs, ReloadMs, EditUs, HoverUs;
  double Lines = 0;
  double LoopS = 0;
};

/// Expands \p Op's unit over the build connection and checks the result.
bool buildExpand(Live &L, const Inputs &In, const BuildOp &Op, Samples *Smp,
                 Report &R) {
  const GenUnit &U = unitOf(In, Op);
  std::string Frame = msq::makeExpandRequest(
      std::to_string(L.NextReqId++), nameOf(In, Op), U.Source, true, 0, 0);
  std::string Resp;
  Clock::time_point T0 = Clock::now();
  bool Sent = L.rpc(Frame, Resp);
  double Us = secondsSince(T0) * 1e6;
  msq::json::Value V;
  bool Ok = Sent && msq::json::parse(Resp, V, nullptr);
  const msq::json::Value *Out = Ok ? V.get("output") : nullptr;
  const msq::json::Value *Success = Ok ? V.get("success") : nullptr;
  Ok = Ok && Out && Success && Success->B &&
       Out->Str == U.Expected[size_t(Op.Variant)];
  R.check(Ok);
  if (!Ok && R.Failed == 1)
    std::fprintf(stderr, "perfbench: expand of %s failed or mismatched: %s\n",
                 U.Name.c_str(), Resp.substr(0, 2000).c_str());
  if (Smp) {
    Smp->ExpandUs.push_back(Us);
    Smp->Lines += double(U.Lines);
  }
  return Sent;
}

bool buildReload(Live &L, int Variant, Samples *Smp, Report &R) {
  std::string Frame = msq::makeReloadRequest(std::to_string(L.NextReqId++),
                                             libraryUnits(Variant), true);
  std::string Resp;
  Clock::time_point T0 = Clock::now();
  bool Sent = L.rpc(Frame, Resp);
  double Ms = secondsSince(T0) * 1e3;
  R.check(Sent && Resp.find("\"type\":\"reloaded\"") != std::string::npos);
  if (Smp)
    Smp->ReloadMs.push_back(Ms);
  return Sent;
}

/// Sends one document version and waits for its diagnostics.
bool editorChange(Live &L, const Inputs &In, const EditOp &Op, int Version,
                  bool Open, Samples *Smp, Report &R) {
  const GenUnit &V = In.Versions[Op.Doc][Op.Version];
  std::string Uri = uriOf(Op.Doc);
  std::string Text = "\"" + msq::jsonEscape(V.Source) + "\"";
  std::string Msg =
      Open ? "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\","
             "\"params\":{\"textDocument\":{\"uri\":\"" +
                 Uri + "\",\"version\":" + std::to_string(Version) +
                 ",\"text\":" + Text + "}}}"
           : "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\","
             "\"params\":{\"textDocument\":{\"uri\":\"" +
                 Uri + "\",\"version\":" + std::to_string(Version) +
                 "},\"contentChanges\":[{\"text\":" + Text + "}]}}";
  msq::json::Value Got;
  Clock::time_point T0 = Clock::now();
  bool Ok = L.Lsp->send(Msg) &&
            L.Lsp->await(Got, [&](const msq::json::Value &M) {
              return isDiagnosticsFor(M, Uri);
            });
  double Us = secondsSince(T0) * 1e6;
  R.check(Ok && diagnosticsMatch(Got, V));
  if (Smp)
    Smp->EditUs.push_back(Us);
  return Ok;
}

bool editorHover(Live &L, const Inputs &In, const EditOp &Op, Samples *Smp,
                 Report &R) {
  unsigned Id = L.NextLspId++;
  std::string Msg = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
                    ",\"method\":\"textDocument/hover\",\"params\":{"
                    "\"textDocument\":{\"uri\":\"" +
                    uriOf(Op.Doc) +
                    "\"},\"position\":{\"line\":0,\"character\":0}}}";
  msq::json::Value Got;
  Clock::time_point T0 = Clock::now();
  bool Ok = L.Lsp->send(Msg) &&
            L.Lsp->await(Got, [&](const msq::json::Value &M) {
              return isResponseTo(M, Id);
            });
  double Us = secondsSince(T0) * 1e6;
  const msq::json::Value *Res = Ok ? Got.get("result") : nullptr;
  const msq::json::Value *Contents = Res ? Res->get("contents") : nullptr;
  const msq::json::Value *Value = Contents ? Contents->get("value") : nullptr;
  // Line 0 holds a plain declaration, so the hover shows the whole
  // expansion of the document.
  R.check(Value && Value->Str == In.Versions[Op.Doc][Op.Version].Expected[0]);
  if (Smp)
    Smp->HoverUs.push_back(Us);
  return Ok;
}

/// The daemons are built in the same tree as this harness.
std::string msqdPath(const Settings &S) {
  return S.BuildDir + "/msq/server/msqd";
}
std::string lspPath(const Settings &S) {
  return S.BuildDir + "/msq/lsp/msq-lsp";
}

/// Spawns msqd and msq-lsp, loads the library, opens the editor documents
/// and pre-fills the popular set. Returns false when a step failed outright.
bool setUp(const Settings &S, const Inputs &In, unsigned Round, Live &L,
           Report &R) {
  std::string Sock = S.WorkDir + "/msqd-" + std::to_string(::getpid()) + "-" +
                     std::to_string(Round) + ".sock";
  ::unlink(Sock.c_str());
  if (!spawnChild(msqdPath(S),
                  {"--socket", Sock, "--workers", "2", "--cache", "--quiet"},
                  false, L.Daemon)) {
    std::fprintf(stderr, "perfbench: cannot spawn msqd\n");
    return false;
  }
  std::string Ready;
  if (!readLine(L.Daemon.Out, Ready, ChildTimeoutMs) ||
      Ready.find("\"ready\"") == std::string::npos) {
    std::fprintf(stderr, "perfbench: msqd did not report ready\n");
    return false;
  }
  std::string Err;
  int Fd = msq::connectUnix(Sock, &Err);
  if (Fd < 0) {
    std::fprintf(stderr, "perfbench: cannot connect to msqd: %s\n",
                 Err.c_str());
    return false;
  }
  ::fcntl(Fd, F_SETFD, FD_CLOEXEC);
  L.BuildFd.reset(Fd);
  L.Reader = std::make_unique<msq::FrameReader>(Fd, msq::MaxFrameBytes);
  if (!buildReload(L, 0, nullptr, R))
    return false;

  if (!spawnChild(lspPath(S),
                  {"--socket", Sock, "--debounce-ms", "0"}, true, L.Editor)) {
    std::fprintf(stderr, "perfbench: cannot spawn msq-lsp\n");
    return false;
  }
  L.Lsp = std::make_unique<LspPipe>(L.Editor);
  unsigned InitId = L.NextLspId++;
  msq::json::Value Got;
  if (!L.Lsp->send("{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(InitId) +
                   ",\"method\":\"initialize\",\"params\":{}}") ||
      !L.Lsp->await(Got, [&](const msq::json::Value &M) {
        return isResponseTo(M, InitId);
      }) ||
      !L.Lsp->send("{\"jsonrpc\":\"2.0\",\"method\":\"initialized\"}")) {
    std::fprintf(stderr, "perfbench: msq-lsp did not initialize\n");
    return false;
  }
  for (unsigned D = 0; D != EditorDocs; ++D)
    if (!editorChange(L, In, {D, 0, false}, 1, true, nullptr, R))
      return false;
  for (unsigned U = 0; U != PopularUnits; ++U) {
    BuildOp Op;
    Op.Unit = U;
    if (!buildExpand(L, In, Op, nullptr, R))
      return false;
  }
  return true;
}

/// Reads msqd's status and memory high-water mark, then drains both
/// children; each must exit 0.
bool tearDown(Live &L, msq::json::Value *Status, double *PeakMb, Report &R) {
  if (Status) {
    std::string Resp;
    R.check(L.rpc(msq::makeStatusRequest("status"), Resp) &&
            msq::json::parse(Resp, *Status, nullptr));
  }
  if (PeakMb)
    *PeakMb = vmHwmMb(L.Daemon.Pid);
  bool Ok = true;
  if (L.Editor.Pid > 0) {
    unsigned Id = L.NextLspId++;
    msq::json::Value Got;
    Ok &= L.Lsp->send("{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
                      ",\"method\":\"shutdown\"}") &&
          L.Lsp->await(Got, [&](const msq::json::Value &M) {
            return isResponseTo(M, Id);
          }) &&
          L.Lsp->send("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
    ::close(L.Editor.In);
    bool Exited = reap(L.Editor.Pid, ChildTimeoutMs);
    R.check(Exited);
    Ok &= Exited;
    ::close(L.Editor.Out);
  }
  L.Reader.reset();
  L.BuildFd.reset();
  if (L.Daemon.Pid > 0) {
    ::kill(L.Daemon.Pid, SIGTERM);
    bool Exited = reap(L.Daemon.Pid, ChildTimeoutMs);
    R.check(Exited);
    Ok &= Exited;
    ::close(L.Daemon.Out);
  }
  if (!Ok)
    std::fprintf(stderr, "perfbench: a child did not drain cleanly\n");
  return Ok;
}

/// The measured loop: both connections, closed loop, for \p Seconds.
void runLoop(Live &L, const Inputs &In, uint64_t Seed, double Seconds,
             Samples &Smp, Report &R) {
  std::atomic<bool> Stop{false};
  Report BuildR, EditR;
  Clock::time_point T0 = Clock::now();
  std::thread Editor([&] {
    EditStream ES;
    int Version = 2;
    while (!Stop.load(std::memory_order_relaxed)) {
      EditOp Op = ES.next();
      if (!editorChange(L, In, Op, Version++, false, &Smp, EditR)) {
        Stop = true;
        return;
      }
      if (Op.Hover && !editorHover(L, In, Op, &Smp, EditR)) {
        Stop = true;
        return;
      }
    }
  });
  BuildStream BS(Seed, In);
  while (!Stop.load(std::memory_order_relaxed)) {
    BuildOp Op = BS.next();
    bool Sent = Op.Reload ? buildReload(L, Op.Variant, &Smp, BuildR)
                          : buildExpand(L, In, Op, &Smp, BuildR);
    if (!Sent || secondsSince(T0) >= Seconds)
      Stop = true;
  }
  Smp.LoopS = secondsSince(T0);
  Editor.join();
  for (const Report *Part : {&BuildR, &EditR}) {
    R.Attempted += Part->Attempted;
    R.Failed += Part->Failed;
  }
}

//===----------------------------------------------------------------------===//
// In-process replay (traced run)
//===----------------------------------------------------------------------===//

struct ReplayOut {
  PhaseCounts Phases;
  std::vector<double> Self = std::vector<double>(size_t(SpanKind::Count), 0.0);
  double CacheHits = 0, CacheMisses = 0, BytesRead = 0, BytesWritten = 0;
  double Rekeyed = 0, Invalidated = 0;
  double ProtocolBytes = 0;
  std::vector<double> ServerUs, IncrRunUs;
  double Clean = 0, Tree = 0, Token = 0, Cold = 0, Evals = 0;
  size_t Spans = 0;
  double TracedS = 0;
};

void replay(const Settings &S, const Inputs &In, Tracer &T, ReplayOut &O,
            Report &R) {
  uint64_t T0 = nowNs();
  msq::ServerOptions SO;
  SO.EngineOpts.EnableExpansionCache = true;
  SO.Workers = 2;
  msq::Server Srv(SO);
  {
    Tracer::Scope Sp(T, SpanKind::ServerReload, 0);
    R.check(Srv.reloadLibrary(libraryUnits(0), true).Success);
  }
  msq::BatchOptions BO;
  std::unique_ptr<msq::Engine> Lib, W;
  msq::Engine::SessionCheckpoint Baseline;
  std::string FP;
  auto Shadow = [&](int Variant) {
    Lib = libraryEngine(Variant);
    R.check(Lib != nullptr);
    if (!Lib)
      return false;
    {
      Tracer::Scope Sp(T, SpanKind::Fingerprint, 0);
      FP = Lib->stateFingerprint();
    }
    Tracer::Scope Sp(T, SpanKind::WorkerBuild, 0);
    W = msq::BatchDriver::buildWorkerEngine(Lib->snapshot(), BO);
    Baseline = W->checkpoint();
    return true;
  };
  if (!Shadow(0))
    return;
  msq::ExpansionCache ShadowCache;
  msq::CacheStats ShadowStats;

  BuildStream BS(S.Seed, In);
  for (unsigned N = 0; N != ReplayBuildOps; ++N) {
    BuildOp Op = BS.next();
    if (Op.Reload) {
      {
        Tracer::Scope Sp(T, SpanKind::ServerReload, Op.Seq);
        R.check(Srv.reloadLibrary(libraryUnits(Op.Variant), true).Success);
      }
      if (!Shadow(Op.Variant))
        return;
      continue;
    }
    const GenUnit &U = unitOf(In, Op);
    std::string Frame = msq::makeExpandRequest(
        "r" + std::to_string(Op.Seq), nameOf(In, Op), U.Source, true, 0, 0);
    msq::ExpandResult Res;
    std::string Resp;
    msq::Request Req;
    {
      Tracer::Scope Request(T, SpanKind::Unit, Op.Seq);
      {
        Tracer::Scope Sp(T, SpanKind::Decode, Op.Seq);
        msq::parseRequest(Frame, Req);
      }
      uint64_t Gen = 0;
      {
        Tracer::Scope Sp(T, SpanKind::ServerExpand, Op.Seq);
        Srv.expand({Req.Name, Req.Source, Req.Base}, {}, Res, &Gen);
      }
      Tracer::Scope Sp(T, SpanKind::Encode, Op.Seq);
      Resp = msq::makeExpandResponse(Req.Id, Res, Gen);
    }
    O.ProtocolBytes += double(Frame.size() + Resp.size());
    const std::string &Want = U.Expected[size_t(Op.Variant)];
    R.check(Res.Success && Res.Output == Want);

    // The cache layer's calls, timed on a shadow cache, and the engine
    // phases of every request the server expanded rather than replayed.
    msq::SourceUnit Unit{Req.Name, Req.Source, Req.Base};
    Tracer::Scope Shadowed(T, SpanKind::Unit, Op.Seq);
    std::string Key;
    {
      Tracer::Scope Sp(T, SpanKind::CacheKey, Op.Seq);
      Key = msq::expansionCacheKey(FP, Unit, SO.EngineOpts.MaxMetaSteps,
                                   SO.EngineOpts.CollectProfile, false);
    }
    msq::CachedExpansion CE;
    {
      Tracer::Scope Sp(T, SpanKind::CacheLookup, Op.Seq);
      ShadowCache.lookup(Key, CE, ShadowStats);
    }
    if (!Res.FromCache) {
      {
        Tracer::Scope Sp(T, SpanKind::Restore, Op.Seq);
        W->restoreCheckpoint(Baseline);
      }
      bool Ok = false;
      std::string Pieces = decomposedExpand(*W, Unit, T, Op.Seq, O.Phases, Ok);
      R.check(Ok && Pieces == Want);
      Tracer::Scope Sp(T, SpanKind::CacheStore, Op.Seq);
      ShadowCache.store(Key, msq::cachedExpansionFromResult(Res), ShadowStats);
    }
  }
  msq::json::Value M;
  if (msq::json::parse(Srv.metricsJson(), M, nullptr)) {
    O.CacheHits = numberAt(M, {"cache", "hits"});
    O.CacheMisses = numberAt(M, {"cache", "misses"});
    O.BytesRead = numberAt(M, {"cache", "bytes_read"});
    O.BytesWritten = numberAt(M, {"cache", "bytes_written"});
    O.Rekeyed = numberAt(M, {"server", "reload_rekeyed"});
    O.Invalidated = numberAt(M, {"server", "reload_invalidated"});
  }
  O.ServerUs = T.durationsUs(SpanKind::ServerExpand);

  // Editor: the session's incremental driver, in process.
  msq::IncrementalOptions IO;
  IO.EngineOpts.CollectProfile = false;
  IO.EngineOpts.TrackProvenance = true;
  IO.EngineOpts.EmitSourceMap = true;
  msq::IncrementalDriver D(IO);
  {
    Tracer::Scope Sp(T, SpanKind::IncrSetLib, 0);
    std::vector<msq::SourceUnit> LibUnits = {
        {"<msq-stdlib>", msq::standardMacroLibrarySource(), ""}};
    LibUnits.push_back(libraryUnits(0)[0]);
    D.setLibrary(LibUnits);
  }
  EditStream ES;
  for (unsigned I = 0; I != ReplayEdits; ++I) {
    EditOp Op = ES.next();
    const GenUnit &V = In.Versions[Op.Doc][Op.Version];
    msq::IncrementalResult IR;
    {
      Tracer::Scope Sp(T, SpanKind::IncrRun, I);
      IR = D.run({{V.Name, V.Source, ""}});
    }
    const msq::ExpandResult &ER = IR.Results.at(0);
    R.check(V.ExpectError ? !ER.Success : ER.Success && ER.Output == V.Expected[0]);
    O.Clean += double(IR.CleanReplays);
    O.Tree += double(IR.TreeReuses);
    O.Token += double(IR.TokenReuses);
    O.Cold += double(IR.ColdExpansions);
    ++O.Evals;
  }
  O.IncrRunUs = T.durationsUs(SpanKind::IncrRun);
  O.Self = T.selfSeconds();
  O.Spans = T.spans().size();
  O.TracedS = double(nowNs() - T0) * 1e-9;
}

} // namespace

bool pb::runDaemon(const Settings &S, Report &R) {
  for (const std::string &Exe : {msqdPath(S), lspPath(S)})
    if (::access(Exe.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "perfbench: %s is missing; build it first\n",
                   Exe.c_str());
      return false;
    }
  std::signal(SIGPIPE, SIG_IGN);
  Inputs In;
  if (!makeInputs(S.Seed, S.PlantMismatch, In))
    return false;

  // Set-up, repeated; all but the last instance are drained right away.
  std::vector<double> SetupS;
  Live L;
  for (unsigned Round = 0; Round != Setups; ++Round) {
    L = Live();
    Clock::time_point T0 = Clock::now();
    bool Up = setUp(S, In, Round, L, R);
    SetupS.push_back(secondsSince(T0));
    if (!Up) {
      tearDown(L, nullptr, nullptr, R);
      return false;
    }
    if (Round + 1 != Setups && !tearDown(L, nullptr, nullptr, R))
      return false;
  }

  // msqd's arenas grow with every request it serves, so its high-water
  // mark after the measured loop rises with throughput. The end-to-end
  // reading is taken after set-up, a fixed amount of work; the end-of-run
  // reading is a per-layer metric.
  double SetupPeakMb = vmHwmMb(L.Daemon.Pid);
  Samples Smp;
  runLoop(L, In, S.Seed, S.Seconds, Smp, R);
  // A child that does not drain cleanly is already counted in R.Failed,
  // which makes the run exit non-zero after printing its result.
  msq::json::Value Status;
  double PeakMb = 0;
  tearDown(L, &Status, &PeakMb, R);

  double LinesPerS = Smp.Lines / Smp.LoopS;
  double ExpandP50 = quantile(Smp.ExpandUs, 0.5);
  double ExpandP99 = quantile(Smp.ExpandUs, 0.99);
  if (!S.Trace) {
    R.add("setup_s", quantile(SetupS, 0.5), "s");
    R.add("src_lines_per_s", LinesPerS, "lines/s");
    R.add("latency_p50_us", ExpandP50, "us");
    R.add("peak_rss_mb", SetupPeakMb, "MB");
    return true;
  }

  Tracer T;
  ReplayOut O;
  replay(S, In, T, O, R);
  Layers L2;
  setPhaseLayers(L2, O.Phases, O.Self, 1);
  L2.set("interp.macro_body_s", O.Phases.MacroBodyS);
  L2.set("cache.key_s", O.Self[size_t(SpanKind::CacheKey)]);
  L2.set("cache.fingerprint_s", O.Self[size_t(SpanKind::Fingerprint)]);
  L2.set("cache.lookup_s", O.Self[size_t(SpanKind::CacheLookup)]);
  L2.set("cache.store_s", O.Self[size_t(SpanKind::CacheStore)]);
  L2.set("cache.hits", O.CacheHits);
  L2.set("cache.misses", O.CacheMisses);
  L2.set("cache.hit_ratio", O.CacheHits + O.CacheMisses > 0
                                ? O.CacheHits / (O.CacheHits + O.CacheMisses)
                                : 0);
  L2.set("cache.bytes_read", O.BytesRead);
  L2.set("cache.bytes_written", O.BytesWritten);
  L2.set("server.reload_rekeyed", O.Rekeyed);
  L2.set("server.reload_invalidated", O.Invalidated);
  L2.set("server.reload_s", O.Self[size_t(SpanKind::ServerReload)]);
  double ServerP50 = numberAt(Status, {"metrics", "server", "latency", "p50_us"});
  L2.set("server.latency_p50_us", ServerP50);
  L2.set("server.latency_p99_us",
         numberAt(Status, {"metrics", "server", "latency", "p99_us"}));
  L2.set("server.rejected",
         numberAt(Status, {"metrics", "server", "rejected_overloaded"}) +
             numberAt(Status, {"metrics", "server", "rejected_draining"}) +
             numberAt(Status, {"metrics", "server", "rejected_quota"}));
  L2.set("server.inproc_p50_us", quantile(O.ServerUs, 0.5));
  L2.set("server.inproc_p99_us", quantile(O.ServerUs, 0.99));
  L2.set("protocol.decode_s", O.Self[size_t(SpanKind::Decode)]);
  L2.set("protocol.encode_s", O.Self[size_t(SpanKind::Encode)]);
  L2.set("protocol.bytes", O.ProtocolBytes);
  L2.set("transport.overhead_p50_us", ExpandP50 - ServerP50);
  L2.set("incr.set_library_s", O.Self[size_t(SpanKind::IncrSetLib)]);
  L2.set("incr.run_s", O.Self[size_t(SpanKind::IncrRun)]);
  L2.set("incr.warm_ratio", O.Evals ? (O.Clean + O.Tree + O.Token) / O.Evals : 0);
  L2.set("incr.clean", O.Clean);
  L2.set("incr.tree", O.Tree);
  L2.set("incr.token", O.Token);
  L2.set("incr.cold", O.Cold);
  double EditP50 = quantile(Smp.EditUs, 0.5);
  L2.set("lsp.edit_overhead_p50_us", EditP50 - quantile(O.IncrRunUs, 0.5));
  L2.set("daemon.req_per_s", double(Smp.ExpandUs.size()) / Smp.LoopS);
  L2.set("daemon.expand_p50_us", ExpandP50);
  L2.set("daemon.expand_p99_us", ExpandP99);
  L2.set("daemon.reload_p50_ms", quantile(Smp.ReloadMs, 0.5));
  L2.set("lsp.edit_p50_us", EditP50);
  L2.set("lsp.edit_p99_us", quantile(Smp.EditUs, 0.99));
  L2.set("lsp.hover_p50_us", quantile(Smp.HoverUs, 0.5));
  L2.set("lsp.hover_p99_us", quantile(Smp.HoverUs, 0.99));
  L2.set("daemon.rss_end_mb", PeakMb);
  L2.set("e2e.peak_rss_mb", SetupPeakMb);
  L2.set("e2e.setup_s", quantile(SetupS, 0.5));
  L2.set("e2e.src_lines_per_s", LinesPerS);
  L2.set("e2e.latency_p50_us", ExpandP50);
  L2.set("e2e.latency_p99_us", ExpandP99);
  L2.set("trace.spans", double(O.Spans));
  L2.set("trace.passes", 1);
  L2.set("trace.overhead_pct",
         O.TracedS > 0 ? 100.0 * double(O.Spans) * Tracer::costPerSpanNs() *
                             1e-9 / O.TracedS
                       : 0);
  L2.set("bench.error_rate",
         R.Attempted ? double(R.Failed) / double(R.Attempted) : 0);
  T.write(S.WorkDir + "/spans-" + S.Workload + "-" + std::to_string(S.Seed) +
          ".jsonl");
  L2.emit(R);
  return true;
}
