//===- perfbench/src/DaemonMix.cpp - daemon-mix ---------------------------===//
//
// Open loop against an rmld child process, from this one client process:
// 2 connections served by one client thread, which sleeps in ppoll until
// the next scheduled send and reads replies as they come. rmld runs 2
// workers; its memory cache holds fewer entries than the working set,
// its --cache-dir is a fresh directory, and its --gc-threshold is low
// enough that the small runs collect.
//
// The traffic is synthetic, not recorded from users. Requests mix
// compile+run, compile-only, scheme queries and capture queries over the
// salted program family of oracle/mix_family.json, in bench_traffic's
// documented shares (--mix 1:8:1 with the capture slot at 1, and 20%
// never-seen sources, from --hot-ratio 0.8). The
// seed alone derives the working set, the Zipf draw over it, the share
// of never-seen sources and the request kinds; arrivals are evenly
// paced. Set-up starts the daemon and touches every working-set program
// once (compile+run and capture query), so the disk tier holds all of
// them and the memory tier the most recent: the measured traffic then
// meets memory hits, disk hits (read plus decodeFlat) and misses
// (compile plus write-through) in one run.
//
// Measurement:
//  1. a fixed rate, split over several daemon instances (each set up
//     afresh, which is also what setup_s times): the CPU time all of
//     rmld's threads spend per request (cost_ms, from
//     /proc/<pid>/task/*/schedstat), the latency of every request from
//     its scheduled send (mix.p50_ms, mix.p99_ms) and how late the
//     generator ran (mix.send_lag_ms);
//  2. traced runs only, on the last instance: a ladder of fixed rates,
//     FixedRps * 1.04^i, searched upward in steps of 6 and then 1, each
//     rung retried once: mix.max_rps is the highest rung at which at
//     least 99% of requests meet the latency limit and the backlog does
//     not grow.
// Latency and the ladder's maximum swing too much from run to run on a
// shared host to serve as end-to-end metrics (see README.md), so they
// are per-layer diagnostics; the daemon's CPU time per request holds
// steady.
// A shed, refused, timed-out, malformed or wrong response misses the
// latency limit and counts as a failed operation. A nonzero
// internal_errors, disk_write_errors or disk_load_rejects in /stats, or
// protocol_errors in rmld's exit report, invalidates the run.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Tracer.h"
#include "Workloads.h"

#include "net/Protocol.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <set>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace pb {

namespace {

using rml::net::MsgKind;
using rml::net::WireStatus;

struct MixConfig {
  unsigned Workers = 2;
  /// The memory tier holds a quarter of the working set, so the Zipf
  /// head hits memory and its tail hits disk (README.md gives the tier
  /// shares this produces).
  unsigned MemEntries = 64;
  unsigned WorkingSet = 256;
  /// Share of requests whose source was never seen before: bench_traffic's
  /// cold share, 1 - (--hot-ratio 0.8).
  double FreshShare = 0.20;
  /// Zipf's law proper.
  double ZipfS = 1.0;
  /// Kind weights: compile+run, compile-only, scheme query, capture query.
  /// bench_traffic's documented --mix 1:8:1 (compile-only : compile+run :
  /// scheme) with its fourth, capture slot at 1.
  double KindWeights[4] = {8.0 / 11, 1.0 / 11, 1.0 / 11, 1.0 / 11};
  unsigned GcThresholdWords = 1024;
  double FixedRps = 1100;
  /// Share of --seconds a traced run spends at the fixed rate; its
  /// ladder gets the rest. An untraced run has no ladder.
  double TracedFixedShare = 0.5;
  double LimitMs = 20;
  double RungSeconds = 0.8;
  unsigned CoarseStep = 6;
  double LadderRatio = 1.04;
  /// Highest rung index.
  unsigned MaxRung = 60;
  unsigned WarmWindow = 4;
};

MixConfig configFor(const Options &O) {
  MixConfig C;
  if (O.Tiny) {
    C.WorkingSet = 16;
    C.MemEntries = 8;
    C.FixedRps = 100;
    C.RungSeconds = 0.3;
  }
  return C;
}

//===-- The rmld child ----------------------------------------------------===//

class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (OutFd >= 0)
      ::close(OutFd);
  }

  bool start(const std::string &Rmld, const std::vector<std::string> &Args,
             const std::string &ErrPath, std::string &Err) {
    int Pipe[2];
    if (::pipe2(Pipe, O_CLOEXEC) != 0) {
      Err = "pipe failed";
      return false;
    }
    int ErrFd =
        ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (ErrFd < 0) {
      Err = "cannot open " + ErrPath;
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      return false;
    }
    std::vector<std::string> Argv = {Rmld};
    Argv.insert(Argv.end(), Args.begin(), Args.end());
    std::vector<char *> CArgv;
    for (std::string &A : Argv)
      CArgv.push_back(A.data());
    CArgv.push_back(nullptr);
    pid_t P = ::fork();
    if (P == 0) {
      // Dies with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(Pipe[1], 1);
      ::dup2(ErrFd, 2);
      ::execv(CArgv[0], CArgv.data());
      ::_exit(127);
    }
    ::close(Pipe[1]);
    ::close(ErrFd);
    if (P < 0) {
      ::close(Pipe[0]);
      Err = "fork failed";
      return false;
    }
    Pid = P;
    OutFd = Pipe[0];
    ErrFile = ErrPath;
    // The first stdout line names the port.
    std::string Out;
    uint64_t Until = nowNs() + 10'000'000'000ull;
    while (Out.find('\n') == std::string::npos && nowNs() < Until) {
      pollfd Pfd{OutFd, POLLIN, 0};
      if (::poll(&Pfd, 1, 100) <= 0)
        continue;
      char Buf[256];
      ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Out.append(Buf, static_cast<size_t>(N));
    }
    size_t At = Out.find("listening on ");
    size_t Colon = At == std::string::npos ? At : Out.find(':', At);
    if (Colon == std::string::npos) {
      Err = "rmld did not start: " + Out;
      return false;
    }
    Port = static_cast<uint16_t>(
        std::strtoul(Out.c_str() + Colon + 1, nullptr, 10));
    return Port != 0;
  }

  /// SIGTERM and wait for the drain; \p Report receives rmld's stderr.
  bool stop(std::string &Report) {
    if (Pid <= 0)
      return false;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    bool Exited = false;
    for (int I = 0; I < 200 && !Exited; ++I) {
      Exited = ::waitpid(Pid, &Status, WNOHANG) == Pid;
      if (!Exited)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!Exited) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
    }
    Pid = -1;
    readFile(ErrFile, Report);
    return Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  int pid() const { return Pid; }
  uint16_t port() const { return Port; }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
  std::string ErrFile;
};

int connectTo(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  timeval Tv{};
  Tv.tv_sec = 30;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  return Fd;
}

bool sendAll(int Fd, std::string_view Bytes) {
  while (!Bytes.empty()) {
    ssize_t N = ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Bytes.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// CPU nanoseconds all threads of process \p Pid have run so far (the
/// first field of each /proc/<pid>/task/<tid>/schedstat).
double processCpuNs(int Pid) {
  double Sum = 0;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(Pid) + "/task", Ec)) {
    std::string Text;
    if (readFile(E.path().string() + "/schedstat", Text))
      Sum += std::strtod(Text.c_str(), nullptr);
  }
  return Sum;
}

/// GET /stats, parsed; false on any failure.
bool fetchStats(uint16_t Port, Json &Out) {
  int Fd = connectTo(Port);
  if (Fd < 0)
    return false;
  std::string Buf;
  if (sendAll(Fd, "GET /stats HTTP/1.1\r\nHost: perfbench\r\n"
                  "Connection: close\r\n\r\n")) {
    char Chunk[16 * 1024];
    for (;;) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }
  ::close(Fd);
  size_t Body = Buf.find("\r\n\r\n");
  std::string Err;
  return Body != std::string::npos &&
         parseJson(std::string_view(Buf).substr(Body + 4), Out, Err);
}

/// The counter \p Key after a space in rmld's exit report (0 if absent).
uint64_t exitCounter(const std::string &Report, const std::string &Key) {
  size_t At = Report.find(" " + Key + "=");
  return At == std::string::npos
             ? 0
             : std::strtoull(Report.c_str() + At + Key.size() + 2, nullptr,
                             10);
}

//===-- Requests ----------------------------------------------------------===//

/// One request's life, from its draw to its checked reply.
struct Slot {
  MsgKind Kind = MsgKind::CompileRun;
  uint64_t Salt = 0;
  bool Traced = false;
  uint64_t SchedNs = 0;
  uint64_t SendStartNs = 0;
  uint64_t SendEndNs = 0;
  /// 0 until the reply arrives.
  uint64_t RecvNs = 0;
  bool Correct = false;
  std::string Why;
};

/// Draws the request stream: kinds by weight, sources Zipf-distributed
/// over the working set plus a share of never-seen salts.
class Generator {
public:
  Generator(const MixConfig &C, uint64_t Seed) : Cfg(C), R(Seed) {
    // Working-set salts below 1e9, fresh salts at or above it: the two
    // never collide, and Seen keeps fresh salts fresh.
    while (Working.size() < C.WorkingSet) {
      uint64_t S = 1 + R.below(999'999'999);
      if (Seen.insert(S).second)
        Working.push_back(S);
    }
    double Sum = 0;
    for (unsigned I = 1; I <= C.WorkingSet; ++I)
      Cdf.push_back(Sum += 1.0 / std::pow(static_cast<double>(I), C.ZipfS));
    for (double &X : Cdf)
      X /= Sum;
  }

  const std::vector<uint64_t> &workingSet() const { return Working; }

  void draw(Slot &S) {
    static const MsgKind Kinds[4] = {MsgKind::CompileRun, MsgKind::Compile,
                                     MsgKind::SchemeQuery,
                                     MsgKind::CaptureQuery};
    double K = R.unit(), Acc = 0;
    S.Kind = Kinds[3];
    for (unsigned I = 0; I < 3; ++I)
      if (K < (Acc += Cfg.KindWeights[I])) {
        S.Kind = Kinds[I];
        break;
      }
    if (R.unit() < Cfg.FreshShare) {
      do
        S.Salt = 1'000'000'000 + R.below(1'000'000'000);
      while (!Seen.insert(S.Salt).second);
      return;
    }
    size_t Rank = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), R.unit()) - Cdf.begin());
    S.Salt = Working[std::min(Rank, Working.size() - 1)];
  }

private:
  const MixConfig &Cfg;
  Rng R;
  std::vector<uint64_t> Working;
  std::vector<double> Cdf;
  std::set<uint64_t> Seen;
};

/// The client: two connections to one daemon, driven from one thread.
/// Request ids index Slots; replies are matched by the echoed id.
class Client {
public:
  /// Spans are recorded under op OpBase + request id.
  Client(const Oracle &Orc, Tracer &T, uint64_t OpBase)
      : Orc(Orc), T(T), OpBase(OpBase) {}
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client() { close(); }

  bool connect(uint16_t Port) {
    for (Conn &C : Conns)
      if ((C.Fd = connectTo(Port)) < 0)
        return false;
    return true;
  }

  /// Half-closes both connections and reads until the daemon closes
  /// them (it flushes every owed reply first), then closes the sockets.
  void close() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::shutdown(C.Fd, SHUT_WR);
    uint64_t Until = nowNs() + 10'000'000'000ull;
    while ((Conns[0].Fd >= 0 || Conns[1].Fd >= 0) && nowNs() < Until)
      pump(100'000'000);
    for (Conn &C : Conns)
      if (C.Fd >= 0) {
        ::close(C.Fd);
        C.Fd = -1;
      }
  }

  std::vector<Slot> Slots;
  uint64_t Unmatched = 0;

  std::string frame(size_t Id) const {
    const Slot &S = Slots[Id];
    rml::net::WireRequest Req;
    Req.Id = Id;
    Req.Kind = S.Kind;
    Req.Source = Orc.familySource(S.Salt);
    if (S.Kind == MsgKind::SchemeQuery)
      for (const auto &[Name, Scheme] : Orc.schemes())
        Req.SchemeNames.push_back(Name);
    std::string Out;
    rml::net::encodeRequest(Req, Out);
    return Out;
  }

  /// Sends slot \p Id's frame on connection Id % 2.
  void send(size_t Id, std::string_view Frame) {
    Slot &S = Slots[Id];
    S.SendStartNs = nowNs();
    Conn &C = Conns[Id % 2];
    bool Sent = C.Fd >= 0 && sendAll(C.Fd, Frame);
    S.SendEndNs = nowNs();
    if (Sent)
      ++Outstanding;
  }

  size_t outstanding() const { return Outstanding; }

  /// Waits up to \p TimeoutNs for replies and handles all that arrived.
  void pump(uint64_t TimeoutNs) {
    pollfd Pfd[2];
    for (int I = 0; I < 2; ++I)
      Pfd[I] = {Conns[I].Fd, POLLIN, 0};
    timespec Ts{static_cast<time_t>(TimeoutNs / 1'000'000'000),
                static_cast<long>(TimeoutNs % 1'000'000'000)};
    if (::ppoll(Pfd, 2, &Ts, nullptr) <= 0)
      return;
    uint64_t Now = nowNs();
    for (int I = 0; I < 2; ++I)
      if (Pfd[I].revents)
        readFrom(Conns[I], Now);
  }

  /// Pumps until at most \p Max replies are owed or \p Seconds pass.
  bool drain(double Seconds, size_t Max = 0) {
    uint64_t Until = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    for (uint64_t Now = nowNs(); Outstanding > Max && Now < Until;
         Now = nowNs())
      pump(Until - Now);
    return Outstanding <= Max;
  }

private:
  struct Conn {
    int Fd = -1;
    std::string Buf;
  };

  void readFrom(Conn &C, uint64_t Now) {
    char Chunk[64 * 1024];
    ssize_t N = ::recv(C.Fd, Chunk, sizeof(Chunk), MSG_DONTWAIT);
    if (N < 0 && (errno == EINTR || errno == EAGAIN))
      return;
    if (N <= 0) {
      ::close(C.Fd);
      C.Fd = -1;
      return;
    }
    C.Buf.append(Chunk, static_cast<size_t>(N));
    size_t Used = 0;
    for (;;) {
      rml::net::WireResponse R;
      std::string Err;
      size_t Consumed = 0;
      rml::net::Decode Dec = rml::net::decodeResponse(
          std::string_view(C.Buf).substr(Used), Consumed, R, Err);
      if (Dec == rml::net::Decode::NeedMore)
        break;
      if (Dec == rml::net::Decode::Bad) {
        ++Unmatched;
        Used = C.Buf.size();
        break;
      }
      Used += Consumed;
      if (R.Id >= Slots.size() || Slots[R.Id].RecvNs != 0 ||
          Slots[R.Id].SendStartNs == 0) {
        ++Unmatched;
        continue;
      }
      Slot &S = Slots[R.Id];
      S.RecvNs = Now;
      S.Correct = check(S, R, S.Why);
      --Outstanding;
      if (S.Traced) {
        uint64_t Op = OpBase + R.Id;
        uint32_t Root = T.add(Op, 0, "mix.request", S.SchedNs, Now);
        T.add(Op, Root, "mix.lag", S.SchedNs, S.SendStartNs);
        T.add(Op, Root, "net.send", S.SendStartNs, S.SendEndNs);
      }
    }
    C.Buf.erase(0, Used);
  }

  bool check(const Slot &S, const rml::net::WireResponse &R,
             std::string &Why) const;

  const Oracle &Orc;
  Tracer &T;
  uint64_t OpBase;
  Conn Conns[2];
  size_t Outstanding = 0;
};

bool Client::check(const Slot &S, const rml::net::WireResponse &R,
                   std::string &Why) const {
  if (R.Status != WireStatus::Ok) {
    Why = std::string("status ") + rml::net::wireStatusName(R.Status) + ": " +
          R.Error;
    return false;
  }
  switch (S.Kind) {
  case MsgKind::CompileRun: {
    std::string Want = std::to_string(Oracle::familyAnswer(S.Salt));
    if (R.Result != Want)
      Why = "result " + R.Result + ", closed form says " + Want;
    break;
  }
  case MsgKind::Compile:
    if (!R.CompileOk || !R.Result.empty())
      Why = "compile-only request answered with a result";
    break;
  case MsgKind::SchemeQuery:
    if (R.Schemes != Orc.schemes())
      Why = "scheme text differs from the oracle";
    break;
  case MsgKind::CaptureQuery:
    if (R.Result != Orc.captureReport())
      Why = "capture report differs from the oracle";
    break;
  }
  return Why.empty();
}

//===-- Phases ------------------------------------------------------------===//

struct Phase {
  size_t Begin = 0, End = 0;
  bool AllArrived = false;
  /// Replies owed half-way through sending and when sending ended.
  size_t MidBacklog = 0, EndBacklog = 0;
};

/// Sends Rate * Seconds requests from the generator at a fixed pace and
/// waits for their replies. With \p Traced, every other request is
/// traced, so traced and untraced latencies can be compared.
Phase openLoop(Client &C, Generator &G, double Rate, double Seconds,
               bool Traced) {
  Phase P;
  size_t N = std::max<size_t>(1, static_cast<size_t>(Rate * Seconds));
  P.Begin = C.Slots.size();
  P.End = P.Begin + N;
  C.Slots.resize(P.End);
  std::vector<std::string> Frames(N);
  for (size_t I = 0; I < N; ++I) {
    G.draw(C.Slots[P.Begin + I]);
    Frames[I] = C.frame(P.Begin + I);
  }
  uint64_t T0 = nowNs() + 2'000'000;
  for (size_t I = 0; I < N; ++I) {
    Slot &S = C.Slots[P.Begin + I];
    double At = static_cast<double>(I) / Rate;
    S.SchedNs = T0 + static_cast<uint64_t>(At * 1e9);
    S.Traced = Traced && I % 2 == 1;
  }
  for (size_t I = 0; I < N;) {
    uint64_t Now = nowNs(), Due = C.Slots[P.Begin + I].SchedNs;
    if (Now < Due) {
      C.pump(Due - Now);
      continue;
    }
    C.send(P.Begin + I, Frames[I]);
    if (++I == N / 2)
      P.MidBacklog = C.outstanding();
  }
  P.EndBacklog = C.outstanding();
  P.AllArrived = C.drain(20);
  return P;
}

enum class Which { All, Traced, Untraced };

struct Latencies {
  std::vector<double> Ms; // failed requests are +inf
  std::vector<double> LagMs;
  size_t WithinLimit = 0;
};

/// Latencies of a phase's requests from their scheduled sends. With
/// \p Rep, every request counts as attempted and every missing or
/// wrong reply as failed.
Latencies latencies(const Client &C, const Phase &P, double LimitMs,
                    Report *Rep, Which W = Which::All) {
  Latencies L;
  for (size_t I = P.Begin; I < P.End; ++I) {
    const Slot &S = C.Slots[I];
    if ((W == Which::Traced && !S.Traced) ||
        (W == Which::Untraced && S.Traced))
      continue;
    L.LagMs.push_back(static_cast<double>(S.SendStartNs - S.SchedNs) / 1e6);
    if (Rep)
      Rep->attempt();
    if (S.RecvNs == 0 || !S.Correct) {
      L.Ms.push_back(INFINITY);
      if (Rep)
        Rep->fail("daemon-mix: request " + std::to_string(I) + " (salt " +
                  std::to_string(S.Salt) + ", kind " +
                  std::to_string(static_cast<int>(S.Kind)) + "): " +
                  (S.RecvNs == 0 ? std::string("no reply") : S.Why));
      continue;
    }
    double Ms = static_cast<double>(S.RecvNs - S.SchedNs) / 1e6;
    L.Ms.push_back(Ms);
    L.WithinLimit += Ms <= LimitMs;
  }
  return L;
}

void append(Latencies &To, const Latencies &From) {
  To.Ms.insert(To.Ms.end(), From.Ms.begin(), From.Ms.end());
  To.LagMs.insert(To.LagMs.end(), From.LagMs.begin(), From.LagMs.end());
  To.WithinLimit += From.WithinLimit;
}

/// /stats read before and after each daemon's fixed-rate phase.
using StatsSlices = std::vector<std::pair<Json, Json>>;

/// Counter \p Key's growth, summed over the slices.
double delta(const StatsSlices &S, const std::string &Key) {
  double Sum = 0;
  for (const auto &[A, B] : S)
    Sum += B.num(Key) - A.num(Key);
  return Sum;
}

/// Field \p Field of phase \p Phase's profile: its growth, summed over
/// the slices.
double phaseDelta(const StatsSlices &S, const std::string &Phase,
                  const char *Field) {
  double Sum = 0;
  for (const auto &[A, B] : S) {
    const Json *PA = A.get("phases"), *PB = B.get("phases");
    const Json *XA = PA ? PA->get(Phase) : nullptr;
    const Json *XB = PB ? PB->get(Phase) : nullptr;
    Sum += (XB ? XB->num(Field) : 0) - (XA ? XA->num(Field) : 0);
  }
  return Sum;
}

} // namespace

void runDaemonMix(const Options &O, const Oracle &Orc, Report &Rep) {
  const MixConfig Cfg = configFor(O);
  std::vector<std::string> Args = {
      "--port",         "0",
      "--jobs",         std::to_string(Cfg.Workers),
      "--queue",        "4096",
      "--cache",        std::to_string(Cfg.MemEntries),
      "--gc-threshold", std::to_string(Cfg.GcThresholdWords)};

  // Several times: start a daemon on a fresh cache directory, connect,
  // and touch every working-set program (the set-up, timed for
  // setup_s); then send this daemon's share of the fixed-rate phase.
  // Pooling the phase over several daemon instances evens out how fast
  // one instance happens to be. The last daemon also runs the ladder.
  Tracer T(false);
  std::vector<double> SetupS, InstanceP50;
  double CpuNs = 0;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<Client> C;
  std::string CacheDir;
  Latencies FixedL, TracedL, PlainL;
  StatsSlices Slices;
  bool StatsOk = true;
  Generator G(Cfg, O.Seed);
  const unsigned Instances = setupReps(O);
  std::vector<double> RssMb;
  uint64_t Sheds = 0, ProtoErrors = 0;
  // Checks one daemon's error counters and peak memory, then stops it
  // (a clean drain) and removes its cache directory.
  auto Finish = [&] {
    Json End;
    if (!fetchStats(D->port(), End))
      Rep.invalidate("daemon-mix: cannot read rmld /stats");
    for (const char *Key :
         {"internal_errors", "disk_write_errors", "disk_load_rejects"})
      if (End.num(Key, -1) != 0)
        Rep.invalidate(std::string("daemon-mix: rmld /stats reports ") + Key +
                       " = " + std::to_string(End.num(Key, -1)));
    RssMb.push_back(peakRssMb(D->pid()));
    C->close();
    if (C->Unmatched)
      Rep.invalidate("daemon-mix: " + std::to_string(C->Unmatched) +
                     " malformed, duplicate or unknown replies");
    std::string ExitReport;
    if (!D->stop(ExitReport))
      Rep.invalidate("daemon-mix: rmld did not drain cleanly");
    if (ExitReport.find("protocol_errors=") == std::string::npos)
      Rep.invalidate("daemon-mix: rmld printed no exit report");
    ProtoErrors += exitCounter(ExitReport, "protocol_errors");
    Sheds += exitCounter(ExitReport, "sheds") +
             exitCounter(ExitReport, "deadline_sheds") +
             exitCounter(ExitReport, "wait_sheds");
    std::filesystem::remove_all(CacheDir);
  };
  for (unsigned I = 0; I < Instances; ++I) {
    if (D)
      Finish();
    uint64_t T0 = nowNs();
    CacheDir = O.WorkDir + "/cache-" + std::to_string(I);
    std::filesystem::create_directories(CacheDir);
    std::vector<std::string> A = Args;
    A.insert(A.end(), {"--cache-dir", CacheDir});
    D = std::make_unique<Daemon>();
    C = std::make_unique<Client>(Orc, T, static_cast<uint64_t>(I) << 32);
    std::string Err;
    if (!D->start(O.Rmld, A, O.WorkDir + "/rmld.err", Err) ||
        !C->connect(D->port())) {
      Rep.invalidate("daemon-mix: " + (Err.empty() ? "no connection" : Err));
      return;
    }
    // Warm: compile+run and capture query of every working-set salt,
    // a few in flight at a time.
    Phase Warm;
    for (uint64_t Salt : G.workingSet())
      for (MsgKind K : {MsgKind::CompileRun, MsgKind::CaptureQuery}) {
        Slot S;
        S.Kind = K;
        S.Salt = Salt;
        C->Slots.push_back(S);
      }
    Warm.End = C->Slots.size();
    for (size_t Id = 0; Id < Warm.End; ++Id) {
      if (!C->drain(30, Cfg.WarmWindow - 1))
        break;
      C->Slots[Id].SchedNs = nowNs();
      C->send(Id, C->frame(Id));
    }
    C->drain(30);
    latencies(*C, Warm, INFINITY, &Rep);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);

    // This instance's share of the fixed rate.
    T.setOn(O.Trace);
    double Cpu0 = processCpuNs(D->pid());
    Slices.emplace_back();
    Json &Before = Slices.back().first, &After = Slices.back().second;
    StatsOk = fetchStats(D->port(), Before) && StatsOk;
    double Share = O.Trace ? Cfg.TracedFixedShare : 1.0;
    Phase P = openLoop(*C, G, Cfg.FixedRps, O.Seconds * Share / Instances,
                       O.Trace);
    StatsOk = fetchStats(D->port(), After) && StatsOk;
    CpuNs += processCpuNs(D->pid()) - Cpu0;
    T.setOn(false);
    Latencies L = latencies(*C, P, Cfg.LimitMs, &Rep);
    InstanceP50.push_back(quantile(L.Ms, 0.5));
    append(FixedL, L);
    append(TracedL, latencies(*C, P, Cfg.LimitMs, nullptr, Which::Traced));
    append(PlainL, latencies(*C, P, Cfg.LimitMs, nullptr, Which::Untraced));
  }
  double FixedP50 = quantile(FixedL.Ms, 0.5);
  double FixedP99 = quantile(FixedL.Ms, 0.99);

  // The ladder, traced runs only, on the last daemon. Rung 0 is the
  // fixed rate itself; coarse steps up until one fails, then single
  // steps up from the last pass.
  auto RungRate = [&](unsigned I) {
    return Cfg.FixedRps * std::pow(Cfg.LadderRatio, static_cast<double>(I));
  };
  auto RungAttempt = [&](unsigned I) {
    Phase P = openLoop(*C, G, RungRate(I), Cfg.RungSeconds, false);
    Latencies L = latencies(*C, P, Cfg.LimitMs, &Rep);
    size_t N = P.End - P.Begin;
    bool Growing = P.EndBacklog > P.MidBacklog + std::max<size_t>(8, N / 50);
    bool Ok = P.AllArrived && !Growing &&
              static_cast<double>(L.WithinLimit) >=
                  0.99 * static_cast<double>(N);
    std::fprintf(stderr,
                 "perfbench: daemon-mix rung %u: %.0f rps, %zu/%zu within "
                 "%.0f ms, backlog %zu -> %zu: %s\n",
                 I, RungRate(I), L.WithinLimit, N, Cfg.LimitMs, P.MidBacklog,
                 P.EndBacklog, Ok ? "pass" : "fail");
    return Ok;
  };
  // A rung fails only if it fails twice: one stall of the host (tens of
  // milliseconds) should not end the search, a real overload fails both.
  auto RungPasses = [&](unsigned I) { return RungAttempt(I) || RungAttempt(I); };
  bool BaseOk = O.Trace && (FixedP99 <= Cfg.LimitMs || RungPasses(0));
  unsigned Best = 0, Step = Cfg.CoarseStep, FailedAt = Cfg.MaxRung + 1;
  unsigned Probe = Step;
  for (Deadline Ladder(O.Seconds * (1 - Cfg.TracedFixedShare));
       BaseOk && Probe < FailedAt &&
       Ladder.another(static_cast<uint64_t>(2 * Cfg.RungSeconds * 1e9));) {
    if (RungPasses(Probe)) {
      Best = Probe;
      Probe += Step;
    } else if (Step > 1) {
      FailedAt = Probe;
      Step = 1;
      Probe = Best + 1;
    } else {
      break;
    }
  }
  double MaxRps = BaseOk ? RungRate(Best) : 0;
  double CostMs = FixedL.Ms.empty()
                      ? 0
                      : CpuNs / 1e6 / static_cast<double>(FixedL.Ms.size());
  std::string PerInstance;
  for (double V : InstanceP50)
    PerInstance += " " + std::to_string(V).substr(0, 5);
  std::fprintf(stderr,
               "perfbench: daemon-mix rmld cpu %.3f ms/request; fixed rate "
               "p50 %.3f ms (per daemon:%s) p99 %.2f ms, lag p99 %.2f ms; "
               "ladder max %.0f rps\n",
               CostMs, FixedP50, PerInstance.c_str(), FixedP99,
               quantile(FixedL.LagMs, 0.99), MaxRps);

  Finish();
  if (!StatsOk)
    Rep.invalidate("daemon-mix: cannot read rmld /stats");
  if (ProtoErrors)
    Rep.invalidate("daemon-mix: rmld counted " + std::to_string(ProtoErrors) +
                   " protocol errors");

  if (!O.Trace) {
    Rep.metric("cost_ms", CostMs, "ms");
    Rep.metric("rss_mb", median(RssMb), "MB");
    Rep.metric("ok_share", Rep.okShare(), "share");
    Rep.metric("setup_s", median(SetupS), "s");
    return;
  }

  // Per-layer numbers: /stats deltas over the fixed phase of every
  // daemon, client-side timings, and the codec measured in process on
  // working-set members.
  std::map<std::string, double> V;
  double Hits = delta(Slices, "cache_hits");
  double Lookups = Hits + delta(Slices, "cache_misses");
  double Misses = delta(Slices, "disk_misses");
  double Done = delta(Slices, "completed");
  double Runs = phaseDelta(Slices, "run", "count");
  if (Lookups > 0) {
    V["service.mem_hit_share"] = Hits / Lookups;
    V["service.disk_hit_share"] = delta(Slices, "disk_hits") / Lookups;
    V["service.miss_share"] = Misses / Lookups;
  }
  double CompileNs = 0;
  for (const std::string &Name : rml::Compiler::staticPhaseNames()) {
    double Count = phaseDelta(Slices, Name, "count");
    double Sum = phaseDelta(Slices, Name, "sum_nanos");
    CompileNs += Sum;
    if (const char *Span = phaseSpanName(Name))
      V[std::string(Span) + "_ms"] = Count > 0 ? Sum / Count / 1e6 : 0;
  }
  if (Misses > 0)
    V["service.compile_us_per_miss"] = CompileNs / Misses / 1e3;
  if (Runs > 0) {
    V["service.run_us_per_req"] =
        phaseDelta(Slices, "run", "sum_nanos") / Runs / 1e3;
    V["rt.alloc_words"] = delta(Slices, "alloc_words") / Runs;
    V["rt.gc_count"] = delta(Slices, "gc_count") / Runs;
    V["rt.copied_words"] = delta(Slices, "copied_words") / Runs;
  }
  double Busy = delta(Slices, "busy_nanos");
  double Up = delta(Slices, "uptime_nanos");
  if (Up > 0)
    V["service.utilization"] = Busy / (Cfg.Workers * Up);
  double HighWater = 0;
  for (const auto &Slice : Slices)
    HighWater = std::max(HighWater, Slice.second.num("queue_high_water"));
  V["service.queue_high_water"] = HighWater;
  double PoolHits = delta(Slices, "pool_hits");
  double PoolAll = PoolHits + delta(Slices, "pool_misses");
  V["rt.pool_reuse"] = PoolAll > 0 ? PoolHits / PoolAll : 0;
  if (Done > 0) {
    V["rt.pool_locks_per_req"] = delta(Slices, "pool_lock_acquires") / Done;
    // Both terms cover the same requests: the fixed phase of every daemon.
    V["net.residual_ms"] = FixedP50 - Busy / Done / 1e6;
  }
  V["rt.pool_steals"] = delta(Slices, "pool_steals");
  V["net.sheds"] = static_cast<double>(Sheds);
  V["net.protocol_errors"] = static_cast<double>(ProtoErrors);
  V["mix.send_lag_ms"] = quantile(FixedL.LagMs, 0.99);
  V["mix.p50_ms"] = FixedP50;
  V["mix.p99_ms"] = FixedP99;
  V["mix.max_rps"] = MaxRps;
  if (!PlainL.Ms.empty() && !TracedL.Ms.empty())
    V["trace.overhead_share"] =
        quantile(TracedL.Ms, 0.5) / quantile(PlainL.Ms, 0.5) - 1.0;

  // The codec and IR size, in process, on working-set members.
  T.setOn(true);
  std::vector<double> IrNodes, UnitBytes;
  uint64_t Op = static_cast<uint64_t>(Instances) << 32;
  for (size_t I = 0; I < std::min<size_t>(32, G.workingSet().size()); ++I) {
    rml::Compiler Comp;
    uint64_t Ns = 0;
    auto U = compileTimed(Comp, Orc.familySource(G.workingSet()[I]), {}, T,
                          ++Op, Ns);
    size_t Bytes = 0;
    if (!U || !flatRoundTrip(*U->Flat, T, Op, Bytes)) {
      Rep.fail("daemon-mix: in-process compile or flat round trip failed");
      continue;
    }
    IrNodes.push_back(static_cast<double>(Comp.arenaFootprint().total()));
    UnitBytes.push_back(static_cast<double>(Bytes));
  }
  std::map<std::string, double> Codec;
  staticLayerValues(T, Codec);
  V["core.compile_self_ms"] = Codec["core.compile_self_ms"];
  V["flat.encode_us"] = Codec["flat.encode_us"];
  V["flat.decode_us"] = Codec["flat.decode_us"];
  V["core.ir_nodes"] = median(IrNodes);
  V["flat.unit_bytes"] = median(UnitBytes);
  emitLayerMetrics(Rep, V);
  std::string Path =
      O.WorkDir + "/trace-daemon-mix-" + std::to_string(O.Seed) + ".json";
  if (!T.writeChrome(Path))
    Rep.invalidate("cannot write " + Path);
}

} // namespace pb
