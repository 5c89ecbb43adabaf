//===- driver/LineSocket.cpp ----------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/LineSocket.h"

#include "api/Wire.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <system_error>
#include <thread>
#include <unistd.h>

using namespace csdf;

namespace {

/// Fills \p Addr for \p Path; false when the path is empty or does not
/// fit sun_path.
bool unixAddress(const std::string &Path, sockaddr_un &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  return true;
}

/// Serves one accepted connection: request lines in, handler answers out.
/// Reads time out every 200 ms so the thread notices a daemon-wide
/// shutdown promptly.
void answerLines(int Fd, std::size_t MaxRequestBytes,
                 std::atomic<bool> &Shutdown, const LineHandler &Handler) {
  timeval Tv{0, 200000};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));

  std::string Buf;
  std::size_t Scanned = 0; // Buf[0, Scanned) holds no newline
  char Chunk[4096];
  while (!Shutdown.load()) {
    std::size_t Nl = Buf.find('\n', Scanned);
    if (Nl == std::string::npos) {
      Scanned = Buf.size();
      // A runaway line (no newline past the cap) is answered and the
      // connection dropped: the daemon never buffers without bound.
      if (Buf.size() > MaxRequestBytes + sizeof(Chunk)) {
        writeLine(Fd, api::wireError("null", "parse-error",
                                     "request exceeds " +
                                         std::to_string(MaxRequestBytes) +
                                         " bytes",
                                     /*Retryable=*/false));
        return;
      }
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N == 0)
        return; // peer EOF
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          continue; // timeout: re-check Shutdown
        return;
      }
      Buf.append(Chunk, static_cast<std::size_t>(N));
      continue;
    }
    std::string Line = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    Scanned = 0;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    bool WantShutdown = false;
    bool Wrote = writeLine(Fd, Handler(Line, WantShutdown));
    if (WantShutdown) {
      Shutdown.store(true);
      return;
    }
    if (!Wrote)
      return; // the peer hung up before its answer
  }
}

} // namespace

int csdf::connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (!unixAddress(Path, Addr))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool csdf::writeLine(int Fd, const std::string &Line) {
  std::string Data = Line + "\n";
  std::size_t Off = 0;
  while (Off < Data.size()) {
    // MSG_NOSIGNAL: a vanished peer is EPIPE here, never SIGPIPE.
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<std::size_t>(N);
  }
  return true;
}

bool csdf::readLine(int Fd, std::string &Line) {
  std::string Buf;
  char Chunk[4096];
  std::size_t Nl = std::string::npos;
  while (Nl == std::string::npos) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    std::size_t From = Buf.size();
    Buf.append(Chunk, static_cast<std::size_t>(N));
    Nl = Buf.find('\n', From);
  }
  Buf.resize(Nl);
  Line = std::move(Buf);
  return true;
}

bool csdf::exchangeLine(const std::string &Path, const std::string &Request,
                        std::string &Response) {
  int Fd = connectUnix(Path);
  if (Fd < 0)
    return false;
  bool Ok = writeLine(Fd, Request) && readLine(Fd, Response);
  ::close(Fd);
  return Ok;
}

int csdf::serveLines(const std::string &Path, std::size_t MaxRequestBytes,
                     unsigned AdmitLimit, std::atomic<bool> &Shutdown,
                     const LineHandler &Handler,
                     const std::function<void()> &OnShed) {
  struct SetOnReturn {
    std::atomic<bool> &Flag;
    ~SetOnReturn() { Flag.store(true); }
  } StopHelpers{Shutdown};

  sockaddr_un Addr;
  if (!unixAddress(Path, Addr)) {
    std::fprintf(stderr, "csdf: error: unusable socket path: '%s'\n",
                 Path.c_str());
    return 2;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::fprintf(stderr, "csdf: error: socket: %s\n", std::strerror(errno));
    return 2;
  }
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    std::fprintf(stderr, "csdf: error: cannot listen on '%s': %s\n",
                 Path.c_str(), std::strerror(errno));
    ::close(Fd);
    return 2;
  }

  auto Shed = [&OnShed](int Conn) {
    writeLine(Conn, api::wireOverloaded(/*RetryAfterMs=*/50));
    ::close(Conn);
    if (OnShed)
      OnShed();
  };

  // One thread per admitted connection. A thread marks itself Done as its
  // last act; the accept loop joins Done threads every turn (at least
  // every 200 ms), so finished connections release their stacks instead
  // of piling up until shutdown.
  struct Connection {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  std::list<Connection> Live;
  auto Reap = [&Live] {
    for (auto It = Live.begin(); It != Live.end();) {
      if (!It->Done.load()) {
        ++It;
        continue;
      }
      It->Thread.join();
      It = Live.erase(It);
    }
  };

  while (!Shutdown.load()) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    Reap();
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0)
      continue; // timeout: re-check Shutdown
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      // Only a broken listener ends the loop. Anything else passes: out of
      // descriptors, say, the connection waits in the backlog until a live
      // one closes, where leaving the loop would stop the daemon.
      if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK)
        break;
      if (errno != EINTR && errno != ECONNABORTED)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (Live.size() >= AdmitLimit) {
      Shed(Conn);
      continue;
    }
    Connection &C = Live.emplace_back();
    try {
      C.Thread = std::thread([&Shutdown, &Handler, &C, MaxRequestBytes,
                              Conn] {
        answerLines(Conn, MaxRequestBytes, Shutdown, Handler);
        ::close(Conn);
        C.Done.store(true);
      });
    } catch (const std::system_error &) {
      // Out of threads: shed this connection rather than abort the daemon.
      Live.pop_back();
      Shed(Conn);
    }
  }
  // Drain: every admitted connection finishes its in-flight request and
  // gets its answer before the listener goes away.
  Shutdown.store(true);
  for (Connection &C : Live)
    C.Thread.join();
  ::close(Fd);
  ::unlink(Path.c_str());
  return 0;
}
