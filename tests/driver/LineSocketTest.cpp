//===- tests/driver/LineSocketTest.cpp ------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The shared unix-socket line transport, driven in-process with stub
// handlers: the line round trip and shutdown drain, the over-cap
// parse-error answer, connection-level shedding, a peer that hangs up
// before its answer (no SIGPIPE), running out of descriptors (the server
// waits, it does not stop), and connection churn that must not grow the
// process's memory map (finished connection threads are joined).
//
//===----------------------------------------------------------------------===//

#include "driver/LineSocket.h"

#include "support/Json.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fcntl.h>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace csdf;

namespace {

using Clock = std::chrono::steady_clock;

std::string socketPath(const char *Tag) {
  return "/tmp/csdf-ls-" + std::to_string(::getpid()) + "-" + Tag + ".sock";
}

/// serveLines on its own thread; the destructor shuts it down and joins.
class LineServer {
public:
  LineServer(const char *Tag, std::size_t MaxRequestBytes,
             unsigned AdmitLimit, LineHandler Handler)
      : Path(socketPath(Tag)), Handler(std::move(Handler)) {
    Thread = std::thread([this, MaxRequestBytes, AdmitLimit] {
      Rc = serveLines(Path, MaxRequestBytes, AdmitLimit, Shutdown,
                      this->Handler, [this] { ++Sheds; });
    });
  }

  ~LineServer() { stop(); }

  int stop() {
    Shutdown.store(true);
    if (Thread.joinable())
      Thread.join();
    return Rc;
  }

  /// Connects, retrying while the listener comes up; -1 after 5 s.
  int connect() const {
    auto Deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < Deadline) {
      int Fd = connectUnix(Path);
      if (Fd >= 0)
        return Fd;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
  }

  /// One request on a fresh connection; empty on any transport failure.
  std::string roundTrip(const std::string &Line) const {
    int Fd = connect();
    std::string Resp;
    if (Fd < 0 || !writeLine(Fd, Line) || !readLine(Fd, Resp))
      Resp.clear();
    if (Fd >= 0)
      ::close(Fd);
    return Resp;
  }

  const std::string Path;
  std::atomic<bool> Shutdown{false};
  std::atomic<unsigned> Sheds{0};

private:
  LineHandler Handler;
  int Rc = -1;
  std::thread Thread; // last: it uses every member above
};

std::string echo(const std::string &Line, bool &WantShutdown) {
  if (Line == "quit") {
    WantShutdown = true;
    return "bye";
  }
  return "echo:" + Line;
}

JsonValue parsed(const std::string &Line) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(Line, V, Error)) << Line;
  return V;
}

/// Polls \p Done for up to 5 s.
template <typename Pred> bool eventually(Pred Done) {
  auto Deadline = Clock::now() + std::chrono::seconds(5);
  while (!Done()) {
    if (Clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// The next \p Lines response lines, newlines kept (readLine serves one
/// response per connection and drops whatever follows its newline).
std::string readRaw(int Fd, unsigned Lines) {
  std::string Buf;
  char C;
  while (Lines > 0 && ::recv(Fd, &C, 1, 0) == 1) {
    Buf += C;
    Lines -= C == '\n';
  }
  return Buf;
}

std::size_t mapLines() {
  std::ifstream In("/proc/self/maps");
  std::size_t N = 0;
  for (std::string L; std::getline(In, L);)
    ++N;
  return N;
}

TEST(LineSocketTest, LinesRoundTripAndShutdownDrains) {
  LineServer Server("rt", 1024, NoAdmitLimit, echo);
  int Fd = Server.connect();
  ASSERT_GE(Fd, 0);
  std::string Resp;
  ASSERT_TRUE(writeLine(Fd, "hello"));
  ASSERT_TRUE(readLine(Fd, Resp));
  EXPECT_EQ(Resp, "echo:hello");

  // CRLF is tolerated, blank lines are skipped, and pipelined lines are
  // answered in order on the same connection.
  ASSERT_TRUE(writeLine(Fd, "a\r\n\r\n\nb"));
  EXPECT_EQ(readRaw(Fd, 2), "echo:a\necho:b\n");

  ASSERT_TRUE(writeLine(Fd, "quit"));
  ASSERT_TRUE(readLine(Fd, Resp));
  EXPECT_EQ(Resp, "bye");
  ::close(Fd);
  EXPECT_EQ(Server.stop(), 0);
  EXPECT_TRUE(Server.Shutdown.load());
  EXPECT_NE(::access(Server.Path.c_str(), F_OK), 0)
      << "the socket file outlived the server";
}

TEST(LineSocketTest, ExchangeLineIsOneRequestOneResponse) {
  LineServer Server("ex", 1024, NoAdmitLimit, echo);
  ASSERT_GE(Server.connect(), 0); // the listener is up
  std::string Resp;
  ASSERT_TRUE(exchangeLine(Server.Path, "ping", Resp));
  EXPECT_EQ(Resp, "echo:ping");
  EXPECT_FALSE(exchangeLine(Server.Path + ".absent", "ping", Resp));
}

TEST(LineSocketTest, OverCapLineIsAnsweredWithParseErrorAndDropped) {
  LineServer Server("cap", 64, NoAdmitLimit, echo);
  int Fd = Server.connect();
  ASSERT_GE(Fd, 0);
  // 5000 bytes and no newline: past the 64-byte cap plus the reader's
  // one-chunk slack, so the reader gives up on this line.
  std::string Runaway(5000, 'x');
  ASSERT_EQ(::send(Fd, Runaway.data(), Runaway.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Runaway.size()));
  std::string Resp;
  ASSERT_TRUE(readLine(Fd, Resp));
  JsonValue V = parsed(Resp);
  EXPECT_FALSE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("code")->asString(), "parse-error");
  EXPECT_NE(V.get("error")->asString().find("exceeds 64 bytes"),
            std::string::npos);
  EXPECT_FALSE(readLine(Fd, Resp)) << "the connection was not dropped";
  ::close(Fd);

  // The server itself keeps serving.
  EXPECT_EQ(Server.roundTrip("short"), "echo:short");
}

TEST(LineSocketTest, AdmissionLimitShedsWithOverloaded) {
  LineServer Server("adm", 1024, /*AdmitLimit=*/1, echo);
  int Held = Server.connect();
  ASSERT_GE(Held, 0);
  std::string Resp;
  ASSERT_TRUE(writeLine(Held, "hold"));
  ASSERT_TRUE(readLine(Held, Resp));
  ASSERT_EQ(Resp, "echo:hold"); // admitted, and still live

  int Shed = Server.connect();
  ASSERT_GE(Shed, 0);
  ASSERT_TRUE(readLine(Shed, Resp)); // answered before sending anything
  JsonValue V = parsed(Resp);
  EXPECT_FALSE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("code")->asString(), "overloaded");
  EXPECT_TRUE(V.get("retryable")->asBool());
  EXPECT_NE(V.get("retry_after_ms"), nullptr);
  EXPECT_FALSE(readLine(Shed, Resp)) << "a shed connection stays open";
  ::close(Shed);
  EXPECT_TRUE(eventually([&] { return Server.Sheds.load() == 1; }));

  // Once the held connection goes, its slot is free again.
  ::close(Held);
  EXPECT_TRUE(
      eventually([&] { return Server.roundTrip("next") == "echo:next"; }));
}

TEST(LineSocketTest, PeerThatHangsUpBeforeItsAnswerIsSurvived) {
  std::atomic<bool> PeerGone{false};
  std::atomic<unsigned> Answered{0};
  LineServer Server("hup", 1024, NoAdmitLimit,
                    [&](const std::string &Line, bool &) {
                      if (Line == "slow") {
                        // Answer only once the client has closed, so the
                        // write below goes to a dead peer.
                        eventually([&] { return PeerGone.load(); });
                        ++Answered;
                        return std::string(64 << 10, 'r');
                      }
                      return "echo:" + Line;
                    });
  for (int I = 0; I < 3; ++I) {
    int Fd = Server.connect();
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(writeLine(Fd, "slow"));
    ::close(Fd);
    PeerGone.store(true);
    ASSERT_TRUE(eventually([&] { return Answered.load() == 1u + I; }));
    PeerGone.store(false);
  }
  // A SIGPIPE would have killed this process by now; the server must also
  // still be serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Server.roundTrip("alive"), "echo:alive");
}

TEST(LineSocketTest, RunningOutOfDescriptorsWaitsInsteadOfStopping) {
  LineServer Server("fd", 1024, NoAdmitLimit, echo);
  ASSERT_EQ(Server.roundTrip("up"), "echo:up");

  // Lower this process's descriptor limit and fill it, then hand one
  // descriptor back for a client: the server's accept has none left.
  rlimit Old;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Old), 0);
  rlimit Low = Old;
  Low.rlim_cur = std::min<rlim_t>(Old.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Low), 0);
  std::vector<int> Filler;
  for (int Fd; (Fd = ::open("/dev/null", O_RDONLY)) >= 0;)
    Filler.push_back(Fd);
  ASSERT_FALSE(Filler.empty());
  ::close(Filler.back());
  Filler.pop_back();
  int Client = connectUnix(Server.Path);
  bool Wrote = Client >= 0 && writeLine(Client, "starved");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int Fd : Filler)
    ::close(Fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Old), 0);
  ASSERT_GE(Client, 0);
  ASSERT_TRUE(Wrote);

  // The waiting connection is served once descriptors free up, and so is
  // every later one.
  std::string Resp;
  EXPECT_TRUE(readLine(Client, Resp));
  EXPECT_EQ(Resp, "echo:starved");
  ::close(Client);
  EXPECT_EQ(Server.roundTrip("after"), "echo:after");
}

TEST(LineSocketTest, ConnectionChurnDoesNotGrowTheMemoryMap) {
  LineServer Server("churn", 1024, NoAdmitLimit, echo);
  // Warm-up connections first, so the one-time costs are paid before the
  // baseline: the first connection thread's stack and malloc arena, and
  // under ThreadSanitizer its runtime's per-thread pools, which grow over
  // the first few hundred threads and then stay flat.
  for (int I = 0; I < 400; ++I)
    ASSERT_EQ(Server.roundTrip("warm"), "echo:warm") << "connection " << I;
  std::size_t Before = mapLines();
  for (int I = 0; I < 200; ++I)
    ASSERT_EQ(Server.roundTrip("churn"), "echo:churn") << "connection " << I;
  std::size_t After = mapLines();
  // Unjoined connection threads each keep a stack and its guard page
  // mapped (two lines per connection ever accepted).
  EXPECT_LE(After, Before + 10) << "before " << Before << ", after " << After;
}

} // namespace
