//===- driver/LineSocket.h - The one unix-socket line transport -----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every byte the serve daemon, the router and `csdf client` put on or take
/// off a unix socket goes through this file. The wire protocol (api/Wire.h)
/// is one JSON object per line; this is the layer that moves those lines:
///
///  - **Writes never raise SIGPIPE.** writeLine sends with MSG_NOSIGNAL, so
///    a peer that hangs up before its answer is a failed write the caller
///    sees, never a signal that kills the process.
///  - **Connection threads are reaped.** serveLines serves each accepted
///    connection on its own thread and joins finished threads on every
///    turn of its accept loop, so a daemon's thread count (and its mapping
///    count) tracks live connections, not connections ever accepted.
///  - **Admission is per connection.** Past \p AdmitLimit live connections
///    a new one is answered with the retryable `overloaded` line and
///    closed before any request is read.
///  - **Shutdown drains.** When the shutdown flag is set (by a handler or
///    from outside) the accept loop stops, every admitted connection
///    finishes the request it is in and gets its answer, and serveLines
///    joins them all before it returns.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_DRIVER_LINESOCKET_H
#define CSDF_DRIVER_LINESOCKET_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

namespace csdf {

/// Connects to the unix stream socket at \p Path; -1 on any failure
/// (empty or over-long path, nothing listening).
int connectUnix(const std::string &Path);

/// Sends \p Line plus a newline on \p Fd; false if the peer is gone.
bool writeLine(int Fd, const std::string &Line);

/// Reads up to the next newline into \p Line (newline dropped); false on
/// EOF or an error before it. Bytes after the newline are discarded: this
/// reads the one response of a one-request connection.
bool readLine(int Fd, std::string &Line);

/// One connection, one request line, one response line: the client side
/// of the protocol. False on any transport failure (connect refused, the
/// peer closed before a full line), all of which a caller may retry.
bool exchangeLine(const std::string &Path, const std::string &Request,
                  std::string &Response);

/// Answers one request line; sets the bool to ask for a daemon-wide
/// shutdown. Called concurrently from connection threads.
using LineHandler = std::function<std::string(const std::string &, bool &)>;

/// No admission limit: every connection is served.
inline constexpr unsigned NoAdmitLimit = ~0u;

/// Listens on \p Path (a stale socket file there is replaced) and serves
/// request lines through \p Handler until \p Shutdown is set; only a
/// broken listener ends the accept loop sooner (out of descriptors, it
/// backs off and retries). A line that grows past \p MaxRequestBytes,
/// plus one 4 KB read, without a newline is answered with `parse-error`
/// and its connection dropped. A connection arriving while \p AdmitLimit
/// are live is answered `overloaded` and closed, and \p OnShed (if set)
/// is called.
/// Returns 0 after the drain, 2 when the socket cannot be set up (the
/// reason is printed to stderr). \p Shutdown is set on every return, so
/// helper threads polling it stop too.
int serveLines(const std::string &Path, std::size_t MaxRequestBytes,
               unsigned AdmitLimit, std::atomic<bool> &Shutdown,
               const LineHandler &Handler,
               const std::function<void()> &OnShed = nullptr);

} // namespace csdf

#endif // CSDF_DRIVER_LINESOCKET_H
