//===- api/Wire.h - The one spelling of the serve wire protocol -----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON-lines wire protocol shared by every process in a csdf fleet:
/// the serve daemon (shard), the consistent-hash router, and `csdf
/// client`. Exactly one spelling of the request envelope, the response
/// envelope, and the structured error vocabulary lives here — the same
/// move api/Options.h made for option flags. Before this file the daemon
/// and the client each hand-rolled their half of the protocol, which is
/// exactly how wire formats drift.
///
/// ## Envelope
///
/// One JSON object per line, both directions. Requests:
///
///   {"id": 7, "proto": 1, "type": "analyze", "path": "ring.mpl",
///    "source": "...", "options": {...}, "tenant": "ci"}
///
/// `proto` is the wire protocol version (WireProtoVersion). A request
/// carrying a different major version is answered with a structured,
/// retryable-false "proto-mismatch" error instead of being
/// half-understood; an absent `proto` means "current" so pre-versioning
/// clients keep working. `tenant` names the requester for the router's
/// per-tenant admission control; shards accept and ignore it, so a
/// request is byte-identically forwardable.
///
/// Every response carries `proto` + `tool_version` right after `id`, so
/// any consumer can check compatibility before touching the rest:
///
///   {"id": 7, "proto": 1, "tool_version": "0.7.0", "ok": true, ...}
///
/// ## Errors
///
/// Error responses are structured and machine-retryable:
///
///   {"id": null, "proto": 1, "tool_version": "...", "ok": false,
///    "code": "overloaded", "error": "...", "retryable": true,
///    "retry_after_ms": 50}
///
/// `code` is one of: "parse-error", "invalid-request", "proto-mismatch",
/// "io-error", "overloaded", "unavailable", "internal-error". Only
/// "overloaded" and "unavailable" are retryable; they carry
/// `retry_after_ms`.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_API_WIRE_H
#define CSDF_API_WIRE_H

#include "api/Options.h"
#include "diag/Diagnostic.h"

#include <optional>
#include <set>
#include <string>

namespace csdf::api {

/// The wire protocol version this build speaks. Bumped on any change a
/// peer could misparse (renamed/retyped envelope member, changed error
/// vocabulary); additive members do not bump it.
inline constexpr int WireProtoVersion = 1;

/// One decoded request envelope. Defaults are the values an absent
/// member leaves in place.
struct WireRequest {
  /// The request's "id", re-serialized for echoing (null when absent).
  std::string IdJson = "null";
  /// Negotiated protocol version (requests without "proto" mean current).
  int Proto = WireProtoVersion;
  std::string Type;
  std::string Path = "<request>";
  std::optional<std::string> Source;
  /// Layered: parseWireRequest seeds this from the daemon's defaults and
  /// applies the request's "options" object on top.
  RequestOptions Options;
  /// Tenant name for per-tenant admission control (empty = the default
  /// tenant). Routers enforce quotas on it; shards just accept it.
  std::string Tenant;
  // Lint policy (ignored by analyze).
  std::set<std::string> Disabled;
  bool Werror = false;
  DiagSeverity MinSeverity = DiagSeverity::Note;
};

/// The fixed head of every response line: `{"id":<id>,"proto":N,
/// "tool_version":"..."` — callers append their members and the closing
/// brace. Keeping the identity members first means a peer can version-check
/// a response without parsing the (possibly large) result payload.
std::string wireResponseHead(const std::string &IdJson);

/// A complete structured error line. \p RetryAfterMs < 0 omits the
/// member (it is only meaningful on retryable errors).
std::string wireError(const std::string &IdJson, const char *Code,
                      const std::string &Message, bool Retryable,
                      int RetryAfterMs = -1);

/// The `overloaded` shed response (id null, retryable, with a hint).
std::string wireOverloaded(unsigned RetryAfterMs);

/// Parses one request line into \p Req (seeded from \p Defaults).
/// Enforces the \p MaxBytes size cap, the JSON-object shape, the protocol
/// version, per-member types, and the request shape (a known "type";
/// analyze and lint name a "path" or carry a "source"), in that order. On
/// failure returns false with \p ErrorLine set to the complete structured
/// error response — the caller writes it verbatim, so serve and router
/// reject identical garbage with identical bytes.
bool parseWireRequest(const std::string &Line, std::size_t MaxBytes,
                      const RequestOptions &Defaults, WireRequest &Req,
                      std::string &ErrorLine);

/// The inverse spelling: \p Req as one request line (no trailing
/// newline). Always carries `proto`; "options" is included only when
/// \p IncludeOptions (a plain request inherits the daemon's defaults).
/// `csdf client` and any forwarding layer build requests through here, so
/// a forwarded request can never spell an option differently than a
/// direct one.
std::string wireRequestJson(const WireRequest &Req, bool IncludeOptions);

/// The shard-ownership key of a request: the same string the shard uses
/// as its cache key head (type, canonical option fingerprint, path,
/// source bytes). The router hashes this onto the ring, so identical
/// requests always land on the shard that already cached them.
std::string wireRoutingKey(const WireRequest &Req);

} // namespace csdf::api

#endif // CSDF_API_WIRE_H
