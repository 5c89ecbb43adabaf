#!/usr/bin/env python3
"""Overload shedding + client retry smoke (real binary).

1. Saturate a daemon's admission gate (--max-inflight + --queue-depth)
   with idle connections; the next connection must be shed immediately
   with a structured, retryable `overloaded` error.
2. Run `csdf client` against the saturated daemon while the idle
   connections drain shortly after: the client's capped-backoff retry
   must recover and exit 0.
3. `csdf client` retry also recovers from a daemon that comes up late
   (connect refused is retryable).
4. Clients that hang up before their answer: 20 clients each send an
   `analyze` line and close without reading. The daemon must survive
   writing into the closed sockets (no SIGPIPE), still answer `stats`,
   and exit 0 on `shutdown`. Then 200 sequential connections must not
   grow the daemon's memory map by more than 10 lines (finished
   connection threads are joined, not kept until shutdown).

Usage: serve_overload.py <csdf-binary>
"""

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from csdf_serve_util import (
    fail,
    get_stats,
    log,
    program,
    request_json,
    shutdown_daemon,
    start_daemon,
)

MAX_INFLIGHT = 2
QUEUE_DEPTH = 2


def main():
    csdf = sys.argv[1]
    work = tempfile.mkdtemp(prefix="csdf-overload-")
    sock = os.path.join(work, "serve.sock")
    mpl = os.path.join(work, "probe.mpl")
    with open(mpl, "w") as f:
        f.write(program(0))
    try:
        run(csdf, sock, mpl)
        early_hangups(csdf, sock, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("PASS: serve overload + client retry")


def saturate(sock, n):
    idle = []
    for _ in range(n):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock)
        idle.append(s)
    for _ in range(50):
        time.sleep(0.1)
        readable, _, _ = select.select(idle, [], [], 0)
        if not readable:
            return idle  # all n admitted and silently held
        for s in readable:
            idle.remove(s)
            s.close()
            ns = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            ns.connect(sock)
            idle.append(ns)
    fail("could not hold %d idle connections open" % n)


def run(csdf, sock, mpl):
    proc = start_daemon(
        csdf, sock,
        ["--max-inflight", str(MAX_INFLIGHT),
         "--queue-depth", str(QUEUE_DEPTH)],
    )

    # --- Saturate: idle admitted connections hold inflight slots. ----------
    # An idle connection can itself be shed at admission if it races a
    # just-closing connection's slot release (e.g. start_daemon's health
    # probe), so hold-and-replace until all N are silently admitted: a
    # held connection never becomes readable, a shed one does (it got
    # the overloaded line and a close).
    idle = saturate(sock, MAX_INFLIGHT + QUEUE_DEPTH)

    raw, resp = request_json(
        sock, {"type": "analyze", "path": mpl}, timeout=5.0
    )
    if resp is None:
        fail("shed connection got no response line at all")
    if resp.get("ok") or resp.get("code") != "overloaded":
        fail("expected structured overloaded error, got %r" % raw)
    if not resp.get("retryable") or "retry_after_ms" not in resp:
        fail("overloaded error is not marked retryable: %r" % raw)
    log("saturated daemon shed the probe with a structured error")

    # --- csdf client retries through the overload. -------------------------
    def drain_later():
        time.sleep(0.5)
        for s in idle:
            s.close()

    t = threading.Thread(target=drain_later)
    t.start()
    client = subprocess.run(
        [csdf, "client", "analyze", mpl, "--socket", sock,
         "--retries", "8", "--retry-base-ms", "50"],
        capture_output=True, text=True, timeout=30,
    )
    t.join()
    if client.returncode != 0:
        fail("csdf client did not recover from overload: rc=%d stderr=%s"
             % (client.returncode, client.stderr))
    line = client.stdout.strip().splitlines()[-1]
    if not json.loads(line).get("ok"):
        fail("client's final response is not ok: %r" % line)
    log("csdf client recovered once the overload drained")

    stats = get_stats(sock)
    if stats["shed_connections"] < 1:
        fail("shed_connections counter not bumped: %s"
             % stats["shed_connections"])
    shutdown_daemon(proc, sock, expect_rc=0)

    # --- Late daemon: connect-refused is retryable too. --------------------
    late = {}

    def start_later():
        time.sleep(0.5)
        late["proc"] = start_daemon(csdf, sock)

    t = threading.Thread(target=start_later)
    t.start()
    client = subprocess.run(
        [csdf, "client", "stats", "--socket", sock,
         "--retries", "10", "--retry-base-ms", "50"],
        capture_output=True, text=True, timeout=30,
    )
    t.join()
    if client.returncode != 0:
        fail("csdf client did not recover from late daemon: rc=%d stderr=%s"
             % (client.returncode, client.stderr))
    shutdown_daemon(late["proc"], sock, expect_rc=0)
    log("csdf client recovered from connect-refused")


def map_lines(pid):
    with open("/proc/%d/maps" % pid) as f:
        return sum(1 for _ in f)


def early_hangups(csdf, sock, work):
    proc = start_daemon(csdf, sock)

    # A distinct program per client, so each answer is a cold analysis and
    # the client has closed its socket by the time the daemon writes.
    for i in range(20):
        path = os.path.join(work, "hangup%d.mpl" % i)
        with open(path, "w") as f:
            f.write(program(100 + i))
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(sock)
            s.sendall(json.dumps({"type": "analyze", "path": path}).encode()
                      + b"\n")
    raw, resp = request_json(sock, {"type": "stats"})
    if resp is None:
        try:
            rc = proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            rc = None
        fail("daemon stopped answering after early hang-ups (rc=%r)" % rc)
    if not resp.get("ok"):
        fail("stats after early hang-ups failed: %r" % raw)
    log("daemon survived 20 clients that hung up before their answer")

    if os.path.exists("/proc/%d/maps" % proc.pid):
        before = map_lines(proc.pid)
        for _ in range(200):
            get_stats(sock)
        grown = map_lines(proc.pid) - before
        if grown > 10:
            fail("200 sequential connections grew the daemon's maps by %d "
                 "lines (finished connection threads not joined)" % grown)
        log("200 sequential connections grew the maps by %d lines" % grown)
    shutdown_daemon(proc, sock, expect_rc=0)


if __name__ == "__main__":
    main()
