"""The load generator and the daemon it drives.

``repro-serve`` always runs as a real subprocess.  The generator is one
process with at most two threads and two keep-alive ``http.client``
connections: closed-loop query clients (the next request leaves when
the previous answer is read) and one open-loop ingest client (a POST
every ``interval`` seconds whatever the daemon does, each timed from
the moment it was due).  Nothing is retried: a failed operation is
recorded with its route, status and body, and the client moves on.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from benchmarks.e2e.metrics import percentile
from benchmarks.e2e.workloads import Request

REPO_ROOT = Path(__file__).resolve().parents[2]
#: The first and then every n-th response is kept and compared with
#: the oracle.
CHECK_EVERY = 50


def child_env() -> dict:
    """Environment for the program's processes: the checkout's own
    sources first, whatever the caller's PYTHONPATH was."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Daemon:
    """``python -m repro.serve.cli DIR --port 0`` and its lifetime."""

    def __init__(self, store_dir, extra_args=(), log_path=None):
        self.log_path = Path(log_path or Path(store_dir).parent / "daemon.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", str(store_dir),
             "--port", "0", *extra_args],
            stdout=self._log, stderr=subprocess.STDOUT, env=child_env(),
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        marker = "listening on http://"
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop(signal.SIGKILL)
        raise RuntimeError(
            "repro-serve did not start: "
            + self.log_path.read_text(encoding="utf-8")[-500:]
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get_json(self, path: str):
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: {response.status} {body!r}")
            return json.loads(body)
        finally:
            conn.close()

    def counter_totals(self, names) -> dict:
        """Sum every sample of the named ``/metrics`` families."""
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        totals = dict.fromkeys(names, 0.0)
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            family = line.split("{", 1)[0].split(" ", 1)[0]
            if family in totals:
                totals[family] += float(line.rsplit(" ", 1)[1])
        return totals

    def peak_rss_mb(self) -> float:
        """The daemon's high-water RSS (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, sig=signal.SIGTERM) -> Optional[int]:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


@dataclass
class Failure:
    route: str
    status: str
    body: str

    def as_dict(self) -> dict:
        return {"route": self.route, "status": self.status, "body": self.body}


@dataclass
class QueryLog:
    """What one closed-loop connection saw inside the window."""

    samples: list = field(default_factory=list)   # (cls, route, s, bytes)
    failures: list = field(default_factory=list)
    kept: list = field(default_factory=list)      # (Request, body)
    last_done: float = 0.0


def query_loop(daemon: Daemon, requests: list[Request], offset: int,
               window_start: float, window_end: float,
               log: QueryLog) -> None:
    """Closed loop over ``requests`` from ``offset`` until
    ``window_end``.  Requests sent before ``window_start`` are warm-up
    and leave no sample."""
    conn = daemon.connect()
    index = offset
    count = len(requests)
    clock = time.perf_counter
    try:
        while True:
            request = requests[index % count]
            index += 1
            sent = clock()
            if sent >= window_end:
                return
            try:
                conn.request("GET", request.path)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                status, body = f"{type(exc).__name__}: {exc}", b""
                conn.close()
                conn = daemon.connect()
            done = clock()
            if sent < window_start:
                continue
            log.last_done = done
            if status != 200:
                log.failures.append(Failure(
                    request.route, str(status),
                    body[:300].decode("utf-8", "replace"),
                ))
                continue
            log.samples.append(
                (request.cls, request.route, done - sent, len(body))
            )
            if len(log.samples) % CHECK_EVERY == 1:
                log.kept.append((request, body))
    finally:
        conn.close()


@dataclass
class IngestLog:
    """What the open-loop ingest connection saw."""

    acks: list = field(default_factory=list)      # (late_s, ack_s)
    failures: list = field(default_factory=list)
    #: Batch indices, warm-up included: an acked batch must survive, a
    #: refused one (an answer other than 200) must be absent, and one
    #: whose connection dropped before the answer may be either.
    acked: list = field(default_factory=list)
    unanswered: list = field(default_factory=list)


def ingest_loop(daemon: Daemon, batches: list[bytes], interval: float,
                first_due: float, window_start: float, window_end: float,
                log: IngestLog) -> None:
    """One POST /ingest every ``interval`` seconds from ``first_due``;
    a late daemon makes the next POST late, and that wait is counted
    because each ack is timed from its due time."""
    conn = daemon.connect()
    clock = time.perf_counter
    headers = {"Content-Type": "application/octet-stream"}
    try:
        for index, payload in enumerate(batches):
            due = first_due + index * interval
            if due >= window_end:
                return
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                conn.request("POST", "/ingest", body=payload,
                             headers=headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                status, body = f"{type(exc).__name__}: {exc}", b""
                log.unanswered.append(index)
                conn.close()
                conn = daemon.connect()
            done = clock()
            if status == 200:
                log.acked.append(index)
            if due < window_start:
                continue
            if status != 200:
                log.failures.append(Failure(
                    "/ingest", str(status),
                    body[:300].decode("utf-8", "replace"),
                ))
                continue
            log.acks.append((sent - due, done - due))
    finally:
        conn.close()


def run_window(daemon: Daemon, requests: list[Request], warmup_s: float,
               seconds: float, query_connections: int,
               ingest_batches=None, ingest_interval: float = 0.0) -> dict:
    """Warm up, then measure one window.  Returns the logs plus the
    generator's own CPU share (a busy generator voids an open loop)."""
    start = time.perf_counter() + 0.05
    window_start = start + warmup_s
    window_end = window_start + seconds
    query_logs = [QueryLog() for _ in range(query_connections)]
    stride = max(1, len(requests) // max(1, query_connections))
    threads = [
        threading.Thread(
            target=query_loop,
            args=(daemon, requests, index * stride, window_start,
                  window_end, log),
        )
        for index, log in enumerate(query_logs)
    ]
    ingest_log = None
    if ingest_batches is not None:
        ingest_log = IngestLog()
        threads.append(threading.Thread(
            target=ingest_loop,
            args=(daemon, ingest_batches, ingest_interval, start,
                  window_start, window_end, ingest_log),
        ))
    for thread in threads:
        thread.start()
    time.sleep(max(0.0, window_start - time.perf_counter()))
    cpu_start = time.process_time()
    for thread in threads:
        thread.join()
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - window_start
    return {
        "query_logs": query_logs,
        "ingest_log": ingest_log,
        "window_start": window_start,
        "window_s": seconds,
        "cpu_share": cpu / wall if wall > 0 else 0.0,
    }


def query_summary(window: dict) -> dict:
    """Percentiles of one window's query samples, whole and by class."""
    logs = window["query_logs"]
    samples = [sample for log in logs for sample in log.samples]
    latencies = [sample[2] * 1000.0 for sample in samples]
    by_class = {}
    for cls in ("point", "window", "agg", "meta"):
        mine = [sample for sample in samples if sample[0] == cls]
        by_class[cls] = {
            "n": len(mine),
            "p50_ms": percentile([s[2] * 1000.0 for s in mine], 50),
            "resp_bytes_p50": percentile([s[3] for s in mine], 50),
        }
    elapsed = max(log.last_done for log in logs) - window["window_start"]
    return {
        "n": len(samples),
        "failures": [f for log in logs for f in log.failures],
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "per_s": len(samples) / elapsed if elapsed > 0 else 0.0,
        "resp_bytes_p50": percentile([s[3] for s in samples], 50),
        "by_class": by_class,
    }


def request_params(request: Request) -> dict:
    return dict(parse_qsl(urlsplit(request.path).query))
