"""Shared helpers for the perfbench workloads.

Statistics, child processes, a minimal keep-alive HTTP client, and the
per-checkout record of counts that must repeat exactly.  Everything the
benchmark writes goes under ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: The seed ``repro-paper`` itself uses: at this benchmark seed the
#: generated points carry the paper's own seeds (race seed 7).
PAPER_SEED = 1999
PAPER_RACE_SEED = 7

#: The latency tail every workload reports: the highest percentile with
#: at least ten samples beyond it in the smallest sample a run makes
#: (about a hundred computed misses in ``serve-mixed``).
TAIL = 90.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing source, dead server, ...)."""


def require_source() -> None:
    """Fail unless the checkout holds the package the benchmark drives."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def race_seed_for(seed: int) -> int:
    """The protocol race seed paired with a workload seed."""
    return PAPER_RACE_SEED if seed == PAPER_SEED else seed


def seeded(kind: str, params: dict, seed: int, race_seed: int) -> dict:
    """Point parameters with a workload seed: ``seed`` and ``race_seed``
    for accuracy points, ``seed`` for speculation points."""
    params = dict(params)
    if kind == "accuracy":
        params.update(seed=seed, race_seed=race_seed)
    elif kind == "speculation":
        params["seed"] = seed
    return params


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's source."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def work_dir(label: str) -> Path:
    """A fresh directory under ``.perfbench/``; callers remove it."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(level / 100.0 * len(ordered))) - 1]


def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@contextlib.contextmanager
def client_gc_paused():
    """Keep the load generator's garbage collector out of a timed
    window.  Its sample lists only grow, so each full collection would
    walk them all and stall every client thread; nothing the client
    allocates forms a reference cycle."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen, sig: int = signal.SIGINT) -> int:
    """Signal a child and wait for it; kill it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    return proc.returncode


class Server:
    """One ``repro-paper serve`` process over a fresh cache directory.

    ``traced`` starts it through ``launcher.py``, which wraps each
    layer's public calls in spans; tracing stays off until
    :meth:`start_tracing`, and the spans land in
    ``.perfbench/spans-<label>.json`` when the server stops.
    """

    ANNOUNCE = re.compile(r"listening on http://([0-9.]+):([0-9]+)")

    def __init__(self, traced: bool, label: str) -> None:
        self.cache_dir = work_dir("cache")
        self.span_file = WORK / f"spans-{label}.json"
        self.span_file.unlink(missing_ok=True)
        serve_args = ["serve", "--port", "0", "--cache-dir", str(self.cache_dir)]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "launcher.py"),
                   "--spans", str(self.span_file), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro.eval.cli", *serve_args]
        self.log = open(self.cache_dir.parent / f"{self.cache_dir.name}.log", "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        match = self.ANNOUNCE.search(line)
        if match is None:
            self.close()
            raise BenchError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def connect(self) -> "Connection":
        return Connection(self.host, self.port)

    def start_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> dict | None:
        """Stop the server; the spans it recorded (traced servers)."""
        code = stop_process(self.proc)
        if code != 0:
            raise BenchError(f"server exited with {code}; see {self.log.name}")
        if not self.span_file.exists():
            return None
        with open(self.span_file, encoding="utf-8") as handle:
            return json.load(handle)

    def close(self) -> None:
        """Stop the server if needed and remove its cache; the log stays
        when the server did not exit cleanly."""
        code = stop_process(self.proc)
        self.proc.stdout.close()
        self.log.close()
        remove_tree(self.cache_dir)
        if code == 0:
            Path(self.log.name).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def body_request(method: str, target: str, body: bytes, content_type: str) -> bytes:
    head = (
        f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class Connection:
    """A keep-alive HTTP/1.1 client over one socket, for pre-encoded
    requests.  Answers are ``(status, body)`` with chunked bodies
    de-chunked; nothing is decoded beyond the framing."""

    def __init__(self, host: str, port: int, timeout_s: float = 120.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(262144)
        if not chunk:
            raise BenchError("server closed the connection")
        self.buffer += chunk

    def _take_until(self, marker: bytes) -> bytes:
        while True:
            at = self.buffer.find(marker)
            if at >= 0:
                out = bytes(self.buffer[:at])
                del self.buffer[: at + len(marker)]
                return out
            self._fill()

    def _take(self, count: int) -> bytes:
        while len(self.buffer) < count:
            self._fill()
        out = bytes(self.buffer[:count])
        del self.buffer[:count]
        return out

    def exchange(self, raw_request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw_request)
        head = self._take_until(b"\r\n\r\n")
        status = int(head[9:12])
        lowered = head.lower()
        if b"transfer-encoding: chunked" in lowered:
            parts = []
            while True:
                size = int(self._take_until(b"\r\n"), 16)
                if size == 0:
                    self._take_until(b"\r\n")
                    break
                parts.append(self._take(size))
                self._take(2)
            return status, b"".join(parts)
        at = lowered.index(b"content-length:") + 15
        end = lowered.find(b"\r\n", at)
        length = int(lowered[at : end if end >= 0 else None])
        return status, self._take(length)

    def close(self) -> None:
        self.sock.close()


def get_json(conn: Connection, target: str) -> Any:
    status, body = conn.exchange(get_request(target))
    if status != 200:
        raise BenchError(f"GET {target} answered {status}: {body[:200]!r}")
    return json.loads(body)


# ----------------------------------------------------------------------
# counts that must repeat exactly
# ----------------------------------------------------------------------
def check_repeats(key: str, record: dict[str, Any]) -> list[str]:
    """Compare ``record`` with the one an earlier run of the same
    workload, seed and length left in this checkout; store it if none.
    Returns the names whose values differ."""
    WORK.mkdir(exist_ok=True)
    path = WORK / "repeats.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = record
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        return []
    return sorted(name for name in record if earlier.get(name) != record[name])
