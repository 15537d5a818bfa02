"""Timing loop, summary statistics, digests and the environment record."""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

MIN_BEYOND = 10  # the tail percentile keeps at least this many items above it
TAIL_CAP = 99.0
TAIL_TIME_SHARE = 0.25
MIN_PASSES = 2  # so that every exact result is computed twice
DEFAULT_SEED = 1  # the seed whose exact results are recorded
REFERENCE_EVERY_S = 0.25  # wall time between two timings of the reference work


def derive(*parts) -> int:
    """A 64-bit seed derived from the parts; stable across processes."""
    text = json.dumps([str(p) for p in parts])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def canonical(value) -> str:
    """Compact JSON text of an exact result."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(values) -> str:
    """Short hash of a JSON-serialisable list of exact results."""
    return hashlib.sha256(canonical(values).encode()).hexdigest()[:16]


def tail_percentile(latencies) -> tuple[float, float, int]:
    """(p, value, items beyond) for the highest percentile, up to TAIL_CAP,
    that leaves at least MIN_BEYOND items and TAIL_TIME_SHARE of the summed
    item time after its nearest rank.

    Where a few heavy items hold most of the time (lemma-b12,
    tseitin-certify) the tail is their latency.  Where items are alike, the
    slowest one percent of them is a handful of random inputs or a brief
    host slow-down, and their latency moved by a quarter between seeds; the
    time floor then takes the latency above which a quarter of the time is
    spent instead.  Percentiles are real-valued, so the tail moves smoothly
    with the item count instead of jumping between integer levels.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError(f"need more than {MIN_BEYOND} items for a tail percentile, got {n}")
    rank = min(n - MIN_BEYOND, math.ceil(TAIL_CAP * n / 100))
    beyond_s = sum(xs[rank:])
    floor_s = TAIL_TIME_SHARE * sum(xs)
    while rank > 1 and beyond_s < floor_s:
        rank -= 1
        beyond_s += xs[rank]
    return min(TAIL_CAP, 100 * rank / n), xs[rank - 1], n - rank


def typical_times(outcomes, input_of, copies: int) -> list[float]:
    """Each input's mean time over the run, counted ``copies`` times.

    Counting every replayed input the same number of times keeps the mix of
    a run fixed, whatever number of passes the host fitted into it.
    """
    times: dict[int, list[float]] = {}
    for o in outcomes:
        times.setdefault(input_of(o.index), []).append(o.seconds)
    return [sum(ts) / len(ts) for ts in times.values() for _ in range(copies)]


@dataclass
class Outcome:
    """How long one item took, its exact result and its failed checks.

    Only the JSON text of the result's canonical form is kept, so the
    benchmark's own memory barely grows with the number of items a run
    completes and peak RSS stays a property of the program.
    """

    index: int
    seconds: float
    canon: str | None
    failures: list[str]


def inspect_outcome(workload, i: int, result, error: Exception | None) -> tuple[str | None, list[str]]:
    """(canon, failures) of one item; a declared exception is an outcome."""
    if error is not None:
        if not isinstance(error, workload.declared):
            return None, [f"unexpected {type(error).__name__}: {error}"]
        result = error
    return canonical(workload.canon(i, result)), workload.check(i, result)


def python_reference() -> int:
    """Fixed interpreted work (bit tricks, dict updates) that does not touch resoplus."""
    rng = random.Random(12345)
    counts: dict[int, int] = {}
    parity = 0
    for _ in range(20000):
        x = rng.getrandbits(48)
        parity ^= bin(x & 0xFFFF_FFFF).count("1") & 1
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    return parity + len(counts)


def numpy_reference() -> int:
    """A vectorised sweep shaped like a chunk of a cube sweep, without resoplus."""
    import numpy as np  # not at import time: run.py pins BLAS threads first

    table = np.random.default_rng(7).integers(0, 2, 4096).astype(np.uint8)
    x = np.arange(1 << 20, dtype=np.uint64)
    match = np.ones(len(x), dtype=bool)
    for shift in (0, 12):
        match &= table[((x >> np.uint64(shift)) & np.uint64(4095)).astype(np.int64)] == 1
    odd = (np.bitwise_count(x & np.uint64(0xABCDEF)) & np.uint64(1)) == 1
    return int(np.count_nonzero(match & odd))


# Reference work for a workload, and its mean time in a run on the host the
# bounds were set on (2 shared vCPUs, Python 3.11.7, numpy 2.4.6).  Timed
# between items all through a run, its mean time there tells how fast the
# host let this process run: on a shared host that moved by a third between
# runs minutes apart, and the library's speed with it.  Each workload uses
# the work that resembles its own inner loop.
REFERENCES = {
    "python": (python_reference, 0.018),
    "numpy": (numpy_reference, 0.025),
}


@dataclass
class LoopResult:
    nominal_s: float
    outcomes: list[Outcome] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return len(self.outcomes) / sum(o.seconds for o in self.outcomes)

    @property
    def host_factor(self) -> float:
        """The reference's nominal time over its mean time in this run:
        item times multiplied by it are times at the nominal host speed."""
        return self.nominal_s * len(self.reference_s) / sum(self.reference_s)


def run_items(workload, seconds: float | None = None, count: int | None = None, on_item=None) -> LoopResult:
    """Time items one by one from outside; check each result after its timing.

    With ``seconds`` the loop stops at the pass boundary nearest to that much
    wall time, but not before MIN_PASSES passes and more than MIN_BEYOND
    items; with ``count`` it runs exactly items 0..count-1.  Between items,
    at most every REFERENCE_EVERY_S, the workload's reference work is timed
    too.
    """
    reference, nominal_s = REFERENCES[workload.reference]
    reference()  # warm, untimed
    out = LoopResult(nominal_s)
    begin = perf_counter()
    reference_at = -math.inf
    i = 0
    while True:
        if perf_counter() - reference_at >= REFERENCE_EVERY_S:
            reference_at = perf_counter()
            reference()
            out.reference_s.append(perf_counter() - reference_at)
        if count is not None:
            if i == count:
                break
        elif i % workload.pass_len == 0 and i >= MIN_PASSES * workload.pass_len and i > MIN_BEYOND:
            elapsed = perf_counter() - begin
            per_pass = elapsed / (i // workload.pass_len)
            if elapsed + per_pass / 2 >= seconds:
                break
        fn = workload.item(i)
        if on_item is not None:
            on_item(i)
        t0 = perf_counter()
        try:
            result = fn()
            error = None
        except Exception as exc:  # an outcome like any other; inspected below
            result, error = None, exc
        t1 = perf_counter()
        out.outcomes.append(Outcome(i, t1 - t0, *inspect_outcome(workload, i, result, error)))
        i += 1
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src" / "resoplus"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }
