"""Summary statistics and host-resource probes shared by every workload."""

from __future__ import annotations

import contextlib
import os
import pathlib
import statistics
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile that
    leaves at least ``beyond`` samples strictly above its rank.

    With ``n`` sorted samples the chosen sample is the one at rank
    ``n - beyond`` (1-based), i.e. the ``beyond + 1``-th largest; its
    percentile is ``100 * (n - beyond) / n``.  Fewer than
    ``beyond + 1`` samples have no such percentile: the minimum is
    returned with percentile 0, so the caller can see that the tail is
    unresolved.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = max(1, n - beyond)
    percentile = 100.0 * (n - beyond) / n if n > beyond else 0.0
    return float(ordered[rank - 1]), percentile, n


# ----------------------------------------------------------------------
# Host speed: a fixed chunk of a reference kernel, timed all through a run.
#
# The shared host's speed changes within seconds and drifts by 2x and
# more over minutes, which moves every host time of a run with it.  The
# reference kernel is code of this benchmark, not of the program, so a
# change to the program leaves its time alone; a host time divided by
# the host's speed during it (``SpeedProbe.scale``) is a figure in
# seconds at the reference speed.


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def step(self, x: int) -> int:
        return (self.value * 33 + x) & 0xFFFF


def _reference_python(n: int = 45000) -> int:
    """Interpreter work of the kind the simulator does: method calls,
    attribute reads, dict and list updates, small-integer arithmetic."""
    cells = [_Cell(i) for i in range(64)]
    table: Dict[int, int] = {}
    kept = []
    acc = 0
    for i in range(n):
        acc = cells[i & 63].step(acc ^ i)
        table[acc & 1023] = table.get(acc & 1023, 0) + 1
        if acc & 7 == 3:
            kept.append(acc)
    return acc + len(kept) + len(table)


def _reference_numpy(rounds: int = 8) -> int:
    """Array work of the kind the replay kernels do."""
    import numpy

    base = numpy.arange(40000, dtype=numpy.int64)
    total = 0
    for _ in range(rounds):
        mixed = (base * 7) ^ (base >> 3)
        total += int(numpy.cumsum(mixed & 255)[-1])
        total += int(numpy.count_nonzero(numpy.diff(mixed) > 0))
    return total


def reference_chunk() -> float:
    """CPU seconds one chunk of the reference kernel takes now.

    CPU time, not wall time: the probe shares its CPU with the program,
    and wall time would count the program's time slices too."""
    started = time.thread_time()
    _reference_python(18000)
    _reference_numpy(3)
    return time.thread_time() - started


def warm_reference_chunk() -> float:
    """CPU seconds of a chunk run right after an untimed one.

    The program has just run and filled the caches with its own data;
    the untimed pass refills them, so the timed pass reads the host's
    speed, not the cost of a cold cache."""
    reference_chunk()
    return reference_chunk()


_RECORD = struct.Struct("dd")


def run_speed_probe(path: str, parent: int) -> None:
    """Body of the probe process: every ``SpeedProbe.PERIOD_S`` time one
    chunk and append ``(start, seconds)`` to ``path``; end with the
    parent."""
    due = time.perf_counter()
    with open(path, "ab", buffering=0) as out:
        while os.getppid() == parent:
            started = time.perf_counter()
            out.write(_RECORD.pack(started, warm_reference_chunk()))
            due += SpeedProbe.PERIOD_S
            time.sleep(max(0.0, due - time.perf_counter()))


def phase_scale(records: Sequence[Tuple[float, float]], start: float,
                end: float, nominal: float) -> float:
    """Factor for a host time measured from ``start`` to ``end``: the
    nominal chunk time over the median chunk time of the chunks that
    started in that interval.  A phase shorter than
    ``SpeedProbe.MIN_CHUNKS`` periods takes that many chunks nearest
    its middle instead."""
    inside = [seconds for at, seconds in records if start <= at <= end]
    if len(inside) < SpeedProbe.MIN_CHUNKS:
        middle = (start + end) / 2.0
        nearest = sorted(records, key=lambda record: abs(record[0] - middle))
        inside = [seconds for _, seconds in
                  nearest[:SpeedProbe.MIN_CHUNKS]]
    if not inside:
        raise ValueError("no probe chunks recorded")
    return nominal / statistics.median(inside)


class SpeedProbe:
    """A child process on the benchmark's CPU that times one chunk of
    the reference kernel every ``PERIOD_S`` (5-10% of the CPU), so
    the host's speed is known all through every phase of a run, not
    just at its ends: timed only before and after a repetition, the
    kernel missed the changes within it and made the spread worse."""

    #: The chunk time the scaled figures are in.  A fixed unit: it sets
    #: the level of the scaled figures, not their ratio between runs.
    NOMINAL_S = 0.005
    PERIOD_S = 0.2
    #: A shorter phase is scaled by this many chunks around its middle.
    MIN_CHUNKS = 5

    def __init__(self, run_py: str, path: pathlib.Path,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.path = path
        self.process = subprocess.Popen(
            [sys.executable, run_py, "--speed-probe", str(path),
             "--probe-parent", str(os.getpid())],
            env=env, stdin=subprocess.DEVNULL)
        self._records: Optional[List[Tuple[float, float]]] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait()

    def records(self) -> List[Tuple[float, float]]:
        if self._records is None:
            data = self.path.read_bytes() if self.path.exists() else b""
            usable = len(data) - len(data) % _RECORD.size
            self._records = [record for record in
                             _RECORD.iter_unpack(data[:usable])]
        return self._records

    def scale(self, start: float, end: float) -> float:
        """Factor for a host time measured from ``start`` to ``end``
        (``time.perf_counter()`` readings; call after ``stop()``)."""
        return phase_scale(self.records(), start, end, self.NOMINAL_S)


def pin_to_one_cpu() -> Optional[int]:
    """Run this process, and every process it starts, on one CPU.

    The host's CPUs run at different speeds at the same moment, so the
    speed probe and the program must share one.  Returns the CPU,
    or ``None`` where affinity cannot be set."""
    try:
        cpus = os.sched_getaffinity(0)
        cpu = max(cpus)
        os.sched_setaffinity(0, {cpu})
        # Children that should run on every CPU restore this set.
        os.environ["PERFBENCH_CPUS"] = ",".join(map(str, sorted(cpus)))
        return cpu
    except (AttributeError, OSError):
        return None


# ----------------------------------------------------------------------
# Resident memory of this process plus all of its descendants.

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _read_children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # the process exited between listdir and open
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(name))
    return children


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def descendants_rss_bytes(root: Optional[int] = None,
                          exclude: Sequence[int] = ()) -> int:
    """Current RSS of every descendant of ``root`` (default: this
    process), summed, leaving out the ``exclude`` processes."""
    root = os.getpid() if root is None else root
    children = _read_children_map()
    total = 0
    stack = [pid for pid in children.get(root, ()) if pid not in exclude]
    while stack:
        pid = stack.pop()
        total += _rss_bytes(pid)
        stack.extend(children.get(pid, ()))
    return total


def _self_hwm_bytes() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise OSError("no VmHWM in /proc/self/status")


def _reset_self_hwm() -> bool:
    """Reset this process's peak-RSS mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


class PeakRss:
    """Peak resident memory of this process plus its descendants
    between ``start()`` and ``stop()``.

    This process's own peak is the kernel's high-water mark, reset at
    ``start()``.  Descendants (pool workers, a server) are sampled on
    a background thread; their summed peak is added.  Without a
    resettable high-water mark, this process is sampled too.
    """

    def __init__(self, interval_s: float = 0.1,
                 exclude: Sequence[int] = ()) -> None:
        self.interval_s = interval_s
        #: Children that are the benchmark's own (the speed probe).
        self.exclude = tuple(exclude)
        self._self_peak = 0
        self._children_peak = 0
        self._hwm = False
        self._paused = False
        #: Held while sampling, so no sample straddles a pause.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        with self._lock:
            if self._paused:
                return
            self._children_peak = max(self._children_peak,
                                      descendants_rss_bytes(
                                          exclude=self.exclude))
            if not self._hwm:
                self._self_peak = max(self._self_peak,
                                      _rss_bytes(os.getpid()))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def start(self) -> "PeakRss":
        self._hwm = _reset_self_hwm()
        self._sample()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-rss", daemon=True)
        self._thread.start()
        return self

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Leave out what runs inside (a set-up in a child process)."""
        with self._lock:
            self._paused = True
        try:
            yield
        finally:
            with self._lock:
                self._paused = False

    def stop(self) -> float:
        """Stop sampling; the peak in MiB."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._sample()
        if self._hwm:
            self._self_peak = _self_hwm_bytes()
        return (self._self_peak + self._children_peak) / (1 << 20)
