"""Outside-in span recorder for the fleet-stack benchmark.

Every span is recorded by a wrapper that this module patches around a
public entry point of the program; nothing under ``src/`` knows it is
traced.  A span keeps its name, wall start/end (``time.perf_counter``,
system-wide on Linux), thread CPU start/end (``time.thread_time``), its
parent, and the thread and process it ran on.  Spans stay in memory and
are written out once, after the timed call.

Three rules make the numbers honest:

* **Self time is thread CPU.**  The fleet verifier runs device turns on
  eight threads that share the GIL, so summed wall time of those spans
  exceeds the run's wall time.  A span's self time is its thread CPU
  minus the thread CPU of its children *on the same thread*.
* **Parents across threads.**  A span opened on an empty thread stack
  takes as parent the innermost open span of the main thread (in the
  verifier that is ``verifier.round``), so a round's subtree covers the
  work its threads did.
* **Spans from worker processes.**  The wrappers are installed before
  the process pool forks.  The wrapped ``run_shard`` returns its span
  table inside the shard result under :data:`SPANS_KEY`, and the
  wrapped ``ShardMerger.add`` removes that key before the real fold, so
  the report never sees it.

The import-binding trap: ``repro.fleet.device`` binds ``measure_code``
at import time, ``repro.fleet.server`` binds ``verify_quote_batch`` and
``repro.fleet.parallel`` binds ``decode_snapshot``.  Patching only the
defining module would record zero calls without any error, so each
entry point lists the modules that hold a copy, and
:func:`coverage_problems` checks that every wrapper fired its expected
deterministic count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
import weakref
from collections import Counter, defaultdict

#: Private key under which a worker's span table rides home inside a
#: shard result; removed again before ``ShardMerger.add`` folds it.
SPANS_KEY = "_suite_spans"

#: Name of the span the benchmark opens around the timed call itself.
#: Its self time is CPU that no layer span covers.
ROOT = "workload"


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.active = False
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        #: Span tables shipped home from worker processes.
        self.remote: list[dict] = []
        self.lock = threading.Lock()
        self.last_digest: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)

    def open(self, name: str) -> tuple:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(threading.main_thread().ident)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, name, tid, time.perf_counter(), time.thread_time()

    def close(self, token: tuple) -> None:
        cpu_end = time.thread_time()
        wall_end = time.perf_counter()
        sid, parent, name, tid, wall_start, cpu_start = token
        self._stacks[tid].pop()
        self.spans.append(
            (sid, parent, name, tid, wall_start, wall_end, cpu_start, cpu_end)
        )

    def add_thread(self, name: str, tid: int, cpu: float, wall: tuple,
                   parent: int | None) -> None:
        """Record a helper thread that runs no wrapped function (the
        process pool's feeder and result threads) as one span of its
        measured thread CPU."""
        self.spans.append(
            (next(self._ids), parent, name, tid, *wall, 0.0, cpu)
        )

    def count(self, name: str, amount: int) -> None:
        with self.lock:
            self.counters[name] += amount

    def begin_task(self) -> None:
        """Forget what this forked worker inherited from the coordinator."""
        self.spans = []
        self.counters = Counter()
        self.remote = []
        self.lock = threading.Lock()
        self._stacks = {}

    def table(self, process_cpu: float) -> dict:
        """This process's spans, counters and the CPU they must explain."""
        return {
            "pid": os.getpid(),
            "process_cpu": process_cpu,
            "spans": list(self.spans),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# Hooks run around a wrapped call; ``call()`` opens and closes the span.


def _count_absorbed(recorder, args, call):
    recorder.count("crypto.bytes_absorbed", len(args[1]))
    return call()


def _track_repeats(recorder, args, call):
    digest = call()
    bus, base, end = args[:3]
    with recorder.lock:
        seen = recorder.last_digest.setdefault(bus, {})
        if seen.get((base, end)) == digest:
            recorder.counters["core.measure_repeats"] += 1
        seen[(base, end)] = digest
    return digest


def _count_instructions(recorder, args, call):
    cpu = args[0].cpu
    before = cpu.instructions_retired
    result = call()
    recorder.count(
        "machine.guest_instructions", cpu.instructions_retired - before
    )
    return result


def _ship_worker_spans(recorder, args, call):
    if os.getpid() == recorder.owner_pid:
        return call()
    recorder.begin_task()
    started = time.process_time()
    result = call()
    result[SPANS_KEY] = recorder.table(time.process_time() - started)
    return result


def _collect_worker_spans(recorder, args, call):
    table = args[1].pop(SPANS_KEY, None)
    if table is not None:
        recorder.remote.append(table)
    return call()


#: ``(span name, defining module, attribute, modules holding an
#: import-time copy, hook)``.  The layer of a span is its name up to
#: the first dot, named after the program module it times.
ENTRY_POINTS = (
    ("crypto.update", "repro.crypto.sponge", "SpongeHash.update", (),
     _count_absorbed),
    ("crypto.digest", "repro.crypto.sponge", "SpongeHash.digest", (), None),
    ("core.measure", "repro.core.attestation", "measure_code",
     ("repro.fleet.device",), _track_repeats),
    ("core.quote", "repro.fleet.device", "FleetDevice.compute_quote", (),
     None),
    ("core.boot_signed", "repro.core.platform",
     "TrustLitePlatform.boot_signed", (), None),
    ("machine.guest", "repro.core.platform", "TrustLitePlatform.run", (),
     _count_instructions),
    ("machine.clone", "repro.machine.snapshot", "Snapshot.clone", (), None),
    ("machine.decode", "repro.machine.snapcodec", "decode_snapshot",
     ("repro.fleet.parallel",), None),
    ("ota.decode", "repro.ota.container", "decode_container",
     ("repro.ota.campaign",), None),
    ("ota.verify", "repro.ota.container", "verify_container", (), None),
    ("ota.update", "repro.ota.campaign", "run_device_update", (), None),
    ("verifier.round", "repro.fleet.verifier", "FleetVerifier.run_round",
     (), None),
    ("verifier.expected_quote", "repro.fleet.verifier",
     "FleetVerifier.expected_quote", (), None),
    ("transport.send", "repro.fleet.transport", "InProcessTransport.send",
     (), None),
    ("transport.poll", "repro.fleet.transport", "InProcessTransport.poll",
     (), None),
    ("parallel.run_shards", "repro.fleet.parallel", "run_shards",
     ("repro.fleet.service",), None),
    ("parallel.shard", "repro.fleet.parallel", "run_shard", (),
     _ship_worker_spans),
    ("parallel.merge", "repro.fleet.parallel", "ShardMerger.add", (),
     _collect_worker_spans),
    ("pool.spinup", "repro.fleet.pool", "get_warm_pool",
     ("repro.fleet.executor", "repro.fleet.server"), None),
    ("shm.ship", "repro.fleet.shm", "SharedBlob.create", (), None),
    ("server.run", "repro.fleet.server", "AttestationService.run", (), None),
    ("server.verify_batch", "repro.fleet.parallel", "verify_quote_batch",
     ("repro.fleet.server",), None),
)


def _wrap(recorder: Recorder, name: str, fn, hook):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not recorder.active:
                return await fn(*args, **kwargs)
            token = recorder.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(token)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)

        def call():
            token = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(token)

        return call() if hook is None else hook(recorder, args, call)

    return wrapper


def install(recorder: Recorder) -> list[str]:
    """Patch every entry point (and its import-time copies) in place.

    ``functools.wraps`` keeps ``__module__``/``__qualname__``, so a
    wrapped ``run_shard`` still pickles by reference to
    ``repro.fleet.parallel.run_shard`` — which now resolves to the
    wrapper in the forked workers too.  An entry point the program no
    longer has is skipped and reported, never guessed at; the returned
    problems join :func:`coverage_problems`.
    """
    problems = []
    for name, module_name, attribute, copies, hook in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                problems.append(f"{name}: {module_name}.{attribute} is gone")
            elif isinstance(raw, classmethod):
                setattr(owner, member, classmethod(
                    _wrap(recorder, name, raw.__func__, hook)
                ))
            else:
                setattr(owner, member, _wrap(recorder, name, raw, hook))
            continue
        original = getattr(module, member, None)
        if original is None:
            problems.append(f"{name}: {module_name}.{member} is gone")
            continue
        wrapper = _wrap(recorder, name, original, hook)
        for holder in (module_name, *copies):
            holder_module = importlib.import_module(holder)
            if getattr(holder_module, member, None) is not original:
                problems.append(
                    f"{name}: {holder}.{member} is not "
                    f"{module_name}.{member}"
                )
                continue
            setattr(holder_module, member, wrapper)
    return problems


# ---------------------------------------------------------------------------
# From raw span tables to per-process accounting and per-name totals.


def _by_process(tables: list[dict]) -> dict[int, dict]:
    """Merge the tables of one process (a worker runs several shards)."""
    merged: dict[int, dict] = {}
    for table in tables:
        entry = merged.setdefault(
            table["pid"],
            {"process_cpu": 0.0, "spans": [], "counters": Counter()},
        )
        entry["process_cpu"] += table["process_cpu"]
        entry["spans"].extend(table["spans"])
        entry["counters"].update(table["counters"])
    return merged


def summarize(tables: list[dict]) -> dict:
    """Self CPU per span name, per-process accounting, counters.

    ``tables[0]`` is the coordinator's; its root span (:data:`ROOT`) is
    not a layer, so its self time lands in ``unattributed`` together
    with thread CPU outside any span.
    """
    names: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_cpu": 0.0, "cpu": 0.0, "wall": 0.0,
                 "samples": []}
    )
    counters: Counter = Counter()
    processes = []
    pool_overhead = shard_cpu = 0.0
    flat = []
    for pid, entry in sorted(_by_process(tables).items()):
        spans = entry["spans"]
        counters.update(entry["counters"])
        by_id = {span[0]: span for span in spans}
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            if span[1] in by_id:
                children[span[1]].append(span)
        self_cpu = {}
        for sid, parent, name, tid, w0, w1, c0, c1 in spans:
            nested = sum(
                child[7] - child[6]
                for child in children[sid] if child[3] == tid
            )
            self_cpu[sid] = (c1 - c0) - nested
            row = names[name]
            row["calls"] += 1
            row["self_cpu"] += self_cpu[sid]
            row["cpu"] += c1 - c0
            row["wall"] += w1 - w0
            row["samples"].append(c1 - c0)
            flat.append((pid, sid, parent, name, tid, w0, w1, c0, c1,
                         self_cpu[sid]))
        for span in spans:
            if span[2] not in ("verifier.round", "parallel.shard"):
                continue
            covered, todo = 0.0, [span]
            while todo:
                node = todo.pop()
                covered += self_cpu[node[0]]
                todo.extend(children[node[0]])
            if span[2] == "parallel.shard":
                shard_cpu += covered
            else:
                pool_overhead += (span[5] - span[4]) - covered
        layers = sum(
            self_cpu[span[0]] for span in spans if span[2] != ROOT
        )
        cpu = entry["process_cpu"]
        processes.append(
            {
                "pid": pid,
                "process_cpu": cpu,
                "layer_cpu": layers,
                "unattributed": cpu - layers,
                "unattributed_share": (cpu - layers) / cpu if cpu else 0.0,
            }
        )
    return {
        "names": dict(names),
        "counters": dict(counters),
        "processes": processes,
        "pool_overhead": pool_overhead,
        "shard_cpu": shard_cpu,
        "flat": flat,
    }


def write_spans(path, summary: dict) -> None:
    """One JSON object per span: name, start, end, parent, thread,
    process, thread CPU and self CPU (seconds)."""
    with open(path, "w") as out:
        for pid, sid, parent, name, tid, w0, w1, c0, c1, own in summary[
            "flat"
        ]:
            out.write(json.dumps({
                "id": sid, "name": name, "start": w0, "end": w1,
                "parent": parent, "thread": tid, "process": pid,
                "cpu_s": c1 - c0, "self_cpu_s": own,
            }) + "\n")


def coverage_problems(expected: dict[str, int], summary: dict) -> list[str]:
    """Every wrapper must fire exactly its expected count.

    ``expected`` maps a span name to the count the workload's report
    implies; a negative value means "at least that many, and not zero".
    """
    problems = []
    names = summary["names"]
    for name, want in sorted(expected.items()):
        got = names[name]["calls"] if name in names else 0
        if want < 0:
            if got < -want or got == 0:
                problems.append(
                    f"wrapper {name} fired {got} time(s), expected "
                    f">= {max(1, -want)}"
                )
        elif got != want:
            problems.append(
                f"wrapper {name} fired {got} time(s), expected {want}"
            )
    return problems
