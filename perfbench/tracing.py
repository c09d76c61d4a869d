"""Thread-aware span recorder and the hooks it installs between modules.

Spans are kept in memory as tuples and summarized after the timed region.
Parent links live on a per-thread stack; a task submitted to the CLI's
thread pool starts its worker-side stack at the span that submitted it, so
certificate and sweep tasks stay children of the call that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# hook name -> call sites "module:attribute" it wraps.  Each site is the name
# the caller looks up at call time, so the wrapper sees every call made
# through it.  A hook none of whose sites exists is reported absent.
HOOKS = {
    "cli.load_config": ["cli:load_config"],
    "cli.execute": ["cli:execute"],
    "lagrangian.validate": ["cli:validate_assumption_A",
                            "cli:validate_assumption_f"],
    "jko.run": ["cli:run"],
    "jko.step": ["jko:jko_step"],
    "jko.energy_eval": ["jko:MobilityMapEnergy.value_and_grad"],
    "jko.solve_banded": ["jko:solve_banded"],
    "transport.map_from_density": ["jko:map_from_density"],
    "transport.density_from_map": ["jko:density_from_map"],
    # jko imports the function by name; diagnostics imports it inside
    # check_holder_continuity, which reads the transport module attribute
    "transport.w2sq": ["jko:w2sq_between_maps",
                       "transport:w2sq_between_maps"],
    "diagnostics.energy_monotone": ["diagnostics:check_energy_monotone"],
    "diagnostics.total_square_distance":
        ["diagnostics:check_total_square_distance"],
    "diagnostics.holder_continuity": ["diagnostics:check_holder_continuity"],
    "diagnostics.entropy_dissipation":
        ["diagnostics:check_entropy_dissipation_A",
         "diagnostics:check_entropy_dissipation_f"],
    "diagnostics.discrete_weak": ["diagnostics:check_discrete_weak_A",
                                  "diagnostics:check_discrete_weak_f"],
    "diagnostics.apriori": ["diagnostics:apriori_bounds"],
    "diagnostics.boundary_sign": ["diagnostics:boundary_sign_check"],
    "report.row": ["report:CertificateReport.row"],
}

# Tasks run by the CLI's thread pools are spans named
# <module>.<function that submitted them>: the sweep rows and the
# certificate evaluations.
POOL_SITE = "cli:ThreadPoolExecutor"
POOL_HOOKS = ("cli.sweep", "cli._certificates")

ALL_HOOKS = tuple(HOOKS) + POOL_HOOKS
CHECK_PREFIX = "diagnostics."
STEP_HOOK = "jko.step"
EXECUTE_HOOK = "cli.execute"


class Recorder:
    """Collects (name, id, parent, t0, t1, cpu0, cpu1) span tuples.

    t0/t1 are perf_counter wall times, cpu0/cpu1 the thread's CPU time, so
    wall minus CPU is the time the span waited for the interpreter lock,
    the scheduler or another thread.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            c0 = cpu()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                spans.append((name, sid, parent, t0, t1, c0, c1))

        return traced

    def pool_class(self, base):
        """A subclass of the executor `base` whose tasks are spans."""
        recorder = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder._stack()[-1]
                name = (fn.__module__.rpartition(".")[2] + "."
                        + fn.__qualname__.partition(".")[0])
                traced = recorder.wrap(name, fn)

                def task(*a, **kw):
                    stack = recorder._stack()
                    saved = stack[:]
                    stack[:] = [parent]
                    try:
                        return traced(*a, **kw)
                    finally:
                        stack[:] = saved

                return super().submit(task, *args, **kwargs)

        return TracedPool


def _resolve(package: str, site: str):
    """(owner, attribute) of a call site, or None if it no longer exists."""
    module, _, path = site.partition(":")
    owner = importlib.import_module(f"{package}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if getattr(owner, attr, None) is None:
        return None
    return owner, attr


def install(recorder: Recorder, package: str = "gradflow1d") -> list[str]:
    """Wrap every hook site that exists; return the names of absent hooks."""
    absent = []
    for name, sites in HOOKS.items():
        resolved = [r for r in (_resolve(package, s) for s in sites) if r]
        for owner, attr in resolved:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
        if not resolved:
            absent.append(name)
    pool = _resolve(package, POOL_SITE)
    if pool is None:
        absent.extend(POOL_HOOKS)
    else:
        owner, attr = pool
        setattr(owner, attr, recorder.pool_class(getattr(owner, attr)))
    return absent


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-hook totals plus the step durations and certification wall time.

    self_s is a span's wall time minus the part of it that its child spans
    (on any thread) cover; certify_wall_s runs, per cli.execute span, from
    the first certificate check's start to the last one's end.
    """
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        children[span[2]].append((span[3], span[4]))
        by_id[span[1]] = span
    hooks = {}
    step_s = []
    certify = defaultdict(lambda: [float("inf"), float("-inf")])
    for name, sid, parent, t0, t1, c0, c1 in spans:
        wall = t1 - t0
        h = hooks.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "wait_s": 0.0})
        h["calls"] += 1
        h["s"] += wall
        h["self_s"] += wall - _covered(children.get(sid, ()), t0, t1)
        h["wait_s"] += max(wall - (c1 - c0), 0.0)
        if name == STEP_HOOK:
            step_s.append(wall)
        elif name.startswith(CHECK_PREFIX):
            run = parent
            while run in by_id and by_id[run][0] != EXECUTE_HOOK:
                run = by_id[run][2]
            window = certify[run]
            window[0] = min(window[0], t0)
            window[1] = max(window[1], t1)
    return {"hooks": hooks, "step_s": step_s,
            "certify_wall_s": sum(b - a for a, b in certify.values())}
