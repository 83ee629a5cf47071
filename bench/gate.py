"""Operations, passes over them, and the correctness gate on their outputs.

An operation is one CLI or library call. Each call writes into a fresh
directory. An operation fails when it raises, exits non-zero, fails a check
on its artifacts, or writes artifacts or manifest counters that differ from
its first pass. Failures are counted, never raised, so one broken operation
cannot hide the rest of a workload.

Two kinds of failure are kept apart. A non-zero exit is a refusal: the
program produced no answer. A failed check or a changed artifact is a wrong
answer, which also makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

MANIFEST = "manifest.json"


class CheckFailed(Exception):
    """An artifact is wrong."""


@dataclass
class Op:
    """One operation of a workload.

    call runs it into the given directory and returns the exit status. Each
    check reads that directory, raises CheckFailed on a wrong artifact and
    returns measures (such as an oracle gap) to report.
    """

    name: str
    call: Callable[[str], int]
    checks: tuple[Callable[[str], dict], ...] = ()


@dataclass
class Outcome:
    op: str
    seconds: float
    status: int  # exit status; -1 when the call raised
    fingerprint: tuple
    problems: list[str] = field(default_factory=list)
    measures: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != 0 or bool(self.problems)

    @property
    def counters(self) -> dict:
        return dict(self.fingerprint[2])

    @property
    def digests(self) -> dict:
        return dict(self.fingerprint[1])


def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every artifact but the manifest, which holds timings."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == MANIFEST:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def manifest_counters(out_dir: str) -> dict[str, int]:
    """Exact counters the program already writes into its manifest."""
    path = os.path.join(out_dir, MANIFEST)
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        manifest = json.load(fh)
    out = {}
    probes = [
        st["argmin_evaluations"]
        for st in manifest["stats"]["per_stage"]
        if st.get("argmin_evaluations") is not None
    ]
    if probes:
        out["argmin_evaluations"] = int(sum(probes))
    if "iterations" in manifest["certificates"]:
        out["iterations"] = int(manifest["certificates"]["iterations"])
    return out


def check(op: Op, out_dir: str) -> tuple[list[str], dict]:
    """Run every check of ``op``; returns (problems, measures)."""
    problems: list[str] = []
    measures: dict = {}
    for fn in op.checks:
        try:
            measures.update(fn(out_dir))
        except CheckFailed as exc:
            problems.append(f"{fn.__name__}: {exc}")
        except Exception as exc:  # a check that crashes is a failed check
            problems.append(f"{fn.__name__} raised {type(exc).__name__}: {exc}")
    return problems, measures


class Gate:
    """Runs passes over a workload's operations and judges every outcome."""

    def __init__(self, ops, workdir: str, clock=time.perf_counter):
        self.ops = list(ops)
        self.workdir = workdir
        self.clock = clock
        self.passes: list[list[Outcome]] = []
        self.pass_seconds: list[float] = []
        self.last_dir: str | None = None  # outputs of the latest pass
        self._first: dict[str, tuple] = {}
        self._verdicts: dict[tuple, tuple[list[str], dict]] = {}

    def run_pass(self, around=None) -> list[Outcome]:
        """Time one pass, then judge its outputs outside the timed region.

        ``around(name)`` gives a context manager entered around each call.
        """
        around = around or (lambda name: nullcontext())
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        base = os.path.join(self.workdir, f"pass{len(self.passes)}")
        dirs = [os.path.join(base, op.name) for op in self.ops]
        for d in dirs:
            os.makedirs(d)
        timed = []
        t0 = self.clock()
        for op, d in zip(self.ops, dirs):
            s = self.clock()
            try:
                with around(op.name):
                    status = int(op.call(d))
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc(file=sys.stderr)
                status = -1
            timed.append((self.clock() - s, status))
        self.pass_seconds.append(self.clock() - t0)
        outcomes = [
            self._judge(op, d, secs, status)
            for op, d, (secs, status) in zip(self.ops, dirs, timed)
        ]
        self.passes.append(outcomes)
        self.last_dir = base
        return outcomes

    def _judge(self, op: Op, out_dir: str, seconds: float, status: int) -> Outcome:
        fp = (
            status,
            tuple(digests(out_dir).items()),
            tuple(sorted(manifest_counters(out_dir).items())),
        )
        first = self._first.setdefault(op.name, fp)
        problems = []
        if fp != first:
            problems.append("exit status, artifacts or counters differ from the first pass")
        measures = {}
        if status == 0:
            # checks are a function of the artifact bytes, so equal
            # fingerprints share one verdict
            key = (op.name, fp)
            if key not in self._verdicts:
                self._verdicts[key] = check(op, out_dir)
            found, measures = self._verdicts[key]
            problems += found
        return Outcome(op.name, seconds, status, fp, problems, measures)

    def outcomes(self):
        return [o for outs in self.passes for o in outs]
