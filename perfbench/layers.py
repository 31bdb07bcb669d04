"""Traced run of one workload: a span around each public ograss call, layer by layer.

Run in a fresh interpreter with the package's ``src`` on PYTHONPATH:

    python3 perfbench/layers.py --workload verify-q8 --seed 1 --out spans.json

The calls run in dependency order, so the ``lru_cache`` of every callee is
warm and each span times that layer's own work.  The one nested call that
cannot be made warm, ``codes.minimum_distance`` inside ``codes.verify``, is
wrapped from here so that it records a child span; nothing inside the
package is instrumented.  Spans stay in memory and are written out, with
the per-layer metrics and any failed checks, when the run ends.

The search layer (rank, information sets, search, verify) runs only where
n <= SEARCH_MAX_N: at q = 49 it would not fit in a run and genmat never
calls it, so its metrics read 0 there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

from workloads import WORKLOADS, code_length, min_distance

#: per-call probes run on at most this many points, spread evenly
PROBE_POINTS = 2048
#: the search layer is exercised only where n keeps it within seconds
SEARCH_MAX_N = 2000

SPAN_METRICS = (
    "proc.import", "gf.field", "polar.enumerate_points", "codes.build_generator",
    "grassmann.minor", "grassmann.expand_minor", "forms.singular_check", "polar.swap34_map",
    "codes.rank_dimension", "codes.budget_reject", "codes.minimum_distance", "codes.verify",
    "cli.genmat_write",
)


class Tracer:
    """Spans with name, start, end and parent, kept in memory."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"trace": self.trace_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == s["id"])
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - children
        return out


def counting_numpy(np, counter: dict):
    """A stand-in for the numpy module that counts rows weighed by count_nonzero(axis=1).

    Both codeword kernels weigh a block of codewords with one such call, so
    the count is the number of codeword evaluations, also for a search that
    ends in BudgetExceeded and so reports none.
    """
    def count_nonzero(a, axis=None, **kw):
        if axis == 1:
            counter["rows"] += a.shape[0]
        return np.count_nonzero(a, axis=axis, **kw)

    return types.SimpleNamespace(**{**vars(np), "count_nonzero": count_nonzero})


def traced_run(name: str, seed: int, out_dir: Path) -> dict:
    wl = WORKLOADS[name]
    q = wl.q
    tr = Tracer(f"{name}-{seed}")
    problems: list[str] = []

    with tr.span("proc.import"):
        import numpy as np
        import ograss
        from ograss import cli, codes, forms, grassmann, polar
    with tr.span("gf.field"):
        f = ograss.field(q, wl.poly(seed))
    with tr.span("polar.enumerate_points"):
        pts = polar.enumerate_points(f)
    with tr.span("codes.build_generator"):
        G = codes.build_generator(f)
    n = len(pts)
    if n != code_length(q) or G.matrix.shape != (20, n):
        problems.append(f"{n} points and a {G.matrix.shape} generator, expected n={code_length(q)}")

    probe = [pts[i * n // min(n, PROBE_POINTS)].matrix for i in range(min(n, PROBE_POINTS))]
    cols = grassmann.COLUMN_SETS
    with tr.span("grassmann.minor", calls=len(probe) * len(cols)):
        direct = [grassmann.minor(M, A) for M in probe for A in cols]
    with tr.span("grassmann.expand_minor", calls=len(probe) * len(cols)):
        expanded = [grassmann.expand_minor(M, A) for M in probe for A in cols]
    if direct != expanded:
        problems.append("expand_minor differs from minor on the probe points")
    space = forms.FormSpace(f, 3)
    with tr.span("forms.singular_check", calls=len(probe)):
        singular = all(space.is_totally_singular(M) for M in probe)
    if not singular:
        problems.append("a probe point is not totally singular")
    with tr.span("polar.swap34_map"):
        polar.swap34_map(f)

    evaluations = 0
    if n <= SEARCH_MAX_N:
        with tr.span("codes.rank_dimension"):
            k = codes.rank_dimension(G)
        with tr.span("codes.budget_reject"):
            try:
                codes.minimum_distance(f, budget=1)
                problems.append("minimum_distance(budget=1) returned instead of raising BudgetExceeded")
            except codes.BudgetExceeded:
                pass

        inner = codes.minimum_distance
        counter = {"rows": 0}
        outcome: dict = {}

        def minimum_distance(*args, **kwargs):
            real_np, codes.np = codes.np, counting_numpy(np, counter)
            try:
                with tr.span("codes.minimum_distance"):
                    res = inner(*args, **kwargs)
                outcome["result"] = res
                return res
            except codes.BudgetExceeded:
                outcome["budget_exceeded"] = True
                raise
            finally:
                codes.np = real_np

        codes.minimum_distance = minimum_distance
        try:
            with tr.span("codes.verify"):
                report = codes.verify(f)
        finally:
            codes.minimum_distance = inner
        if not report.passed or (report.n, report.dimension) != (n, k):
            problems.append(f"verify: {report.lines()[0]}, passed={report.passed}")
        res = outcome.get("result")
        if res is not None:
            evaluations = res.evaluations
            if (res.distance, res.exact) != (min_distance(q), True):
                problems.append(f"minimum_distance gave d={res.distance} exact={res.exact}")
        elif outcome.get("budget_exceeded"):
            evaluations = counter["rows"]
        else:
            problems.append("verify never called minimum_distance")

    path = out_dir / f"layers-{name}-{seed}.txt"
    argv = ["genmat", "--q", str(q), "--out", str(path)]
    if f.poly is not None:
        argv += ["--poly", ",".join(map(str, f.poly))]
    with tr.span("cli.genmat_write"):
        rc = cli.main(argv)
    lines = path.read_text().count("\n") if rc == 0 else 0
    path.unlink(missing_ok=True)
    if rc != 0 or lines != 20:
        problems.append(f"genmat wrote {lines} lines, exit code {rc}")

    search_s = tr.total("codes.minimum_distance")
    metrics = {f"{s}_s": (tr.total(s), "s") for s in SPAN_METRICS}
    metrics.update({
        "polar.points": (n, "count"),
        "codes.generator_bytes": (int(G.matrix.nbytes), "B"),
        "codes.evaluations": (evaluations, "count"),
        "codes.evals_per_s": (evaluations / search_s if search_s else 0.0, "1/s"),
    })
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_s": tr.self_times(),
        "problems": problems,
        "spans": tr.spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="JSON file for spans, metrics and failed checks")
    args = ap.parse_args(argv)
    out = Path(args.out)
    result = traced_run(args.workload, args.seed, out.parent)
    out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
