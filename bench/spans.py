"""Spans around the public functions of each fdsec layer.

The benchmark wraps module attributes from outside the program: each call
through a wrapped name records a span (name, start, end, parent, and a few
counts read off its result). Spans stay in memory; ``write`` saves them at
the end of a run. Wrappers exist only between ``install`` and
``uninstall``, so untraced rounds run the program untouched. A name that
the program no longer has is skipped, and its metrics read zero.
"""

import json
import time
from dataclasses import dataclass, field

# (module, attribute, span name). The harness imports most layers by name,
# so they are wrapped where harness looks them up; the certificates module
# does the same for the eigensolver and HiGHS. fdsec.solver.solve is the
# name the phase-1 solve inside solve() calls, so a solver.solve span
# nested in another is a phase-1 solve.
TARGETS = (
    ("fdsec.harness", "evaluate_instance", "harness.evaluate_instance"),
    ("fdsec.harness", "realize", "channel.realize"),
    ("fdsec.harness", "zf_receivers", "receivers.zf_receivers"),
    ("fdsec.harness", "build_optimal_problem", "problem.build"),
    ("fdsec.harness", "build_baseline_problem", "problem.build"),
    ("fdsec.harness", "build_hd_problem", "problem.build"),
    ("fdsec.harness", "recover_allocation", "problem.recover"),
    ("fdsec.harness", "allocation_to_blocks", "problem.recover"),
    ("fdsec.harness", "solve", "solver.solve"),
    ("fdsec.solver", "solve", "solver.solve"),
    ("fdsec.harness", "rebalance_powers", "certificates.rebalance_powers"),
    ("fdsec.harness", "dual_certificate", "certificates.dual_certificate"),
    ("fdsec.certificates", "linprog", "certificates.linprog"),
    ("fdsec.certificates", "herm_eig", "linalg.herm_eig"),
    ("fdsec.certificates", "eigvals_herm", "linalg.eigvals_herm"),
    ("fdsec.harness", "evaluate_qos", "metrics.evaluate_qos"),
)


def _counts(name, result):
    """Counts read off a wrapped call's result."""
    if name == "solver.solve":
        return {"iters": result.iterations}
    if name == "problem.build" and isinstance(result, tuple):
        problem = result[0]
        return {"rows": len(problem.constraints),
                "psd_entries": sum(d * (d + 1) // 2 for d in problem.psd_dims)}
    if name == "certificates.rebalance_powers":
        return {"returned": int(result is not None)}
    if name == "certificates.dual_certificate":
        return {"pass": int(bool(result.certificate_pass))}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, parent=stack[-1] if stack else -1))
            stack.append(idx)
            spans[idx].start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = time.perf_counter()
                stack.pop()
            spans[idx].counts = _counts(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, **s.counts}) + "\n")


def layer_metrics(tracer, trials):
    """Per-layer metrics per traced trial, from the spans of ``trials`` roots."""
    spans = tracer.spans
    own = tracer.self_times()
    nested = [s.parent >= 0 and spans[s.parent].name == "solver.solve" for s in spans]

    def pick(name, phase1=None):
        return [i for i, s in enumerate(spans) if s.name == name
                and (phase1 is None or nested[i] == phase1)]

    def total(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    def count(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    top, phase1 = pick("solver.solve", False), pick("solver.solve", True)
    builds = pick("problem.build")
    polish = pick("certificates.rebalance_powers")
    cert = pick("certificates.dual_certificate")
    lp = pick("certificates.linprog")
    eig = pick("linalg.herm_eig")
    eigvals = pick("linalg.eigvals_herm")
    roots = pick("harness.evaluate_instance")
    top_iters = count(top, "iters")
    per = max(trials, 1)
    return {
        "solver.solve_s": (total(top) / per, "s/trial"),
        "solver.iters": (top_iters / per, "count/trial"),
        "solver.s_per_iter": (sum(own[i] for i in top) / max(top_iters, 1), "s"),
        "solver.phase1_solves": (len(phase1) / per, "count/trial"),
        "solver.phase1_iters": (count(phase1, "iters") / per, "count/trial"),
        "solver.phase1_s": (total(phase1) / per, "s/trial"),
        "problem.build_s": (total(builds) / per, "s/trial"),
        "problem.recover_s": (total(pick("problem.recover")) / per, "s/trial"),
        "problem.rows": (count(builds, "rows") / max(len(builds), 1), "count"),
        "problem.psd_entries": (count(builds, "psd_entries") / max(len(builds), 1), "count"),
        "certificates.rebalance_s": (total(polish) / per, "s/trial"),
        "certificates.polish_calls": (len(polish) / per, "count/trial"),
        "certificates.polish_returned": (count(polish, "returned") / per, "count/trial"),
        "certificates.lp_calls": (len(lp) / per, "count/trial"),
        "certificates.lp_s": (total(lp) / per, "s/trial"),
        "certificates.certificate_s": (total(cert) / per, "s/trial"),
        "certificates.certificate_pass": (count(cert, "pass") / per, "count/trial"),
        "linalg.herm_eig_calls": (len(eig) / per, "count/trial"),
        "linalg.herm_eig_s": (total(eig) / per, "s/trial"),
        "linalg.eigvals_herm_calls": (len(eigvals) / per, "count/trial"),
        "linalg.eigvals_herm_s": (total(eigvals) / per, "s/trial"),
        "channel.realize_s": (total(pick("channel.realize")) / per, "s/trial"),
        "receivers.zf_s": (total(pick("receivers.zf_receivers")) / per, "s/trial"),
        "metrics.evaluate_qos_s": (total(pick("metrics.evaluate_qos")) / per, "s/trial"),
        "harness.self_s": (sum(own[i] for i in roots) / per, "s/trial"),
    }
