"""Span tracing of dqmf's public entry points, installed from outside the package.

Each probe wraps one public callable: class attributes are replaced on the
class, module functions are replaced in the defining module and in every
dqmf module that imported them by name (``from .tseries import evaluate``),
and the battery checks are replaced inside ``suite.CHECKS``.  A probe whose
target is missing is recorded as absent and its metrics are not reported.

Every wrapped call is a span (name, start, end, parent, request id).  Calls
are counted and timed per phase of the pass; a layer's self time is the
time its spans cover minus the time covered by their child spans.  Spans
of the coarse layers (everything but the algebra and qmring arithmetic,
which run millions of times) are kept in memory, up to a cap, and written
out at the end of the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, module, class or None, attribute, groups).  A group's inclusive
# time counts only its outermost spans, so recursion is not counted twice.
PROBES = [
    ("algebra", "dqmf.algebra", "PolyT", "__mul__", ("poly_mul",)),
    ("algebra", "dqmf.algebra", "PolyT", "divmod", ()),
    ("algebra", "dqmf.algebra", "PolyT", "gcd", ("poly_gcd",)),
    ("algebra", "dqmf.algebra", "RatT", "__init__", ("rat",)),
    ("algebra", "dqmf.algebra", "RatT", "__add__", ("rat",)),
    ("algebra", "dqmf.algebra", "RatT", "__mul__", ("rat",)),
    ("algebra", "dqmf.algebra", "RatT", "inverse", ("rat",)),
    ("algebra", "dqmf.algebra", "RatT", "__pow__", ("rat",)),
    ("algebra", "dqmf.algebra", None, "linear_solve", ("linear_solve",)),
    ("qmring", "dqmf.qmring", "QmPoly", "__add__", ()),
    ("qmring", "dqmf.qmring", "QmPoly", "__mul__", ()),
    ("qmring", "dqmf.qmring", "QmPoly", "scale", ()),
    ("qmring", "dqmf.qmring", "QmPoly", "scale_int", ()),
    ("qmring", "dqmf.qmring", "QmPoly", "frobenius_pow", ()),
    ("qmring", "dqmf.qmring", "QmPoly", "subs_g", ()),
    ("qmring", "dqmf.qmring", None, "grading", ()),
    ("qmring", "dqmf.qmring", None, "associated_polynomial", ()),
    ("qmring", "dqmf.qmring", None, "modular_basis", ()),
    ("qmring", "dqmf.qmring", None, "rankin_bracket", ()),
    ("hyperd", "dqmf.hyperd", "DerivationEngine", "derive", ("derive",)),
    ("hyperd", "dqmf.hyperd", "DerivationEngine", "d_generator", ()),
    ("hyperd", "dqmf.hyperd", "DerivationEngine", "transform_depth_poly", ()),
    ("hyperd", "dqmf.hyperd", "DerivationEngine", "kernel_on_modular", ()),
    ("tseries", "dqmf.tseries", "TSeries", "__add__", ()),
    ("tseries", "dqmf.tseries", "TSeries", "__mul__", ()),
    ("tseries", "dqmf.tseries", "TSeries", "__pow__", ()),
    ("tseries", "dqmf.tseries", None, "t_sub", ()),
    ("tseries", "dqmf.tseries", None, "alpha", ()),
    ("tseries", "dqmf.tseries", None, "expand_E", ("expand",)),
    ("tseries", "dqmf.tseries", None, "expand_g", ("expand",)),
    ("tseries", "dqmf.tseries", None, "expand_h", ("expand",)),
    ("tseries", "dqmf.tseries", None, "evaluate", ("evaluate",)),
    ("tseries", "dqmf.tseries", None, "hyper_derive", ("hyper_derive",)),
    ("verify", "dqmf.verify", None, "member", ()),
    ("verify", "dqmf.verify", None, "check_hyperstable", ("check_hyperstable",)),
    ("verify", "dqmf.verify", None, "munu_congruence", ()),
    ("verify", "dqmf.verify", None, "diagram_inclusions", ()),
    ("verify", "dqmf.verify", None, "weight_divisibility_check", ()),
    ("verify", "dqmf.verify", None, "h_power_quotient", ()),
    ("verify", "dqmf.verify", None, "h_power_quotients", ("h_power_quotients",)),
]
UNKEPT_LAYERS = ("algebra", "qmring")
MAX_SPANS = 100_000

# per-layer metric -> (kind, key, phases): kind "calls" counts spans of the
# probe labelled key, "group" sums the outermost spans of a group, "self" is a
# layer's self time.  Phases None means the timed phase only.
LAYER_METRICS = {
    "algebra.self_s": ("self", "algebra", None),
    "algebra.poly_mul_calls": ("calls", "PolyT.__mul__", None),
    "algebra.poly_mul_s": ("group", "poly_mul", None),
    "algebra.poly_divmod_calls": ("calls", "PolyT.divmod", None),
    "algebra.poly_gcd_calls": ("calls", "PolyT.gcd", None),
    "algebra.poly_gcd_s": ("group", "poly_gcd", None),
    "algebra.rat_add_calls": ("calls", "RatT.__add__", None),
    "algebra.rat_mul_calls": ("calls", "RatT.__mul__", None),
    "algebra.rat_s": ("group", "rat", None),
    "algebra.linear_solve_s": ("group", "linear_solve", None),
    "qmring.self_s": ("self", "qmring", None),
    "qmring.mul_calls": ("calls", "QmPoly.__mul__", None),
    "qmring.add_calls": ("calls", "QmPoly.__add__", None),
    "hyperd.self_s": ("self", "hyperd", None),
    "hyperd.derive_calls": ("calls", "DerivationEngine.derive", None),
    "hyperd.derive_s": ("group", "derive", None),
    "hyperd.d_generator_calls": ("calls", "DerivationEngine.d_generator", None),
    "tseries.expand_s": ("group", "expand", ("setup", "timed")),
    "tseries.self_s": ("self", "tseries", None),
    "tseries.evaluate_s": ("group", "evaluate", None),
    "tseries.hyper_derive_s": ("group", "hyper_derive", None),
    "tseries.series_mul_calls": ("calls", "TSeries.__mul__", None),
    "verify.self_s": ("self", "verify", None),
    "verify.check_hyperstable_s": ("group", "check_hyperstable", None),
    "verify.member_calls": ("calls", "member", None),
    "verify.h_power_quotients_s": ("group", "h_power_quotients", None),
}
SUITE_CHECKS = (
    "generator_tables", "series_commutation", "series_leading_terms",
    "ideal_stability", "munu_congruence", "h_power_quotients",
    "depth_poly_dual_route", "weight_divisibility", "kernel_suite",
)
for _check in SUITE_CHECKS:
    LAYER_METRICS[f"suite.{_check}_s"] = ("group", f"suite.{_check}", None)


class Tracer:
    """In-memory spans plus per-phase call counts, group times and layer self times.

    Counters are cumulative lists the wrappers update in place; switching
    phase books the difference since the last switch to the phase ending.
    """

    def __init__(self):
        self.calls = {}  # probe label -> [calls]
        self.groups = {}  # group -> [open spans, outermost inclusive seconds]
        self.self_s = {}  # layer -> [self seconds]
        self.phases = {}  # phase -> {"calls"|"group"|"self": {key: value}}
        self.phase_name = "setup"
        self._mark = self._totals()
        self.request = None
        self.stack = []  # open spans: [child seconds, nearest kept span id]
        self.spans = []
        self.dropped = 0
        self.next_id = 1
        self.absent = []  # labels of probes whose target is missing
        self.members = {}  # group -> probe labels

    def _totals(self):
        return {
            "calls": {k: v[0] for k, v in self.calls.items()},
            "group": {k: v[1] for k, v in self.groups.items()},
            "self": {k: v[0] for k, v in self.self_s.items()},
        }

    def set_phase(self, name):
        """Book the counters accrued since the last switch, then enter phase name."""
        now = self._totals()
        booked = self.phases.setdefault(self.phase_name, {"calls": {}, "group": {}, "self": {}})
        for kind, table in now.items():
            for key, value in table.items():
                delta = value - self._mark[kind].get(key, 0)
                booked[kind][key] = booked[kind].get(key, 0) + delta
        self._mark = now
        self.phase_name = name

    def _wrap(self, layer, label, groups, fn):
        tracer = self
        stack = self.stack
        spans = self.spans
        calls = self.calls.setdefault(label, [0])
        own = self.self_s.setdefault(layer, [0.0])
        accs = [self.groups.setdefault(g, [0, 0.0]) for g in (label,) + tuple(groups)]
        keep = layer not in UNKEPT_LAYERS
        clock = time.perf_counter

        def probe(*args, **kwargs):
            if keep:
                span_id = tracer.next_id
                tracer.next_id = span_id + 1
                parent_id = stack[-1][1] if stack else 0
                frame = [0.0, span_id]
            else:
                frame = [0.0, stack[-1][1] if stack else 0]
            for acc in accs:
                acc[0] += 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[0] += 1
                own[0] += dur - frame[0]
                for acc in accs:
                    acc[0] -= 1
                    if not acc[0]:
                        acc[1] += dur
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent_id, label, t0, t1,
                                      tracer.request, tracer.phase_name))
                    else:
                        tracer.dropped += 1

        return functools.update_wrapper(probe, fn)

    def install(self):
        """Wrap every probe target that exists; record the missing ones."""
        for layer, modname, clsname, attr, groups in PROBES:
            label = f"{clsname}.{attr}" if clsname else attr
            for g in (label,) + groups:
                self.members.setdefault(g, []).append(label)
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(label)
                continue
            owner = getattr(mod, clsname, None) if clsname else mod
            target = getattr(owner, attr, None) if owner is not None else None
            if not callable(target):
                self.absent.append(label)
                continue
            wrapped = self._wrap(layer, label, groups, target)
            if clsname:
                setattr(owner, attr, wrapped)
                continue
            for other in list(sys.modules.values()):
                oname = getattr(other, "__name__", "")
                if oname != "dqmf" and not oname.startswith("dqmf."):
                    continue
                for key, val in list(vars(other).items()):
                    if val is target:
                        setattr(other, key, wrapped)
        try:
            checks = importlib.import_module("dqmf.suite").CHECKS
        except (ImportError, AttributeError):
            checks = {}
        for check in SUITE_CHECKS:
            label = f"suite.{check}"
            self.members[label] = [label]
            if check in checks:
                checks[check] = self._wrap("suite", label, (), checks[check])
            else:
                self.absent.append(label)

    def layer_metrics(self):
        """Per-layer metric values; a metric whose probes are all absent is left out."""
        self.set_phase(self.phase_name)
        out = {}
        for metric, (kind, key, phases) in LAYER_METRICS.items():
            if kind != "self" and all(m in self.absent for m in self.members.get(key, [key])):
                continue
            out[metric] = sum(self.phases.get(ph, {}).get(kind, {}).get(key, 0)
                              for ph in phases or ("timed",))
        return out

    def dump(self, path, context):
        """Write the kept spans as JSON lines after a context header."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**context, "spans": len(self.spans),
                                 "spans_dropped": self.dropped, "absent": self.absent}) + "\n")
            for sid, parent, name, t0, t1, req, phase in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0,
                                     "end": t1, "request": req, "phase": phase}) + "\n")
