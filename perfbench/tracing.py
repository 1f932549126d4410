"""Per-layer spans for the traced benchmark run, recorded from outside
the package.

The tracer wraps public functions of the package modules. Modules import
one another by name (``from .lp import solve_lp``), so a wrapper is bound
into every ``polyexact`` module that holds the original object, not only
into the module that defines it. Methods of ``ConvexSet`` are wrapped on
the class. Each wrapped function records its call count, its total time
(outermost calls only, so recursion is not counted twice) and its self
time, which is its duration minus the time spent in wrapped callees.

Alongside the spans the tracer keeps exact work counts computed from
arguments and results: LP outcomes, rows and variables; DD rows in and
rays out; and the vertex pairs a Minkowski sum forms.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) of every wrapped function; a dotted attribute names
# a method on a class of that module
WRAPPED = (
    ("lp", "solve_lp"),
    ("lp", "verify_certificate"),
    ("dd", "cone_from_inequalities"),
    ("linalg", "rank"),
    ("sets", "ConvexSet.hrep"),
    ("sets", "ConvexSet.vrep"),
    ("sets", "ConvexSet.canonical_hrep"),
    ("sets", "ConvexSet.minkowski"),
    ("sets", "ConvexSet.is_empty"),
    ("extremality", "is_extremal_system"),
    ("extremality", "separate"),
    ("extremality", "approximate_extremal_principle"),
    ("extremality", "verify_approx_ep"),
    ("calculus", "support_value"),
    ("calculus", "inf_convolution_support"),
    ("calculus", "qualification_report"),
    ("calculus", "intersection_rule"),
    ("calculus", "difference_interiority"),
    ("calculus", "core_at_zero"),
    ("cones", "normal_cone"),
    ("instances", "load_instance"),
    ("svgplot", "render_scene"),
)

# subcommands the cli-fixtures workload drives; cli.main is reported per
# subcommand because one function serves all of them
CLI_COMMANDS = (
    "check-extremal", "separate", "ep", "intersection-rule", "support",
    "infconv", "plot",
)

LAYERS = ("lp", "dd", "linalg", "sets", "extremality", "calculus", "cones",
          "instances", "svgplot", "cli")

COUNT_NAMES = (
    "lp.outcome.optimal", "lp.outcome.infeasible", "lp.outcome.unbounded",
    "lp.rows", "lp.vars", "dd.rows_in", "dd.rays_out", "sets.minkowski.pairs",
)


def span_names() -> tuple[str, ...]:
    """Every span the tracer can report, in a fixed order."""
    names = [f"{mod}.{attr}" for mod, attr in WRAPPED]
    names += [f"cli.main.{cmd}" for cmd in CLI_COMMANDS]
    return tuple(names)


def layer_of(span: str) -> str:
    """Layer a span belongs to: its module, with ConvexSet under sets."""
    return span.split(".", 1)[0]


class Tracer:
    """Collects spans and counts while installed; see the module doc."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in span_names()}
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self.paused = False
        self._stack: list[list[float]] = []
        self._depth = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str):
        frame = [0.0, perf_counter()]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _leave(self, name: str, frame) -> None:
        elapsed = perf_counter() - frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self._depth[name] -= 1
        span = self.spans[name]
        span[0] += 1
        span[2] += elapsed - frame[0]
        if self._depth[name] == 0:
            span[1] += elapsed

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_cli_main(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(argv=None):
            name = f"cli.main.{argv[0]}"
            frame = tracer._enter(name)
            try:
                return fn(argv)
            finally:
                tracer._leave(name, frame)

        return wrapper

    # -- counts ---------------------------------------------------------------

    def _count_lp(self, args, outcome) -> None:
        lp = args[0]
        kind = type(outcome).__name__[2:].lower()  # LpOptimal -> optimal
        self.counts[f"lp.outcome.{kind}"] += 1
        self.counts["lp.rows"] += len(lp.ineq_lhs) + len(lp.eq_lhs)
        self.counts["lp.vars"] += lp.dim

    def _count_dd(self, args, result) -> None:
        self.counts["dd.rows_in"] += len(args[0])
        self.counts["dd.rays_out"] += len(result[0])

    def _counter_minkowski(self, raw_vrep):
        # the operands' vertex lists are cached by the time minkowski
        # returns, so reading them through the unwrapped method does no
        # work and records no span
        def count(args, result) -> None:
            left, right = args[0], args[1]
            k1 = len(raw_vrep(left).vertices)
            k2 = len(raw_vrep(right).vertices)
            self.counts["sets.minkowski.pairs"] += k1 * k2
        return count

    # -- installation ---------------------------------------------------------

    def install(self, package_name: str) -> None:
        """Bind wrappers into every loaded module of the package."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package_name or n.startswith(package_name + "."))
        ]
        raw_vrep = sys.modules[f"{package_name}.sets"].ConvexSet.vrep
        after = {
            "lp.solve_lp": self._count_lp,
            "dd.cone_from_inequalities": self._count_dd,
            "sets.ConvexSet.minkowski": self._counter_minkowski(raw_vrep),
        }
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            home = sys.modules[f"{package_name}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, meth, self._wrap(name, vars(cls)[meth], after.get(name)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        cli = sys.modules[f"{package_name}.cli"]
        self._rebind(cli, "main", self._wrap_cli_main(cli.main))

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every binding install replaced."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Call counts and work counts: identical for identical inputs."""
        out = {f"{name}.calls": span[0] for name, span in self.spans.items()}
        out.update(self.counts)
        return out

    def self_time_by_layer(self) -> dict:
        out = Counter()
        for name, (_, _, self_s) in self.spans.items():
            out[layer_of(name)] += self_s
        return out
