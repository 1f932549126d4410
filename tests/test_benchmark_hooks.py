"""The names the benchmark hooks into still exist.

perfbench/tracing.py wraps package functions by (module, attribute), and
the workloads rebind two module globals of suite and write their output
through two report functions. A refactor that renames or moves one of
them would otherwise show only in a traced benchmark run.
The tracer is loaded by path and only read; installing it changes
bindings in the package, and uninstalling must restore every one.
"""
import argparse
import importlib
import sys
import types
from pathlib import Path

import polyexact.cli
from polyexact import report, suite
from polyexact.sets import ConvexSet

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    """perfbench/tracing.py as a fresh module, compiled from its source so
    that no bytecode is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def _resolve(mod_name: str, attr: str):
    """The object (module, attribute) names; a dotted attribute is a
    method on a class of that module, read off the class dict."""
    home = importlib.import_module(f"polyexact.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(home, cls_name))[meth]
    return getattr(home, attr)


def _bindings():
    """Every binding of every loaded polyexact module, and of ConvexSet."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "polyexact" or name.startswith("polyexact.")):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("ConvexSet", k): v for k, v in vars(ConvexSet).items()})
    return out


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for mod_name, attr in tracing.WRAPPED:
        assert callable(_resolve(mod_name, attr)), (mod_name, attr)
    assert callable(polyexact.cli.main)


def test_traced_commands_are_cli_subcommands():
    tracing = _load_tracing()
    parser = polyexact.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(tracing.CLI_COMMANDS) <= set(sub.choices)


def test_install_wraps_each_name_and_uninstall_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings()
    originals = {(m, a): _resolve(m, a) for m, a in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install("polyexact")
    try:
        for (mod_name, attr), original in originals.items():
            wrapped = _resolve(mod_name, attr)
            assert wrapped is not original, (mod_name, attr)
            assert wrapped.__wrapped__ is original, (mod_name, attr)
        assert polyexact.cli.main.__wrapped__ is before[("polyexact.cli", "main")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_globals_the_workloads_rebind_exist():
    # the suite-sweep workload times pairs through suite._run_task and
    # maps them through suite.random_pair_with_common_point
    assert callable(suite._run_task)
    assert callable(suite.random_pair_with_common_point)


def test_report_functions_the_workloads_call_exist():
    # the extremality-dim4 workload writes its output through these two
    assert callable(report.extremality_payload)
    assert callable(report.separation_payload)
