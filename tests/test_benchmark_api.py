"""The package surface that the benchmark in perfbench/ uses.

The benchmark's files are parsed with ast, never imported or edited. Every
attribute of a symcone module that they read must exist, every call they
make must bind to its function's signature, and the Siegel sampler configs
they build must still be accepted by bergman_norm_mc. So a change that
would crash a benchmark run fails here first. Importing the package must
build nothing, since every workload's setup_s pays for the imports.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from symcone import domains, eja, spaces
from symcone.poly import SparsePolynomial

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module_aliases(tree):
    """{local name: symcone module} for `from symcone import m [as x]`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "symcone":
            for a in node.names:
                out[a.asname or a.name] = importlib.import_module(f"symcone.{a.name}")
    return out


def test_benchmark_sources_are_found():
    assert {p.name for p in SOURCES} >= {"run.py", "workloads.py", "tracing.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_symcone_name_the_benchmark_reads_exists(path):
    tree = _tree(path)
    mods = _module_aliases(tree)
    missing = []
    for node in ast.walk(tree):
        # m.attr on a symcone module m
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in mods and not hasattr(mods[node.value.id], node.attr)):
            missing.append(f"{mods[node.value.id].__name__}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symcone."):
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(mod, a.name)]
        # the tracer imports the modules it lists by name
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "MODULES"):
            for name in ast.literal_eval(node.value):
                importlib.import_module(f"symcone.{name}")
    assert not missing, missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_benchmark_call_binds_to_its_signature(path):
    # positional count and keyword names of each direct call m.f(...)
    bad = []
    tree = _tree(path)
    mods = _module_aliases(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mods):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        fn = getattr(mods[node.func.value.id], node.func.attr, None)
        if fn is None:
            continue  # reported by the test of the names
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            bad.append(f"line {node.lineno}: {node.func.attr}: {exc}")
    assert not bad, bad


def test_benchmark_siegel_configs_reach_bergman_norm_mc():
    # the configs the workloads build, with their literal keywords, passed
    # as config= to a Siegel Bergman estimate, which ignores them
    tree = _tree(PERFBENCH / "workloads.py")
    mods = _module_aliases(tree)
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "SiegelSamplerConfig"
             and mods.get(getattr(node.func.value, "id", None)) is domains]
    alg, lam = eja.sym_real(2), 4.0
    f = spaces.transport_to_siegel(
        spaces.poly_function(alg, SparsePolynomial.constant(3, 1.0)), lam)
    plain = spaces.bergman_norm_mc(f, lam, alg, 256, np.random.default_rng(5),
                                   realization="siegel")
    for node in calls:
        cfg = domains.SiegelSamplerConfig(
            **{k.arg: ast.literal_eval(k.value) for k in node.keywords})
        got = spaces.bergman_norm_mc(f, lam, alg, 256, np.random.default_rng(5),
                                     realization="siegel", config=cfg)
        assert got == plain


# names the tracer still asks for though the package no longer has them;
# each reads as a count of 0 until the benchmark drops it
STALE_TRACED = {"fischer.haar_sample_K"}


def _traced_names():
    """Dotted names passed as string literals to the tracer's ids, count and
    inclusive helpers."""
    tree = _tree(PERFBENCH / "tracing.py")
    return {a.value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("ids", "count", "inclusive")
            for a in node.args
            if isinstance(a, ast.Constant) and isinstance(a.value, str)}


def test_every_traced_name_is_a_symcone_function():
    # a renamed sample_bounded or in_bounded_domain would silently set
    # domains.sampler_draws to 0, a renamed psd_verdict spaces.gram_verdicts;
    # here it fails instead
    names = _traced_names()
    assert {"domains.sample_bounded", "domains.in_bounded_domain",
            "spaces.psd_verdict"} <= names
    missing = set()
    for name in names:
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"symcone.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not inspect.isfunction(obj):
            missing.add(name)
    assert missing == STALE_TRACED


# the package's modules, all of which `symcone.cli` loads; every workload's
# setup_s pays for what they do at import time
IMPORTED = ("cli", "spaces", "fischer", "poly", "wallach", "domains", "cones", "eja")

# run in a fresh interpreter with the module names as arguments: prints the
# size of every functools.cache table of poly and wallach and of fischer's
# projector table
_SIZES_AFTER_IMPORT = """
import functools, importlib, json, sys
mods = {m: importlib.import_module("symcone." + m) for m in sys.argv[1:]}
sizes = {m + "." + k: v.cache_info().currsize
         for m in ("poly", "wallach") for k, v in vars(mods[m]).items()
         if isinstance(v, functools._lru_cache_wrapper)}
sizes["fischer._PROJECTORS"] = len(mods["fischer"]._PROJECTORS)
print(json.dumps(sizes))
"""


def test_importing_the_package_builds_nothing():
    path = [str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", _SIZES_AFTER_IMPORT, *IMPORTED],
                         env=env, capture_output=True, text=True, check=True)
    sizes = json.loads(out.stdout)
    assert {"poly.monomial_table", "wallach.graded_signatures"} <= set(sizes)
    assert not any(sizes.values()), sizes
