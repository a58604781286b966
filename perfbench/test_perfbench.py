"""Checks on the benchmark itself.

    python3 -m pytest perfbench -q

The generator must be deterministic, tracing must not change what the
program does, and both kinds of run must print exactly the metrics that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import types
from itertools import combinations

import pytest

import gen
import run
import spans

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def _run(*args) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("family", gen.FAMILIES)
@pytest.mark.parametrize("mode", run.MODES)
def test_generator_is_deterministic(family, mode):
    for n in (2, 3, 5):
        assert gen.instance_text(family, n, mode, 0, 3) == gen.instance_text(family, n, mode, 0, 3)


@pytest.mark.parametrize("family", gen.FAMILIES)
@pytest.mark.parametrize("mode", run.MODES)
def test_seed_changes_presentation_not_matroid(family, mode):
    n = 4
    seqs = [
        run.instances.parse_instance(gen.instance_text(family, n, mode, 0, seed)).base_sequence()
        for seed in (0, 1)
    ]
    assert seqs[0].bases == seqs[1].bases
    ground = range(seqs[0].matroid.size)
    rng = random.Random(0)
    subsets = [rng.sample(ground, k) for k in range(1, n + 2) for _ in range(20)]
    for S in subsets + [list(c) for c in combinations(ground, 2)]:
        assert seqs[0].matroid.is_independent(S) == seqs[1].matroid.is_independent(S)


def test_overlapping_instances_share_elements_at_most_twice():
    for family in gen.FAMILIES:
        for n in (3, 5):
            inst = run.instances.parse_instance(gen.instance_text(family, n, "overlapping", 0, 0))
            assert inst.base_sequence().overlap_kappa() == gen.KAPPA


def test_move_logs_do_not_depend_on_the_seed():
    texts = [gen.instance_text(f, 3, m, 0, 0) for f in gen.FAMILIES for m in run.MODES]
    other = [gen.instance_text(f, 3, m, 0, 9) for f in gen.FAMILIES for m in run.MODES]
    assert texts != other
    assert run.run_round(texts, run.Ledger()) == run.run_round(other, run.Ledger())


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.totals("inner").calls == 3
    o = tracer.totals("outer")
    assert o.calls == 1
    assert o.self_s == pytest.approx(o.total_s - tracer.totals("inner").total_s)
    assert set(tracer.by_parent("inner")) == {"outer"}


def test_install_rebinds_from_imports(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = lambda: 1
    b.f = a.f  # as `from .a import f` would leave it
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = spans.Tracer()
    spans.install(tracer, "fakepkg", [("a", "f", "a.f", {})])
    assert a.f() == 1 and b.f() == 1
    assert tracer.totals("a.f").calls == 2


def test_untraced_run_prints_every_end_to_end_metric():
    code, lines, result = _run(
        "--workload", "exact-small", "--seed", "4", "--seconds", "1", "--trace", "0"
    )
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_keeps_move_logs_and_prints_every_layer_metric():
    code, lines, result = _run(
        "--workload", "exact-small", "--seed", "4", "--seconds", "1", "--trace", "1"
    )
    assert code == 0 and result["correct"]
    shas = [line.split()[-1] for line in lines if line.startswith("movelog_sha256")]
    assert len(shas) == 2 and shas[0] == shas[1]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
