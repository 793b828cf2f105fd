"""Tests of the benchmark itself, at small seeds and sizes.

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

run.load_program(ROOT)


# -- the hand-written reference against brute force ----------------------------------


def _partial_injections(k: int):
    for images in itertools.product(range(-1, k), repeat=k):
        defined = [y for y in images if y >= 0]
        if len(defined) == len(set(defined)):
            yield images


def _bisections(arrows: list[tuple[int, int]]) -> int:
    """Subsets of (source, target) arrows with distinct sources and targets."""
    count = 0
    for r in range(len(arrows) + 1):
        for subset in itertools.combinations(arrows, r):
            if len({s for s, _ in subset}) == r and len({t for _, t in subset}) == r:
                count += 1
    return count


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_ix_size_matches_brute_force(k):
    maps = list(_partial_injections(k))
    assert ref.ix_size(k) == len(maps)
    # the atoms of I_k are the maps defined at exactly one point
    assert ref.monoid_facts("ix", k)["arrows"] == sum(
        1 for f in maps if sum(y >= 0 for y in f) == 1)


def test_pinned_closed_forms():
    assert [ref.ix_size(k) for k in (3, 4, 5)] == [34, 209, 1546]
    assert ref.monoid_facts("ba", 6) == {"elements": 64, "idempotents": 64, "arrows": 6}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pair_groupoid_bisections_brute_force(p):
    arrows = [(s, t) for s in range(p) for t in range(p)]
    assert ref.groupoid_facts("pair", p)["bisections"] == _bisections(arrows)


@pytest.mark.parametrize("orders", [(2,), (2, 3), (1, 2, 2)])
def test_union_bisections_brute_force(orders):
    # every arrow of the i-th cyclic group is a loop at object i
    arrows = [(i, i) for i, n in enumerate(orders) for _ in range(n)]
    count = 0
    for r in range(len(arrows) + 1):
        for subset in itertools.combinations(range(len(arrows)), r):
            if len({arrows[a][0] for a in subset}) == r:
                count += 1
    assert ref.groupoid_facts("union", orders)["bisections"] == count


@pytest.mark.parametrize("k", [2, 3])
def test_benchmark_ix_table_is_accepted(k):
    import numpy as np

    from stonework import InverseMonoid

    table = workloads.symmetric_inverse_table(k, np.random.default_rng(k))
    monoid = InverseMonoid(table["mul"], table["inv"], table["zero"], table["one"])
    assert monoid.n == ref.ix_size(k)
    assert len(monoid.idempotents) == 2 ** k
    assert len(monoid.atoms) == k * k


# -- tracing leaves the program's answers alone ------------------------------------------


def _small_requests(tmp_path: Path) -> list[dict]:
    store = workloads.Store(tmp_path / "store", 7)
    requests = [workloads._dualize_request(store, family, params)
                for family, params in (("ix", 3), ("ba", 4), ("pair", 3), ("union", (2, 3)))]
    name, payload = store.monoid("ix", 3)
    requests.append(workloads._cli(
        "check ix3 --laws all", workloads._store_argv(store, "check", name, "--laws", "all"),
        ref.expect_laws_pass(ref.full_suite_instances(34, 9)), 34))
    rng = random.Random(3)
    bad = store.raw("bad", "groupoid", workloads.corrupt_groupoid(
        store.groupoid("pair", 2)[1], "missing-key", rng))
    requests.append(workloads._cli("bad", workloads._store_argv(store, "check", bad),
                                   ref.CORRUPT_ENTRY, None, valid=False))
    for kind in workloads.ITEMS_PER_REQUEST:
        requests.append({"case": kind, "task": kind, "n": 2,
                         "inputs": workloads._symbolic_items(kind, 2, rng),
                         "expect": {"symbolic": kind}, "size": None, "deadline": None,
                         "valid_input": True})
    for rid, request in enumerate(requests):
        request["rid"] = rid
    return requests


def _answers(outcome: dict):
    """What a request answered, without its timings.  The certificate's
    forward and backward maps are left out: ultrafilters that tie on their
    least member index are ordered by set iteration, so the arrow numbering
    (and with it the maps) can differ between two untraced calls as well."""
    if "values" in outcome:
        return outcome["values"]
    try:
        data = json.loads(outcome["stdout"])
    except json.JSONDecodeError:
        data = outcome["stdout"]
    if isinstance(data, dict):
        for key in ("elapsed_s", "forward", "backward"):
            data.get("certificate", {}).pop(key, None)
    return outcome["exit"], data, outcome["stderr"]


def _stonework_attributes() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "stonework" or name.startswith("stonework."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_tracing_changes_no_answer_and_restores_originals(tmp_path):
    requests = _small_requests(tmp_path)
    before = _stonework_attributes()
    plain = run.run_pass(requests)
    tracer = Tracer().install()
    try:
        traced = run.run_pass(requests, tracer)
    finally:
        tracer.uninstall()
    after = _stonework_attributes()
    assert set(before) == set(after)
    assert all(before[key] is after[key] for key in before)

    for request, a, b in zip(requests, plain, traced):
        assert _answers(a) == _answers(b), request["case"]
        assert ref.check(request["expect"], a) == ref.check(request["expect"], b)
        if request["valid_input"]:
            assert ref.check(request["expect"], a) is None, request["case"]

    layers = tracer.layer_metrics()
    # the counts the trace reports come from the returned objects
    certs = [json.loads(o["stdout"])["certificate"] for r, o in zip(requests, plain)
             if r["case"].startswith("dualize")]
    assert layers["duality.certificate_instances"] == sum(
        law["instances"] for c in certs for law in c["checked_laws"])
    # dualize --round-trip on a monoid builds its stone groupoid twice
    assert sum(s["name"] == "duality.stone_groupoid_s" and s["rid"] == 0
               for s in tracer.spans) == 2
    # laws.instances covers the suites of the laws module: all of
    # "check --laws all" but the boolean axioms and the basic-open laws
    laws_out = json.loads(plain[4]["stdout"])
    assert layers["laws.instances"] == sum(
        law["instances"] for law in laws_out["laws"]
        if law["name"] != "boolean-axioms" and law["name"] not in ref.basic_open_instances(1))
    assert layers["serialize.rejected"] == 1
    assert layers["cli.uncaught"] == 0
    assert all(s["end"] >= s["start"] and s["self"] >= -1e-9 for s in tracer.spans)


# -- the scale workload's deadline ----------------------------------------------------------


def test_deadline_miss_is_a_timeout_and_leaves_no_child(tmp_path):
    store = workloads.Store(tmp_path / "store", 5)
    name, _ = store.monoid("ba", 5)
    request = workloads._cli("slow", workloads._store_argv(store, "check", name, "--laws", "all"),
                             ref.expect_laws_pass({}), 32, deadline=0.05)
    request["rid"] = 0
    tracer = Tracer().install()
    try:
        tracer.begin_request(0)
        outcome = run.run_isolated(request, tracer)
    finally:
        tracer.uninstall()
    assert outcome["timeout"] is True
    assert 0.05 <= outcome["latency"] < 1.0
    assert ref.check(request["expect"], outcome) == "deadline missed"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the killed child's open spans came back, closed at the kill
    assert any(s["error"] == "timeout" and s["name"] == "cli.main_self_s"
               for s in tracer.spans)


def test_request_within_deadline_returns_its_answer(tmp_path):
    store = workloads.Store(tmp_path / "store", 5)
    name, _ = store.monoid("zero", 3)
    request = workloads._cli("quick", workloads._store_argv(store, "dualize", name),
                             ref.expect_dualize_monoid("zero", 3, False), 4, deadline=20.0)
    outcome = run.run_isolated(request, None)
    assert not outcome.get("timeout")
    assert ref.check(request["expect"], outcome) is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- the command line ----------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "laws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_traced_metrics():
    from tracer import LAYER_METRICS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)


def test_tail_latency_keeps_ten_requests_beyond():
    values = [float(i) for i in range(40)]
    tail, pct = run.tail_latency(values)
    assert sum(v > tail for v in values) == 10 and pct == 75.0
