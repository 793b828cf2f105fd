"""Seeded set-up and request lists of the four workloads.

``setup(workload, seed, store)`` builds every input from the seed, writes
the entry store and returns the fixed request list of one pass.  A request
is a JSON-able dict:

* ``case``: the rung it belongs to, e.g. ``dualize ix4 --round-trip``;
* ``argv`` (a CLI request) or ``task`` plus ``inputs`` (a symbolic one);
* ``expect``: the hand-written verdict from :mod:`reference`;
* ``size``: the rung's size (elements, arrows, or symbolic items);
* ``deadline``: seconds, for the requests that run in a forked child.

Monoid and groupoid entries are relabelled by a seeded permutation of their
element (arrow) indices, so each seed hands the program different tables of
the same objects and the closed-form verdicts stay valid.  The negative
controls keep the labelling their pinned witnesses refer to.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("dualize", "laws", "symbolic", "scale")
# Seconds one pass took at seed on a 2-core x86-64 machine; fixes how many
# passes a run of a given --seconds makes.
NOMINAL_PASS_S = {"dualize": 25.0, "laws": 7.0, "symbolic": 2.0, "scale": 31.0}
SCALE_DEADLINE_S = 2.5
# A corrupted entry should be rejected while loading, which takes about
# 0.85 s for ix5; a shorter deadline keeps a corruption that slips through
# from adding the full SCALE_DEADLINE_S to the pass.
CORRUPT_DEADLINE_S = 1.6


# -- entries ------------------------------------------------------------------------


def _permute_monoid(payload: dict, rng) -> dict:
    n = payload["n"]
    p = rng.permutation(n)
    mul = np.asarray(payload["mul"], dtype=np.int64)
    new = np.empty_like(mul)
    new[np.ix_(p, p)] = p[mul]
    inv = np.empty(n, dtype=np.int64)
    inv[p] = p[np.asarray(payload["inv"])]
    labels = None
    if payload.get("labels"):
        labels = [None] * n
        for old, lab in enumerate(payload["labels"]):
            labels[p[old]] = lab
    return {"n": n, "zero": int(p[payload["zero"]]), "one": int(p[payload["one"]]),
            "inv": inv.tolist(), "mul": new.tolist(), "labels": labels}


def _permute_groupoid(payload: dict, rng) -> dict:
    m = payload["m"]
    q = rng.permutation(m).tolist()

    def moved(values):
        out = [0] * m
        for g, v in enumerate(values):
            out[q[g]] = q[v]
        return out
    labels = None
    if payload.get("labels"):
        labels = [None] * m
        for g, lab in enumerate(payload["labels"]):
            labels[q[g]] = lab
    return {"m": m, "identities": sorted(q[e] for e in payload["identities"]),
            "d": moved(payload["d"]), "r": moved(payload["r"]), "inv": moved(payload["inv"]),
            "compose": sorted([q[g], q[h], q[k]] for g, h, k in payload["compose"]),
            "labels": labels}


def _write(store: Path, name: str, kind: str, payload: dict) -> str:
    (store / f"{name}.json").write_text(
        json.dumps({"name": name, "kind": kind, "payload": payload}))
    return name


def _monoids():
    from stonework import inverse_core as ic

    return {
        "ix": ic.symmetric_inverse_monoid,
        "ba": ic.boolean_algebra_monoid,
        "zero": ic.group_with_zero_monoid,
        "clifford": lambda _: ic.clifford_monoid(),
    }


def _groupoid(family: str, params):
    from stonework import groupoids as gr

    if family == "pair":
        return gr.pair_groupoid(params)
    g = gr.group_groupoid(params[0])
    for order in params[1:]:
        g = gr.disjoint_union(g, gr.group_groupoid(order))
    return g


def _cli(case, argv, expect, size, deadline=None, valid=True):
    return {"case": case, "argv": argv, "expect": expect, "size": size,
            "deadline": deadline, "valid_input": valid}


class Store:
    """Writes seeded, relabelled entries and names them uniquely."""

    def __init__(self, path: Path, seed: int):
        self.path = path
        self.rng = np.random.default_rng(seed)
        self.count = 0
        path.mkdir(parents=True, exist_ok=True)

    def name(self, stem: str) -> str:
        self.count += 1
        return f"{stem}-{self.count}"

    def monoid(self, family: str, k: int) -> tuple[str, dict]:
        from stonework.serialize import monoid_to_json

        payload = _permute_monoid(monoid_to_json(_monoids()[family](k)), self.rng)
        return _write(self.path, self.name(f"{family}{k}"), "monoid", payload), payload

    def groupoid(self, family: str, params) -> tuple[str, dict]:
        from stonework.serialize import groupoid_to_json

        payload = _permute_groupoid(groupoid_to_json(_groupoid(family, params)), self.rng)
        stem = family + ("".join(map(str, params)) if family == "union" else str(params))
        return _write(self.path, self.name(stem), "groupoid", payload), payload

    def raw(self, stem: str, kind: str, payload: dict) -> str:
        return _write(self.path, self.name(stem), kind, payload)


def _store_argv(store: Store, *argv) -> list[str]:
    return [*argv, "--store", str(store.path)]


# -- dualize ---------------------------------------------------------------------------

# (family, params, requests per pass).  Small rungs repeat three times and
# the large ones appear once.  The medium rungs repeat more, so that the
# median request falls in the middle of pair3's nine and the tail rank among
# ix3's and ba4's twelve: at a boundary between two rungs, p50_s and tail_s
# would jump from seed to seed with which rung the rank lands on.
DUALIZE_RUNGS = [("ix", 2, 3), ("ba", 3, 3), ("clifford", 0, 3), ("zero", 2, 3),
                 ("zero", 3, 3), ("pair", 2, 3), ("union", (2, 3), 3),
                 ("pair", 3, 9), ("ix", 3, 6), ("ba", 4, 6), ("ba", 5, 5),
                 ("ix", 4, 1), ("ba", 6, 1), ("pair", 4, 1), ("union", (4, 5, 7), 1)]


def _rung_name(family, params) -> str:
    if family == "union":
        return "+".join(f"z{n}" for n in params)
    if family == "zero":
        return f"z{params}-zero"
    if family == "clifford":
        return "clifford"
    return f"{family}{params}"


def _dualize_request(store: Store, family, params) -> dict:
    case = f"dualize {_rung_name(family, params)} --round-trip"
    if family in ("pair", "union"):
        name, payload = store.groupoid(family, params)
        expect, size = ref.expect_dualize_groupoid(family, params), payload["m"]
    else:
        name, payload = store.monoid(family, params)
        expect, size = ref.expect_dualize_monoid(family, params, True), payload["n"]
    return _cli(case, _store_argv(store, "dualize", name, "--round-trip"), expect, size)


def setup_dualize(store: Store, rng: random.Random) -> list[dict]:
    requests = [_dualize_request(store, family, params)
                for family, params, repeats in DUALIZE_RUNGS for _ in range(repeats)]
    rng.shuffle(requests)
    return requests


# -- laws --------------------------------------------------------------------------------

LAWS_ALL = [("ix", 3), ("ba", 4), ("ba", 5), ("clifford", 0), ("zero", 3)]
MONOID_KEYS = ("n", "zero", "one", "inv", "mul")
GROUPOID_KEYS = ("m", "identities", "d", "r", "inv", "compose")
MONOID_CORRUPTIONS = ("mul-range", "inv-range", "float-cell", "missing-key")
GROUPOID_CORRUPTIONS = ("d-range", "r-range", "inv-range", "compose-range", "float-cell",
                        "missing-key")


def _out_of_range(rng: random.Random, size: int) -> int:
    return size + rng.randrange(4) if rng.random() < 0.5 else -1 - rng.randrange(4)


def corrupt_monoid(payload: dict, how: str, rng: random.Random) -> dict:
    """One field of a stored monoid changed; every result is malformed."""
    data = json.loads(json.dumps(payload))
    n = data["n"]
    i, j = rng.randrange(n), rng.randrange(n)
    if how == "mul-range":
        data["mul"][i][j] = _out_of_range(rng, n)
    elif how == "inv-range":
        data["inv"][i] = _out_of_range(rng, n)
    elif how == "float-cell":
        data["mul"][i][j] += rng.choice((0.25, 0.5, 0.75))
    else:
        del data[rng.choice(MONOID_KEYS)]
    return data


def corrupt_groupoid(payload: dict, how: str, rng: random.Random) -> dict:
    data = json.loads(json.dumps(payload))
    m = data["m"]
    g = rng.randrange(m)
    if how in ("d-range", "r-range", "inv-range"):
        data[how.split("-")[0]][g] = _out_of_range(rng, m)
    elif how == "compose-range":
        data["compose"][rng.randrange(len(data["compose"]))][rng.randrange(3)] = \
            _out_of_range(rng, m)
    elif how == "float-cell":
        field = rng.choice(("d", "r", "inv"))
        data[field][g] += rng.choice((0.25, 0.5, 0.75))
    else:
        del data[rng.choice(GROUPOID_KEYS)]
    return data


def setup_laws(store: Store, rng: random.Random) -> list[dict]:
    from stonework import inverse_core as ic
    from stonework.duality import MonoidMorphism
    from stonework.groupoids import CoveringFunctor, pair_groupoid, trivial_groupoid
    from stonework.serialize import functor_to_json, monoid_to_json, morphism_to_json

    requests = []
    for family, k in LAWS_ALL:
        name, payload = store.monoid(family, k)
        facts = ref.monoid_facts(family, k)
        requests.append(_cli(
            f"check {_rung_name(family, k)} --laws all",
            _store_argv(store, "check", name, "--laws", "all"),
            ref.expect_laws_pass(ref.full_suite_instances(facts["elements"], facts["arrows"])),
            payload["n"]))
    name, payload = store.monoid("ix", 4)
    requests.append(_cli("check ix4 --laws basic-open",
                         _store_argv(store, "check", name, "--laws", "basic-open"),
                         ref.expect_laws_pass(ref.basic_open_instances(payload["n"])),
                         payload["n"]))

    # negative controls, in the labelling of the pinned witnesses
    chain = store.raw("chain3", "monoid", monoid_to_json(ic.chain_monoid(3)))
    brandt = store.raw("brandt", "monoid", monoid_to_json(ic.brandt_monoid()))
    requests.append(_cli("check chain3 --laws bm",
                         _store_argv(store, "check", chain, "--laws", "bm"), ref.CHAIN3_BM, 3))
    requests.append(_cli("check brandt --laws bm",
                         _store_argv(store, "check", brandt, "--laws", "bm"), ref.BRANDT_BM, 5))

    for p in (3, 4):
        name, _ = store.groupoid("pair", p)
        requests.append(_cli(f"check pair{p} --laws point-filters",
                             _store_argv(store, "check", name, "--laws", "point-filters"),
                             ref.expect_laws_pass(ref.point_filter_instances(p * p)), p * p))

    pair3 = pair_groupoid(3)
    identity = CoveringFunctor(pair3, pair3, tuple(range(pair3.m)))
    collapse = CoveringFunctor(pair_groupoid(2), trivial_groupoid(1), (0, 0, 0, 0))
    for stem, functor, expect in (("identity-pair3", identity, ref.COVERING_OK),
                                  ("collapse", collapse, ref.COLLAPSE_COVERING)):
        name = store.raw(stem, "functor", functor_to_json(functor))
        requests.append(_cli(f"check {stem} --laws covering",
                             _store_argv(store, "check", name, "--laws", "covering"),
                             expect, functor.source.m))

    clifford, z2z = ic.clifford_monoid(), ic.group_with_zero_monoid(2)
    projection = MonoidMorphism(clifford, z2z, tuple(s // z2z.n for s in range(clifford.n)))
    ba2, ix2 = ic.boolean_algebra_monoid(2), ic.symmetric_inverse_monoid(2)
    by_label = {lab: i for i, lab in enumerate(ix2.labels)}
    weak = MonoidMorphism(ba2, ix2, tuple(by_label[lab] for lab in
                                          ("{}", "{1->1}", "{2->2}", "{1->1,2->2}")),
                          weak=True)
    for stem, theta, expect in (("projection", projection, ref.MORPHISM_OK),
                                ("weak-embedding", weak, ref.WEAK_MORPHISM_AXIOMS)):
        name = store.raw(stem, "morphism", morphism_to_json(theta))
        requests.append(_cli(f"check {stem} --laws axioms",
                             _store_argv(store, "check", name, "--laws", "axioms"),
                             expect, theta.source.n))

    # one corrupted entry per (kind, corruption); the seed picks the field
    _, ix3 = store.monoid("ix", 3)
    _, pair3_payload = store.groupoid("pair", 3)
    for kind, payload, corruptions, corrupt, law in (
            ("monoid", ix3, MONOID_CORRUPTIONS, corrupt_monoid, "bm"),
            ("groupoid", pair3_payload, GROUPOID_CORRUPTIONS, corrupt_groupoid,
             "point-filters")):
        for how in corruptions:
            name = store.raw(f"bad-{kind}-{how}", kind, corrupt(payload, how, rng))
            requests.append(_cli(f"check corrupted {kind} ({how})",
                                 _store_argv(store, "check", name, "--laws", law),
                                 ref.CORRUPT_ENTRY, None, valid=False))
    rng.shuffle(requests)
    return requests


# -- symbolic ----------------------------------------------------------------------------

SYMBOLIC_SPLITS = {2: 3, 3: 2, 4: 2}     # oracle inputs stay shallow
SYMBOLIC_PER_KIND = 4
ITEMS_PER_REQUEST = {"mul_chain": 5, "join": 20, "oracle": 10, "cuntz": 20,
                     "parse_format": 20}
PAIRWISE_UNITS, PAIRWISE_SPLITS = 200, 40


def _arrow_text(g) -> str:
    from stonework.polycyclic import format_ev, format_word

    return f"{format_word(g.target_prefix)}|{format_word(g.source_prefix)}|{format_ev(g.tail)}"


def _unit(rng: random.Random, n: int, splits: int):
    """A seeded unit whose two prefix codes grow by exactly ``splits``."""
    from stonework import polycyclic as P

    targets = P.random_prefix_code(rng, n, splits)
    sources = P.random_prefix_code(rng, n, splits)
    rng.shuffle(sources)
    return P.CnElement.make(n, zip(targets, sources))


def _stratified(rng: random.Random, count: int, top: int) -> list[int]:
    """``count`` split counts spread evenly over 0..top, in seeded order, so
    every seed draws the same multiset of sizes."""
    values = [i % (top + 1) for i in range(count)]
    rng.shuffle(values)
    return values


def _symbolic_items(kind: str, n: int, rng: random.Random) -> list:
    from stonework import polycyclic as P

    splits = SYMBOLIC_SPLITS[n]
    count = ITEMS_PER_REQUEST[kind]
    if kind == "mul_chain":
        return [{"units": [P.format_cn(_unit(rng, n, k)) for k in _stratified(rng, 5, 4)],
                 "element": P.format_cn(P.random_cn_element(rng, n, 4))}
                for _ in range(count)]
    if kind in ("join", "oracle"):
        return [[P.format_cn(P.random_cn_element(rng, n, splits)) for _ in range(2)]
                for _ in range(count)]
    if kind == "cuntz":
        return [_arrow_text(P.random_arrow(rng, n, 4, 4, 3)) for _ in range(count)]
    return [P.format_cn(P.random_cn_element(rng, n, 4)) for _ in range(count)]


def setup_symbolic(store: Store, rng: random.Random) -> list[dict]:
    from stonework import polycyclic as P

    requests = []
    for n in (2, 3, 4):
        for kind in ITEMS_PER_REQUEST:
            for _ in range(SYMBOLIC_PER_KIND):
                items = _symbolic_items(kind, n, rng)
                requests.append({"case": f"{kind} n={n}", "task": kind, "n": n,
                                 "inputs": items, "expect": {"symbolic": kind},
                                 "size": len(items), "deadline": None, "valid_input": True})
    # twice per pass, so a run holds more than ten and tail_s falls among them
    for _ in range(2):
        units = [P.format_cn(_unit(rng, 2, k))
                 for k in _stratified(rng, PAIRWISE_UNITS, PAIRWISE_SPLITS)]
        requests.append({"case": f"{PAIRWISE_UNITS - 1} x cn_mul n=2 <={PAIRWISE_SPLITS} splits",
                         "task": "pairwise_units", "n": 2, "inputs": units,
                         "expect": {"symbolic": "mul_chain"}, "size": PAIRWISE_UNITS - 1,
                         "deadline": None, "valid_input": True})
    rng.shuffle(requests)
    return requests


def run_symbolic(request: dict) -> dict:
    """Evaluate one symbolic request; returns the identity verdicts.  Every
    library call goes through the module attribute, so tracing sees it."""
    from stonework import polycyclic as P

    n, task, items = request["n"], request["task"], request["inputs"]
    one, zero = P.CnElement.one(n), P.CnElement.zero(n)
    values = {name: True for name in ref.SYMBOLIC[request["expect"]["symbolic"]]}

    def record(name, ok):
        values[name] = values[name] and bool(ok)

    if task == "mul_chain":
        for item in items:
            units = [P.parse_cn(text, n) for text in item["units"]]
            product = units[0]
            for u in units[1:]:
                product = P.cn_mul(product, u)
            record("units_closed", P.is_unit(product))
            record("unit_inverse_is_one", P.cn_mul(product, product.inverse()) == one)
            element = P.parse_cn(item["element"], n)
            for x in (product, element):
                record("unit_tests_agree", P.is_unit(x) == P.is_unit_definitional(x))
    elif task == "pairwise_units":
        units = [P.parse_cn(text, n) for text in items]
        products = [P.cn_mul(a, b) for a, b in zip(units, units[1:])]
        for product in products:
            record("units_closed", P.is_unit(product))
        record("unit_inverse_is_one", P.cn_mul(products[0], products[0].inverse()) == one)
        record("unit_tests_agree", P.is_unit(products[-1]) ==
               P.is_unit_definitional(products[-1]))
    elif task == "join":
        for a_text, b_text in items:
            a, b = P.parse_cn(a_text, n), P.parse_cn(b_text, n)
            record("commutative", P.cn_join(a, b) == P.cn_join(b, a))
            record("zero_is_unit", P.cn_join(a, zero) == a)
    elif task == "oracle":
        for a_text, b_text in items:
            a, b = P.parse_cn(a_text, n), P.parse_cn(b_text, n)
            record("product_agrees", P.oracle_agrees_on_product(a, b))
            record("join_agrees", P.oracle_agrees_on_join(a, b))
    elif task == "cuntz":
        for text in items:
            x, y, tail = text.split("|")
            g = P.CuntzArrow.make(P.parse_word(x, n), P.parse_word(y, n), P.parse_ev(tail, n))
            record("inverse_gives_identity", P.cuntz_compose(g, g.inverse()) ==
                   P.CuntzArrow.identity(g.target_word()))
            record("filter_round_trip", P.ultrafilter_to_arrow(*P.arrow_to_ultrafilter(g)) == g)
    elif task == "parse_format":
        for text in items:
            x = P.parse_cn(text, n)
            again = P.format_cn(x)
            record("canonical", again == text)
            record("round_trip", P.parse_cn(again, n) == x)
    else:
        raise ValueError(f"unknown symbolic task {task!r}")
    return values


# -- scale --------------------------------------------------------------------------------

SCALE_CORRUPTIONS = 4


def symmetric_inverse_table(k: int, rng) -> dict:
    """I_k written directly with numpy, in a seeded element order: the
    product s t applies s first, then t.  This is the benchmark's own
    construction; the program validates it when the entry is loaded."""
    import itertools

    maps = []
    for size in range(k + 1):
        for dom in itertools.combinations(range(k), size):
            for img in itertools.permutations(range(k), size):
                f = [-1] * k
                for x, y in zip(dom, img):
                    f[x] = y
                maps.append(f)
    maps = np.asarray(maps, dtype=np.int64)[rng.permutation(len(maps))]
    n = len(maps)
    base = (k + 1) ** np.arange(k)            # images -1..k-1 as base-(k+1) digits
    index = np.full((k + 1) ** k, -1, dtype=np.int64)
    index[((maps + 1) * base).sum(axis=1)] = np.arange(n)
    ext = np.concatenate([maps, np.full((n, 1), -1, dtype=np.int64)], axis=1)
    mul = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        composed = ext[:, maps[s]]            # row t: x -> t(s(x))
        mul[s] = index[((composed + 1) * base).sum(axis=1)]
    inverse = np.full((n, k), -1, dtype=np.int64)
    rows, cols = np.nonzero(maps >= 0)
    inverse[rows, maps[rows, cols]] = cols
    inv = index[((inverse + 1) * base).sum(axis=1)]
    empty = int(index[0])
    one = int(index[((np.arange(k) + 1) * base).sum()])
    return {"n": n, "zero": empty, "one": one, "inv": inv.tolist(), "mul": mul}


def _monoid_entry_text(name: str, payload: dict, rows: list[str]) -> str:
    head = json.dumps({key: payload[key] for key in ("n", "zero", "one", "inv")})
    return ('{"name": %s, "kind": "monoid", "payload": %s, "labels": null, "mul": [%s]}}'
            % (json.dumps(name), head[:-1], ",".join(rows)))


def setup_scale(store: Store, rng: random.Random) -> list[dict]:
    deadline = SCALE_DEADLINE_S
    boolean = ref.expect_laws_pass({"boolean-axioms": 1})
    requests = [_cli("build ix5", _store_argv(store, "build", "ix", "--size", "5",
                                              "--name", store.name("built-ix5")),
                     ref.expect_build_ix(5), ref.ix_size(5), deadline)]
    ix5 = symmetric_inverse_table(5, store.rng)
    rows = [json.dumps(row) for row in ix5["mul"].tolist()]
    name = store.name("ix5")
    (store.path / f"{name}.json").write_text(_monoid_entry_text(name, ix5, rows))
    requests.append(_cli("dualize ix5", _store_argv(store, "dualize", name),
                         ref.expect_dualize_monoid("ix", 5, False), ix5["n"], deadline))
    requests.append(_cli("check ix5 --laws bm", _store_argv(store, "check", name, "--laws", "bm"),
                         boolean, ix5["n"], deadline))
    for k in (7, 8):
        name, payload = store.monoid("ba", k)
        requests.append(_cli(f"dualize ba{k}", _store_argv(store, "dualize", name),
                             ref.expect_dualize_monoid("ba", k, False), payload["n"], deadline))
        law_set, expect = (("all", ref.full_suite_instances(payload["n"], k)) if k == 7
                           else ("bm", {"boolean-axioms": 1}))
        requests.append(_cli(f"check ba{k} --laws {law_set}",
                             _store_argv(store, "check", name, "--laws", law_set),
                             ref.expect_laws_pass(expect), payload["n"], deadline))
    name, payload = store.monoid("ix", 4)
    full = ref.full_suite_instances(payload["n"], 16)
    for law_set, names in (("all", full), ("order", ref.ORDER_LAWS),
                           ("filters", ref.FILTER_LAWS),
                           ("filter-semigroup", ref.FILTER_SEMIGROUP_LAWS)):
        expect = {law: full[law] for law in names}
        requests.append(_cli(f"check ix4 --laws {law_set}",
                             _store_argv(store, "check", name, "--laws", law_set),
                             ref.expect_laws_pass(expect), payload["n"], deadline))
    # single-cell corruptions away from the zero and one rows and columns
    n = ix5["n"]
    inner = [x for x in range(n) if x not in (ix5["zero"], ix5["one"])]
    for _ in range(SCALE_CORRUPTIONS):
        i, j = rng.choice(inner), rng.choice(inner)
        old = int(ix5["mul"][i, j])
        new = rng.choice([v for v in range(n) if v != old])
        patched = list(rows)
        row = ix5["mul"][i].tolist()
        row[j] = new
        patched[i] = json.dumps(row)
        bad = store.name("bad-ix5")
        (store.path / f"{bad}.json").write_text(_monoid_entry_text(bad, ix5, patched))
        requests.append(_cli("check corrupted ix5 cell --laws bm",
                             _store_argv(store, "check", bad, "--laws", "bm"),
                             ref.CORRUPT_ENTRY, n, CORRUPT_DEADLINE_S, valid=False))
    return requests


SETUPS = {"dualize": setup_dualize, "laws": setup_laws, "symbolic": setup_symbolic,
          "scale": setup_scale}


def setup(workload: str, seed: int, store_path: Path) -> list[dict]:
    store = Store(store_path, seed)
    requests = SETUPS[workload](store, random.Random(seed))
    for rid, request in enumerate(requests):
        request["rid"] = rid
    return requests
