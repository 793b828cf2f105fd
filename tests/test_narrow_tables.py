"""Product tables, and groupoids' compose tables, are int16 from load to
law: every table is narrow and read-only, nothing is narrowed before it is
range-checked, and everything derived from a table is what an int64 copy of
it gives."""

import numpy as np
import pytest

from helpers import corpus_monoids, int64_reference, reference_bound_table
from stonework import (
    InverseMonoid,
    StructureError,
    boolean_algebra_monoid,
    brandt_monoid,
    chain_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    serialize,
    symmetric_inverse_monoid,
)
from stonework.cli import main
from stonework.corpus import GENERATORS, build
from stonework.filters import ultrafilter_groupoid
from stonework.groupoids import (all_bisections_monoid, disjoint_union, group_groupoid,
                                 identity_functor, pair_groupoid, trivial_groupoid)
from stonework.inverse_core import bound_table, product_monoid
from stonework.laws import boolean_monoid_suite, order_meet_laws
from stonework.serialize import (functor_to_json, groupoid_to_json, load_entry,
                                 monoid_from_json, monoid_to_json, save_entry)


def assert_narrow(monoid):
    assert monoid.mul.dtype == np.int16 and not monoid.mul.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: symmetric_inverse_monoid(1), lambda: symmetric_inverse_monoid(4),
    lambda: boolean_algebra_monoid(0), lambda: boolean_algebra_monoid(5),
    lambda: group_with_zero_monoid(3), lambda: chain_monoid(4), clifford_monoid,
    brandt_monoid, lambda: product_monoid(chain_monoid(3), group_with_zero_monoid(2)),
    lambda: symmetric_inverse_monoid(2).restrict([0, 1, 2, 3, 4, 5, 6]),
    lambda: all_bisections_monoid(pair_groupoid(3)).monoid,
    lambda: all_bisections_monoid(trivial_groupoid(4)).monoid,
    lambda: monoid_from_json(monoid_to_json(symmetric_inverse_monoid(2))),
    lambda: InverseMonoid([[0, 0], [0, 1]], [0, 1], 0, 1),
], ids=["ix1", "ix4", "ba0", "ba5", "z3-zero", "chain4", "clifford", "brandt",
        "product", "restrict", "pair3-dual", "trivial4-dual", "from-json", "from-list"])
def test_every_constructor_holds_a_read_only_int16_table(make):
    assert_narrow(make())


def test_every_built_and_loaded_monoid_holds_a_read_only_int16_table(tmp_path):
    """Each corpus generator's monoid, and each loaded back: ix3's table by
    the array codec, the short ones by json."""
    for generator in GENERATORS:
        name, kind, obj, _ = build(generator)
        if kind == "monoid":
            assert_narrow(obj)
            save_entry(tmp_path, name, kind, monoid_to_json(obj))
            assert_narrow(load_entry(name, tmp_path)[2])
    text = save_entry(tmp_path, "ix3", "monoid", monoid_to_json(symmetric_inverse_monoid(3))
                      ).read_bytes()
    assert_narrow(load_entry("ix3", tmp_path)[2])
    table, _ = serialize._read_table(text, text.index(b'"mul": ') + len(b'"mul": '))
    assert table.dtype == np.int16          # parsed narrow, not narrowed after


def test_every_built_and_loaded_groupoid_holds_a_read_only_int16_table(tmp_path):
    """A groupoid's compose is narrow like a monoid's table: each stock
    groupoid generator's, a disjoint union, Stone groupoids, each loaded
    back, and the two groupoids of a loaded functor."""
    made = {name: obj for name, kind, obj, _ in map(build, GENERATORS) if kind == "groupoid"}
    made["pair2+z3"] = disjoint_union(pair_groupoid(2), group_groupoid(3))
    made |= {f"{name}-stone": ultrafilter_groupoid(make()) for name, make in (
        ("ix3", lambda: symmetric_inverse_monoid(3)), ("ba3", lambda: boolean_algebra_monoid(3)),
        ("clifford", clifford_monoid))}
    assert len(made) == 8
    for name, groupoid in made.items():
        save_entry(tmp_path, name, "groupoid", groupoid_to_json(groupoid))
        loaded = load_entry(name, tmp_path)[2]
        for narrow in (groupoid, loaded):
            assert narrow.compose.dtype == np.int16 and not narrow.compose.flags.writeable
    save_entry(tmp_path, "id", "functor", functor_to_json(identity_functor(pair_groupoid(3))))
    functor = load_entry("id", tmp_path)[2]
    for narrow in (functor.source, functor.target):
        assert narrow.compose.dtype == np.int16 and not narrow.compose.flags.writeable


# -- nothing is narrowed before it is range-checked --------------------------------


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64, list])
@pytest.mark.parametrize("entry", [2 ** 16 + 3, 2 ** 15 + 3])
def test_an_entry_past_int16_is_out_of_range_not_wrapped(dtype, entry):
    """ba2's s * s = s at s = 3: narrowed first, 2^16 + 3 would read as
    that 3 and pass, and 2^15 + 3 as a negative entry."""
    ba2 = boolean_algebra_monoid(2)
    table = ba2.mul.astype(np.int64)
    table[3, 3] = entry
    table = table.tolist() if dtype is list else table.astype(dtype)
    with pytest.raises(StructureError, match=f"^product table {entry} is outside 0..3$"):
        InverseMonoid(table, ba2.inv, ba2.zero, ba2.one)


@pytest.mark.parametrize("cell", ["65539", "32768"])
def test_a_stored_entry_past_int16_exits_2_out_of_range(tmp_path, capsys, monkeypatch, cell):
    """In a table of 2 KiB or more the array codec parses the cell as int16
    (65539 as 3, the right product there, and 32768 as -32768), finds that
    it does not render back, and leaves the table to json."""
    data = monoid_to_json(symmetric_inverse_monoid(3))
    one = data["one"]
    assert data["mul"][one][3] == 3
    data["mul"][one][3] = int(cell)
    path = save_entry(tmp_path, "wide", "monoid", data)
    assert path.stat().st_size >= 2048 and f"[0, 1, 2, {cell}, 4, " in path.read_text()
    read, real_read = [], serialize._read_table

    def recording_read(*args):
        read.append(real_read(*args))
        return read[-1]

    monkeypatch.setattr(serialize, "_read_table", recording_read)
    assert main(["check", "wide", "--laws", "bm", "--store", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: product table {cell} is outside 0..33\n"
    assert read == [None]


# -- everything derived from a table is what its int64 copy gives -----------------


MONOIDS = {"brandt": brandt_monoid, "chain3": lambda: chain_monoid(3),
           "ix4": lambda: symmetric_inverse_monoid(4), "ix5": lambda: symmetric_inverse_monoid(5),
           "ba10": lambda: boolean_algebra_monoid(10)}


@pytest.mark.parametrize("name", [*corpus_monoids(), *MONOIDS])
def test_derived_tables_are_those_of_an_int64_table(name):
    """The order, its meet and join tables (the int16 rank keys against
    int64 keys), compatibility, orthogonality, the boolean certificate and
    the complements."""
    monoid = MONOIDS[name]() if name in MONOIDS else corpus_monoids()[name]
    wide = int64_reference(monoid)
    assert_narrow(monoid)
    assert wide.mul.dtype == np.int64 and np.array_equal(wide.mul, monoid.mul)
    narrow, reference = monoid.order(), wide.order()
    assert narrow == reference          # the idempotents and atoms
    for table in ("matrix", "up_sizes", "meet", "join"):
        assert np.array_equal(getattr(narrow, table), getattr(reference, table)), table
    assert narrow.meet.dtype == narrow.join.dtype == np.int16
    assert np.array_equal(monoid.compatibility(), wide.compatibility())
    assert np.array_equal(monoid.orthogonality(), wide.orthogonality())
    assert monoid.check_boolean().to_json() == wide.check_boolean().to_json()
    assert np.array_equal(monoid._complements, wide._complements)     # or both None


def _laws(report):
    return [(law.name, law.instances, law.failures) for law in report.results]


@pytest.mark.parametrize("name", ["ix3", "ba4", "clifford", "z3_zero", "ix4"])
def test_law_reports_are_those_of_an_int64_table(name):
    """The whole suite, as ``check --laws all`` runs it: a code or sum over
    entries left in int16 wraps on ix4 (208 * 209 > 2^15) and fails a law."""
    monoid = MONOIDS[name]() if name in MONOIDS else corpus_monoids()[name]
    assert _laws(boolean_monoid_suite(monoid)) == _laws(boolean_monoid_suite(
        int64_reference(monoid)))


@pytest.mark.parametrize("make", [brandt_monoid, lambda: chain_monoid(5)],
                         ids=["brandt", "chain5"])
def test_order_meet_laws_on_non_boolean_monoids_are_those_of_an_int64_table(make):
    monoid = make()
    report = order_meet_laws(monoid)
    assert _laws(report) == _laws(order_meet_laws(int64_reference(monoid)))


def _random_order(n, seed, density):
    """A partial order on 0..n-1 with 0 at the bottom: the reflexive and
    transitive closure of random pairs i < j."""
    rng = np.random.default_rng(seed)
    leq = np.triu(rng.random((n, n)) < density) | np.eye(n, dtype=bool)
    leq[0] = True
    for k in range(n):
        leq |= leq[:, [k]] & leq[k]
    return leq


@pytest.mark.parametrize("n, seed, density", [(6, 1, 0.3), (40, 2, 0.05), (40, 3, 0.2),
                                               (120, 4, 0.02), (150, 5, 0.1)])
def test_rank_keys_find_the_bounds_of_int64_keys(n, seed, density):
    """Random orders, some past one gather (n^3 > 2^20), with and without
    every bound; a random relabelling moves the ties of down-set size."""
    leq = _random_order(n, seed, density)
    perm = np.random.default_rng(seed).permutation(n)
    for order in (leq, leq.T, leq[np.ix_(perm, perm)]):
        table = bound_table(order)
        assert table.dtype == np.int16
        assert np.array_equal(table, reference_bound_table(order))
    assert (bound_table(leq) < 0).any() or n == 6
