"""Shared fixtures-by-hand for the duality and acceptance tests."""

import random

import numpy as np

from stonework import (
    boolean_algebra_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from stonework.duality import MonoidMorphism
from stonework.inverse_core import partial_bijections


def corpus_monoids():
    """The stock boolean monoids every exhaustive suite runs over."""
    return {
        "ix1": symmetric_inverse_monoid(1),
        "ix2": symmetric_inverse_monoid(2),
        "ix3": symmetric_inverse_monoid(3),
        "ba1": boolean_algebra_monoid(1),
        "ba2": boolean_algebra_monoid(2),
        "ba3": boolean_algebra_monoid(3),
        "ba4": boolean_algebra_monoid(4),
        "z2_zero": group_with_zero_monoid(2),
        "z3_zero": group_with_zero_monoid(3),
        "clifford": clifford_monoid(),
    }


def first_associativity_failure(mul, rows=None):
    """Reference n^3 scan: the first (x, y, z) with (x y) z != x (y z),
    scanning x over ``rows`` (default: every element), or None."""
    mul = np.asarray(mul)
    for x in range(len(mul)) if rows is None else rows:
        left = mul[mul[x]]              # (x y) z
        right = mul[x][mul]             # x (y z)
        if not np.array_equal(left, right):
            y, z = map(int, np.argwhere(left != right)[0])
            return x, y, z
    return None


def relabelled(payload, seed):
    """The same monoid with its indices permuted by a seeded shuffle."""
    n = payload["n"]
    perm = list(range(n))
    random.Random(seed).shuffle(perm)           # old index s becomes perm[s]
    mul = [[0] * n for _ in range(n)]
    inv, labels = [0] * n, [""] * n
    for s in range(n):
        for t in range(n):
            mul[perm[s]][perm[t]] = perm[payload["mul"][s][t]]
        inv[perm[s]] = perm[payload["inv"][s]]
        labels[perm[s]] = payload["labels"][s]
    return {"n": n, "zero": perm[payload["zero"]], "one": perm[payload["one"]],
            "inv": inv, "mul": mul, "labels": labels}


def symmetric_to_pair_arrow_map(x_size, ix, sg, pair):
    """The canonical arrow map from the ultrafilter groupoid of I(X) to the
    pair groupoid on X: the ultrafilter at the atom {j -> i} goes to the
    arrow (i, j).  Returns a list indexed by stone-groupoid arrows."""
    maps = partial_bijections(x_size)
    out = []
    for f in sg.ultrafilters:
        atom = f.generator
        ((src, dst),) = maps[atom]
        out.append(dst * x_size + src)
    del ix
    return out


def projection_first(clifford, z2z):
    """First projection of the Clifford product monoid onto Z/2-with-zero."""
    return MonoidMorphism(clifford, z2z, tuple(s // z2z.n for s in range(clifford.n)))


def diagonal_embedding(z2z, clifford):
    """a -> (a, a) into the Clifford product monoid."""
    return MonoidMorphism(z2z, clifford, tuple(a * z2z.n + a for a in range(z2z.n)))


def restriction_ba2_to_ba1(ba2, ba1):
    """Forget the second atom: a surjective map of boolean algebras."""
    return MonoidMorphism(ba2, ba1, tuple(s & 1 for s in range(ba2.n)))


def idempotent_embedding_ba2_into_ix2(ba2, ix2):
    """Subsets of {1,2} as partial identities inside I({1,2}).

    Respects the algebra and the meets but not the ultrafilter axiom, so it
    must be built weak."""
    by_label = {lab: i for i, lab in enumerate(ix2.labels)}
    images = [by_label["{}"], by_label["{1->1}"], by_label["{2->2}"],
              by_label["{1->1,2->2}"]]
    return MonoidMorphism(ba2, ix2, tuple(images), weak=True)
