"""Exact symbolic arithmetic over prefix codes on an n-letter alphabet.

Three layers share one string representation (words are strings of digit
characters ``'1'..'n'``):

* ``PolyElement`` — pairs ``(x, y)`` standing for the partial shift that
  reads a ``y``-prefix and writes an ``x``-prefix, with a multiplicative
  zero; multiplication is by prefix overlap.
* ``CnElement`` — finite orthogonal families of such pairs, the orthogonal
  completion: domains and ranges are antichains under the prefix order;
  the constructor merges every complete sibling family.  Units are exactly
  the pairs of maximal prefix codes (the finitary tree-pair group).
  Antichains are checked on sorted words (in lexicographic order a prefix
  of any later word is a prefix of its successor), and a product finds the
  pairs whose ranges are prefix-comparable by one bisect per pair, so both
  cost what the families and the product hold, not the number of pairs of
  pairs.
* ``CuntzArrow`` — arrows ``(x w, |x|-|y|, y w)`` of the shift groupoid
  over eventually periodic infinite words ``u v^w``, which are the
  finitely-representable points; both constructors normalize, so
  composition is exact on normal forms.

``finite_depth_oracle`` expands an element into literal truncated arrows,
giving an independent semantics against which products and joins are
cross-checked.

``parse_cn`` accepts a family by one match of a pattern compiled per alphabet
size and reads its pairs by splitting the matched text; a text that fails
the match is scanned chunk by chunk only to name its error.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product as iter_product

from .errors import BoundError, ParseError, StructureError

ALPHABET = "123456789"
ALPHABET_MIN, ALPHABET_MAX = 2, 6     # the alphabet sizes C_n is built for


def letters(n: int) -> str:
    return ALPHABET[:n]


def all_words(n: int, length: int):
    """Every word of exactly the given length, lexicographically."""
    for tup in iter_product(letters(n), repeat=length):
        yield "".join(tup)


# -- the polycyclic monoid ---------------------------------------------------------


@dataclass(frozen=True)
class PolyElement:
    """A pair ``x y^-1`` over the free monoid, or the zero element
    (both components None)."""

    x: str | None
    y: str | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise StructureError("zero must have both components empty")

    @classmethod
    def zero(cls) -> "PolyElement":
        return cls(None, None)

    @classmethod
    def one(cls) -> "PolyElement":
        return cls("", "")

    @property
    def is_zero(self) -> bool:
        return self.x is None

    @property
    def is_idempotent(self) -> bool:
        return self.is_zero or self.x == self.y

    def inverse(self) -> "PolyElement":
        if self.is_zero:
            return self
        return PolyElement(self.y, self.x)

    def __str__(self) -> str:
        return format_poly(self)


def _pair_product(x: str, y: str, u: str, v: str) -> tuple[str, str] | None:
    """The pair of the prefix-overlap product (x y^-1)(u v^-1): it joins
    when u extends y or y extends u, and is None otherwise."""
    if u.startswith(y):
        return x + u[len(y):], v
    if y.startswith(u):
        return x, v + y[len(u):]
    return None


def poly_mul(a: PolyElement, b: PolyElement) -> PolyElement:
    """The prefix-overlap product, zero when the pairs do not join."""
    pair = None if a.is_zero or b.is_zero else _pair_product(a.x, a.y, b.x, b.y)
    return PolyElement.zero() if pair is None else PolyElement(*pair)


# -- the orthogonal completion ---------------------------------------------------------


def _prefix_incomparable(a: str, b: str) -> bool:
    return not (a.startswith(b) or b.startswith(a))


def _prefix_free(words) -> bool:
    """A sorted word list is an antichain under the prefix order exactly
    when no word is a prefix of its successor: in lexicographic order, a
    word that is a prefix of any later word is a prefix of the next one."""
    for i in range(1, len(words)):
        if words[i].startswith(words[i - 1]):
            return False
    return True


def _canonical_pairs(n: int, pairs) -> tuple[tuple[str, str], ...]:
    """Merge complete sibling families until none remain, then sort.

    Each round groups the pairs (sx c, sy c) by their stem (sx, sy) and
    replaces, all at once, every stem whose letters are exactly the alphabet
    by the stem: a letter outside the alphabet keeps its stem from merging,
    and a stem that is a member of another family merged in the same round
    stays.  A family has n members, so the rounds stop once fewer than n
    pairs remain."""
    current, alphabet = set(pairs), set(letters(n))
    while len(current) >= n:
        stems: dict[tuple[str, str], set] = {}
        for x, y in current:
            if x and y and x[-1] == y[-1]:
                stems.setdefault((x[:-1], y[:-1]), set()).add(x[-1])
        merged = [stem for stem, found in stems.items() if found == alphabet]
        if not merged:
            break
        for stem_x, stem_y in merged:
            current.difference_update((stem_x + c, stem_y + c) for c in alphabet)
        current.update(merged)
    return tuple(sorted(current))


@dataclass(frozen=True)
class CnElement:
    """A finite orthogonal join of shift pairs, in canonical form.

    The constructor (and ``make``, the same call) takes any iterable of pairs
    of words and canonicalizes it: complete sibling families merged, pairs
    sorted.  It refuses an alphabet size C_n is not built for (or that
    ``operator.index`` refuses), a member that is not a pair of words, a
    letter outside the alphabet and a family that is not orthogonal (two
    sorted antichains, of ranges and of domains), naming the member or the
    first offending pair of the canonical family; only a refused family
    is scanned pair by pair for that pair.
    """

    n: int
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        n, pairs = self.n, self.pairs
        if not (hasattr(n, "__index__") and ALPHABET_MIN <= operator.index(n) <= ALPHABET_MAX):
            raise BoundError(f"alphabet size must lie in [{ALPHABET_MIN}, {ALPHABET_MAX}]")
        if type(pairs) is not tuple:
            pairs = tuple(pairs)
        for pair in pairs:
            if not (type(pair) is tuple and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str):
                raise StructureError(f"family member {pair!r} is not a pair of words")
        if len(pairs) > 1:
            pairs = _canonical_pairs(n, pairs)
        if pairs != self.pairs:
            object.__setattr__(self, "pairs", pairs)
        top = ALPHABET[n - 1]
        word = "".join(map("".join, pairs))
        if word and (min(word) < "1" or max(word) > top):
            for x, y in pairs:
                word = x + y
                if word and (min(word) < "1" or max(word) > top):
                    raise StructureError(f"letter out of alphabet in ({x!r}, {y!r})")
        if len(pairs) < 2 or (_prefix_free([x for x, _ in pairs])
                              and _prefix_free(sorted([y for _, y in pairs]))):
            return
        for i, (x, y) in enumerate(pairs):
            for u, v in pairs[i + 1:]:
                if not (_prefix_incomparable(x, u) and _prefix_incomparable(y, v)):
                    raise StructureError(
                        f"pairs ({x!r},{y!r}) and ({u!r},{v!r}) are not orthogonal")

    @classmethod
    def make(cls, n: int, pairs) -> "CnElement":
        return cls(n, pairs)

    @classmethod
    def zero(cls, n: int) -> "CnElement":
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> "CnElement":
        return cls(n, (("", ""),))

    def max_length(self) -> int:
        return max((max(len(x), len(y)) for x, y in self.pairs), default=0)

    def inverse(self) -> "CnElement":
        return CnElement(self.n, [(y, x) for x, y in self.pairs])

    def __str__(self) -> str:
        return format_cn(self)


def embed_poly(n: int, a: PolyElement) -> CnElement:
    """The injective homomorphism sending x y^-1 to the singleton family."""
    if a.is_zero:
        return CnElement.zero(n)
    return CnElement(n, [(a.x, a.y)])


def cn_mul(a: CnElement, b: CnElement) -> CnElement:
    """The prefix products of the pairs (x, y) of a with those pairs (u, v)
    of b whose range u is prefix-comparable with y, canonicalized.  The
    ranges of b are a sorted antichain, so one bisect finds them: a prefix
    u of y sorts last among the ranges up to y (a range between them would
    extend u), and only when there is none can some u extend y, those
    forming the run of ranges that follows."""
    if a.n != b.n:
        raise StructureError("alphabet mismatch")
    right = b.pairs
    ranges = [u for u, _ in right]
    size = len(ranges)
    out = []
    for x, y in a.pairs:
        at = bisect_right(ranges, y)
        if at and y.startswith(ranges[at - 1]):
            u, v = right[at - 1]
            out.append((x, v + y[len(u):]))
            continue
        while at < size and ranges[at].startswith(y):
            u, v = right[at]
            out.append((x + u[len(y):], v))
            at += 1
    return CnElement(a.n, out)


def cn_join(a: CnElement, b: CnElement):
    """Least upper bound when the two families fit together as one partial
    shift; None when they are incompatible.

    Cross pairs with comparable domains must refine consistently (the finer
    one is dropped); comparable ranges over incomparable domains can never
    agree.
    """
    if a.n != b.n:
        raise StructureError("alphabet mismatch")
    keep = set(a.pairs) | set(b.pairs)
    for p in a.pairs:
        x, y = p
        for q in b.pairs:
            if p == q:
                continue
            u, v = q
            if v.startswith(y):
                if u != x + v[len(y):]:
                    return None
                keep.discard(q)
            elif y.startswith(v):
                if x != u + y[len(v):]:
                    return None
                keep.discard(p)
            elif not (_prefix_incomparable(x, u) and _prefix_incomparable(y, v)):
                return None
    return CnElement(a.n, keep)


def is_maximal_prefix_code(n: int, code) -> bool:
    """A non-empty antichain under the prefix order that is complete: with
    L the longest length, the integer Kraft sum of n^(L - |w|) is n^L."""
    code = sorted(code)
    if not code or not _prefix_free(code):
        return False
    longest = max(map(len, code))
    return sum(n ** (longest - len(w)) for w in code) == n ** longest


def is_unit(a: CnElement) -> bool:
    """Membership in the group of units: both coordinate families are
    maximal prefix codes."""
    return (is_maximal_prefix_code(a.n, [x for x, _ in a.pairs])
            and is_maximal_prefix_code(a.n, [y for _, y in a.pairs]))


def is_unit_definitional(a: CnElement) -> bool:
    """The defining test: A A^-1 = A^-1 A = 1 under the completed product."""
    one = CnElement.one(a.n)
    inv = a.inverse()
    return cn_mul(a, inv) == one and cn_mul(inv, a) == one


# -- the finite-depth oracle ---------------------------------------------------------


def _expand_pairs(n: int, pairs, depth: int) -> frozenset:
    out = set()
    for x, y in pairs:
        for tail in all_words(n, depth - len(y)):
            out.add((x + tail, y + tail))
    return frozenset(out)


def finite_depth_oracle(a: CnElement, depth: int) -> frozenset:
    """All arrows of the family truncated to source words of exactly the
    given depth, as (target, source) string pairs.  The integer component
    is the length difference, so it is left implicit."""
    if depth < a.max_length():
        raise BoundError(f"depth {depth} is below the longest string in the family")
    return _expand_pairs(a.n, a.pairs, depth)


def oracle_agrees_on_product(a: CnElement, b: CnElement) -> bool:
    """Compose the two truncated-arrow sets by literal prefix matching and
    compare with the expansion of the computed product."""
    depth = a.max_length() + b.max_length() + 1
    composed = set()
    for t2, s2 in finite_depth_oracle(b, depth):
        for x, y in a.pairs:
            if t2.startswith(y):
                composed.add((x + t2[len(y):], s2))
                break
    return composed == set(finite_depth_oracle(cn_mul(a, b), depth))


def oracle_agrees_on_join(a: CnElement, b: CnElement) -> bool:
    """The union of truncated-arrow sets is single-valued and injective
    exactly when the join exists; when it does, expansions agree.

    All sources are truncated to one depth, so two arrows collide at a
    source when there are fewer distinct sources than arrows; targets keep
    their length shifts, so two collide at a range point when the sorted
    targets are not prefix-free.
    """
    depth = max(a.max_length(), b.max_length(), 0) + 1
    union = finite_depth_oracle(a, depth) | finite_depth_oracle(b, depth)
    joined = cn_join(a, b)
    if (len({s for _, s in union}) < len(union)
            or not _prefix_free(sorted(t for t, _ in union))):
        return joined is None
    return joined is not None and finite_depth_oracle(joined, depth) == union


# -- eventually periodic words ------------------------------------------------------


def _primitive_root(word: str) -> str:
    for d in range(1, len(word)):
        if len(word) % d == 0 and word == word[:d] * (len(word) // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class EvPeriodicWord:
    """The infinite word pre . period^infinity in normal form: the period is
    primitive and the preperiod cannot be shortened by rotating the period.
    The constructor brings its input to that form and refuses only an empty
    period.  Normal forms are equal exactly when the infinite words are."""

    pre: str
    period: str

    def __post_init__(self):
        pre, period = self.pre, self.period
        if not period:
            raise StructureError("period must be non-empty")
        root = _primitive_root(period)
        while pre and pre[-1] == root[-1]:
            root = root[-1] + root[:-1]
            pre = pre[:-1]
        if root is not period:
            object.__setattr__(self, "period", root)
        if pre is not self.pre:
            object.__setattr__(self, "pre", pre)

    def prefix(self, length: int) -> str:
        if length <= len(self.pre):
            return self.pre[:length]
        reps = (length - len(self.pre)) // len(self.period) + 1
        return (self.pre + self.period * reps)[:length]

    def shift(self, count: int) -> "EvPeriodicWord":
        """Drop the first ``count`` letters."""
        if count <= len(self.pre):
            return EvPeriodicWord(self.pre[count:], self.period)
        offset = (count - len(self.pre)) % len(self.period)
        return EvPeriodicWord("", self.period[offset:] + self.period[:offset])

    def prepend(self, word: str) -> "EvPeriodicWord":
        return EvPeriodicWord(word + self.pre, self.period)

    def __str__(self) -> str:
        return format_ev(self)


# -- the shift groupoid over eventually periodic words ----------------------------------


@dataclass(frozen=True)
class CuntzArrow:
    """An arrow (x w, |x|-|y|, y w): target prefix, stored length shift,
    source prefix and the shared eventually periodic tail.  The constructor
    refuses a stored shift other than |x|-|y| and absorbs every common
    trailing letter of x and y into the tail, so the representation is
    minimal and equality is structural; ``make`` computes the shift."""

    target_prefix: str
    shift: int
    source_prefix: str
    tail: EvPeriodicWord

    def __post_init__(self):
        x, y = self.target_prefix, self.source_prefix
        if self.shift != len(x) - len(y):
            raise StructureError("stored shift disagrees with the prefix lengths")
        if x and y and x[-1] == y[-1]:
            tail = self.tail
            while x and y and x[-1] == y[-1]:
                tail = tail.prepend(x[-1])
                x, y = x[:-1], y[:-1]
            object.__setattr__(self, "target_prefix", x)
            object.__setattr__(self, "source_prefix", y)
            object.__setattr__(self, "tail", tail)

    @classmethod
    def make(cls, x: str, y: str, tail: EvPeriodicWord) -> "CuntzArrow":
        return cls(x, len(x) - len(y), y, tail)

    @classmethod
    def identity(cls, word: EvPeriodicWord) -> "CuntzArrow":
        return cls("", 0, "", word)

    def source_word(self) -> EvPeriodicWord:
        return self.tail.prepend(self.source_prefix)

    def target_word(self) -> EvPeriodicWord:
        return self.tail.prepend(self.target_prefix)

    def inverse(self) -> "CuntzArrow":
        return CuntzArrow.make(self.source_prefix, self.target_prefix, self.tail)

    def __str__(self) -> str:
        return (f"({format_word(self.target_prefix)}|{format_ev(self.tail)}, "
                f"{self.shift}, {format_word(self.source_prefix)}|{format_ev(self.tail)})")


def cuntz_compose(g: CuntzArrow, h: CuntzArrow):
    """Defined exactly when the source word of g is the target word of h;
    the integer components add.  Returns None when undefined.  The two
    prefixes are then prefixes of one word, so one extends the other."""
    if g.source_word() != h.target_word():
        return None
    tail = h.tail if h.target_prefix.startswith(g.source_prefix) else g.tail
    return CuntzArrow.make(*_pair_product(g.target_prefix, g.source_prefix,
                                          h.target_prefix, h.source_prefix), tail)


# -- points of the groupoid as maximal filters of the polycyclic monoid -------------------


def ultrafilter_to_arrow(rep: PolyElement, tail_word: EvPeriodicWord) -> CuntzArrow:
    """Identify the maximal filter with representative x y^-1 over the point
    determined by the infinite word z with the groupoid arrow (x w, k, y w)
    where z = y w.  Demands that y is actually a prefix of z."""
    if rep.is_zero:
        raise StructureError("zero does not represent a filter")
    y = rep.y
    if tail_word.prefix(len(y)) != y:
        raise StructureError("representative source is not a prefix of the point word")
    return CuntzArrow.make(rep.x, y, tail_word.shift(len(y)))


def arrow_to_ultrafilter(g: CuntzArrow) -> tuple[PolyElement, EvPeriodicWord]:
    """The canonical representative pair and the point word of an arrow;
    mutually inverse with :func:`ultrafilter_to_arrow` on canonical data."""
    return PolyElement(g.target_prefix, g.source_prefix), g.source_word()


# -- text syntax -----------------------------------------------------------------------


_WORD_RE = re.compile(r"^(?:e|(?:a[1-9])+)$")
_EV_RE = re.compile(r"^(?P<pre>(?:e|(?:a[1-9])+)?)\((?P<per>e|(?:a[1-9])+)\)\^w$")


def _family_pattern(n: int) -> re.Pattern:
    """A whole family over the first n letters, with whitespace around the
    text, inside the braces and around every word (``\\s`` is ``str.isspace``)."""
    word = rf"(?:e|(?:a[1-{letters(n)[-1]}])+)"
    pair = rf"{word}\s*/\s*{word}"
    return re.compile(rf"\s*\{{\s*(?P<body>(?:{pair}(?:\s*,\s*{pair})*\s*)?)\}}\s*")


_FAMILIES = {n: _family_pattern(n) for n in range(ALPHABET_MIN, ALPHABET_MAX + 1)}


def format_word(w: str) -> str:
    return "e" if not w else "".join("a" + c for c in w)


def parse_word(text: str, n: int | None = None) -> str:
    text = text.strip()
    if not _WORD_RE.match(text):
        raise ParseError(f"malformed word {text!r}")
    word = "" if text == "e" else text[1::2]
    if n is not None and word and max(word) > letters(n)[-1:]:
        raise ParseError(f"letter out of range in {text!r}")
    return word


def format_poly(p: PolyElement) -> str:
    if p.is_zero:
        return "0"
    return f"{format_word(p.x)}.{format_word(p.y)}*"


def parse_poly(text: str, n: int | None = None) -> PolyElement:
    text = text.strip()
    if text == "0":
        return PolyElement.zero()
    if not text.endswith("*") or "." not in text:
        raise ParseError(f"malformed pair {text!r}")
    left, right = text[:-1].split(".", 1)
    return PolyElement(parse_word(left, n), parse_word(right, n))


def format_cn(a: CnElement) -> str:
    inner = ", ".join(f"{format_word(x)}/{format_word(y)}" for x, y in a.pairs)
    return "{" + inner + "}"


def parse_cn(text: str, n: int) -> CnElement:
    """A family ``{x/y, ...}`` over the first n letters, accepted by one match
    of its alphabet's pattern and read by splitting the matched text.  A text
    that fails the match, or comes with an alphabet size C_n is not built
    for, is scanned chunk by chunk only to raise the error that names it."""
    match = _FAMILIES[n].fullmatch(text) if n in _FAMILIES else None
    if match:
        bare = "".join(match["body"].split()).replace("a", "").replace("e", "")
        words = iter(bare.replace(",", "/").split("/"))     # an empty body gives no pair
        return CnElement(n, zip(words, words))
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"malformed family {text!r}")
    body = text[1:-1].strip()
    if not body:
        return CnElement.zero(n)
    pairs = []
    for chunk in body.split(","):
        if chunk.count("/") != 1:
            raise ParseError(f"malformed pair {chunk.strip()!r}")
        x, y = chunk.split("/")
        pairs.append((parse_word(x, n), parse_word(y, n)))
    return CnElement(n, pairs)


def format_ev(w: EvPeriodicWord) -> str:
    head = format_word(w.pre) if w.pre else ""
    return f"{head}({format_word(w.period)})^w"


def parse_ev(text: str, n: int | None = None) -> EvPeriodicWord:
    match = _EV_RE.match(text.strip())
    if not match:
        raise ParseError(f"malformed eventually periodic word {text!r}")
    pre = parse_word(match["pre"], n) if match["pre"] else ""
    period = parse_word(match["per"], n)
    if not period:
        raise ParseError("period must be non-empty")
    return EvPeriodicWord(pre, period)


# -- seeded samplers ---------------------------------------------------------------------


def random_word(rng, n: int, max_len: int) -> str:
    return "".join(rng.choice(letters(n)) for _ in range(rng.randint(0, max_len)))


def random_prefix_code(rng, n: int, splits: int) -> list[str]:
    """Leaves of a random n-ary tree grown by the given number of splits:
    always a maximal prefix code."""
    code = [""]
    for _ in range(splits):
        stem = code.pop(rng.randrange(len(code)))
        code.extend(stem + c for c in letters(n))
    return code


def random_cn_element(rng, n: int, max_splits: int) -> CnElement:
    """A random orthogonal family: paired subsets of two equal-size maximal
    prefix codes.  Complete subsets give units, proper ones do not."""
    splits = rng.randint(0, max_splits)
    targets = random_prefix_code(rng, n, splits)
    sources = random_prefix_code(rng, n, splits)
    rng.shuffle(sources)
    size = rng.randint(0, len(targets))
    return CnElement(n, list(zip(targets, sources))[:size])


def random_ev_word(rng, n: int, max_pre: int, max_period: int) -> EvPeriodicWord:
    period = "".join(rng.choice(letters(n)) for _ in range(rng.randint(1, max_period)))
    return EvPeriodicWord(random_word(rng, n, max_pre), period)


def random_arrow(rng, n: int, max_len: int, max_pre: int, max_period: int) -> CuntzArrow:
    return CuntzArrow.make(random_word(rng, n, max_len), random_word(rng, n, max_len),
                           random_ev_word(rng, n, max_pre, max_period))
