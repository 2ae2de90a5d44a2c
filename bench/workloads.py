"""The benchmark workloads: seeded inputs, one operation, its outcome.

Each workload builds the items of one pass from ``--seed`` and the pass
number alone, so the same seed gives byte-identical inputs and passes of a
run do not share inputs, beyond chance repeats of tiny ones.  ``twins``
marks a workload whose passes all do the same work item by item, so that
each item can be timed at its fastest pass.  ``op(api, item)`` is the timed
operation; ``api`` is either the bare package functions or their traced
wrappers, so both runs call the same public functions.  ``outcome`` turns
an operation's return value into something comparable with the answer
``expect`` takes from ``reference``; both run outside the timed region.
"""

from __future__ import annotations

import json
import random

import reference

OPS = ("grad", "curl", "div")
# Innermost operator -> the only non-annihilating way to extend outward.
_NORMAL_CYCLE = {"grad": ("grad", "div"), "curl": ("curl",), "div": ("div", "grad")}


def normal_form(innermost: str, length: int) -> list[str]:
    """The nontrivial chain of one family, outermost first."""
    cycle = _NORMAL_CYCLE[innermost]
    return [cycle[k % len(cycle)] for k in range(length)][::-1]


def meaningful_word(rng: random.Random, length: int, input_sort: str | None = None) -> list[str]:
    """A random composable chain, grown from the innermost operator outward."""
    firsts = [o for o in OPS if input_sort in (None, reference.SORTS[o][0])]
    ops = [rng.choice(firsts)]
    while len(ops) < length:
        sort = reference.SORTS[ops[-1]][1]
        ops.append(rng.choice([o for o in OPS if reference.SORTS[o][0] == sort]))
    return ops[::-1]


def _composes(outer: str, inner: str) -> bool:
    return reference.SORTS[outer][0] == reference.SORTS[inner][1]


# Outer operator -> inner operators by how the pair behaves.
_COMPOSING = {o: tuple(i for i in OPS if _composes(o, i)) for o in OPS}
_BREAKING = {o: tuple(i for i in OPS if not _composes(o, i)) for o in OPS}
_ANNIHILATING = {o: tuple(i for i in OPS if (o, i) in reference.ANNIHILATING) for o in OPS}
_FORCED = {o: tuple(i for i in _COMPOSING[o] if i not in _ANNIHILATING[o]) for o in OPS}


def drawn_shape(rng: random.Random, length: int, composing_only: bool) -> tuple[str, int]:
    """The shape of a word drawn outermost first, each operator uniform or
    uniform among those that compose; drawn only as far as its shape needs.

    The shape is ("stop", j) if pair j is the first that does not compose,
    ("zero", j) if it is the first that annihilates, and ("normal", 0) for a
    normal form; pairs are counted from the outermost end.
    """
    op, zero = rng.choice(OPS), None
    for j in range(length - 1):
        inner = rng.choice(_COMPOSING[op] if composing_only else OPS)
        if inner not in _COMPOSING[op]:
            return ("stop", j)
        if zero is None and inner in _ANNIHILATING[op]:
            if composing_only:
                return ("zero", j)
            zero = j
        op = inner
    return ("normal", 0) if zero is None else ("zero", zero)


def twin_word(rng: random.Random, length: int, shape: str, at: int) -> list[str]:
    """Fresh operators, outermost first, with the given length and shape."""
    if shape == "normal":
        return normal_form(rng.choice(OPS), length)
    if shape == "stop":
        before, on, after = _COMPOSING, _BREAKING, dict.fromkeys(OPS, OPS)
        first = rng.choice(OPS)
    else:
        before, on, after = _FORCED, _ANNIHILATING, _COMPOSING
        # The prefix up to pair `at` is forced, and its last operator must be
        # able to annihilate: grad cannot.
        first = rng.choice([op for op in OPS if _forced_walk(op, at) != "grad"])
    ops = [first]
    for j in range(length - 1):
        table = before if j < at else on if j == at else after
        ops.append(rng.choice(table[ops[-1]]))
    return ops


def _forced_walk(op: str, steps: int) -> str:
    for _ in range(steps):
        (op,) = _FORCED[op]
    return op


def chain_text(ops: list[str]) -> str:
    return " ∘ ".join(ops)


# -- classify ------------------------------------------------------------------


class Classify:
    """parse(text) then classify(chain), with a census(1..12) sweep per block.

    The seed fixes each text's template: its length, its separator, and
    where its chain stops composing or first annihilates, read from the
    outermost end.  Each pass draws fresh operators and spellings within the
    templates, so every pass does nearly the same work on texts no other
    pass sees.
    """

    name = "classify"
    twins = True
    SPELLINGS = {
        "grad": ("grad", "Grad", "GRAD", "∇1", "∇₁", "nabla1", "Nabla₁"),
        "curl": ("curl", "Curl", "CURL", "∇2", "∇₂", "nabla2", "NABLA2"),
        "div": ("div", "Div", "DIV", "∇3", "∇₃", "nabla3", "Nabla3"),
    }
    SEPARATORS = (" ", "∘", " ∘ ", " o ", ".", " . ")
    BAD_TOKENS = ("gard", "lap", "∇4", "nabla0", "f", "curll", "dvi")
    BLANKS = ("", " ", "∘", " o ", " . ")
    CENSUS_LENGTHS = range(1, 13)
    MALFORMED_SHARE = 0.02

    def __init__(self, smoke: bool = False):
        self.texts = 400 if smoke else 5000
        self.block = 200 if smoke else 5000
        self.trace_passes = 1 if smoke else 2

    def build(self, nb, seed: int, part: int, hooks) -> list:
        """Chain texts, with None marking a census sweep after each block."""
        templates = random.Random(f"{seed}:classify")
        rng = random.Random(f"{seed}:classify:{part}")
        items = []
        for i in range(1, self.texts + 1):
            items.append(self._text(templates, rng))
            if i % self.block == 0:
                items.append(None)
        return items

    def _text(self, templates: random.Random, rng: random.Random) -> str:
        sep = templates.choice(self.SEPARATORS)
        length = templates.randint(1, 30)
        if templates.random() < self.MALFORMED_SHARE:
            return self._malformed(templates, rng, sep, length)
        kind = templates.randrange(3)
        if kind == 2:
            shape = ("normal", 0)
        else:
            # A random word, or a meaningful one.
            shape = drawn_shape(templates, length, composing_only=kind == 1)
        ops = twin_word(rng, length, *shape)
        return sep.join(rng.choice(self.SPELLINGS[op]) for op in ops)

    def _malformed(self, templates, rng, sep: str, length: int) -> str:
        kind = templates.randrange(3)
        if kind == 2:
            return rng.choice(self.BLANKS)
        at = templates.randrange(length + 1 - kind)  # a join needs a word after it
        bad = templates.choice(self.BAD_TOKENS)
        words = [rng.choice(self.SPELLINGS[rng.choice(OPS)]) for _ in range(length + 1)]
        if kind == 0:
            words[at] = bad
        else:
            words[at : at + 2] = [words[at] + "o" + words[at + 1]]
        return sep.join(words)

    def expect(self, items: list) -> list:
        census = tuple(reference.census(n) for n in self.CENSUS_LENGTHS)
        return [census if item is None else reference.classify_text(item) for item in items]

    def op(self, api, item):
        if item is None:
            return [api.census(n) for n in self.CENSUS_LENGTHS]
        return api.classify(api.parse(item))

    @staticmethod
    def outcome(raw) -> tuple:
        if isinstance(raw, list):
            return tuple((c.meaningless_count, c.trivial_count, c.nontrivial_count) for c in raw)
        kind = type(raw).__name__
        if kind == "TrivialZero":
            return ("trivial", raw.output_sort.value, raw.witness_index)
        if kind == "Nontrivial":
            return ("nontrivial", raw.family.value, raw.order)
        return ("meaningless",) if kind == "Meaningless" else ("unexpected", kind)


# -- apply ---------------------------------------------------------------------


class Apply:
    """The CLI apply path in-process: loads_field, parse, apply_chain, dumps_field.

    A run draws one list of requests from the seed.  Pass k applies the same
    chains to those fields scaled by the k-th prime above 10^4, so every
    pass does the same work on inputs no other pass sees, and the fastest
    pass is not merely the one with the cheapest draws.
    """

    name = "apply"
    twins = True
    # Size class -> accepted total term count of the drawn field.
    TERMS = {"small": (1, 30), "medium": (40, 150), "large": (270, 370)}
    # (sort, size class) -> powers of radius_squared() the corpus draw is
    # multiplied by, taken in turn so that the mix does not depend on the seed.
    POWERS = {
        ("scalar", "small"): (0, 1),
        ("scalar", "medium"): (4, 5),
        ("scalar", "large"): (10, 12),
        ("vector", "small"): (0,),
        ("vector", "medium"): (2, 3),
        ("vector", "large"): (5, 6),
    }
    SIZES = ("small", "small", "small", "medium", "large")
    # Positions within each period of 50 items that hold special requests.
    TRIVIAL_SLOTS = (3, 11, 19, 28, 36, 44)
    MEANINGLESS_SLOT = 7
    MISMATCH_SLOT = 32

    def __init__(self, smoke: bool = False):
        self.count = 50 if smoke else 250
        self.trace_passes = 1 if smoke else 4

    def build(self, nb, seed: int, part: int, hooks) -> list:
        """(field document, chain text) pairs; the schedule is fixed, draws are seeded."""
        rng = random.Random(f"{seed}:apply")
        scale = prime_above(10**4, part)
        r2 = nb.corpus.radius_squared()
        powers: dict[int, object] = {}
        items = []
        for i in range(self.count):
            slot = i % 50
            family = OPS[i % 3]
            length = 1 + (i // 3) % 8
            size = self.SIZES[i % 5]
            sort = reference.SORTS[family][0]
            if slot in self.TRIVIAL_SLOTS:
                sort = rng.choice(("scalar", "vector"))
                ops = self._trivial_word(rng, max(length, 2), sort)
            elif slot == self.MEANINGLESS_SLOT:
                sort = rng.choice(("scalar", "vector"))
                ops = self._meaningless_word(rng, max(length, 2))
            elif slot == self.MISMATCH_SLOT:
                ops = normal_form(family, length)
                sort = "vector" if sort == "scalar" else "scalar"
            else:
                ops = normal_form(family, length)
            k = self.POWERS[sort, size][i // 5 % len(self.POWERS[sort, size])]
            field = hooks.mul(self._field(rng, hooks, r2, powers, sort, size, k), scale)
            items.append((nb.dumps_field(field), chain_text(ops)))
        return items

    def _field(self, rng, hooks, r2, powers, sort, size, k):
        """A corpus draw times radius_squared()**k, redrawn until its size fits."""
        lo, hi = self.TERMS[size]
        if k not in powers:
            powers[k] = hooks.pow(r2, k)
        for _ in range(1000):
            if sort == "scalar":
                base = hooks.random_polynomial(rng, 4)
            else:
                base = hooks.random_vector_field(rng, 4)
            field = hooks.mul(base, powers[k])
            if lo <= term_count(field) <= hi:
                return field
        raise RuntimeError(f"no {size} {sort} field drawn in 1000 tries")

    @staticmethod
    def _trivial_word(rng, length, sort) -> list[str]:
        while True:
            ops = meaningful_word(rng, length, sort)
            if reference.classify_ops(ops)[0] == "trivial":
                return ops

    @staticmethod
    def _meaningless_word(rng, length) -> list[str]:
        while True:
            ops = [rng.choice(OPS) for _ in range(length)]
            if not reference.is_meaningful(ops):
                return ops

    def expect(self, items: list) -> list:
        return [reference.apply_document(doc, text) for doc, text in items]

    def op(self, api, item):
        doc, text = item
        field = api.loads_field(doc)
        chain = api.parse(text)
        return api.dumps_field(api.apply_chain(chain, field))

    @staticmethod
    def outcome(raw) -> tuple:
        return ("ok", json.loads(raw))


def prime_above(n: int, k: int) -> int:
    """The k-th prime (from 0) above n."""
    while True:
        n += 1
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            if k == 0:
                return n
            k -= 1


def term_count(field) -> int:
    """Stored terms of a scalar field, or of all three components of a vector."""
    comps = getattr(field, "components", (field,))
    return sum(len(c.terms) for c in comps)


# -- verify --------------------------------------------------------------------


class Verify:
    """One seed's verdict: the exact verify suites at the CLI defaults.

    Not in the benchmark's gated set: a verdict takes about 2 s, so a run
    of 20 s holds only 9 of them, and on a shared machine the fastest of
    them spread by up to 0.27 from run to run.  The oracle suite is the
    ``Oracle`` workload below: it reports a false FAIL on about 2% of seeds.
    """

    name = "verify"
    twins = False
    SUITES = ("identities", "associativity", "examples")
    TRIALS = 100
    DEGREE = 4
    COUNT = 1

    def __init__(self, smoke: bool = False):
        self.count = 1 if smoke else self.COUNT
        self.trace_passes = 1 if smoke else 2

    def build(self, nb, seed: int, part: int, hooks) -> list:
        """Seeds for run_suite.  It draws its own polynomials from them, so
        here set-up is the import alone."""
        rng = random.Random(f"{seed}:{self.name}:{part}")
        return [rng.randrange(2**31) for _ in range(self.count)]

    def expect(self, items: list) -> list:
        verdict = {suite: (reference.EXPECTED_CHECKS[suite], ()) for suite in self.SUITES}
        return [verdict] * len(items)

    def op(self, api, seed: int):
        return {suite: api.run_suite(suite, self.TRIALS, seed, self.DEGREE) for suite in self.SUITES}

    @staticmethod
    def outcome(raw) -> dict:
        """Suite -> (check names, names of the checks that failed)."""
        return {
            suite: (tuple(r.name for r in results), tuple(r.name for r in results if not r.passed))
            for suite, results in raw.items()
        }


class Oracle(Verify):
    """The finite-difference oracle suite alone, one seed per operation."""

    name = "oracle"
    SUITES = ("oracle",)
    COUNT = 40


WORKLOADS = {w.name: w for w in (Classify, Apply, Verify, Oracle)}
