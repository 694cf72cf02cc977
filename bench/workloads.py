"""Seeded job generators for the three benchmark workloads.

Every generator is pure Python and imports nothing from ``curveclass``: the
program only ever receives the job texts produced here.  The same seed
always yields the same stream of jobs.

A classification job is ``{"curve", "numerator", "denominator"}``; the
runner assigns the value 0 at every real bad point by index.  A
singular-locus job is ``{"curve"}``.
"""

import itertools
import random

# The five worked curves of acceptance criterion 6, in its order.
FUZZ_CURVES = (
    "y^2 - x^3",
    "y^2 - x^3*(x^2+1)^2",
    "y^4 - x*(x^2+y^2)",
    "y^3 - x^2*y^2 + y*x^2*(x+1) - x^4*(x+1)",
    "y^2 - x^2*(x+1)",
)

# The fourth curve is (y - x^2)(y^2 + x^2 (x + 1)): a multiple of its
# component y - x^2 is a zero-divisor denominator, which the program rejects.
FUZZ_COMPONENTS = {3: {(2, 0): -1, (0, 1): 1}}

# Radicands of the bad points of tower-split: every curve meets x^2 = d.
TOWER_RADICANDS = (2, 3, 5, 7)
TOWER_A = range(1, 10)
TOWER_B = range(-9, 10)
TOWER_C = range(-9, 10)

# The factors a(x) of singular-stress is built from, with their degrees.
SINGULAR_FACTORS = (
    ("x-1", 1),
    ("x-2", 1),
    ("x^2+1", 2),
    ("x^2-2", 2),
    ("x^2+4", 2),
    ("x^2+x+1", 2),
    ("x^2-3", 2),
)
SINGULAR_K = range(2, 9)  # x^k in the y^4 + x^k factor
SINGULAR_DEGREE = (4, 20)


def _term(c, i, j):
    """One signed term c * x^i * y^j, coefficient explicit."""
    mono = "".join(
        f"*{v}" + (f"^{e}" if e > 1 else "") for v, e in (("x", i), ("y", j)) if e
    )
    return f"{c}{mono}"


def poly_text(terms):
    """Text of a polynomial given as {(i, j): nonzero int}."""
    pieces = [_term(c, i, j) for (i, j), c in sorted(terms.items(), reverse=True)]
    return " + ".join(pieces).replace("+ -", "- ")


def _rand_terms(rng, maxdeg=3, terms=3):
    """The criterion-6 draw: 1 to `terms` terms of total degree <= maxdeg,
    coefficients in [-3, 3], like monomials summed."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        i = rng.randint(0, maxdeg)
        j = rng.randint(0, maxdeg - i)
        c = rng.randint(-3, 3)
        if c:
            out[(i, j)] = out.get((i, j), 0) + c
    return {k: v for k, v in out.items() if v}


def _steady_denominator(q):
    """Keep q when it has degree <= 2 or is a single term.  Multi-term
    degree-3 denominators on the degree-7 curve take up to 6 s each, so a
    30-second run holds zero, one or two of them and its 90th percentile
    swings by a quarter between seeds; see README.md."""
    return len(q) == 1 or max(i + j for i, j in q) <= 2


def _proportional(a, b):
    """a = c * b for a rational c (both {(i, j): int}, b nonzero)."""
    if a.keys() != b.keys():
        return False
    (k0, b0), *_ = b.items()
    return all(a[k] * b0 == b[k] * a[k0] for k in b)


def fuzz_shared(seed):
    """Criterion-6 draws: random p/q of degree <= 3 over the five worked
    curves in turn.  A draw is redrawn when p or q is zero, when
    _steady_denominator rejects q, or when q is a zero divisor on the
    curve (criterion 6 skips those jobs after the program rejects them)."""
    rng = random.Random(seed)
    for n in itertools.count():
        component = FUZZ_COMPONENTS.get(n % len(FUZZ_CURVES))
        while True:
            p, q = _rand_terms(rng), _rand_terms(rng)
            if (p and q and _steady_denominator(q)
                    and not (component and _proportional(q, component))):
                break
        yield {
            "curve": FUZZ_CURVES[n % len(FUZZ_CURVES)],
            "numerator": poly_text(p),
            "denominator": poly_text(q),
        }


def _tower_curve(shape, a, b, d):
    if shape == 0:
        return f"y^2 - {a * a}*x^2 + (x^2-{d})*(x+{b})"
    return f"y^3 - {a * a}*x^2*y + (x^2-{d})*(x^2+{b}*y+1)"


def tower_split(seed):
    """Curves whose bad points lie over x^2 = d, where the fiber factor
    y^2 - a^2 d splits over Q(sqrt d).  Jobs cycle through the two curve
    shapes and the two denominators x^2 - d and (x^2 - d)(y + c); the
    (a, b, d) of each shape are drawn without replacement, so curves are
    distinct until a shape's grid is used up.  p = y * r with r a
    criterion-6 draw: odd in y, it separates the conjugate branches
    y = +-a sqrt(d), which is what makes dynamic evaluation split."""
    rng = random.Random(seed)
    grids = []
    for _ in range(2):
        g = list(itertools.product(TOWER_A, TOWER_B, TOWER_RADICANDS))
        rng.shuffle(g)
        grids.append(g)
    for n in range(2 * len(grids[0])):
        shape = n % 2
        a, b, d = grids[shape][n // 2]
        r = {}
        while not r:
            r = _rand_terms(rng)
        c = rng.choice(TOWER_C)
        q = f"x^2 - {d}" if (n // 2) % 2 == 0 else f"(x^2 - {d})*(y + {c})"
        yield {
            "curve": _tower_curve(shape, a, b, d).replace("+-", "-"),
            "numerator": f"y*({poly_text(r)})",
            "denominator": q.replace("+ -", "- "),
        }


def _singular_pools():
    """{(total degree, shape): [(shape, k, exponents)]} over the whole grid."""
    lo, hi = SINGULAR_DEGREE
    pools = {}
    for exps in itertools.product(range(4), repeat=len(SINGULAR_FACTORS)):
        deg_a = sum(e * dg for e, (_, dg) in zip(exps, SINGULAR_FACTORS))
        if deg_a == 0:
            continue
        base = max(2, deg_a)
        if lo <= base <= hi:
            pools.setdefault((base, 0), []).append((0, 0, exps))
        for k in SINGULAR_K:
            if lo <= max(4, k) + base <= hi:
                pools.setdefault((max(4, k) + base, 1), []).append((1, k, exps))
    return pools


def _singular_curve(shape, k, exps):
    a = "*".join(
        f"({f})" + (f"^{e}" if e > 1 else "")
        for e, (f, _) in zip(exps, SINGULAR_FACTORS)
        if e
    )
    if shape == 0:
        return f"y^2 - {a}"
    return f"(y^4 + x^{k})*(y^2 - {a})"


# Curves of each shape per total degree in one cycle of singular-stress.
SINGULAR_MIX = {0: 3, 1: 1}


def singular_stress(seed):
    """Distinct curves y^2 - a(x) and (y^4 + x^k)(y^2 - a(x)), a(x) a
    product of powers 1-3 of SINGULAR_FACTORS.  Each cycle takes, for every
    total degree 4..20, three curves y^2 - a(x) and one (y^4 + x^k)(...)
    where that degree exists, drawn without replacement; the stream ends
    when a pool runs out (the 33 curves of degree 4, after 11 cycles).
    The (y^4 + x^k) shape costs 3 to 10 times more, with a long tail; a
    fixed mix in which it is the minority puts the median job inside the
    dense y^2 - a(x) cluster, so it stays put from seed to seed."""
    rng = random.Random(seed)
    pools = _singular_pools()
    for key in sorted(pools):
        rng.shuffle(pools[key])
    cycles = min(len(pool) // SINGULAR_MIX[shape] for (_, shape), pool in pools.items())
    for i in range(cycles):
        for (deg, shape) in sorted(pools):
            n = SINGULAR_MIX[shape]
            for item in pools[(deg, shape)][i * n:(i + 1) * n]:
                yield {"curve": _singular_curve(*item)}


GENERATORS = {
    "fuzz-shared": fuzz_shared,
    "tower-split": tower_split,
    "singular-stress": singular_stress,
}

# Jobs per cycle of each stream (curves; shape x denominator; 17 degrees x
# SINGULAR_MIX, shape 1 existing from degree 6); a
# run stops only at the end of a cycle, so every run has the same mix.
CYCLE = {"fuzz-shared": len(FUZZ_CURVES), "tower-split": 4, "singular-stress": 66}


def generate(workload, seed, count):
    """The first `count` jobs of a workload's stream."""
    return list(itertools.islice(GENERATORS[workload](seed), count))
