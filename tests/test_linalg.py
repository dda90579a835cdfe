"""The F_p echelon against brute-force spans."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.arith.linalg import Echelon

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def problems(draw):
    """(p, vectors, target): at most 4 vectors of one length n <= 4."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return p, draw(st.lists(vector, max_size=4)), draw(vector)


def brute_span(p, vectors, n):
    """{code: one combination producing it} over all p^m combinations."""
    out = {}
    for coeffs in product(range(p), repeat=len(vectors)):
        v = [sum(c * u[i] for c, u in zip(coeffs, vectors)) % p
             for i in range(n)]
        out.setdefault(tuple(v), coeffs)
    return out


def code(p, v):
    return sum(x * p ** i for i, x in enumerate(v))


def echelon_of(p, vectors):
    ech = Echelon(p)
    added = [ech.insert(u) for u in vectors]
    return ech, added


@PROPERTY
@given(problems())
def test_member_agrees_with_brute_span_and_returns_a_preimage(problem):
    p, vectors, target = problem
    ech, _ = echelon_of(p, vectors)
    c = ech.member(target)
    assert (c is not None) == (tuple(target) in brute_span(p, vectors, len(target)))
    if c is not None:
        assert len(c) == len(vectors)
        image = [sum(x * u[i] for x, u in zip(c, vectors)) % p
                 for i in range(len(target))]
        assert image == target


@PROPERTY
@given(problems())
def test_insert_reports_independence(problem):
    p, vectors, _ = problem
    n = len(vectors[0]) if vectors else 1
    _, added = echelon_of(p, vectors)
    for k, u in enumerate(vectors):
        assert added[k] == (tuple(u) not in brute_span(p, vectors[:k], n))
    assert p ** sum(added) == len(brute_span(p, vectors, n))


@PROPERTY
@given(problems())
def test_reduce_gives_the_least_code_in_the_coset(problem):
    p, vectors, target = problem
    ech, _ = echelon_of(p, vectors)
    r, c = ech.reduce(target)
    coset = [[(t - x) % p for t, x in zip(target, w)]
             for w in brute_span(p, vectors, len(target))]
    assert code(p, r) == min(code(p, v) for v in coset)
    back = [(x + sum(y * u[i] for y, u in zip(c, vectors))) % p
            for i, x in enumerate(r)]
    assert back == target
