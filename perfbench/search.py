"""The `search` workload: a seeded batch of Laurent-window no-solution
problems, run through `slopelab.monodromy.no_solution_certificate`.

Every problem has the shape the graded legs of `certify` build:

    F = X^q - X (q = p^s),  A = z_1^M (d t^-N + higher),  B free of z_1,

with gcd(M, N) = e = delta * q, so the projected equation forces a
w-polynomial of degree delta and the certificate searches all q^(delta+1)
candidates.  Because 1 <= delta < q, the w^delta coefficient of F(x) is
-x_delta != 0 while the target has no w^delta term: no problem is
solvable, so every candidate is checked and the count is known in advance.

The shapes are fixed; the seed draws the field moduli and every
coefficient and exponent, so the work per seed stays the same.

    python3 perfbench/search.py --seed 0      # prints canonical JSON
"""

from __future__ import annotations

import argparse
import random
import sys

from slopelab.arith.fields import field_make
from slopelab.monodromy import additive_make, no_solution_certificate, slab_make
from slopelab.serialize import canonical_dumps

# (p, s, delta): about 0.26M candidates in all
SHAPES = ((2, 3, 4), (3, 3, 2), (5, 2, 2), (7, 2, 2), (3, 4, 1), (2, 4, 3))
GUARD = 10 ** 7


def expected_candidates(p: int, s: int, delta: int) -> int:
    return (p ** s) ** (delta + 1)


def problems(seed: int) -> list[dict]:
    """The batch for one seed, as plain data."""
    rng = random.Random(seed)
    out = []
    for p, s, delta in SHAPES:
        q = p ** s
        e = delta * q
        a, b = rng.choice(((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3)))
        M, N = e * a, e * b
        A = {((M, 0), -N): rng.randrange(1, q),
             ((M, 0), -N + rng.randrange(1, 4)): rng.randrange(1, q)}
        B = {((0, 0), 0): rng.randrange(q)}
        for _ in range(2):
            B[((0, rng.randrange(4)), rng.randrange(-5, 6))] = rng.randrange(1, q)
        out.append({"p": p, "s": s, "delta": delta, "M": M, "N": N,
                    "A": A, "B": B})
    return out


def solve(problem: dict, seed: int) -> dict:
    K = field_make(problem["p"], problem["s"], seed)
    F = additive_make(K, {K.s: 1, 0: K.neg(1)})
    A = slab_make(K, 2, problem["A"])
    B = slab_make(K, 2, problem["B"])
    return no_solution_certificate(F, A, B, problem["M"], problem["N"],
                                   guard=GUARD)


def run(seed: int) -> str:
    reports = [solve(pr, seed) for pr in problems(seed)]
    return canonical_dumps({"seed": seed, "certificates": reports})


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    sys.stdout.write(run(parse_args(argv).seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
