"""Kernel suite: per-operation times on the fixed operands of the
ROADMAP baseline table (F_27, W_8(F_27), O at slope 1/3 with N = 12).

    python3 perfbench/kernels.py        # prints one JSON object, times in us

Each kernel runs a fixed operand list several times; the reported value is
the median per-call time over the repeats.  Operands come from a fixed
seed, so the suite measures the same work on every run and every commit.
Every kernel also checks its own results, so a kernel that got fast by
getting wrong fails loudly.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from time import perf_counter

from slopelab.arith.fields import field_make
from slopelab.arith.ramified import order_over
from slopelab.arith.witt import witt_make
from slopelab.monodromy import additive_make, no_solution_certificate, slab_make
from slopelab.unitgroup import closure_compiled, commutator_span

REPEATS = 7


def per_call_us(fn, calls: int, repeats: int = REPEATS) -> float:
    """Median over repeats of (time of one fn() pass) / calls, in us."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


class KernelCheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise KernelCheckFailed(what)


def fields_kernels(K, xs, ys) -> dict:
    pairs = list(zip(xs, ys))
    out = {
        "fields.add_us": per_call_us(
            lambda: [K.add(a, b) for a, b in pairs], len(pairs)),
        "fields.neg_us": per_call_us(
            lambda: [K.neg(a) for a in xs], len(xs)),
        "fields.mul_us": per_call_us(
            lambda: [K.mul(a, b) for a, b in pairs], len(pairs)),
        "fields.frobenius_us": per_call_us(
            lambda: [K.frobenius(a, 1) for a in xs], len(xs)),
    }
    check(all(K.add(a, K.neg(a)) == 0 for a in xs), "F_q a + (-a) != 0")
    check(all(K.frobenius(a, K.s) == a for a in xs), "F_q frob^s != id")
    return out


def witt_kernels(W, us, vs) -> dict:
    pairs = list(zip(us, vs))
    digs = [W.digits(u) for u in us]
    check(all(W.from_digits(d) == u for d, u in zip(digs, us)),
          "W digits round trip")
    check(all(W.mul(u, W.inv(u)) == W.one() for u in us), "W u * u^-1 != 1")
    return {
        "witt.mul_us": per_call_us(
            lambda: [W.mul(a, b) for a, b in pairs], len(pairs)),
        "witt.digits_us": per_call_us(
            lambda: [W.digits(a) for a in us], len(us)),
        "witt.sigma_us": per_call_us(
            lambda: [W.sigma(a, 1) for a in us], len(us)),
        "witt.inv_us": per_call_us(
            lambda: [W.inv(a) for a in us], len(us)),
    }


def ramified_kernels(O, xs, ys) -> dict:
    pairs = list(zip(xs, ys))
    check(all(O.mul(a, O.inv(a)) == O.one() for a in xs), "O u * u^-1 != 1")
    check(all(O.sub(O.add(a, b), b) == a for a, b in pairs), "O (a+b)-b != a")
    return {
        "ramified.add_us": per_call_us(
            lambda: [O.add(a, b) for a, b in pairs], len(pairs)),
        "ramified.mul_us": per_call_us(
            lambda: [O.mul(a, b) for a, b in pairs], len(pairs)),
        "ramified.inv_us": per_call_us(
            lambda: [O.inv(a) for a in xs], len(xs), repeats=3),
    }


def unitgroup_kernels(K) -> dict:
    check(commutator_span(K, 1, 1) == frozenset(K.elements()),
          "commutator span at depth 1 is not F_27")
    # one closure per repeat: G/G_4 over F_8 at slope 1/3 (3584 states),
    # the compiled closure certify's last leg runs
    K8 = field_make(2, 3)
    states = closure_compiled(K8, 1, 4, [0, 1, 3], guard=10 ** 6)
    check(states == 7 * 8 ** 3, f"closure over F_8 found {states} states")
    return {
        "unitgroup.span_us": per_call_us(
            lambda: commutator_span(K, 1, 1), 1, repeats=5),
        "unitgroup.closure_state_us": per_call_us(
            lambda: closure_compiled(K8, 1, 4, [0, 1, 3], guard=10 ** 6),
            states, repeats=3),
    }


def slab_kernels() -> dict:
    # F = X^8 - X over F_8, delta = 2: 8^3 candidates, none a solution
    K = field_make(2, 3)
    F = additive_make(K, {3: 1, 0: K.neg(1)})
    e = 2 * 8
    A = slab_make(K, 1, {((e,), -e): 3})
    B = slab_make(K, 1, {((0,), 0): 5})
    cand = K.q ** 3
    rep = no_solution_certificate(F, A, B, e, e)
    check(rep.get("candidates_checked") == cand, "slab candidate count")
    return {"slab.candidate_us": per_call_us(
        lambda: no_solution_certificate(F, A, B, e, e), cand, repeats=5)}


def run() -> dict:
    rng = random.Random(0)
    K = field_make(3, 3)
    xs = [rng.randrange(1, K.q) for _ in range(2000)]
    ys = [rng.randrange(1, K.q) for _ in range(2000)]
    W = witt_make(K, 8)
    us = [W.from_digits([rng.randrange(1, K.q)] +
                        [rng.randrange(K.q) for _ in range(7)])
          for _ in range(200)]
    vs = [W.from_digits([rng.randrange(K.q) for _ in range(8)])
          for _ in range(200)]
    O = order_over(K, 1, 12)
    ox = [O.from_digits([rng.randrange(1, K.q)] +
                        [rng.randrange(K.q) for _ in range(11)])
          for _ in range(40)]
    oy = [O.from_digits([rng.randrange(K.q) for _ in range(12)])
          for _ in range(40)]
    out = {}
    out.update(fields_kernels(K, xs, ys))
    out.update(witt_kernels(W, us, vs))
    out.update(ramified_kernels(O, ox, oy))
    out.update(unitgroup_kernels(K))
    out.update(slab_kernels())
    return out


def main() -> int:
    print(json.dumps(run(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
