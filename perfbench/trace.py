"""Traced run of one workload: wrap the library from outside, run the
workload in this process, and write spans and counts to a JSON file.

    python3 perfbench/trace.py --out FILE --run-id ID cli certify ... --seed 0
    python3 perfbench/trace.py --out FILE --run-id ID search --seed 0

The workload's canonical output goes to stdout exactly as the untraced run
prints it.  Nothing under src/ knows about the tracer: every wrapper is
installed here, at every module that bound the wrapped name (`cli`,
`certify` and `unitgroup` use `from ... import`).

Two kinds of wrapper:
  span     records [name, start_ns, end_ns, parent, run id]; used at layer
           boundaries, where calls are few enough to keep every record.
  counter  only counts calls; used for Witt mul and digits and, with
           --ops, for every finite-field operation.  Per-call costs come
           from the kernel suite instead.

Counting field operations (millions of calls) makes a field-heavy run
about 50% slower, so the span timings are taken from runs without --ops
and the field-operation count from runs with it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from time import perf_counter_ns

import slopelab.arith.fields as fields
import slopelab.arith.ramified as ramified
import slopelab.arith.twisted as twisted
import slopelab.arith.witt as witt
import slopelab.cli as cli
import slopelab.display as display
import slopelab.monodromy.artinschreier as artinschreier
import slopelab.monodromy.certify as certify
import slopelab.monodromy.equations as equations
import slopelab.monodromy.slab as slab
import slopelab.polygon as polygon
import slopelab.unitgroup as unitgroup

# the lru_cache'd context factories; their misses are the context builds
FACTORIES = {"fields": fields.field_make, "witt": witt.witt_make}


class Tracer:
    """In-memory spans and counts for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cells: dict[str, list] = {}

    def span(self, name: str, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(out, args)
            return out
        return wrapper

    def counter(self, name: str, fn):
        # a list cell and positional arguments only: this wrapper runs
        # millions of times, and a Counter update plus **kwargs cost
        # twice as much
        cell = self.cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts.update((name, cell[0]) for name, cell in self.cells.items())
        spans = [rec + [self.run_id] for rec in self.spans]
        return {"run_id": self.run_id, "spans": spans, "counts": counts}


def _rebind(orig, new) -> None:
    """Replace `orig` by `new` in every loaded module that bound it."""
    for mod in list(sys.modules.values()):
        for key, val in list(getattr(mod, "__dict__", {}).items()):
            if val is orig:
                setattr(mod, key, new)


def _public_functions(mod):
    return [name for name, val in vars(mod).items()
            if callable(val) and not isinstance(val, type)
            and not name.startswith("_")
            and getattr(val, "__module__", None) == mod.__name__]


def install(tr: Tracer, ops: bool) -> None:
    counts = tr.counts

    def span_fn(mod, attr, name, **hooks):
        orig = getattr(mod, attr)
        _rebind(orig, tr.span(name, orig, **hooks))

    def span_method(cls, attr, name):
        setattr(cls, attr, tr.span(name, getattr(cls, attr)))

    # cli: argument parsing and report emission
    span_fn(cli, "build_parser", "cli.parse")
    span_method(cli._Parser, "parse_args", "cli.parse")
    span_fn(cli, "_report", "cli.emit")
    emit = cli._emit

    def emit_counted(cfg, payload):
        counts["cli.report_bytes"] += len(payload.encode())
        return emit(cfg, payload)
    _rebind(emit, emit_counted)

    # certify legs
    span_fn(certify, "largeness_certificate", "certify.total")
    span_fn(certify, "_first_leg", "certify.leg0")
    span_fn(certify, "_graded_leg", "certify.graded")
    span_fn(certify, "_closure_leg", "certify.closure")

    # equation tower
    for attr in ("monodromy_equation", "graded_equations",
                 "first_witt_equation", "demazure_slope"):
        span_fn(equations, attr, f"equations.{attr}")

    # unit group
    def closure_done(states, _args):
        counts["unitgroup.closure_states"] += states
    span_fn(unitgroup, "generation_report", "unitgroup.generation")
    span_fn(unitgroup, "closure_compiled", "unitgroup.closure",
            on_result=closure_done)
    span_fn(unitgroup, "closure_direct", "unitgroup.closure",
            on_result=closure_done)
    span_fn(unitgroup, "commutator_class", "unitgroup.commutator")
    span_fn(unitgroup, "commutator_span", "unitgroup.span")
    span_fn(unitgroup, "pth_power_check", "unitgroup.pth_power")
    span_fn(unitgroup, "p2_power_report", "unitgroup.pth_power")

    # ramified order: every ring operation is a span
    R = ramified.RamifiedOrder
    for attr in ("add", "sub", "neg", "mul", "inv", "pow"):
        span_method(R, attr, f"ramified.{attr}")

    # Witt vectors and finite fields: context builds are spans, ops counted
    span_fn(witt, "witt_make", "witt.make")
    for attr in ("mul", "digits"):
        setattr(witt.WittRing, attr,
                tr.counter(f"witt.{attr}_calls", getattr(witt.WittRing, attr)))
    span_fn(fields, "field_make", "fields.make")
    if ops:
        for attr in ("add", "neg", "sub", "mul", "inv", "pow", "frobenius"):
            setattr(fields.FieldSpec, attr, tr.counter(
                "fields.op_calls", getattr(fields.FieldSpec, attr)))
    init = fields.FieldSpec.__init__

    def field_init(self, p, s, modulus, seed=0):
        q = p ** s
        # exp and log tables, plus the q^2 add table for q <= 1024
        counts["fields.table_entries"] += (q - 1) + q + (q * q if q <= 1024 else 0)
        init(self, p, s, modulus, seed)
    fields.FieldSpec.__init__ = field_init

    # search certificates and the Artin-Schreier criterion
    def certified(report, _args):
        counts["slab.certificates"] += 1
        counts["slab.candidates"] += report.get("candidates_checked", 0)

    def refused():
        counts["slab.refusals"] += 1
    span_fn(slab, "no_solution_certificate", "slab.search",
            on_result=certified, on_error=refused)
    span_fn(artinschreier, "as_reducible", "as.criterion")
    span_fn(artinschreier, "as_reducible_oracle", "as.oracle")

    # thin layers, recorded so that a regression there shows
    for mod, prefix in ((display, "display"), (polygon, "polygon")):
        for attr in _public_functions(mod):
            span_fn(mod, attr, f"{prefix}.{attr}")
    span_method(twisted.TwistedPoly, "mul", "twisted.mul")


def context_builds() -> dict:
    return {f"{layer}.ctx_builds": fac.cache_info().misses
            for layer, fac in FACTORIES.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--ops", action="store_true",
                    help="also count every finite-field operation")
    ap.add_argument("kind", choices=("cli", "search"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.kind == "search":
        import search
        target = search.main
    else:
        target = cli.main
    tr = Tracer(args.run_id)
    install(tr, args.ops)
    code = tr.span("run", target)(args.rest)
    sys.stdout.flush()
    data = tr.dump()
    data["counts"].update(context_builds())
    data["exit"] = code
    with open(args.out, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
