"""Correctness checks on one workload output.

`problems(workload, seed, payload, schema_dir)` returns a list of what is
wrong with the bytes a run printed; an empty list means the run is correct.  The
checks are the published schema, the semantic claims of each report
(recomputed here where they are counts), and, for seed 0, the sha256 of
the canonical bytes recorded in `digests.json`.
"""

from __future__ import annotations

import hashlib
import json
import os

import jsonschema

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEMAS = {"certify": "certificate.v1", "units": "units-report.v1",
           "as": "as-report.v1"}


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def recorded_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def _validate_schema(workload: str, report, schema_dir: str) -> list:
    name = SCHEMAS.get(workload)
    if name is None:
        return []
    with open(os.path.join(schema_dir, f"{name}.schema.json")) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema {name}: {err.message}"
            for err in validator.iter_errors(report)]


def _unit_quotient_order(q: int, n: int) -> int:
    return (q - 1) * q ** (n - 1)


def _certify(report) -> list:
    out = []
    if report["verdict"] != "large":
        out.append(f"verdict {report['verdict']!r}, want 'large'")
    bad = [leg["piece"] for leg in report["legs"]
           if leg["status"] != "certified"]
    if bad:
        out.append(f"legs not certified: {bad}")
    closure = [leg for leg in report["legs"] if leg["piece"] == "closure"]
    if len(closure) != 1:
        return out + ["no closure leg"]
    ev = closure[0].get("evidence", {})
    if ev.get("order") != _unit_quotient_order(ev.get("q", 0), ev.get("n", 1)):
        out.append(f"closure order {ev.get('order')} is not |G/G_n|")
    return out


def _units(report) -> list:
    out = []
    for key in ("commutator", "pth_power"):
        if report[key]["ok"] is not True:
            out.append(f"{key} not ok")
    gen = report["generation"]
    if not gen["generates"] or gen["order"] != _unit_quotient_order(
            gen["q"], gen["n"]):
        out.append(f"generation order {gen['order']} is not |G/G_n|")
    if report["ok"] is not True:
        out.append("ok is false")
    return out


def _as(report) -> list:
    out = []
    q = int(report["field"][1:])
    if report["total"] != q or len(report["cases"]) != q:
        out.append(f"{len(report['cases'])} cases, want {q}")
    disagree = [c["a"] for c in report["cases"]
                if c["criterion"] != c["oracle"]]
    if disagree or report["agreements"] != q or report["agree"] is not True:
        out.append(f"criterion and oracle disagree on {disagree[:5]}")
    return out


def _search(report, seed: int) -> list:
    import search       # imports slopelab, which run.py puts on the path
    out = []
    if report.get("seed") != seed:
        out.append(f"seed {report.get('seed')} != {seed}")
    certs = report.get("certificates", [])
    if len(certs) != len(search.SHAPES):
        return out + [f"{len(certs)} certificates, want {len(search.SHAPES)}"]
    for (p, s, delta), cert in zip(search.SHAPES, certs):
        want = search.expected_candidates(p, s, delta)
        if (cert.get("conclusion") != "no-solution"
                or cert.get("branch") != "search"
                or cert.get("field") != {"p": p, "q": p ** s}
                or cert.get("candidates_checked") != want):
            out.append(f"(p, s, delta) = {(p, s, delta)}: got "
                       f"{cert.get('branch')}/{cert.get('conclusion')} with "
                       f"{cert.get('candidates_checked')} candidates, "
                       f"want search/no-solution with {want}")
    return out


def problems(workload: str, seed: int, payload: bytes,
             schema_dir: str) -> list:
    try:
        report = json.loads(payload)
    except ValueError as err:
        return [f"output is not JSON: {err}"]
    if not isinstance(report, dict):
        return ["output is not a JSON object"]
    out = _validate_schema(workload, report, schema_dir)
    if out:
        return out
    if workload == "search":
        out = _search(report, seed)
    else:
        out = {"certify": _certify, "units": _units, "as": _as}[workload](report)
    if seed == 0:
        want = recorded_digests().get(workload)
        if digest(payload) != want:
            out.append(f"sha256 {digest(payload)[:16]}... differs from the "
                       f"digest recorded for seed 0 ({str(want)[:16]}...)")
    return out
