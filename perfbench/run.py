"""slopelab benchmark: time to verdict for four desk workloads, end to end
and layer by layer.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0       # every workload

Run from the repository root.  Load model: closed loop, one client, one
process at a time.  Every repetition is a fresh interpreter, because a CLI
user pays the lru_cache'd context builds on every invocation.

--trace 0   timed runs.  Set-up is probed several times, then the workload
            repeats until --seconds have passed; each metric is the median
            over the repetitions.  Times are scaled to a nominal host speed
            measured by a reference loop around every repetition (see
            timed); the unscaled medians are printed as raw_*.
--trace 1   per-layer run.  The kernel suite runs once, then untraced and
            span-traced repetitions alternate, then two op-counting traced
            repetitions run (see traced); the layer metrics come from the
            spans and counts of the traced ones.

Every repetition is checked (exit code, schema, semantic claims, identical
bytes across repetitions and, for seed 0, the recorded digest).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SCHEMAS = os.path.join(ROOT, "schemas")
OUT = os.path.join(ROOT, ".perfbench_out")

CLI_WORKLOADS = {
    # three legs; at p = 2 the guard 10^5 admits closure depth s + 2 = 5,
    # so the last leg enumerates |G/G_5| = 7 * 8^4 = 28,672 states
    "certify": ["certify", "--base", "ss6", "--lambda", "1/3", "--p", "2",
                "--guard", "100000", "--format", "json"],
    "units": ["units", "verify", "--p", "3", "--s", "3", "--n", "3",
              "--format", "json"],
    "as": ["as", "test", "--q", "9", "--field", "F729", "--all",
           "--format", "json"],
}
WORKLOADS = ("certify", "units", "search", "as")
SETUP_PROBES = 9
MIN_REPS = 3
DEADLINE_S = 170          # one workload ends well inside 180 s
REF_ITERS = 450_000       # about 0.15 s of the reference loop
REF_NOMINAL_S = 0.15      # the reference-loop time that defines the scale


@dataclass
class Rep:
    code: int
    out: bytes
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float


class Deadline(Exception):
    pass


# -- children -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def workload_args(workload: str, seed: int) -> list:
    if workload == "search":
        return ["--seed", str(seed)]
    return CLI_WORKLOADS[workload] + ["--seed", str(seed)]


def plain_argv(workload: str, seed: int) -> list:
    if workload == "search":
        return [sys.executable, os.path.join(HERE, "search.py")] + \
            workload_args(workload, seed)
    return [sys.executable, "-m", "slopelab.cli"] + workload_args(workload, seed)


def kind(workload: str) -> str:
    return "search" if workload == "search" else "cli"


def _on_alarm(signum, frame):
    raise Deadline


def run_child(argv: list, deadline: float) -> Rep:
    """Run one child to completion; wall from spawn to reap, cpu and peak
    RSS from the child's own rusage."""
    out_path = os.path.join(OUT, "child.stdout")
    err_path = os.path.join(OUT, "child.stderr")
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                    env=child_env())
            signal.alarm(max(1, int(deadline - perf_counter())))
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except Deadline:
                proc.kill()
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.signal(signal.SIGALRM, old)
    with open(out_path, "rb") as fh:
        out = fh.read()
    with open(err_path, "rb") as fh:
        err = fh.read().decode(errors="replace")[-2000:]
    return Rep(proc.returncode, out, err, wall, ru.ru_utime + ru.ru_stime,
               ru.ru_maxrss / 1024.0)


def probe_setup(workload: str, seed: int) -> float | None:
    """Spawn until the child has imported slopelab and parsed its argv;
    None if the probe failed."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), kind(workload)] + \
        workload_args(workload, seed)
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env())
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    return t1 - t0 if line == b"ready\n" and code == 0 else None


# -- one workload ---------------------------------------------------------


class Checker:
    """Checks every repetition and keeps the tally."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def __call__(self, rep: Rep) -> bool:
        self.attempted += 1
        bad = []
        if rep.code != 0:
            bad.append(f"exit {rep.code}: {rep.err.strip()[-300:]}")
        else:
            bad = checks.problems(self.workload, self.seed, rep.out, SCHEMAS)
            d = checks.digest(rep.out)
            if self.first_digest is None:
                self.first_digest = d
            elif d != self.first_digest:
                bad.append("output bytes differ from the first repetition")
        if bad:
            self.failed += 1
            self.notes.extend(bad)
        return not bad

    def fail(self, note: str) -> None:
        self.failed += 1
        self.attempted += 1
        self.notes.append(note)


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def reference_s() -> float:
    """Time of a fixed pure-Python loop doing the integer, tuple and dict
    work the library's inner loops do.  It tracks how fast this shared
    host runs Python at the moment, and involves no slopelab code."""
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(REF_ITERS):
        key = (i % 27, i * 7 % 27, i * 13 % 729)
        acc = (acc + key[0] * key[1] + key[2]) % 1000003
        seen[key] = acc
    return perf_counter() - t0


def ends_in_time(start: float, last_s: float, seconds: float) -> bool:
    """Would one more repetition, as long as the last, end within seconds?"""
    return perf_counter() - start + last_s < seconds


def timed(workload: str, seed: int, seconds: float, deadline: float):
    """Every repetition, and the batch of set-up probes, is bracketed by
    reference loops; times are scaled by REF_NOMINAL_S over the mean of the
    two brackets, so host-speed drift between runs cancels.  The unscaled
    times are kept as raw_*."""
    chk = Checker(workload, seed)
    start = perf_counter()
    refs = [reference_s()]
    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    refs.append(reference_s())
    if None in setup:
        chk.fail("set-up probe could not import slopelab or parse its argv")
        setup = [t for t in setup if t is not None]
    reps = []
    while len(reps) < MIN_REPS or ends_in_time(start, reps[-1].wall_s, seconds):
        rep = run_child(plain_argv(workload, seed), deadline)
        refs.append(reference_s())
        chk(rep)
        reps.append(rep)
    scale = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    samples = {"wall_s": [r.wall_s * k for r, k in zip(reps, scale[1:])],
               "cpu_s": [r.cpu_s * k for r, k in zip(reps, scale[1:])],
               "setup_s": [t * scale[0] for t in setup],
               "peak_rss_mb": [r.rss_mb for r in reps]}
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]}
               for k, v in samples.items() if v}
    samples["raw_wall_s"] = [r.wall_s for r in reps]
    samples["raw_cpu_s"] = [r.cpu_s for r in reps]
    samples["raw_setup_s"] = setup
    samples["reference_s"] = refs
    return chk, metrics, samples


# -- traced run -----------------------------------------------------------


def span_totals(spans: list):
    """Per span name: call count, inclusive time of the outermost spans
    of that name (a recursive call is not counted twice), and self time
    (duration minus the direct children)."""
    dur = [(end - start) / 1e9 for _, start, end, *_ in spans]
    self_t = list(dur)
    calls, incl, self_s = Counter(), Counter(), Counter()
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
        calls[name] += 1
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            incl[name] += dur[i]
    for (name, *_), t in zip(spans, self_t):
        self_s[name] += t
    return calls, incl, self_s


def layer_metrics(trace: dict, wall_s: float) -> dict:
    counts = Counter(trace["counts"])
    calls, incl, self_s = span_totals(trace["spans"])

    def layer(totals: Counter, prefix: str):
        return sum(v for name, v in totals.items()
                   if name.startswith(prefix + "."))

    attributed = sum(t for name, t in self_s.items() if name != "run")
    return {
        "unitgroup.generation_s": incl["unitgroup.generation"],
        "unitgroup.closure_states": counts["unitgroup.closure_states"],
        "unitgroup.commutator_calls": calls["unitgroup.commutator"],
        "unitgroup.commutator_s": incl["unitgroup.commutator"],
        "unitgroup.span_calls": calls["unitgroup.span"],
        "unitgroup.span_s": incl["unitgroup.span"],
        "unitgroup.pth_power_s": incl["unitgroup.pth_power"],
        "ramified.add_calls": calls["ramified.add"] + calls["ramified.sub"],
        "ramified.mul_calls": calls["ramified.mul"],
        "ramified.inv_calls": calls["ramified.inv"],
        "ramified.self_s": layer(self_s, "ramified"),
        "witt.ctx_builds": counts["witt.ctx_builds"],
        "witt.ctx_build_s": incl["witt.make"],
        "witt.mul_calls": counts["witt.mul_calls"],
        "witt.digits_calls": counts["witt.digits_calls"],
        "fields.ctx_builds": counts["fields.ctx_builds"],
        "fields.ctx_build_s": incl["fields.make"],
        "fields.table_entries": counts["fields.table_entries"],
        "slab.certificates": counts["slab.certificates"],
        "slab.candidates": counts["slab.candidates"],
        "slab.search_s": incl["slab.search"],
        "slab.refusals": counts["slab.refusals"],
        "as.cases": calls["as.criterion"],
        "as.criterion_s": incl["as.criterion"],
        "as.oracle_s": incl["as.oracle"],
        "certify.leg0_s": incl["certify.leg0"],
        "certify.graded_s": incl["certify.graded"],
        "certify.closure_s": incl["certify.closure"],
        "equations.self_s": layer(self_s, "equations"),
        "equations.first_witt_s": incl["equations.first_witt_equation"],
        "display.calls": layer(calls, "display"),
        "display.self_s": layer(self_s, "display"),
        "polygon.calls": layer(calls, "polygon"),
        "polygon.self_s": layer(self_s, "polygon"),
        "twisted.mul_calls": calls["twisted.mul"],
        "twisted.self_s": layer(self_s, "twisted"),
        "cli.parse_s": incl["cli.parse"],
        "cli.emit_s": incl["cli.emit"],
        "cli.report_bytes": counts["cli.report_bytes"],
        "trace.unattributed_s": wall_s - attributed,
    }


def work_counts(trace: dict) -> dict:
    """Everything that must repeat exactly between two traced runs."""
    calls = Counter(name for name, *_ in trace["spans"])
    return {"counts": dict(sorted(trace["counts"].items())),
            "span_calls": dict(sorted(calls.items()))}


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def traced(workload: str, seed: int, seconds: float, deadline: float):
    """Kernel suite, then untraced and span-traced repetitions alternate
    (at least one pair) while time remains for two op-counting traced runs
    at the end.  Layer times come from the span-traced runs, the field
    operation count from the op-counting ones; every work count must agree
    between all traced runs."""
    chk = Checker(workload, seed)
    start = perf_counter()
    krep = run_child([sys.executable, os.path.join(HERE, "kernels.py")],
                     deadline)
    kernel = {}
    if krep.code == 0:
        kernel = json.loads(krep.out)
    else:
        chk.fail(f"kernel suite exit {krep.code}: {krep.err.strip()[-300:]}")
    plain, walls, layers, works, op_calls = [], [], [], [], []

    def trace_rep(ops: bool):
        run_id = f"{workload}-{seed}-{len(works)}"
        path = os.path.join(OUT, f"trace-{run_id}.json")
        argv = [sys.executable, os.path.join(HERE, "trace.py"), "--out", path,
                "--run-id", run_id] + (["--ops"] if ops else [])
        rep = run_child(argv + [kind(workload)] +
                        workload_args(workload, seed), deadline)
        trace = None
        if chk(rep):
            with open(path) as fh:
                trace = json.load(fh)
            op_calls.append(trace["counts"].pop("fields.op_calls", None))
            works.append(work_counts(trace))
        return rep, trace

    # leave room for the two op-counting runs, each up to about twice as
    # long as a span-traced one
    while not walls or ends_in_time(start, plain[-1] + 5 * walls[-1], seconds):
        rep = run_child(plain_argv(workload, seed), deadline)
        chk(rep)
        plain.append(rep.wall_s)
        rep, trace = trace_rep(ops=False)
        walls.append(rep.wall_s)
        if trace is not None:
            layers.append(layer_metrics(trace, rep.wall_s))
    for _ in range(2):
        trace_rep(ops=True)
    counted = [n for n in op_calls if n is not None]
    if any(w != works[0] for w in works[1:]) or len(set(counted)) > 1:
        chk.fail("work counts differ between traced runs of the same code")
    values = {k: statistics.median(m[k] for m in layers)
              for k in (layers[0] if layers else {})}
    if counted:
        values["fields.op_calls"] = counted[0]
    values.update(kernel)
    untraced_s, traced_s = statistics.median(plain), statistics.median(walls)
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics = {k: {"value": v, "unit": unit_of(k)}
               for k, v in sorted(values.items())}
    return chk, metrics, {"traced_wall_s": walls, "untraced_wall_s": plain}


# -- metadata and output --------------------------------------------------


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata() -> dict:
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "git_sha": _git_sha(),
            "loadavg_start": list(os.getloadavg()), "src_lines": src_lines}


def report_lines(workload: str, chk: Checker, metrics: dict,
                 samples: dict) -> list:
    lines = [f"workload {workload}: {chk.attempted} runs attempted, "
             f"{chk.failed} failed"]
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [(name, statistics.median(xs), "s") for name, xs in samples.items()
             if name not in metrics]
    for name, value, unit in rows:
        xs = samples.get(name)
        if xs:
            lo, hi = quartiles(xs)
            spread = f"  median of {len(xs)}, quartiles {lo:.4g}..{hi:.4g}"
        else:
            spread = ""
        lines.append(f"  {name:28s} {value:>14.6g} {unit}{spread}")
    frac = chk.failed / chk.attempted if chk.attempted else 0.0
    lines.append(f"  {'fail_frac':28s} {frac:>14.6g} fraction  "
                 f"({chk.failed} of {chk.attempted} runs)")
    for note in chk.notes[:10]:
        lines.append(f"  FAILED: {note}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float):
    measure = traced if trace else timed
    chk, metrics, samples = measure(workload, seed, seconds, deadline)
    print("\n".join(report_lines(workload, chk, metrics, samples)), flush=True)
    return chk, metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "slopelab", "cli.py")):
        print(f"perfbench: no slopelab sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)
    meta = metadata()
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics, results = {}, {}
    for name in names:
        chk, m, samples = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace),
                                       perf_counter() + DEADLINE_S)
        attempted += chk.attempted
        failed += chk.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        results[name] = {"metrics": m, "samples": samples,
                         "failures": chk.notes}
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "seed": args.seed, "seconds": args.seconds,
                   "results": results}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
