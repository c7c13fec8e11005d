"""Benchmark of the phasewave CLI, end to end and per module.

Run one workload (the last stdout line is one JSON object)::

    python3 bench/run.py --workload phase-routes --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload's invocations as CLI processes, one at a
time, in a closed loop; ``--trace 1`` replays the same argv lists in this
process through ``phasewave.cli.main`` with spans around each module.
``--workload all`` runs every workload in turn and prints their metrics.  Each run
appends a record to ``bench/results/runs.jsonl`` (``--results`` elsewhere).

    python3 bench/run.py report [RESULTS ...]      # medians and quartiles
    python3 bench/run.py compare PARENT CHANGE     # parent vs change verdicts
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_RESULTS = BENCH / "results" / "runs.jsonl"
#: Metric names, units, bounds and the run length.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Passes of the command list in one end-to-end run, at least.
MIN_PASSES = 3
#: A run must end before this many seconds; children are killed past it.
RUN_DEADLINE_S = 170.0
#: Set to 1 for the whole run, in this process and its children: the
#: program's hot paths are elementwise, and a second BLAS thread made no
#: pass faster but slowed passes whenever another process held a core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Run:
    """Checks, failures and deviations collected over the passes of one run."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.attempted = 0
        self.failures = []
        self.deviations = []
        self.golden = {}  # digests of the first pass whose outputs parse, by invocation

    def record_pass(self, pass_no, results, workdir):
        """Check every invocation result of one pass.

        The bytes are compared across passes before the route check, so the
        outputs of an invocation that fails that check are compared too.
        """
        for inv, res in zip(self.invocations, results):
            self.attempted += 1
            try:
                if res.get("timeout"):
                    raise checks.CheckFailure("killed at the run deadline")
                parsed = checks.parse_outputs(inv, res["exit_code"], workdir)
                digest = checks.digests(inv, workdir, res["stdout"])
                if self.golden.setdefault(inv.name, digest) != digest:
                    raise checks.CheckFailure("output bytes differ from the first good pass")
                dev = checks.route_deviation(inv, res["stdout"], parsed)
            except checks.CheckFailure as exc:
                self.failures.append({"invocation": inv.name, "pass": pass_no, "reason": str(exc),
                                      "known_defect": isinstance(exc, checks.KnownDefect)})
                continue
            if dev is not None:
                self.deviations.append(dev[0] / dev[1])

    @property
    def correct(self) -> bool:
        """No failure other than a known defect showing its exact signature."""
        return all(f["known_defect"] for f in self.failures)

    def route_dev(self) -> float:
        return max([checks.ROUTE_DEV_FLOOR, *self.deviations])


def _child_env():
    """Environment of CLI children: the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _spawn(argv, cwd, env, deadline):
    """Run one child to completion; returns exit code, wall, peak RSS, stdout."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return {"exit_code": proc.returncode, "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout,
            "timeout": time.monotonic() >= deadline}


#: A bare interpreter importing the libraries the program computes with.  Its
#: start-up runs no code of the program, yet tracks the speed of a shared
#: host, which drifts by a quarter over minutes and moves every pass with it.
REFERENCE = "import numpy, scipy.special"


def _time_start(code, workdir, env, deadline):
    """Wall time of one fresh interpreter running ``code``."""
    res = _spawn([sys.executable, "-c", code], workdir, env, deadline)
    if res["exit_code"] != 0:
        raise SystemExit(f"error: `{code}` failed with exit {res['exit_code']}")
    return res["wall_s"]


def run_e2e(invs, seconds, workroot):
    """CLI processes in a closed loop for about ``seconds``.

    A run makes MIN_PASSES passes, and more while another fits in
    ``seconds``.  Each pass is preceded by one timed fresh import of the CLI
    for setup_s and one timed REFERENCE start, so both spread over the run
    like the passes do; the time a whole pass no longer fits in goes to
    further starts, two of REFERENCE to one of the CLI.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = _child_env()
    bare_env = dict(os.environ)
    workroot.mkdir(parents=True)
    run = Run(invs)
    setup, refs = [], []
    walls = []  # per pass, the wall time of each invocation
    peaks = []
    begin = time.perf_counter()
    while (len(walls) < MIN_PASSES
           or (time.perf_counter() - begin) + statistics.median(sum(w) for w in walls) <= seconds):
        workdir = workroot / f"pass{len(walls)}"
        workdir.mkdir()
        setup.append(_time_start("import phasewave.cli", workdir, env, deadline))
        refs.append(_time_start(REFERENCE, workdir, bare_env, deadline))
        results = []
        for inv in invs:
            argv = [sys.executable, "-m", "phasewave.cli", *inv.argv]
            results.append(_spawn(argv, workdir, env, deadline))
        run.record_pass(len(walls), results, workdir)
        walls.append([r["wall_s"] for r in results])
        peaks.append(max(r["rss_mb"] for r in results))
        if time.monotonic() >= deadline:
            break
    # two reference starts to each set-up start: wall_rel divides by their
    # mean, which needs more samples than the set-up median does
    while (time.perf_counter() - begin) + statistics.median(setup) + 2 * statistics.median(refs) <= seconds:
        refs.append(_time_start(REFERENCE, workroot, bare_env, deadline))
        refs.append(_time_start(REFERENCE, workroot, bare_env, deadline))
        setup.append(_time_start("import phasewave.cli", workroot, env, deadline))
    # means over the run: the host's speed switches between levels for
    # seconds to minutes, and a median of a few samples jumps whole levels
    wall = statistics.mean(map(sum, walls))
    values = {"setup_s": statistics.median(setup),
              "wall_rel": wall / statistics.mean(refs),
              "peak_rss_mb": statistics.median(peaks), "route_dev": run.route_dev()}
    detail = {"wall_s": wall, "setup_starts_s": setup, "reference_starts_s": refs,
              "invocation_wall_s": walls, "pass_peak_rss_mb": peaks}
    return run, {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in SPEC["end_to_end"]}, detail


def _import_package():
    sys.path.insert(0, str(SRC))
    import phasewave
    import phasewave.cli
    if Path(phasewave.__file__).resolve().parent != SRC / "phasewave":
        raise SystemExit(f"error: imported phasewave from {phasewave.__file__}, not {SRC}")
    return phasewave


def _inproc_pass(pw, invs, workdir, tracer):
    """Replay the argv lists through phasewave.cli.main in this process."""
    workdir.mkdir()
    results = []
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        begin = time.perf_counter()
        for inv in invs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = pw.cli.main(list(inv.argv))
                else:
                    code = tracer.call("cli", pw.cli.main, list(inv.argv))
            results.append({"exit_code": code, "stdout": out.getvalue()})
        wall = time.perf_counter() - begin
    finally:
        os.chdir(old_cwd)
    return results, wall


def _file_bytes(invs, workdir, results):
    """Bytes each layer moved, from the sizes of the files written and read."""
    counted = Counter()
    for inv, res in zip(invs, results):
        size = Counter({name: (workdir / name).stat().st_size
                        for name in inv.outputs + inv.inputs if (workdir / name).exists()})
        counted["cli.out_bytes"] += len(res["stdout"].encode()) + sum(size[n] for n in inv.outputs)
        counted["cli.in_bytes"] += sum(size[n] for n in inv.inputs)
        field = sum(size[n] for n in inv.field_files)
        counted["wigner.serialize.bytes"] += field  # a validate re-serializes its input
        if inv.inputs:
            counted["wigner.parse.bytes"] += field
    return counted


def run_traced(invs, workroot):
    """Untraced then traced in-process passes; per-layer metrics from the traced one."""
    import tracing

    pw = _import_package()
    workroot.mkdir(parents=True)
    run = Run(invs)
    # the first pass warms allocator and caches, so the overhead compares like with like
    for pass_no, label in enumerate(("warmup", "untraced")):
        results, untraced = _inproc_pass(pw, invs, workroot / label, None)
        run.record_pass(pass_no, results, workroot / label)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, pw)
    try:
        results, traced = _inproc_pass(pw, invs, workroot / "traced", tracer)
    finally:
        tracing.uninstall(undo)
    run.record_pass(2, results, workroot / "traced")
    counted = _file_bytes(invs, workroot / "traced", results)
    metrics = tracing.layer_metrics(tracer, traced, untraced, counted, SPEC["per_layer"])
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[name, start - t0, end - t0, parent] for name, start, end, parent in tracer.spans]
    return run, metrics, {"spans": spans}


def environment() -> dict:
    """Machine, versions, BLAS and source identity recorded with every run."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "phasewave").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": _nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def run_workload(name, seed, seconds, trace, tiny, results_path):
    invs = workloads.generate(name, seed, tiny=tiny)
    workroot = BENCH / "_work" / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(workroot, ignore_errors=True)
    try:
        if trace:
            run, metrics, detail = run_traced(invs, workroot)
        else:
            run, metrics, detail = run_e2e(invs, seconds, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds, "tiny": tiny,
        "argv": [list(inv.argv) for inv in invs],
        "correct": run.correct, "attempted": run.attempted, "failed": len(run.failures),
        "fail_frac": len(run.failures) / run.attempted,
        "failures": run.failures, "metrics": metrics, "detail": detail,
        "golden": run.golden, "environment": environment(),
    }
    results_path.parent.mkdir(parents=True, exist_ok=True)
    with open(results_path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def _print_record(rec):
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if "wall_s" in rec["detail"]:
        print(f"  {'wall_s (not normalized)':34s} {rec['detail']['wall_s']:.6g} s")
    print(f"  {'fail_frac':34s} {rec['fail_frac']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} invocations)")
    for f in rec["failures"]:
        known = " [known defect]" if f["known_defect"] else ""
        print(f"  FAIL {f['invocation']} pass {f['pass']}: {f['reason']}{known}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _group(records):
    """{(workload, trace): {metric: [values]}} plus fail_frac as a metric."""
    groups = defaultdict(lambda: defaultdict(list))
    for rec in records:
        series = groups[(rec["workload"], rec["trace"])]
        for name, m in rec["metrics"].items():
            series[name].append(m["value"])
        series["fail_frac"].append(rec["fail_frac"])
        if "wall_s" in rec["detail"]:
            series["wall_s (not normalized)"].append(rec["detail"]["wall_s"])
    return groups


def report(argv) -> int:
    """Steadiness: median, quartiles and sample count per metric and workload."""
    records = _load(argv or [DEFAULT_RESULTS])
    for (workload, trace), series in sorted(_group(records).items()):
        print(f"{workload} (trace {trace})")
        for name, values in series.items():
            q1, q3 = _quartiles(values)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"iqr/median {spread:.3f}  n {len(values)}")
    names = sorted({f["invocation"] for r in records for f in r["failures"]})
    if names:
        print("failed invocations: " + ", ".join(names))
    return 0


def _verdict(par, chg, bound, lower_is_better):
    """Better, within bound, worse or unresolved (choosing-metrics section 8)."""
    sign = 1.0 if lower_is_better else -1.0
    par_med, chg_med = statistics.median(par), statistics.median(chg)
    p1, p3 = _quartiles(par)
    c1, c3 = _quartiles(chg)
    pairs = list(zip(par, chg))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(chg_med - par_med) > p3 - p1:
        return "better", wins, len(pairs)
    all_better = max(sign * c for c in chg) < min(sign * p for p in par)
    if max(p3 - p1, c3 - c1) > bound * abs(par_med) and not all_better:
        return "unresolved", wins, len(pairs)
    if sign * (chg_med - par_med) > bound * abs(par_med):
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def compare(argv) -> int:
    """Parent vs change per workload row: medians, quartiles and a verdict."""
    if len(argv) != 2:
        print("usage: run.py compare PARENT_RESULTS CHANGE_RESULTS", file=sys.stderr)
        return 2
    sides = [[r for r in _load([p]) if r["trace"] == 0] for p in argv]
    for workload in sorted({r["workload"] for side in sides for r in side}):
        par, chg = ({r["seed"]: r for r in side if r["workload"] == workload} for side in sides)
        seeds = sorted(set(par) & set(chg))
        print(f"{workload}: {len(seeds)} seed pairs")
        if not seeds:
            continue
        for metric in SPEC["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            p = [par[s]["metrics"][name]["value"] for s in seeds]
            c = [chg[s]["metrics"][name]["value"] for s in seeds]
            verdict, wins, n = _verdict(p, c, metric["bound"], metric["better"] == "lower")
            (p1, p3), (c1, c3) = _quartiles(p), _quartiles(c)
            print(f"  {name:12s} parent {statistics.median(p):.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {statistics.median(c):.6g} [{c1:.6g}, {c3:.6g}] {unit}  "
                  f"wins {wins}/{n}  {verdict}")
        pf = sum(par[s]["failed"] for s in seeds) / sum(par[s]["attempted"] for s in seeds)
        cf = sum(chg[s]["failed"] for s in seeds) / sum(chg[s]["attempted"] for s in seeds)
        print(f"  {'fail_frac':12s} parent {pf:.6g}  change {cf:.6g}")
        differ = sum(1 for s in seeds for name, d in chg[s]["golden"].items()
                     if par[s]["golden"].get(name) != d)
        print(f"  golden digests differing from the parent (informational): {differ}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["report"]:
        return report(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (SRC / "phasewave" / "cli.py").is_file():
        print(f"error: no phasewave sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy is imported
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, args.results)
        _print_record(rec)
    if args.workload != "all":
        print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
