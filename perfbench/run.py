"""fdnoma benchmark: end-to-end metrics of one workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and scratch files go to ``.perfbench_out/``.  Workloads are in
workloads.py, metric names and units in BENCHMARK.json.  One client calls
``fdnoma.cli.main`` in-process, one call at a time (closed loop), until
S seconds have passed.  Every call's outputs are checked, and the last
line of stdout is the JSON result.

With ``--trace 0`` each call is preceded by a fresh interpreter that
imports fdnoma and loads the config (``setup_s`` is the median of their
times) and by a fixed reference computation (``wall_ref`` is the median
over calls of the call's wall time over the reference's; raw seconds go
to the detail line).  ``peak_rss_mb`` comes from one more call, made in
a fresh interpreter that runs nothing else, so the harness's own memory
is not in it.  ``--trace 1`` alternates untraced and traced calls; the
traced ones give the per-layer metrics (medians over calls) and
``trace.overhead_frac``, and must write the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")  # relative to ROOT; main() changes there
SETUP_CODE = "import sys, fdnoma; from fdnoma.config import load_config; load_config(sys.argv[1])"
# Runs cli.main on its arguments, then prints the peak resident set (KiB) of
# itself plus its largest child as the last line of stdout.
RSS_CODE = """import resource, sys
from fdnoma import cli
code = cli.main(sys.argv[1:])
print(sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
sys.exit(code)
"""
MAX_PROBLEMS = 10


class Session:
    """Runs one workload's calls and tallies the operations and their failures."""

    def __init__(self, workload, seed: int):
        from fdnoma.config import load_config

        self.workload = workload
        self.config = OUT / "default.cfg"
        self.csv = OUT / f"{workload.name}.csv"
        self.argv = workload.argv(str(self.config), seed, str(self.csv))
        self.params = load_config(self.config)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def call(self, entry) -> tuple[float, float]:
        """One checked call of ``entry(argv)``, counted as one operation; returns wall and CPU seconds."""
        self.csv.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(self.argv)
            except Exception:
                traceback.print_exc()
                code = -1
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        self.record(code, out.getvalue(), err.getvalue())
        return wall, cpu

    def call_in_child(self) -> float:
        """One checked call in a fresh interpreter; returns its peak resident set in MiB (0 if it reported none)."""
        self.csv.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-c", RSS_CODE, *self.argv], env=child_env(),
                              capture_output=True, text=True, timeout=170)
        split = proc.stdout.rstrip("\n").rfind("\n") + 1
        out, tail = proc.stdout[:split], proc.stdout[split:].strip()
        self.record(proc.returncode, out, proc.stderr, [] if tail.isdigit() else ["no peak resident set reported"])
        return int(tail) / 1024.0 if tail.isdigit() else 0.0

    def record(self, code: int, out: str, err: str, problems: list[str] | None = None) -> None:
        """Check one call's exit code, stdout and CSV, and count it as one operation."""
        problems = list(problems or [])
        csv_bytes = self.csv.read_bytes() if self.csv.exists() else None
        try:
            csv_text = None if csv_bytes is None else csv_bytes.decode()
            problems += self.workload.check(code, out, csv_text, self.params)
        except Exception as exc:  # output the checker cannot read
            problems.append(f"unreadable output: {exc!r}")
        # The CSV for a sweep, stdout for validate, must not change between calls.
        digest = hashlib.sha256(out.encode() if csv_bytes is None else csv_bytes).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("output bytes differ from the first call's")
        if code != 0 and err.strip():
            problems.append("stderr: " + err.strip().splitlines()[-1])
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems[: MAX_PROBLEMS - len(self.problems)]

    def setup(self) -> float:
        """Wall time of a fresh interpreter that imports fdnoma and loads the config, counted as one operation."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(self.config)], env=child_env(),
                              capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.failed += proc.returncode != 0
        if proc.returncode != 0 and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"set-up interpreter exited with code {proc.returncode}")
        return elapsed


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def reference_s() -> float:
    """Wall time of a fixed computation that uses no fdnoma code.

    It mixes numpy array arithmetic shaped like a simulator block with a
    Python-level loop like the quadrature callbacks.  On a shared host the
    speed of the same code drifts by tens of percent over minutes; a call's
    time divided by this one, taken just before it, cancels part of that.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_exponential((1 << 16, 4, 4))
    y = rng.standard_exponential((1 << 16, 4, 4))
    grid = 0.75 * x[:, :, :, None] / (0.25 * x[:, :, :, None] + y[:, None, :, :] + 1.0)
    np.argmax(grid.reshape(len(grid), -1), axis=1)
    total = 0.0
    for i in range(300_000):
        total += math.exp(-1e-5 * i) / (1.0 + i)
    return time.perf_counter() - start


def run_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    from fdnoma import cli

    setup, refs, calls = [], [], []
    start = time.perf_counter()
    rss = session.call_in_child()
    while not calls or time.perf_counter() - start < seconds:
        setup.append(session.setup())
        refs.append(reference_s())
        calls.append(session.call(cli.main))
    walls = [w for w, _ in calls]
    wall = statistics.median(walls)
    cpu = statistics.median(c for _, c in calls)
    values = {
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - session.failed / session.attempted,
    }
    detail = {
        "wall_s": wall,
        "work_per_s": session.workload.work_items / wall,
        "wall_s_samples": walls,
        "reference_s_samples": refs,
        "setup_s_samples": setup,
        "process.cpu_s": cpu,
        "process.cpu_per_wall": cpu / wall,
    }
    return values, detail


def run_traced(session: Session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import spans
    from fdnoma import cli

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(session.call(cli.main)[0])
        recorder = spans.Recorder()
        with spans.traced(recorder):
            traced.append(session.call(recorder.wrap("cli.cmd", cli.main))[0])
        layers.append(spans.layer_metrics(recorder))
    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    with open(spans_path, "w") as handle:
        handle.write("name,start_s,end_s,parent\n")
        origin = recorder.spans[0][1] if recorder.spans else 0.0
        for name, begin, end, parent in recorder.spans:
            handle.write(f"{name},{begin - origin!r},{end - origin!r},{parent}\n")
    detail = {"untraced_wall_s_samples": plain, "traced_wall_s_samples": traced, "spans_file": str(spans_path)}
    return values, detail


def provenance(workloads: dict, seed: int) -> dict:
    import numpy
    import scipy
    from fdnoma import montecarlo

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "seed": seed,
        "block_size": montecarlo.DEFAULT_BLOCK_SIZE,
        "argv": {
            w.name: w.argv(str(OUT / "default.cfg"), seed, str(OUT / f"{w.name}.csv"))
            for w in workloads.values()
        },
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and a detail record.  Paths are relative to ROOT."""
    import workloads

    OUT.mkdir(exist_ok=True)
    (OUT / "default.cfg").write_text(workloads.DEFAULT_CONFIG)
    session = Session(workload, seed)
    if trace:
        spans_path = OUT / f"spans_{workload.name}_seed{seed}.csv"
        values, detail = run_traced(session, seconds, spans_path)
    else:
        values, detail = run_untraced(session, seconds)
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update({
        "workload": workload.name,
        "trace": int(trace),
        "failed_frac": session.failed / session.attempted,
        "output_sha256": session.digest,
        "problems": session.problems,
        "provenance": provenance(workloads.WORKLOADS, seed),
    })
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdnoma" / "__init__.py").is_file():
        print(f"no fdnoma sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import fdnoma
    import workloads

    if Path(fdnoma.__file__).resolve().parent != SRC / "fdnoma":
        print(f"imported fdnoma from {fdnoma.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
