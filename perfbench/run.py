"""Benchmark of the ssam program: set-up, adaptation, ablation, gradcheck.

    python3 perfbench/run.py --workload adapt-conv --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and driven in-process through ``ssam.bench.cli.main``. The seed
goes to ``gen-data`` (and to ``adapt`` / ``gradcheck``). Every invocation's
outputs are checked; a nonzero exit or a failed check counts as failed.

``--trace 0`` prints the end-to-end metrics, with times scaled to the
speed of a reference kernel (``instrument.Reference``) and the values as
measured beside them. ``--trace 1`` makes one
untraced invocation, then traced set-up + invocation repetitions, and
prints the per-layer metrics and the tracing overhead. The last line of
standard output is the JSON result; the lines before it name every
metric with its unit and sample count and record the environment. Full
records (and the spans of a traced run) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = ROOT / "tests" / "golden" / "benchmark_golden.json"
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402  (the benchmark's own module, beside this file)

WORKLOADS = ("adapt-conv", "ablate-vit", "gradcheck")
SETUP_REPS = 7
GRADCHECK_TOLERANCE = 1e-4
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SSAM_THREADS")

REFERENCE_BURST = 40  # timed reference runs on each side of a timed set-up
# a fresh interpreter's import of the program, timed inside that
# interpreter, then that interpreter's reference factor
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import ssam.bench.cli; dt = time.perf_counter() - t; import instrument; "
    f"r = instrument.Reference(); r.burst({REFERENCE_BURST}); "
    "print(dt, r.factor())"
)

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".vjp_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_program():
    """Import ssam from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ssam
    import ssam.bench.cli

    if not Path(ssam.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ssam imported from {ssam.__file__}, not from {src}")
    return ssam


def import_seconds() -> tuple:
    """(seconds, reference factor) of an import in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing ssam failed: {done.stderr.strip()}")
    seconds, factor = done.stdout.split()
    return float(seconds), float(factor)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_settings() -> dict:
    """The thread settings the benchmark runs the program with: a pool
    thread per usable core and one BLAS thread each, so the threads never
    outnumber the cores. The program's own pool default is
    os.cpu_count(), which can exceed the cores this process may run on,
    and OpenBLAS defaults to a thread per core inside each pool thread."""
    return {"SSAM_THREADS": str(usable_cores()), "OPENBLAS_NUM_THREADS": "1"}


def environment(np, inherited: dict, used: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": inherited,
        "used": used,
        "ablation_pool_threads": int(used["SSAM_THREADS"]),
        "blas_threads": int(used["OPENBLAS_NUM_THREADS"]),
        "loadavg_start": loadavg(),
        "git_commit": git_commit(),
    }


def csv_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Workload:
    """One workload: the CLI arguments of an invocation and its checks."""

    def __init__(self, name: str, seed: int, work: Path, golden: dict):
        self.name, self.seed, self.work, self.golden = name, seed, work, golden
        self.data = work / "data" / "data.ssamds"
        self.report = work / "report"
        self.families = {"adapt-conv": ("conv",), "ablate-vit": ("vit",)}.get(
            name, ("conv", "vit")
        )

    def gen_data_argv(self) -> list:
        return ["gen-data", "--seed", str(self.seed), "--out", str(self.data)]

    def argv(self) -> list:
        if self.name == "adapt-conv":
            return ["adapt", "--data", str(self.data), "--encoder", "conv",
                    "--seed", str(self.seed), "--report", str(self.report)]
        if self.name == "ablate-vit":
            grid = self.work / "grid.json"
            grid.write_text(json.dumps({"alpha": [], "beta": []}))
            return ["ablate", "--data", str(self.data), "--encoder", "vit",
                    "--grid", str(grid), "--report", str(self.report)]
        return ["gradcheck", "--seed", str(self.seed)]

    def check(self, stdout: str) -> list:
        """Problems with the outputs of the invocation that just ran."""
        if self.name == "gradcheck":
            return self._check_gradcheck(stdout)
        problems = []
        if self.name == "adapt-conv":
            summary = dict(self._rows("summary.csv")[1:])
            seeds = self.golden["seeds"]
            if self.seed in seeds:
                want = self.golden["post_accuracy"][seeds.index(self.seed)]
                if float(summary["post_accuracy"]) != want:
                    problems.append(
                        f"post_accuracy {summary['post_accuracy']} != golden {want}"
                    )
        else:
            rows = self._rows("ablation.csv")
            col = rows[0].index("pre_accuracy")
            if len(rows) != 13:  # header + 4 mask cells x 3 seeds
                problems.append(f"ablation.csv has {len(rows) - 1} rows, want 12")
            if self.seed == 0:
                want = self.golden["seed0_baselines"]["vit"]["shifted_frozen_accuracy"]
                bad = [r[col] for r in rows[1:] if float(r[col]) != want]
                if bad:
                    problems.append(f"pre_accuracy {bad} != golden {want}")
        problems += self._check_digest()
        return problems

    def _rows(self, name: str) -> list:
        with open(self.report / name, newline="") as fh:
            return list(csv.reader(fh))

    def _check_digest(self) -> list:
        """Reports must be byte-identical across every run of this
        workload and seed in this checkout."""
        digest = csv_digest(self.report)
        record = OUT / "digests" / f"{self.name}-seed{self.seed}.sha256"
        if record.exists():
            want = record.read_text().strip()
            if digest != want:
                return [f"CSV reports differ from an earlier run ({digest} != {want})"]
            return []
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digest + "\n")
        return []

    def _check_gradcheck(self, stdout: str) -> list:
        for line in stdout.splitlines():
            if line.startswith("gradcheck ") and "max rel err " in line:
                err = float(line.split("max rel err ")[1].split()[0])
                if err > GRADCHECK_TOLERANCE:
                    return [f"gradcheck max_rel_err {err} > {GRADCHECK_TOLERANCE}"]
                return []
        return ["gradcheck printed no verdict"]


class Bench:
    """One benchmark run: set-up, the measured invocations, the checks."""

    def __init__(self, ssam, workload: Workload):
        self.ssam, self.w = ssam, workload
        self.attempted = 0
        self.failures: list = []

    def cli(self, argv) -> tuple:
        """Run the program once in-process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.ssam.bench.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            code = -1
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def setup(self) -> float:
        """gen-data at the seed plus the workload's encoder builds."""
        self.w.data.parent.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        code, _, err = self.cli(self.w.gen_data_argv())
        if code != 0:
            raise RuntimeError(f"gen-data failed with exit {code}: {err.strip()}")
        shape = self.ssam.bench.SyntheticShiftSpec().image_shape
        for family in self.w.families:
            self.ssam.bench.default_encoder(family, shape)
        return perf_counter() - t0

    def invoke(self) -> tuple:
        """One checked invocation: (perf_counter() at its start, wall time)."""
        shutil.rmtree(self.w.report, ignore_errors=True)
        argv = self.w.argv()
        registry, patches = instrument.EncoderRegistry(), instrument.Patches()
        registry.install(patches, self.ssam)
        try:
            t0 = perf_counter()
            code, out, err = self.cli(argv)
            wall = perf_counter() - t0
        finally:
            patches.restore()
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()[-2000:]}"]
        if code == 0:
            try:
                problems += self.w.check(out)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"output check could not read the outputs: {exc!r}")
        problems += registry.moved()
        if problems:
            self.failures.append(problems)
            print(f"perfbench: {self.w.name} invocation failed: {problems}", file=sys.stderr)
        return t0, wall

    def calibrated_setup(self) -> tuple:
        """(seconds, reference factor) of one set-up, with reference
        samples taken just before and just after it."""
        reference = instrument.Reference()
        reference.burst(REFERENCE_BURST)
        seconds = self.setup()
        reference.burst(REFERENCE_BURST)
        return seconds, reference.factor()

    def untraced(self, deadline: float) -> list:
        """Invocations while at least half of one still fits before the
        deadline (at least one): for each, its wall time and step times
        as measured, then both at the reference's nominal speed."""
        runs: list = []
        while True:
            timer, patches = instrument.StepTimer(), instrument.Patches()
            timer.install(patches, self.ssam)
            try:
                start, wall = self.invoke()
            finally:
                patches.restore()
            steps = [seconds for _, seconds in timer.samples]
            runs.append((wall, steps) + timer.reference.scale(start, start + wall, timer.samples))
            if perf_counter() + statistics.median(r[0] for r in runs) / 2 > deadline:
                break
        return runs

    def traced(self, deadline: float) -> tuple:
        """Traced set-up + invocation repetitions: (tracer, invocation walls)."""
        tracer, patches = instrument.Tracer(), instrument.Patches()
        tracer.install(patches, self.ssam)
        walls: list = []
        try:
            while True:
                tracer.run_id = f"rep{len(walls)}"
                t0 = perf_counter()
                self.setup()
                walls.append(self.invoke()[1])
                now = perf_counter()
                if now + (now - t0) > deadline:
                    break
        finally:
            patches.restore()
        return tracer, walls


def end_to_end(setup_s: float, walls: list, steps: list, rss_mb: float) -> dict:
    """The end-to-end metrics from the set-up time, the wall time of each
    invocation and the time of each step in them."""
    percentiles = statistics.quantiles(steps, n=100)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "steps_per_s": len(steps) / sum(walls),
        "step_ms_p50": 1e3 * percentiles[49],
        "step_ms_p90": 1e3 * percentiles[89],
        "peak_rss_mb": rss_mb,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the benchmark in this process; returns the full record."""
    inherited = {k: os.environ.get(k) for k in ENV_KEYS}
    used = run_settings()
    # set before numpy loads OpenBLAS, which reads its thread count once
    os.environ.update(used)
    try:
        ssam = import_program()
        import numpy as np

        env = environment(np, inherited, used)
        golden = json.loads(GOLDEN.read_text())
        bench = Bench(ssam, Workload(name, seed, OUT / f"{name}-seed{seed}", golden))
        if not trace:
            imports = [import_seconds() for _ in range(SETUP_REPS)]
            setups = [bench.calibrated_setup() for _ in range(SETUP_REPS)]
            runs = bench.untraced(perf_counter() + seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(
                statistics.median(t * f for t, f in imports)
                + statistics.median(t * f for t, f in setups),
                [r[2] for r in runs], [t for r in runs for t in r[3]], rss,
            )
            measured = end_to_end(
                statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in setups),
                [r[0] for r in runs], [t for r in runs for t in r[1]], rss,
            )
            steps = sum(len(r[1]) for r in runs)
            samples = {"setup_s": 2 * SETUP_REPS, "wall_s": len(runs),
                       "steps_per_s": len(runs), "step_ms_p50": steps,
                       "step_ms_p90": steps, "peak_rss_mb": 1}
            factors = {"import": [f for _, f in imports], "setup": [f for _, f in setups],
                       "invocation": [r[2] / r[0] for r in runs]}
            measured["invocation_walls"] = [r[0] for r in runs]
            units = UNITS
            spans = None
        else:
            bench.setup()
            start = perf_counter()
            _, base = bench.invoke()  # no step timer, no tracer
            tracer, walls = bench.traced(start + seconds)
            metrics = instrument.layer_metrics(
                tracer.spans, tracer.totals(), len(walls), usable_cores()
            )
            metrics["trace.wall_s"] = statistics.median(walls)
            metrics["trace.overhead_s"] = statistics.median(walls) - base
            measured = factors = None
            metrics["trace.spans"] = len(tracer.spans) / len(walls)
            units = {k: layer_unit(k) for k in metrics}
            samples = {k: len(walls) for k in metrics}
            spans = tracer.spans
    finally:
        for key in used:
            if inherited[key] is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = inherited[key]
    env["loadavg_end"] = loadavg()
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples,
        "measured": measured,
        "reference_factors": factors,
        "spans": spans,
    }


def write_records(record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    spans = record.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2
    write_records(record)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} invocations attempted, {record['failed']} failed")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    measured = record["measured"] or {}
    for k, m in record["metrics"].items():
        line = f"  {k:<40s} {m['value']:>16.6g} {m['unit']:<6s} n={record['samples'][k]}"
        if k in measured:
            line += f"  (as measured: {measured[k]:.6g})"
        print(line)
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
