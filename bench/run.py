"""flowtok benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload tok-desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics. The lines before it are a table with each
workload's own metric names, and a `record` line with the run record.
Inputs, checkpoints and data go to a temporary directory under the
repository root, removed on exit. See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_PARENT = ROOT / ".bench_tmp"
# The keys of workloads.WORKLOADS, named here because importing that module
# loads NumPy, which has to wait for the BLAS pin.
WORKLOAD_NAMES = ("tok-desk", "tok-toy", "lm-fusion")
BLAS_PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
# Training quality swings with the seed (tok-toy's final loss by about 50%
# between seeds), so the quality metrics come from one round on a pinned
# seed and compare exactly between commits. The seeded run's own quality
# goes to the run record.
QUALITY_SEED = 0
QUALITY_PHASES = ("train", "load", "eval")

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_items_per_s", "items/s"),
    ("train_loss_final", "loss"),
    ("encode_or_gen_short_items_per_s", "items/s"),
    ("decode_or_gen_long_items_per_s", "items/s"),
    ("eval_items_per_s", "items/s"),
    ("eval_loss", "loss"),
]


class Refused(Exception):
    """The run cannot give trustworthy numbers; no result is printed."""


def pin_blas() -> None:
    """One BLAS thread, set before the first NumPy import."""
    os.environ["MSN_DETERMINISTIC"] = "1"
    for var in BLAS_PIN_VARS:
        os.environ[var] = "1"


def os_threads() -> int | None:
    task = Path("/proc/self/task")
    return len(list(task.iterdir())) if task.is_dir() else None


def blas_pin_state() -> dict:
    """The pinned variables, for the record, and whether the process runs
    one OS thread once BLAS has started, which is what refuses a run."""
    threads = os_threads()
    env = {var: os.environ.get(var) for var in BLAS_PIN_VARS}
    return {"env": env, "os_threads": threads, "pinned": threads in (None, 1)}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_pin": blas_pin_state(),
    }


def run_round(workload, tracer=None, setup=True,
              quality_only=False) -> tuple[float, dict[str, list[float]]]:
    """Optionally one set-up, then the workload's schedule of operations.
    Returns the seconds taken and items/s per operation by phase.
    `quality_only` runs instead one operation of each phase the quality
    metrics need: train, load and eval."""
    workload.counts.clear()
    rates: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    if setup:
        if tracer is not None:
            tracer.begin_op("setup")
        workload.setup()
    if quality_only:
        schedule = [p for p in workload.phases if p.name in QUALITY_PHASES]
    else:
        schedule = workload.schedule
    for phase in schedule:
        if tracer is not None:
            tracer.begin_op(phase.name)
        items, dt = phase.op()
        rates.setdefault(phase.name, []).append(items / dt)
    return time.perf_counter() - t0, rates


def run_rounds(workload, seconds: float) -> dict[str, list[float]]:
    """Rounds back to back until --seconds is spent, so every phase samples
    the whole run rather than one stretch of it."""
    deadline = time.perf_counter() + seconds
    rates: dict[str, list[float]] = {}
    walls = []
    while True:
        wall, r = run_round(workload, setup=False)
        walls.append(wall)
        for name, values in r.items():
            rates.setdefault(name, []).extend(values)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return rates


def end_to_end(workload, quality: dict, setup_s: float, rates: dict) -> tuple[dict, list]:
    by_key = {p.key: p for p in workload.phases if p.key}
    values = {"setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    table = [("setup_s", setup_s, "s"), ("peak_rss_mb", values["peak_rss_mb"], "MB")]
    for key, _ in END_TO_END:
        if key in by_key:
            phase = by_key[key]
            values[key] = statistics.median(rates[phase.name])
            table.append((phase.label, values[key], phase.unit))
        elif key in workload.quality_labels:
            values[key] = quality.get(key, float("nan"))
            label = f"{workload.quality_labels[key]} (seed {QUALITY_SEED})"
            table.append((label, values[key], "loss"))
    return values, table


def write_spans(path: Path, rounds: list) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, round_spans in enumerate(rounds):
            for name, start, end, parent, op, phase in round_spans:
                f.write(json.dumps({"round": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "phase": phase}) + "\n")


def timed_run(workload, reference, seconds: float, startup_s: float) -> tuple[dict, list]:
    """The end-to-end metrics: set-up repeated, then rounds for `seconds`."""
    reference.setup()
    run_round(reference, setup=False, quality_only=True)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        reps.append(time.perf_counter() - t0)
    rates = run_rounds(workload, seconds)
    workload.record.update({
        "setup": {"startup_s": startup_s, "reps_s": reps},
        "seeded_quality": workload.quality,
        "op_rates": {name: {"ops": len(r), "quartiles": statistics.quantiles(r, n=4)
                            if len(r) > 1 else r} for name, r in rates.items()},
    })
    return end_to_end(workload, reference.quality, startup_s + statistics.median(reps), rates)


def traced_run(workload, seconds: float, spans_path: str | None) -> tuple[dict, list]:
    """The per-layer metrics: untraced and traced rounds in pairs for
    `seconds`; medians over the traced rounds."""
    import spans

    workload.setup()
    deadline = time.perf_counter() + seconds
    rounds, overheads, span_log = [], [], []
    while True:
        pair_t0 = time.perf_counter()
        plain, _ = run_round(workload)
        with spans.Tracer() as tracer:
            traced, _ = run_round(workload, tracer)
        rounds.append(spans.layer_metrics(tracer, workload.counts))
        overheads.append(traced / plain - 1.0)
        if spans_path:
            span_log.append(tracer.spans)
        if time.perf_counter() + (time.perf_counter() - pair_t0) > deadline:
            break
    if spans_path:
        write_spans(Path(spans_path), span_log)
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["trace.overhead_share"] = statistics.median(overheads)
    return values, [(name, values[name], unit) for name, unit, _ in spans.LAYER_METRICS]


def run_workload(args) -> int:
    startup_t0 = time.perf_counter()
    startup_cpu_s = time.process_time()  # interpreter start-up so far, which is CPU bound
    pin_blas()
    import numpy as np

    np.ones((64, 64)) @ np.ones((64, 64))  # BLAS start-up creates its threads, if any
    sys.path.insert(0, str(ROOT / "src"))
    import flowtok

    if Path(flowtok.__file__).resolve().parent != (ROOT / "src" / "flowtok").resolve():
        raise Refused(f"flowtok imported from {flowtok.__file__}, not from this tree")
    import spans
    import workloads

    startup_s = startup_cpu_s + time.perf_counter() - startup_t0
    env = environment(np)
    if not env["blas_pin"]["pinned"]:
        raise Refused(f"BLAS threads are not pinned: {env['blas_pin']}")

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        gate = workloads.Gate()
        make = workloads.WORKLOADS[args.workload]
        workload = make(args.seed, tmp, gate, args.inject_nan)
        run_t0 = time.perf_counter()
        if args.trace:
            values, table = traced_run(workload, args.seconds, args.spans)
            units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        else:
            (tmp / "quality").mkdir()
            reference = make(QUALITY_SEED, tmp / "quality", gate, args.inject_nan)
            values, table = timed_run(workload, reference, args.seconds, startup_s)
            units = dict(END_TO_END)
        measured_s = time.perf_counter() - run_t0
        workload.finish()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    share = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"measured {measured_s:.1f} s")
    print(f"  {'failed_share':<36} {share:>14.6g}  ratio  ({gate.failed} of {gate.attempted} "
          f"operations failed)")
    for label, value, unit in table:
        print(f"  {label:<36} {value:>14.6g}  {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": measured_s, **env,
        "failed_share": share, "errors": gate.errors, "digests": workload.digests(),
        **workload.record, "values": values,
    }
    print("record " + json.dumps(record, sort_keys=True, default=float))
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v if v == v else None, "unit": units[k]}
                    for k, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}")
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            code = code or 1
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced runs: write every span to this JSON-lines file")
    parser.add_argument("--inject-nan", action="store_true",
                        help="fault injection for the benchmark's own tests: a NaN in one weight")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # a run leaves the tree as it found it
    if not (ROOT / "src" / "flowtok" / "__init__.py").is_file():
        print(f"error: no flowtok source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
