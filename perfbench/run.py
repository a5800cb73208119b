"""Benchmark of normext's certificates and Hilbert tables.

    python3 perfbench/run.py --workload cert-quadratic --seed 1 --seconds 42 --trace 0

Runs passes of one workload for about ``--seconds`` seconds.  Each pass is a
fresh process, so the engine caches start empty, as they do for one
``normext`` command; the passes run one after another.  Every output is
checked (see workloads.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are scaled to a reference host speed (see hostspeed.py).
``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the operations
of a pass, set-up excluded, each taken at its median over the passes),
``max_op_s`` (the slowest operation, by the same medians), and the medians
over the passes of ``setup_s`` (import, corpus parse, instance generation,
``build_extension``) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
tracing.py, with ``trace.overhead_s`` = traced minus untraced ``wall_s``;
each traced pass writes its spans to ``perfbench/out/``.

    python3 perfbench/run.py --record-reference

rewrites ``reference.json``, the sha256 of every corpus certificate, from
the program as it stands.
"""

from time import perf_counter

T0 = perf_counter()  # a pass's set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HARD_LIMIT_S = 170  # a run must end within 180 s
END_TO_END = (("wall_s", "s"), ("max_op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def import_program():
    """Import normext from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "normext" / "__init__.py").is_file():
        raise BenchError(f"no normext sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import normext

    if Path(normext.__file__).resolve().parent != src / "normext":
        raise BenchError(f"imported normext from {normext.__file__}, not {src}")


# -- one pass (child process) ---------------------------------------------------


def run_pass(args) -> dict:
    import_program()
    import hostspeed
    import workloads

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    plan = workloads.build_pass(args.workload, args.seed, args.smoke, workloads.load_reference())
    setup_s = perf_counter() - T0

    seconds, failures, chunks = [], [], [hostspeed.chunk()]
    for i, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.op = i
        raised = False
        # each operation starts from a collected heap, as one normext command
        # does, so no operation is timed collecting another's garbage
        gc.collect()
        t = perf_counter()
        try:
            result = op.run()
        except Exception:  # a raising operation counts as failed; keep going
            raised = True
            traceback.print_exc()
        seconds.append(perf_counter() - t)
        chunks.append(hostspeed.chunk())
        if raised or not op.check(result):
            failures.append(op.key)
    if tracer is not None:
        tracer.op = len(plan.ops)

    # operation i ran between chunks i and i+1: scale it by the eight chunks
    # around it, set-up by the first four, layer totals by the whole pass
    factors = [hostspeed.factor(chunks[max(0, i - 3) : i + 5]) for i in range(len(plan.ops))]
    out = {
        "ops": len(plan.ops),
        "failed": failures,
        "op_seconds": {op.key: t * f for op, t, f in zip(plan.ops, seconds, factors)},
        "raw_wall_s": sum(seconds),
        "setup_s": setup_s * hostspeed.factor(chunks[:4]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        operands = tracer.scalar_operands(plan.coefficients)
        layers.update(tracing.scalar_microbench(operands, args.seed))
        units = dict(tracing.PER_LAYER)
        factor = hostspeed.factor(chunks)
        out["layers"] = {k: v * factor if units[k] in ("s", "us") else v for k, v in layers.items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-pass{args.index}.trace.json"
        tracer.write(path, plan.ops, seconds, factors)
        out["op_rows"] = tracer.op_rows(plan.ops, seconds, factors)
    return out


# -- a run (parent process) -----------------------------------------------------------


def spawn(args, traced: bool, index: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--pass",
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
    ]
    cmd += ["--traced"] * traced + ["--smoke"] * args.smoke
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"pass {index} did not finish within {timeout:.0f} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(args) -> tuple[list, list]:
    """Untraced (and, with --trace 1, traced) passes until time is up."""
    plain, traced, took = [], [], {False: [], True: []}
    start = perf_counter()
    index = 0
    while True:
        want_trace = bool(args.trace) and index % 2 == 1
        elapsed = perf_counter() - start
        t = perf_counter()
        res = spawn(args, want_trace, index, HARD_LIMIT_S - elapsed)
        took[want_trace].append(perf_counter() - t)
        (traced if want_trace else plain).append(res)
        index += 1
        enough = plain and (traced or not args.trace)
        nxt = bool(args.trace) and index % 2 == 1
        expect = statistics.median(took[nxt] or took[not nxt])
        elapsed = perf_counter() - start
        if enough and elapsed + expect > args.seconds:
            return plain, traced
        if elapsed + 1.5 * expect > HARD_LIMIT_S - 10:
            if not enough:
                raise BenchError("a pass takes too long for the time limit")
            return plain, traced


def summarize(args, plain: list, traced: list) -> dict:
    passes = plain + traced
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for key in p["failed"]:
            sys.stderr.write(f"FAILED {key}\n")
    correct = failed == 0
    wall = [p["raw_wall_s"] for p in plain]
    if args.trace:
        import tracing

        first = traced[0]["layers"]
        for p in traced[1:]:
            for name in tracing.COUNT_METRICS:
                if p["layers"][name] != first[name]:
                    sys.stderr.write(f"count {name} differs between traced passes\n")
                    correct = False
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = wall_s(traced) - wall_s(plain)
            elif name in tracing.COUNT_METRICS:
                value = first[name]
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        print_op_rows(traced[0]["op_rows"])
    else:
        op_medians = per_op_medians(plain)
        values = {
            "wall_s": sum(op_medians.values()),
            "max_op_s": max(op_medians.values()),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    sys.stderr.write(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced passes, "
        f"unscaled wall per pass {[round(w, 3) for w in wall]}, fail_ratio {failed / attempted:g} "
        f"({failed}/{attempted})\n"
    )
    for name, m in metrics.items():
        sys.stderr.write(f"  {name:32s} {m['value']:14.6f} {m['unit']}\n")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_op_medians(passes) -> dict:
    """Each operation's median time over the passes (every pass runs the
    same operations).  Medians per operation reject the host's short bursts
    of slowness better than a median of pass totals."""
    return {key: statistics.median(p["op_seconds"][key] for p in passes) for key in passes[0]["op_seconds"]}


def wall_s(passes) -> float:
    return sum(per_op_medians(passes).values())


def print_op_rows(rows) -> None:
    """Per-operation times of one traced pass, slowest first."""
    cols = ("rewriting.complete_s", "rewriting.nf_s", "quotient.extend_s", "linalg.insert_s")
    sys.stderr.write(f"  {'seconds':>8s} " + " ".join(f"{c.split('.')[1]:>11s}" for c in cols) + "  operation\n")
    for row in sorted(rows, key=lambda r: -r["seconds"]):
        vals = " ".join(f"{row.get(c, 0.0):11.4f}" for c in cols)
        sys.stderr.write(f"  {row['seconds']:8.4f} {vals}  {row['op']}\n")


def record_reference() -> None:
    import_program()
    import workloads

    out = {}
    for smoke in (False, True):
        for workload in workloads.WORKLOADS:
            for op in workloads.build_pass(workload, 0, smoke, None).ops:
                if op.recorded and op.key not in out:
                    out[op.key] = workloads.sha256(op.run()[1])
    with open(workloads.reference_path(), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(out.items())), fh, indent=1)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="cert-quadratic")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny bound m+2 instead of 2m+2")
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.one_pass:
            print(json.dumps(run_pass(args)))
            return 0
        import_program()
        plain, traced = run_passes(args)
        print(json.dumps(summarize(args, plain, traced)))
        return 0
    except BenchError as e:
        sys.stderr.write(f"benchmark error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
