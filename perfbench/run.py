"""ftsmooth benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload mc_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The library is imported from ``src/`` of
that checkout (never from an installed copy); CLI requests run as
``python -m ftsmooth.cli``. With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. A human-readable report comes first; the last line of standard
output is a JSON object with the keys correct, attempted, failed and
metrics. The exit code is 1 when a correctness gate fails and 2 when the
library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FTS_THREADS")


def import_library() -> bool:
    """Import ftsmooth from ROOT/src, never from an installed copy."""
    package = ROOT / "src" / "ftsmooth"
    if not (package / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import ftsmooth
    return Path(ftsmooth.__file__).resolve().parent == package.resolve()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc.__class__.__name__})"
    return done.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as exc:
        blas = {"error": repr(exc)}
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "commit": git_commit(),
            "seed": seed}


def _finite(value):
    """JSON has no NaN: a metric with nothing to measure is null."""
    return value if math.isfinite(value) else None


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return f"{value:.6g}"


def report(args, out, prov, listed) -> None:
    print(f"ftsmooth benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s window, trace {args.trace}; closed loop, "
          f"1 client")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{'metric':36} {'value':>12} {'unit':9} {'samples':>7}  note")
    for name, m in out.metrics.items():
        mark = "" if name in listed else "  [report only]"
        samples = "" if m["samples"] is None else str(m["samples"])
        print(f"{name:36} {_fmt(m['value']):>12} {m['unit']:9} "
              f"{samples:>7}  {m['note']}{mark}")
    ratio = out.failed / out.attempted if out.attempted else math.nan
    print(f"{'fail_ratio':36} {_fmt(ratio):>12} {'1':9} "
          f"{out.attempted:>7}  failed {out.failed} of {out.attempted} "
          f"attempted ops  [report only]")
    for guard in out.details.get("memory_guard", []):
        print(f"memory guard n_eval={guard['n_eval']} "
              f"n_train={guard['n_train']}: predicted dense "
              f"{guard['predicted_mib']:.0f} MiB, cap {guard['cap_mib']:.0f} "
              f"MiB -> {guard['status']}")
    totals = out.details.get("span_totals", {})
    if totals:
        print(f"{'span (per traced op)':36} {'calls':>12} {'total ms':>9} "
              f"{'self ms':>9}")
    for name, t in totals.items():
        print(f"{name:36} {t['calls']:>12.6g} {t['ms']:>9.4g} "
              f"{t['self_ms']:>9.4g}")
    for name, g in out.gates.items():
        print(f"gate {name}: {'PASS' if g['ok'] else 'FAIL'} worst "
              f"{g['worst']:.3g} (tol {g['tol']:.3g}, {g['checks']} checks)"
              f" - {g['what']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if not import_library():
        print(f"ftsmooth not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads
    from common import Context, Outcome

    listed = {m["name"]: m for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Seeds feed numpy SeedSequence, which takes non-negative integers.
    ctx = Context(ROOT, work, args.seed % 2 ** 32, args.seconds,
                  bool(args.trace))
    out = Outcome()
    try:
        if ctx.trace:
            workloads.measure_cli_startup(ctx, out)
        else:
            workloads.measure_setup(ctx, out)
        workloads.WORKLOADS[args.workload](ctx, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(args.seed)
    report(args, out, prov, listed)
    missing = [n for n in listed if n not in out.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {"correct": out.correct, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {n: {"value": _finite(out.metrics[n]["value"]),
                              "unit": listed[n]["unit"]} for n in listed}}
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out.details.pop("spans", None)
    if spans:
        t0 = spans[0].start
        with open(f"{stem}-spans.json", "w") as f:
            json.dump({"fields": ["name", "start_us", "end_us", "parent",
                                  "op", "count"],
                       "spans": [[s.name, round((s.start - t0) * 1e6, 1),
                                  round((s.end - t0) * 1e6, 1), s.parent,
                                  s.op, s.count] for s in spans]}, f)
    with open(f"{stem}.json", "w") as f:
        json.dump({"provenance": prov, "result": result,
                   "metrics": out.metrics, "gates": out.gates,
                   "details": out.details}, f, indent=1, default=str)
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
