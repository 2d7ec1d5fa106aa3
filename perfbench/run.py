"""caralab benchmark: certified brackets, timed end to end and layer by layer.

    python3 perfbench/run.py --workload annulus-default|glued-deep|cli-session|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; caralab is imported from its src/.  Every
worker is a fresh interpreter with one closed-loop client on one thread.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a separate traced run.  Full details, the machine facts
and the spans go under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("annulus-default", "glued-deep", "cli-session")
DEFAULT_SEED = 1
SETUPS = 3  # set-ups measured per run; setup_s is their median
# Times are scaled to a host on which worker.calibrate() takes this long.
REFERENCE_CAL_S = 2.5e-3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, mode: str) -> dict:
        """Run one worker to completion; its set-up time counts from spawn."""
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--mode", mode,
        ]
        spawned = time.monotonic()
        timeout = self.deadline - spawned
        if timeout <= 0:
            raise BenchError("out of time before the next worker could start")
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        return report


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scaled(lat: list, cal: list) -> list:
    """Each time scaled to the reference host speed, judged by the median of
    the calibrations that follow it and its two neighbours on each side."""
    out = []
    for k, t in enumerate(lat):
        near = cal[max(0, k - 2):k + 3]
        out.append(t * REFERENCE_CAL_S / statistics.median(near))
    return out


def end_to_end(r: Runner) -> dict:
    if r.workload == "cli-session":
        # A script's commands take about 9 s; each script's set-up counts
        # towards setup_s.
        runs = [r.spawn("run") for _ in range(max(SETUPS, round(r.seconds / 10.0)))]
        return cli_metrics(runs)
    setups = [r.spawn("setup") for _ in range(SETUPS - 1)]
    main = r.spawn("run")
    return library_metrics(main, setups + [main])


def library_metrics(main: dict, setups: list) -> dict:
    # Each op's fastest pass, after scaling: the host's slow spells only add
    # time.
    n = main["distinct"]
    lat = scaled(main["latencies_s"], main["cal_s"])
    best = [min(lat[i::n]) for i in range(n)]
    _, p50, p75 = quartiles(best)
    q = main["quality"]
    return {
        "metrics": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": p50 * 1e3,
            "latency_p75_ms": p75 * 1e3,
            "width_rel_median": q["width_rel_median"],
            "width_rel_max": q["width_rel_max"],
            "noncompact_floor": q["noncompact_floor"],
            "peak_rss_mb": main["rss_mb"],
        },
        "attempted": main["attempted"],
        "failed": len(main["errors"]),
        "errors": main["errors"],
        "samples": f"{n} ops x {len(lat) // n} passes",
        "latencies_s": main["latencies_s"],
        "cal_s": main["cal_s"],
        "setups": [s["setup_s"] for s in setups],
        "versions": main["versions"],
    }


def cli_metrics(runs: list) -> dict:
    steps = [s for run in runs for s in run["steps"]]
    lat = [s["s"] for s in steps]
    # Each step's fastest script after scaling, as for the library passes.
    per_run = [scaled([s["s"] for s in run["steps"]], [s["cal"] for s in run["steps"]])
               for run in runs]
    best = [min(col) for col in zip(*per_run)]
    _, p50, p75 = quartiles(best)
    errors = {}
    for k, run in enumerate(runs):
        errors.update({f"script{k}.{step}": e for step, e in run["errors"].items()})
    digests = sorted({run["digest"] for run in runs})
    if len(digests) != 1:
        errors["digest"] = [f"reports differ between fresh interpreters: {digests}"]
    q = runs[0]["quality"]
    widths = q["widths"]
    return {
        "metrics": {
            "setup_s": statistics.median(run["setup_s"] for run in runs),
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": p50 * 1e3,
            "latency_p75_ms": p75 * 1e3,
            "width_rel_median": statistics.median(widths) if widths else float("nan"),
            "width_rel_max": max(widths) if widths else float("nan"),
            "noncompact_floor": q.get("noncompact_floor", float("nan")),
            "peak_rss_mb": max(run["rss_mb"] for run in runs),
        },
        "attempted": len(steps),
        "failed": len(errors),
        "errors": errors,
        "samples": f"{len(best)} steps x {len(runs)} scripts",
        "latencies_s": lat,
        "setups": [run["setup_s"] for run in runs],
        "cal_s": [[s["cal"] for s in run["steps"]] for run in runs],
        "digest": digests[0],
        "versions": runs[0]["versions"],
    }


def per_layer(r: Runner) -> dict:
    if r.workload == "cli-session":
        plain = r.spawn("run")
        traced = r.spawn("trace")
        untraced_s = sum(s["s"] for s in plain["steps"])
        traced_s = sum(s["s"] for s in traced["steps"])
        layers = dict(traced["layers"])
        for s in traced["steps"]:
            layers[f"cli.{s['step']}.s"] = s["s"]
        errors = {f"traced.{k}": v for k, v in traced["errors"].items()}
        attempted = len(traced["steps"])
    else:
        traced = r.spawn("trace")
        untraced_s, traced_s = traced["untraced_s"], sum(traced["latencies_s"])
        layers = dict(traced["layers"], **traced["properties"])
        errors = traced["errors"]
        attempted = traced["attempted"]
    layers["setup.import_s"] = traced["import_s"]
    layers["setup.warmup_s"] = traced["warmup_s"]
    layers["trace.overhead_ratio"] = untraced_s / traced_s
    if abs(layers["trace.self_sum_ratio"] - 1.0) > 0.05:
        errors["trace"] = [f"span self times sum to {layers['trace.self_sum_ratio']:.4f} "
                           "of op time, outside 5 %"]
    metrics = {m["name"]: layers.get(m["name"], 0.0) for m in SPEC["per_layer"]}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "versions": traced["versions"],
        "all_layers": layers,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    r = Runner(workload, seed, seconds)
    out = per_layer(r) if trace else end_to_end(r)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    out["metrics"] = {
        k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()
    }
    out["machine"] = dict(
        nproc=os.cpu_count(), cpu=cpu_model(), **out.pop("versions")
    )
    out.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return out


def print_result(res: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']}  seed {res['seed']}  seconds {res['seconds']}  "
          f"trace {res['trace']}")
    print(f"machine nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    for name, v in res["metrics"].items():
        print(f"  {name:44s} {v['value']:.6g} {v['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':44s} {rate:.6g} ({res['failed']}/{res['attempted']} ops)")
    if "samples" in res:
        print(f"  {'latency samples':44s} {res['samples']}")
    if "digest" in res:
        print(f"  {'report digest (sha256)':44s} {res['digest']}")
    for key, errs in res["errors"].items():
        print(f"  FAILED {key}: {'; '.join(errs)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "caralab" / "__init__.py").is_file():
        print(f"no caralab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outdir = ROOT / ".perfbench-out"
    outdir.mkdir(exist_ok=True)
    results = []
    for w in workloads:
        try:
            res = run_one(w, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed on {w}: {exc}", file=sys.stderr)
            return 1
        print_result(res)
        path = outdir / f"{w}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        results.append(res)
    if len(results) == 1:
        res = results[0]
        line = {k: res[k] for k in ("attempted", "failed", "metrics")}
    else:
        line = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
            },
        }
    print(json.dumps({"correct": line["failed"] == 0, **line}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
