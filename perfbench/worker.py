"""One fresh interpreter of the benchmark: set up, run one workload, report.

run.py starts it as

    python worker.py --root ROOT --workload W --seed N --seconds S --mode M

with PYTHONPATH set to ROOT/src, and reads the one JSON line it prints.
Modes: `setup` stops once set-up is done, `run` measures with tracing off,
`trace` runs a fixed number of ops untraced and then again traced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_ops(wl, seconds: float) -> int:
    # Whole cycles, fixed per --seconds, so traced counts repeat exactly;
    # each pass takes about seconds / 2.5 on a 2-core x86 box.
    per_second = {"annulus-default": 0.6, "glued-deep": 2.0}[wl.name]
    return wl.cycle * max(1, round(seconds * per_second / wl.cycle))


def versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def calibrate() -> float:
    """Seconds taken by a fixed 3 ms kernel of the program's kind: complex
    arithmetic in Python loops and numpy over a few thousand points.

    A shared host's speed drifts; the kernel's time says by how much, and
    run.py scales the op times next to it to a reference speed.
    """
    import numpy as np

    t = time.perf_counter()
    a, s = 0.3 + 0.2j, 0.0
    for k in range(3000):
        b = complex(k * 1e-4, 0.1)
        s += abs((a - b) / (1 - a.conjugate() * b))
    z = np.linspace(0.0, 0.9, 4096) + 0.3j
    for _ in range(20):
        s += float(np.abs((z - a) / (1 - a.conjugate() * z)).sum())
    return time.perf_counter() - t


def run_ops(wl, indices, rec=None, cal=None) -> tuple:
    """Run ops by index; returns (results, errors, latencies, seconds).

    With a list `cal`, a calibration follows each op, outside its time.
    """
    results, errors, lat = {}, {}, []
    op_nid = rec.intern("op") if rec is not None else None
    start = time.perf_counter()
    for i in indices:
        t = time.perf_counter()
        span = rec.open(op_nid) if rec is not None else None
        try:
            results[i] = wl.op(i)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors[i] = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if span is not None:
                rec.close(span)
        lat.append(time.perf_counter() - t)
        if cal is not None:
            cal.append(calibrate())
    return results, errors, lat, time.perf_counter() - start


def run_timed(wl) -> tuple:
    """Closed loop, one client: wl.passes passes over ops 0..wl.distinct-1.

    Returns (results, errors, latencies, calibrations, seconds).  A
    repeated op must return the same bracket as before.
    """
    results, errors, lat, cal = {}, {}, [], []
    start = time.perf_counter()
    for _ in range(wl.passes):
        r, e, l, _ = run_ops(wl, range(wl.distinct), cal=cal)
        for i, br in r.items():
            if results.setdefault(i, br) != br:
                e.setdefault(i, []).append("bracket differs between passes")
        errors.update(e)
        lat += l
    return results, errors, lat, cal, time.perf_counter() - start


def check_library(wl, results: dict, errors: dict) -> dict:
    for i, br in results.items():
        errs = wl.check(i, br)
        if errs:
            errors.setdefault(i, []).extend(errs)
    for i, msg in wl.post_checks(results):
        errors.setdefault(i, []).append(msg)
    return errors


def quality(wl, results: dict) -> tuple:
    """Width over the fixed pair prefix and the non-compactness floor, both
    computed outside the timed region.

    Returns (metrics, errors, number of untimed ops run for them).
    """
    import workloads

    errors, widths, extra = {}, [], 1
    for i in wl.width_idx:
        br = results.get(i)
        if br is None:  # not among the timed ops
            r, e, _, _ = run_ops(wl, [i])
            errors.update(check_library(wl, r, e))
            br = r.get(i)
            extra += 1
        if br is not None:
            widths.append((br.upper - br.lower) / br.upper)
    floor, errs = workloads.noncompact_floor()
    if errs:
        errors["noncompact"] = errs
    return {
        "width_rel_median": statistics.median(widths) if widths else float("nan"),
        "width_rel_max": max(widths) if widths else float("nan"),
        "noncompact_floor": floor,
    }, errors, extra


def beyond_radial_ratio(lower_calls: list) -> float:
    import workloads

    if not lower_calls:
        return 0.0
    useful = sum(v > workloads.radial_value(R, a, b) + 1e-9 for R, a, b, v in lower_calls)
    return useful / len(lower_calls)


def layer_metrics(summary: dict, op_s: float, lower_calls: list) -> dict:
    calls, self_s = summary["calls"], summary["self_s"]
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update({f"{name}.self_s": s for name, s in self_s.items()})
    out.update(summary["counters"])
    upper_calls = calls.get("glued.upper", 0)
    nested = summary["children_of"].get("glued.upper>annulus.upper", 0)
    out["glued.upper.annulus_upper_per_call"] = nested / upper_calls if upper_calls else 0.0
    out["annulus.lower.optimizer.share_of_op"] = (
        self_s.get("annulus.lower.optimizer", 0.0) / op_s if op_s else 0.0
    )
    out["annulus.lower.beyond_radial_ratio"] = beyond_radial_ratio(lower_calls)
    out["trace.op_s"] = op_s
    out["trace.self_sum_ratio"] = summary["tree_self_s"] / op_s if op_s else 0.0
    out["trace.unattributed_share"] = summary["root_self_s"] / op_s if op_s else 0.0
    return out


def library(args, report: dict) -> None:
    import workloads

    t = time.perf_counter()
    wl = workloads.LIBRARY[args.workload](args.seed, args.seconds)
    report["inputs_s"] = time.perf_counter() - t

    t = time.perf_counter()
    if args.mode == "trace":
        from spans import Instrumentation, Recorder

        # The warm-up gets a recorder of its own, so that op-phase layer
        # figures cover the ops alone.
        warm = Recorder()
        ins = Instrumentation(warm)
        ins.install()
        wl.warmup()
        ins.restore()
    else:
        wl.warmup()
    report["warmup_s"] = time.perf_counter() - t
    report["ready"] = time.monotonic()
    if args.mode == "setup":
        return

    extra = 0
    if args.mode == "run":
        results, errors, lat, cal, elapsed = run_timed(wl)
        report.update(cal_s=cal, distinct=wl.distinct)
        report["rss_mb"] = peak_rss_mb()
        errors = check_library(wl, results, errors)
        report["quality"], quality_errors, extra = quality(wl, results)
        errors.update(quality_errors)
    else:
        idx = [i % wl.distinct for i in range(trace_ops(wl, args.seconds))]
        _, _, _, untraced = run_ops(wl, idx)
        rec = Recorder()
        ins = Instrumentation(rec)
        ins.install()
        results, errors, lat, elapsed = run_ops(wl, idx, rec)
        ins.restore()
        report["untraced_s"] = untraced
        report["properties"] = wl.properties(idx)
        report["layers"] = layer_metrics(rec.summarize(), sum(lat), ins.lower_calls)
        w = warm.summarize()
        report["layers"].update({
            "setup.warmup.blaschke_new.calls": w["calls"].get("disk.blaschke_new", 0),
            "setup.warmup.blaschke_new.self_s": w["self_s"].get("disk.blaschke_new", 0.0),
            "setup.warmup.blaschke_new.zeros": w["counters"].get("disk.blaschke_new.zeros", 0),
        })
        out = Path(args.root) / ".perfbench-out"
        out.mkdir(exist_ok=True)
        rec.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
        report["layers"]["glued.upper.saturated_probe_pairs"] = workloads.saturation_probe()
        errors = check_library(wl, results, errors)
    report.update(
        ops=len(lat), completed=len(results), elapsed_s=elapsed, latencies_s=lat,
        errors={str(k): v for k, v in errors.items()}, attempted=len(lat) + extra,
    )


def cli_session(args, report: dict) -> None:
    import caralab.cli as cli
    import workloads

    t = time.perf_counter()
    script = workloads.cli_script(args.seed)
    report["inputs_s"] = time.perf_counter() - t
    report["warmup_s"] = 0.0  # a CLI user starts with cold caches
    report["ready"] = time.monotonic()
    if args.mode == "setup":
        return

    rec = ins = None
    if args.mode == "trace":
        from spans import Instrumentation, Recorder

        rec = Recorder()
        ins = Instrumentation(rec)
        ins.install()
    steps, errors, quality, digest = [], {}, {"widths": []}, hashlib.sha256()
    for step, argv in script:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        span = rec.open(rec.intern(f"cli.{step}")) if rec is not None else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command
            code, err = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
        finally:
            if span is not None:
                rec.close(span)
        dt = time.perf_counter() - t
        steps.append({"step": step, "s": dt, "exit": code, "cal": calibrate()})
        text = out.getvalue()
        digest.update(f"{step}\n{text}".encode())
        errs = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()[-300:]}"]
        if code == 0:
            try:
                step_errs, q = workloads.cli_step_errors(step, argv, json.loads(text))
            except (ValueError, KeyError) as exc:
                step_errs, q = [f"unreadable report: {exc!r}"], {}
            errs += step_errs
            if "width" in q:
                b = q["width"]
                quality["widths"].append((b["upper"] - b["lower"]) / b["upper"])
            if "noncompact_floor" in q:
                quality["noncompact_floor"] = q["noncompact_floor"]
        if errs:
            errors[step] = errs
    if ins is not None:
        ins.restore()
        op_s = sum(s["s"] for s in steps)
        report["layers"] = layer_metrics(rec.summarize(), op_s, ins.lower_calls)
        report["layers"]["glued.upper.saturated_probe_pairs"] = workloads.saturation_probe()
    report.update(
        steps=steps, errors=errors, quality=quality, digest=digest.hexdigest(),
        rss_mb=peak_rss_mb(),
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args(argv)

    t = time.perf_counter()
    import caralab

    import_s = time.perf_counter() - t
    src = (Path(args.root) / "src").resolve()
    if src not in Path(caralab.__file__).resolve().parents:
        print(f"caralab imported from {caralab.__file__}, not from {src}", file=sys.stderr)
        return 2
    report = {"import_s": import_s}
    try:
        if args.workload == "cli-session":
            cli_session(args, report)
        else:
            library(args, report)
    except Exception:
        traceback.print_exc()
        return 1
    report["versions"] = versions()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
