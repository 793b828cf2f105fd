"""stonework benchmark: four seeded, verdict-checked, closed-loop workloads.

Run from the root of a stonework checkout:

    python3 perfbench/run.py --workload dualize --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

One client sends the next request when the previous one has finished.  Each
run sets the workload up three times from ``--seed`` (``setup_s`` is the
median), then repeats the workload's fixed request list as many times as
fill about ``--seconds`` at the workload's nominal pass length (at least
once; the count depends only on the arguments).  Every outcome is checked against the
hand-written reference in ``reference.py``.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the result carries the per-layer metrics (medians over traced passes)
plus the tracing overhead.  A fuller record (metadata, per-request verdicts,
the per-rung table, the ROADMAP baseline rows, spans) is written to
``.perfbench_runs/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one thread: the scale workload forks

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

perf = time.perf_counter
SETUP_REPEATS = 3
CALIBRATION_REF_S = 0.0019   # calibrate() at its usual speed on the 2-core x86-64 reference
SPEED_PROBE_S = 0.1

# Seven end-to-end metrics.  BENCHMARK.json gates the five that are never
# zero; failed_frac and timeout_frac are zero on some workloads, so they are
# printed and recorded; a benchmark runner sees them as ``attempted``/``failed``.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "p50_s": "s", "tail_s": "s",
             "failed_frac": "1", "timeout_frac": "1", "peak_rss_mb": "MB",
             "setup_clock_s": "s", "wall_clock_s": "s", "p50_clock_s": "s",
             "tail_clock_s": "s"}
GATED = ("setup_s", "wall_s", "p50_s", "tail_s", "peak_rss_mb")

# ROADMAP's baseline rows: (row, workload, case, source, metric).  A "span"
# row reads the inclusive duration of the first such span in the request, a
# "hot" row the request's hot-call time, a "request" row its latency.
BASELINE_ROWS = [
    ("symmetric_inverse_monoid(5) build + validate", "scale", "build ix5", "request", None),
    ("order() on ix5", "scale", "dualize ix5", "span", "inverse_core.order_s"),
    ("check_boolean on ba7", "scale", "dualize ba7", "span", "inverse_core.check_boolean_s"),
    ("stone_groupoid(ix4)", "dualize", "dualize ix4 --round-trip", "span",
     "duality.stone_groupoid_s"),
    ("stone_groupoid(ix5)", "scale", "dualize ix5", "span", "duality.stone_groupoid_s"),
    ("round_trip_monoid(ix4)", "dualize", "dualize ix4 --round-trip", "span",
     "duality.round_trip_s"),
    ("round_trip_groupoid(pair4)", "dualize", "dualize pair4 --round-trip", "span",
     "duality.round_trip_s"),
    ("ix4 filter_semigroup_laws", "scale", "check ix4 --laws filter-semigroup", "span",
     "laws.filter_semigroup_s"),
    ("ix4 order_meet_laws", "scale", "check ix4 --laws all", "span", "laws.order_meet_s"),
    ("ix4 filter_laws", "scale", "check ix4 --laws filters", "span", "laws.filter_s"),
    ("ix4 verify_basic_open_laws", "laws", "check ix4 --laws basic-open", "span",
     "duality.basic_open_laws_s"),
    ("199 x cn_mul, n=2, <=40 splits", "symbolic", "199 x cn_mul n=2 <=40 splits", "hot",
     "polycyclic.cn_mul_s"),
]


class SetupError(Exception):
    """The directory is not a stonework checkout."""


def load_program(root: Path):
    """Import stonework from the checkout's own ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "stonework" / "__init__.py").is_file():
        raise SetupError(f"no stonework sources under {src}; run from a checkout's root")
    sys.path.insert(0, str(src))
    import stonework
    import stonework.cli  # noqa: F401  (loads laws, serialize, corpus)

    if src.resolve() not in Path(stonework.__file__).resolve().parents:
        raise SetupError(f"stonework was imported from {stonework.__file__}, not {src}")
    return stonework


# -- executing one request --------------------------------------------------------------


def run_in_process(request: dict) -> dict:
    """Run one request in this process and describe what it did."""
    import workloads
    from stonework import cli

    out, err = io.StringIO(), io.StringIO()
    outcome: dict = {"exception": None}
    start = perf()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in request:
                outcome["exit"] = cli.main(list(request["argv"]))
            else:
                outcome["values"] = workloads.run_symbolic(request)
    except SystemExit as exc:
        outcome["exit"] = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error is a verdict, not a crash
        outcome["exception"] = type(exc).__name__
        outcome["exit"] = 1
    outcome["latency"] = perf() - start
    outcome["stdout"], outcome["stderr"] = out.getvalue(), err.getvalue()
    return outcome


def run_isolated(request: dict, tracer) -> dict:
    """Run one request in a forked child with a hard deadline.  A child that
    misses it is killed and reaped, and the request is a timeout."""
    from tracer import pipe_sink

    read_fd, write_fd = os.pipe()
    start = perf()
    pid = os.fork()
    if pid == 0:   # child
        code = 0
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.reset()
                tracer.sink = pipe_sink(write_fd)
            before = calibrate()
            with SpeedProbe() as probe:
                outcome = run_in_process(request)
            outcome["readings"] = [before, calibrate()] + probe.readings
            if tracer is not None:
                tracer.snapshot(perf())
            os.write(write_fd, (json.dumps({"ev": "outcome", "outcome": outcome}) + "\n")
                     .encode())
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    data, killed_at = bytearray(), None
    deadline = start + request["deadline"]
    try:
        while True:
            remaining = deadline - perf()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed_at = perf()
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                data += chunk
        end = killed_at or perf()
    finally:
        os.waitpid(pid, 0)
    while chunk := os.read(read_fd, 1 << 16):
        data += chunk
    os.close(read_fd)
    events = [json.loads(line) for line in data.decode().splitlines() if line]
    outcome = next((e["outcome"] for e in events if e["ev"] == "outcome"), None)
    if tracer is not None:
        tracer.absorb([e for e in events if e["ev"] != "outcome"], killed_at)
    if outcome is None:   # killed, or died without answering
        outcome = {"timeout": killed_at is not None, "exit": None,
                   "exception": None if killed_at else "child died",
                   "latency": end - start}
    return outcome


def calibrate(repeats: int = 2) -> float:
    """Seconds per repeat of one fixed slice of interpreter and numpy work.
    The machine's speed drifts by tens of percent within seconds and between
    minutes; dividing latencies by this reading removes most of the drift."""
    import numpy as np

    start = perf()
    for _ in range(repeats):
        acc, seen, table = 0, set(), {}
        for i in range(6000):
            acc = (acc * 31 + i) & 0xFFFFF
            seen.add(acc & 4095)
            table[acc & 255] = i
        values = np.arange(20000)
        int(values[values[::-1] % 997].sum())
    return (perf() - start) / repeats


class SpeedProbe:
    """Takes a one-repeat calibration reading every SPEED_PROBE_S while a
    request runs in this process, from a SIGALRM handler, so a long request
    is adjusted by the speed it actually ran at."""

    def __init__(self):
        self.readings: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.readings.append(calibrate(1))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PROBE_S, SPEED_PROBE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(requests: list[dict], tracer=None) -> list[dict]:
    """One pass over the request list.  Calibration readings before, during
    and after each request give its speed-adjusted latency ``ref_latency``:
    the seconds it would have taken at the reference speed."""
    gc.collect()
    outcomes = []
    before = calibrate()
    for request in requests:
        hot_before = None
        if tracer is not None:
            tracer.begin_request(request["rid"])
            hot_before = {k: v[1] for k, v in tracer.hot.items()}
        child_readings, probe_readings = None, []
        if request.get("deadline"):
            # the child calibrates itself: it may run on the other core
            outcome = run_isolated(request, tracer)
            child_readings = outcome.pop("readings", None)
        else:
            with SpeedProbe() as probe:
                outcome = run_in_process(request)
            probe_readings = probe.readings
        after = calibrate()
        readings = child_readings or [before, after] + probe_readings
        speed = CALIBRATION_REF_S / statistics.median(readings)
        # a deadline is a wall-clock limit, so a timeout keeps its raw length
        outcome["ref_latency"] = outcome["latency"] * (1.0 if outcome.get("timeout") else speed)
        before = after
        if tracer is not None:
            outcome["hot"] = {k: v[1] - hot_before.get(k, 0.0) for k, v in tracer.hot.items()
                              if v[1] != hot_before.get(k, 0.0)}
        outcomes.append(outcome)
    return outcomes


# -- one run -------------------------------------------------------------------------------


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill about ``seconds`` at the nominal pass length.  The
    count depends only on the arguments, so two commits run the same list."""
    import workloads

    return max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least ten requests
    beyond it, and that percentile.  Fewer than eleven samples: the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import reference
    import workloads

    base = root / ".perfbench_runs"
    store = base / f"store-{name}-{seed}-{int(trace)}"
    setup_times, setup_ref_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(store, ignore_errors=True)
        gc.collect()
        before = calibrate()
        with SpeedProbe() as probe:
            start = perf()
            requests = workloads.setup(name, seed, store)
            setup_times.append(perf() - start)
        speed = CALIBRATION_REF_S / statistics.median([before, calibrate()] + probe.readings)
        setup_ref_times.append(setup_times[-1] * speed)

    tracer = None
    plain_walls, plain_ref_walls, traced_walls, layer_runs, passes = [], [], [], [], []
    for _ in range(pass_count(name, seconds)):
        outcomes = run_pass(requests)
        plain_walls.append(sum(o["latency"] for o in outcomes))
        plain_ref_walls.append(sum(o["ref_latency"] for o in outcomes))
        passes.append(("plain", outcomes))
        if trace:
            from tracer import Tracer

            tracer = Tracer().install()
            try:
                outcomes = run_pass(requests, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(o["ref_latency"] for o in outcomes))
            layer_runs.append(tracer.layer_metrics())
            passes.append(("traced", outcomes))
    shutil.rmtree(store, ignore_errors=True)

    verdicts = []
    for kind, outcomes in passes:
        for request, outcome in zip(requests, outcomes):
            reason = reference.check(request["expect"], outcome)
            verdicts.append({"pass": kind, "rid": request["rid"], "case": request["case"],
                             "latency": outcome["latency"], "ref_latency": outcome["ref_latency"],
                             "timeout": bool(outcome.get("timeout")),
                             "valid_input": request["valid_input"], "failure": reason,
                             "hot": outcome.get("hot", {})})
    plain = [v for v in verdicts if v["pass"] == "plain"]
    latencies = [v["latency"] for v in plain]
    ref_latencies = [v["ref_latency"] for v in plain]
    tail, tail_pct = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setup_ref_times),
        "wall_s": statistics.median(plain_ref_walls),
        "p50_s": statistics.median(ref_latencies),
        "tail_s": tail_latency(ref_latencies)[0],
        "failed_frac": sum(v["failure"] is not None for v in plain) / len(plain),
        "timeout_frac": sum(v["timeout"] for v in plain) / len(plain),
        "peak_rss_mb": peak_rss_mb(),
        "setup_clock_s": statistics.median(setup_times),
        "wall_clock_s": statistics.median(plain_walls),
        "p50_clock_s": statistics.median(latencies),
        "tail_clock_s": tail,
    }
    # "correct": every verdict on a valid input matched the reference, apart
    # from missed deadlines.  Wrong answers on corrupted inputs and timeouts
    # are failed requests, counted in "failed".
    correct = all(v["failure"] is None or v["timeout"] or not v["valid_input"]
                  for v in verdicts)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "metadata": metadata(root, name, seed, requests, len(plain_walls), tail_pct),
        "metrics": metrics, "setup_times": setup_times, "plain_walls": plain_walls,
        "plain_ref_walls": plain_ref_walls,
        "correct": correct, "attempted": len(verdicts),
        "failed": sum(v["failure"] is not None for v in verdicts),
        "rungs": rung_table(requests, plain),
        "failures": failure_summary(verdicts),
        "verdicts": verdicts,
    }
    if trace:
        layers = {key: statistics.median(run[key] for run in layer_runs)
                  for key in layer_runs[0]}
        layers["trace.overhead_s"] = statistics.median(traced_walls) - metrics["wall_s"]
        record["layers"] = layers
        record["traced_walls"] = traced_walls
        record["baseline_rows"] = baseline_rows(name, requests, tracer, verdicts)
        record["spans"] = tracer.spans
    return record


def rung_table(requests: list[dict], plain: list[dict]) -> list[dict]:
    """Case, size, and the median latency of its requests, or "timeout" if
    any of them missed its deadline."""
    rows: dict[str, dict] = {}
    sizes = {r["rid"]: r["size"] for r in requests}
    for v in plain:
        row = rows.setdefault(v["case"], {"case": v["case"], "size": sizes[v["rid"]],
                                          "latencies": [], "timeout": False})
        row["latencies"].append(v["latency"])
        row["timeout"] |= v["timeout"]
    return [{"case": r["case"], "size": r["size"], "requests": len(r["latencies"]),
             "seconds": "timeout" if r["timeout"] else statistics.median(r["latencies"])}
            for r in rows.values()]


def failure_summary(verdicts: list[dict]) -> list[dict]:
    counts: dict[tuple, int] = {}
    for v in verdicts:
        if v["failure"] is not None:
            key = (v["case"], v["failure"])
            counts[key] = counts.get(key, 0) + 1
    return [{"case": case, "reason": reason, "count": count}
            for (case, reason), count in sorted(counts.items())]


def baseline_rows(workload: str, requests, tracer, verdicts) -> list[dict]:
    """ROADMAP's baseline rows that this workload reaches, from the last
    traced pass: seconds, "timeout" (the span was open at the kill), or
    "not reached"."""
    rid_of = {r["case"]: r["rid"] for r in requests}
    traced = {v["rid"]: v for v in verdicts if v["pass"] == "traced"}
    rows = []
    for row, wl, case, source, metric in BASELINE_ROWS:
        if wl != workload:
            continue
        rid = rid_of[case]
        value: object = "not reached"
        if source == "request":
            value = "timeout" if traced[rid]["timeout"] else traced[rid]["latency"]
        elif source == "hot":
            value = traced[rid]["hot"].get(metric, "not reached")
        else:
            span = next((s for s in tracer.spans if s["rid"] == rid and s["name"] == metric),
                        None)
            if span is not None:
                value = "timeout" if span["error"] == "timeout" else span["end"] - span["start"]
        rows.append({"row": row, "case": case, "seconds": value})
    return rows


def metadata(root: Path, workload: str, seed: int, requests, passes: int,
             tail_pct: float) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():   # an exported source tree has no .git
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "workload": workload, "seed": seed,
        "requests_per_pass": len(requests), "passes": passes,
        "tail_percentile": tail_pct, "clients": 1, "loop": "closed",
    }


# -- output ----------------------------------------------------------------------------------


def print_record(record: dict) -> None:
    meta = record["metadata"]
    print(f"# {record['workload']} seed={record['seed']} passes={meta['passes']} "
          f"requests/pass={meta['requests_per_pass']} nproc={meta['nproc']} "
          f"python={meta['python']} numpy={meta['numpy']} commit={meta['commit']}")
    for name, value in record["metrics"].items():
        extra = ""
        if name == "p50_s":
            extra = f"  (n={meta['requests_per_pass'] * meta['passes']})"
        if name == "tail_s":
            extra = f"  (p{meta['tail_percentile']:.1f})"
        print(f"{name:14s} {value:12.6f} {E2E_UNITS[name]}{extra}")
    for row in record["rungs"]:
        seconds = row["seconds"]
        shown = seconds if isinstance(seconds, str) else f"{seconds:.4f} s"
        print(f"  rung {row['case']:42s} size={row['size']!s:6s} x{row['requests']:<3d} {shown}")
    for row in record.get("baseline_rows", []):
        seconds = row["seconds"]
        shown = seconds if isinstance(seconds, str) else f"{seconds:.4f} s"
        print(f"  baseline {row['row']:46s} {shown}")
    for failure in record["failures"]:
        print(f"  FAILED x{failure['count']}: {failure['case']}: {failure['reason']}")


def result_line(record: dict, trace: bool) -> dict:
    from tracer import LAYER_METRICS

    if trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": record["metrics"][name], "unit": E2E_UNITS[name]}
                   for name in GATED}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        load_program(root)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = root / ".perfbench_runs"
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print_record(record)
        records.append(record)
    if args.workload == "all":
        print(f"\n{'metric':14s}" + "".join(f"{r['workload']:>14s}" for r in records))
        for metric, unit in E2E_UNITS.items():
            print(f"{metric + ' [' + unit + ']':14s}"
                  + "".join(f"{r['metrics'][metric]:14.6f}" for r in records))
        print(json.dumps({r["workload"]: result_line(r, bool(args.trace)) for r in records}))
    else:
        print(json.dumps(result_line(records[0], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
