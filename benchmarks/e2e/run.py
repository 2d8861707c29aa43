"""End-to-end benchmark of the ``vrl-dram`` CLI.

Five workloads run the real entry point, ``repro.experiments.cli.main``,
in a fresh child interpreter per measured run (``child.py``), one run
at a time, with ``--jobs 1``.  End-to-end metrics come from untraced
runs; one traced run per workload gives the per-layer split (``spans.py``).
README.md explains the workloads, the metrics and how to read a split.

Run from the repository root::

    # one workload, measured for about --seconds (BENCHMARK.json's command)
    python3 benchmarks/e2e/run.py --workload guard-replay --seed 2018 --seconds 15 --trace 0
    # a full set: every workload, round-robin repeats, then one traced run each
    python3 benchmarks/e2e/run.py --seed 2018 --out set.json
    # compare two result files, workload by workload, metric by metric
    python3 benchmarks/e2e/run.py compare A.json B.json
    # re-derive and commit the output digests at seeds 2018 and 7
    python3 benchmarks/e2e/run.py expect

A measuring run prints every metric by name with its unit, and as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer ones).  It exits 1 when an output table is
wrong and 2, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import outputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
SCHEMA = 1
DEFAULT_SEED = 2018
HELD_OUT_SEED = 7
DEFAULT_REPEATS = 7
#: Import-only children per workload and round, for set-up samples.
IMPORT_SAMPLES_PER_ROUND = 2
#: Set-up time is sampled at least this often per workload and run.
MIN_SETUP_SAMPLES = 5
#: No single child may take longer (the slowest takes about 20 s).
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """What one measured run of a workload does.

    Attributes:
        invocations: CLI verbs with their own flags; every call also
            gets ``--seed``, ``--jobs 1``, ``--cache-dir``,
            ``--runs-dir`` and ``--csv``.
        passes: closed-loop passes over ``invocations`` in one run.
        warm: an untimed prep child first fills a cache that every
            run of the workload then reads.
    """

    invocations: tuple[str, ...]
    passes: int = 1
    warm: bool = False


#: The workloads, by the names later changes cite (why each: README.md).
WORKLOADS = {
    "guard-replay": Workload(("ablation-guard",)),
    "mechanism-matrix": Workload(("mechanisms",)),
    "refresh-sweep": Workload(
        ("fig4 --duration 6", "baselines --duration 6", "rank", "temperature")
    ),
    "circuit-anchors": Workload(
        (
            "fig1a", "fig1b", "fig3", "sec31", "fig5", "table1", "table2",
            "ablation-nbits", "ablation-geometry", "ablation-bins",
            "sensitivity", "validate", "calibrate",
        )
    ),
    "warm-sweeps": Workload(
        ("fig4", "baselines", "rank", "temperature", "calibrate"), passes=300, warm=True
    ),
}

#: Per-run end-to-end samples (``setup_s`` is sampled separately).
RUN_METRICS = ("wall_s", "peak_rss_mb")


class HarnessError(RuntimeError):
    """The program could not be run or measured."""


def _clock() -> float:
    # System-wide, so a child's ready stamp compares with the spawn stamp.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_benchmark() -> dict:
    """BENCHMARK.json: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Harness:
    """Spawns the child runs of one seed inside a private work area.

    The work area lives under ``.bench_work/`` in the repository (the
    children's ``TMPDIR`` too) and is removed on exit.
    """

    def __init__(self, seed: int):
        self.seed = seed
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=base))
        self.env = dict(os.environ)
        self.env.pop("VRL_DRAM_FAULTS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["TMPDIR"] = str(self.work)

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, job: dict) -> dict:
        """Run one child on ``job``; its result plus ``setup_s`` and
        ``elapsed_s`` measured from the spawn."""
        directory = Path(tempfile.mkdtemp(dir=self.work))
        job_path = directory / "job.json"
        result_path = directory / "result.json"
        job_path.write_text(json.dumps({**job, "result": str(result_path)}))
        spawned = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(job_path)],
                env=self.env,
                cwd=directory,
                stdout=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S,
                check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"child timed out after {exc.timeout:.0f} s") from exc
        elapsed = _clock() - spawned
        if proc.returncode != 0 or not result_path.exists():
            raise HarnessError(f"child exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        shutil.rmtree(directory)
        result["setup_s"] = result.pop("ready") - spawned
        result["elapsed_s"] = elapsed
        return result

    def import_only(self) -> dict:
        """A child that only imports the CLI (set-up sample, versions)."""
        return self.spawn({"import_only": True})

    def run(
        self,
        workload: Workload,
        *,
        trace: bool = False,
        cache: Optional[Path] = None,
        passes: Optional[int] = None,
    ) -> dict:
        """One run of ``workload``: its samples and output digests."""
        directory = Path(tempfile.mkdtemp(dir=self.work))
        csv_dir = directory / "csv"
        flags = [
            "--seed", str(self.seed), "--jobs", "1",
            "--cache-dir", str(cache or directory / "cache"),
            "--runs-dir", str(directory / "runs"),
            "--csv", str(csv_dir),
        ]
        result = self.spawn(
            {
                "invocations": list(workload.invocations),
                "passes": passes or workload.passes,
                "flags": flags,
                "trace": trace,
            }
        )
        result["digests"] = {}
        for invocation in workload.invocations:
            try:
                got = outputs.digest(csv_dir / f"{invocation.split()[0]}.csv")
            except (OSError, ValueError):
                got = None
            result["digests"][invocation] = got
        shutil.rmtree(directory)
        return result


def measure(
    workloads: dict[str, Workload],
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = True,
    expected: Optional[dict] = None,
) -> dict:
    """Measure ``workloads`` round-robin and return the results document.

    Rounds stop after ``repeats``, or once another round would end past
    ``seconds`` (at least one round runs).  Each round takes a set-up
    sample from every run plus :data:`IMPORT_SAMPLES_PER_ROUND`
    import-only children per workload, so set-up is sampled across the
    same host drift as the runs.  With ``trace``,
    one traced run per workload follows the untraced rounds.
    """
    expected = expected if expected is not None else outputs.load_expected()
    names = list(workloads)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    setups: dict[str, list[float]] = {name: [] for name in names}
    extra: dict[str, list[dict]] = {name: [] for name in names}
    caches: dict[str, Path] = {}
    prep_s: dict[str, float] = {}
    with Harness(seed) as harness:
        versions = harness.import_only()["versions"]  # also warms __pycache__
        for name in names:
            if workloads[name].warm:
                caches[name] = harness.work / f"cache-{name}"
                prep = harness.run(workloads[name], cache=caches[name], passes=1)
                prep_s[name] = prep["elapsed_s"]
                extra[name].append(prep)
        started = _clock()
        round_s: list[float] = []
        while True:
            t0 = _clock()
            for name in names:
                runs[name].append(harness.run(workloads[name], cache=caches.get(name)))
                setups[name].append(runs[name][-1]["setup_s"])
                for _ in range(IMPORT_SAMPLES_PER_ROUND):
                    setups[name].append(harness.import_only()["setup_s"])
            round_s.append(_clock() - t0)
            if repeats is not None:
                if len(round_s) >= repeats:
                    break
            elif _clock() - started + statistics.median(round_s) > seconds:
                break
        for name in names:
            while len(setups[name]) < MIN_SETUP_SAMPLES:
                setups[name].append(harness.import_only()["setup_s"])
        traced = {}
        if trace:
            for name in names:
                traced[name] = harness.run(workloads[name], trace=True, cache=caches.get(name))
                extra[name].append(traced[name])

    reports = {}
    for name in names:
        everything = runs[name] + extra[name]
        attempted = sum(r["ops"] for r in everything)
        failed = sum(r["failed"] for r in everything)
        problems = check_outputs(name, seed, everything, expected)
        report = {
            "runs": [
                {k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "ops", "failed")}
                for r in runs[name]
            ],
            "setup_s": setups[name],
            "metrics": {m: summary([r[m] for r in runs[name]]) for m in RUN_METRICS},
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "output_ok": int(not problems),
            "problems": problems,
            "trace": None,
        }
        report["metrics"]["setup_s"] = summary(setups[name])
        if name in prep_s:
            report["prep_s"] = prep_s[name]
        if name in traced:
            split = dict(traced[name]["trace"])
            split["trace.overhead_frac"] = (
                traced[name]["wall_s"] / report["metrics"]["wall_s"]["median"] - 1
            )
            report["trace"] = split
        reports[name] = report
    return {
        "stamp": stamp(seed, len(round_s), seconds, versions, prep_s),
        "workloads": reports,
    }


def check_outputs(name: str, seed: int, results: list[dict], expected: dict) -> list[str]:
    """Problems with a workload's output tables (empty when correct).

    Every run of the workload, cold or warm, traced or not, must write
    the same tables, and those must match the committed digests.
    """
    first = results[0]["digests"]
    problems = []
    for invocation, got in first.items():
        if got is None:
            problems.append(f"{invocation}: no CSV table written")
        else:
            problem = outputs.problem(invocation, seed, got, expected)
            if problem is not None:
                problems.append(problem)
    if any(r["digests"] != first for r in results[1:]):
        problems.append(f"{name}: output tables differ between runs")
    return problems


def stamp(seed: int, repeats: int, seconds: Optional[float], versions: dict, prep_s: dict) -> dict:
    """Where and how a results file was measured (``commit`` and ``dirty``
    are ``None`` outside a git checkout)."""
    commit = _git("rev-parse", "HEAD")
    return {
        "schema": SCHEMA,
        "commit": commit,
        "dirty": None if commit is None else bool(_git("status", "--porcelain")),
        **versions,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "prep_s": prep_s,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_report(doc: dict, units: dict[str, str]) -> None:
    """Every metric by name with its unit, workload by workload."""
    for name, report in doc["workloads"].items():
        print(f"== {name}: output_ok={report['output_ok']} "
              f"fail_frac={report['fail_frac']:.4g} ({report['failed']}/{report['attempted']} ops)")
        for problem in report["problems"]:
            print(f"   ! {problem}")
        for metric, s in report["metrics"].items():
            print(f"   {metric:<14} {s['median']:>12.6g} {units.get(metric, '')}"
                  f"   [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        if report.get("prep_s") is not None:
            print(f"   {'prep_s':<14} {report['prep_s']:>12.6g} s   (untimed cache fill)")
        if report["trace"]:
            split = ", ".join(
                f"{layer} {share:.1%}" for layer, share in spans.layer_shares(report["trace"]).items()
            )
            print(f"   traced split of self time: {split}")
            zero = [k for k, v in report["trace"].items() if v == 0]
            for metric, value in report["trace"].items():
                if value != 0:
                    print(f"   {metric:<52} {value:>14.6g} {units.get(metric, '')}")
            print(f"   ({len(zero)} per-layer metrics are 0 on this workload)")


def result_line(doc: dict, benchmark: dict, trace: bool) -> dict:
    """The final JSON line for one workload."""
    (report,) = doc["workloads"].values()
    if trace:
        metrics = {m["name"]: (report["trace"][m["name"]], m["unit"]) for m in benchmark["per_layer"]}
    else:
        metrics = {
            m["name"]: (report["metrics"][m["name"]]["median"], m["unit"])
            for m in benchmark["end_to_end"]
        }
    return {
        "correct": bool(report["output_ok"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    """Print both sides of every workload x end-to-end metric with a
    verdict; exit 1 when anything is worse on B."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<17} {'metric':<12} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}  verdict")
    for name in [n for n in a if n in b]:
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            va, vb = samples(a[name], key), samples(b[name], key)
            result = verdict(va, vb, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{name:<17} {key:<12} {_fmt(va):>34} {_fmt(vb):>34}  {result}")
        for key, rose in (
            ("fail_frac", b[name]["fail_frac"] > a[name]["fail_frac"]),
            ("output_ok", b[name]["output_ok"] < 1),
        ):
            worse += rose
            print(f"{name:<17} {key:<12} {a[name][key]:>34.4g} {b[name][key]:>34.4g}  "
                  f"{'worse' if rose else 'same'}")
    return 1 if worse else 0


def samples(report: dict, metric: str) -> list[float]:
    """The raw per-run values of one end-to-end metric."""
    if metric == "setup_s":
        return report["setup_s"]
    return [r[metric] for r in report["runs"]]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``better``, ``worse``, ``same`` (within the bound) or ``unresolved``.

    B is judged against A.  Where either side's spread (quartile
    distance over median) is wider than the bound, the metric is
    unresolved unless every run of one side beats every run of the other.
    """
    sa, sb = summary(a), summary(b)
    sign = -1 if better == "lower" else 1
    gain = sign * (sb["median"] - sa["median"]) / sa["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    if spread > bound:
        if all(sign * (x - y) > 0 for x in b for y in a):
            return "better"
        if all(sign * (x - y) < 0 for x in b for y in a):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def _fmt(values: list[float]) -> str:
    s = summary(values)
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def expect(seeds=(DEFAULT_SEED, HELD_OUT_SEED)) -> int:
    """Re-derive ``expected/digests.json``: every workload's tables, run
    cold twice per seed, must repeat before they are written."""
    doc: dict = {"seeds": {}, "any_seed": {}, "keys": {}}
    for seed in seeds:
        rows = doc["seeds"][str(seed)] = {}
        with Harness(seed) as harness:
            harness.import_only()
            for name, workload in WORKLOADS.items():
                first, second = (harness.run(workload, passes=1)["digests"] for _ in range(2))
                for invocation, got in first.items():
                    if got is None or got != second[invocation]:
                        raise HarnessError(f"seed {seed}: {invocation} does not repeat")
                    if doc["keys"].setdefault(invocation, got["keys"]) != got["keys"]:
                        raise HarnessError(f"{invocation}: row names depend on the seed")
                    rows[invocation] = got["rows"]
                print(f"seed {seed}: {name} repeats", flush=True)
    for invocation in doc["keys"]:
        digests = {doc["seeds"][str(s)][invocation] for s in seeds}
        if len(digests) == 1:
            doc["any_seed"][invocation] = digests.pop()
    outputs.EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {outputs.EXPECTED.relative_to(ROOT)}")
    return 0


def main(
    argv: Optional[list[str]] = None,
    expected: Optional[dict] = None,
    workloads: dict[str, Workload] = WORKLOADS,
) -> int:
    """The command line; ``expected`` and ``workloads`` let tests swap in
    their own digests and workloads."""
    argv = sys.argv[1:] if argv is None else argv
    benchmark = load_benchmark()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, benchmark)
    if argv[:1] == ["expect"]:
        return expect()

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads), action="append",
                        help="measure only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure rounds for about this long instead of --repeats")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: report end-to-end metrics; 1: per-layer metrics "
                        "(default: a full set reports both)")
    parser.add_argument("--out", help="write the results document here")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    try:
        doc = measure(
            {name: workloads[name] for name in names},
            args.seed,
            repeats=None if args.seconds is not None else args.repeats,
            seconds=args.seconds,
            trace=args.trace != 0,
            expected=expected,
        )
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print_report(doc, units)
    ok = all(r["output_ok"] for r in doc["workloads"].values())
    if args.trace is not None and len(names) == 1:
        print(json.dumps(result_line(doc, benchmark, trace=bool(args.trace))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
