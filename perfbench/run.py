#!/usr/bin/env python3
"""End-to-end benchmark of one GemStone report (see README.md here).

Run from the repository root::

    python3 perfbench/run.py --workload report-cold-j2 --seed 0 \
        --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

# setup_s counts from here, before the program is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# Digests and fidelity figures of earlier runs, to check that every
# workload renders the same report for the same inputs and code.
STATE_DIR = os.path.join(ROOT, ".perfbench-state")

import spec  # noqa: E402

#: Set-up samples per run, at least: fresh set-up-only processes, one
#: after each report.
SETUP_SAMPLES = 3

#: Titles every complete report carries, in order.
REPORT_SECTIONS = (
    "GemStone report:",
    "Execution-time error",
    "Execution-time MPE per workload",
    "Correlation of HW PMC rates",
    "gem5 statistics vs error",
    "Stepwise error regression (hw)",
    "Stepwise error regression (gem5)",
    "gem5 events / HW PMC equivalents",
    "Branch predictor accuracy",
    "A15 empirical power model",
    "A15: power/energy error",
    "A15: scaling normalised to",
)
CAMPAIGN_SECTION = "Distributed campaign"


class BenchError(RuntimeError):
    """The benchmark cannot run here: the checkout has no program source."""


# ------------------------------------------------------------------ set-up
def import_program():
    """Import the checkout's ``src/repro``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    import repro.core.pipeline  # noqa: F401
    import repro.core.report  # noqa: F401
    import repro.sim.campaign  # noqa: F401


def make_profiles(seed: int, max_workloads: int | None):
    """The validation and power workload profiles for one seed.

    Seed 0 is the paper's catalog as named.  Any other seed renames every
    profile with a seed suffix; trace RNG seeds derive from the name, so
    the traces are fresh draws with the same profile statistics.
    """
    from repro.workloads.suites import (
        power_modelling_workloads,
        validation_workloads,
    )

    validation = validation_workloads()
    power = power_modelling_workloads()
    if max_workloads is not None:
        validation = validation[:max_workloads]
        power = list(validation)
    if seed:
        def rename(profile):
            return dataclasses.replace(profile, name=f"{profile.name}.s{seed}")

        validation = [rename(p) for p in validation]
        power = [rename(p) for p in power]
    return tuple(validation), tuple(power)


def make_config(args, profiles, jobs=1, store=None, trace=False):
    from repro.core.pipeline import GemStoneConfig

    validation, power = profiles
    return GemStoneConfig(
        core="A15",
        workloads=validation,
        power_workloads=power,
        trace_instructions=args.instructions,
        n_workload_clusters=min(16, len(validation)),
        jobs=jobs,
        cache_dir=store,
        trace=trace,
    )


def install_catalog(profiles) -> None:
    """Let campaign shards resolve the generated profiles by name.

    Board jobs name their workload and shards look it up in the catalog,
    so the generated profiles are installed at that lookup.  Shards are
    forked from this process and inherit it.
    """
    import repro.sim.campaign as campaign

    catalog = {p.name: p for group in profiles for p in group}
    campaign.workload_by_name = catalog.__getitem__


def setup(args):
    """Everything before the first call into the library."""
    import_program()
    profiles = make_profiles(args.seed, args.max_workloads)
    install_catalog(profiles)
    return profiles


def child_command(args, *extra):
    command = [
        sys.executable, os.path.abspath(__file__),
        "--seed", str(args.seed),
        "--instructions", str(args.instructions),
    ]
    if args.max_workloads is not None:
        command += ["--max-workloads", str(args.max_workloads)]
    return command + list(extra)


def run_child(command, timeout: float) -> str:
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command[2:])} exited with {done.returncode}"
        )
    return done.stdout


def setup_sample(args) -> float:
    """Set-up seconds of a fresh set-up-only process."""
    out = run_child(child_command(args, "--setup-only"), timeout=60)
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------------- report
@dataclasses.dataclass
class Report:
    """One report of a workload and what its checks found."""

    run_s: float
    digest: str
    fig6_log_gap: float
    a15_mpe_gap_pts: float
    attempted: int
    failed: int
    problems: list
    gemstone: object
    campaign: object = None
    collate_s: float = 0.0


#: Fig. 6 ratios below this count as this, so a zero count (short traces
#: can leave the model without a single ITLB refill) keeps the gap finite.
RATIO_FLOOR = 1e-3


def fidelity(gs):
    """(Fig. 6 log gap, A15 MPE gap in points) against the paper."""
    comparison = gs.event_comparison
    logs = [
        abs(math.log10(max(comparison.ratio(event), RATIO_FLOOR) / paper))
        for event, paper in spec.PAPER_FIG6_RATIOS.items()
    ]
    mpe = gs.dataset.time_mpe(gs.config.analysis_freq_hz)
    return statistics.fmean(logs), abs(mpe - spec.PAPER_A15_MPE_PCT)


def stripped_report(gs, problems, campaign: bool) -> str:
    """The report without wall-clock rows or the campaign section."""
    from repro.core import report

    # The traced run wraps render_full_report; this render is not a layer.
    render = getattr(report.render_full_report, "__wrapped__",
                     report.render_full_report)
    text = render(gs, include_telemetry=False)
    sections = text.split("\n\n")
    kept = [s for s in sections if not s.startswith(CAMPAIGN_SECTION)]
    if campaign and len(kept) != len(sections) - 1:
        problems.append("campaign report lacks its campaign section")
    stripped = "\n\n".join(kept)
    position = 0
    for title in REPORT_SECTIONS:
        found = stripped.find(title, position)
        if found < 0:
            problems.append(f"report section missing: {title!r}")
        else:
            position = found
    if "Collection health" in stripped:
        problems.append("report carries a degraded collection-health section")
    return stripped


def run_report(workload, args, profiles, work, tracing=False) -> Report:
    """Time one report of ``workload`` and check it."""
    from repro.core.pipeline import GemStone
    from repro.obs.tracer import Tracer
    import repro.sim.campaign as campaign_module

    store = os.path.join(work, "store")
    board = os.path.join(work, "board")
    campaign = None
    collate_s = 0.0
    if workload == "campaign-2shard":
        config = make_config(args, profiles, jobs=1, trace=tracing)
        started = perf_counter()
        campaign = campaign_module.run_campaign(
            config, board, shards=2, tracer=Tracer(enabled=tracing)
        )
        gs = campaign.gemstone
        collating = perf_counter()
        text = gs.report()
        collate_s = perf_counter() - collating
    else:
        config = make_config(args, profiles, jobs=2, store=store,
                             trace=tracing)
        started = perf_counter()
        gs = GemStone(config)
        text = gs.report()
    run_s = perf_counter() - started
    if not text:
        raise RuntimeError("empty report")

    problems: list[str] = []
    stripped = stripped_report(gs, problems, campaign is not None)
    fig6_gap, mpe_gap = fidelity(gs)
    health = gs.health
    if health.failures:
        problems.append(f"{len(health.failures)} collection failure(s)")
    telemetry = gs.executor.telemetry
    if campaign is not None:
        status = campaign.status
        attempted = int(status["total"])
        failed = attempted - int(status["done"])
        if campaign.poisoned:
            problems.append(f"{len(campaign.poisoned)} poisoned board job(s)")
        if campaign.lost_shards:
            problems.append(f"{campaign.lost_shards} shard(s) lost")
        journal = campaign_module.CampaignBoard.open(board).read_journal()
        done = sum(1 for r in journal if r.get("event") == "job-done")
        if done != attempted:
            problems.append(f"journal done {done} != total {attempted}")
    else:
        attempted = int(telemetry.jobs_submitted)
        failed = int(telemetry.jobs_failed) + int(health.failed)
        if telemetry.cache_hits:
            problems.append(
                f"cold report found {telemetry.cache_hits} store hit(s)"
            )
        if not telemetry.parallel_jobs_run:
            problems.append("jobs=2 report ran no job on a worker")
    return Report(
        run_s=run_s,
        digest=hashlib.sha256(stripped.encode()).hexdigest(),
        fig6_log_gap=fig6_gap,
        a15_mpe_gap_pts=mpe_gap,
        attempted=attempted,
        failed=failed,
        problems=problems,
        gemstone=gs,
        campaign=campaign,
        collate_s=collate_s,
    )


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def reap_children() -> None:
    """Wait for every worker and shard process this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def peak_rss_kib() -> int:
    """Peak RSS of this process or of the largest child it reaped."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def start_child(task):
    """Fork a child that runs ``task()`` and sends back its JSON result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            result = task()
            with os.fdopen(write_end, "w") as out:
                json.dump(result, out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def finish_children(children) -> list:
    """Wait for every child of ``start_child``; their results, in order."""
    outcomes = []
    for pid, read_end in children:
        with os.fdopen(read_end) as received:
            text = received.read()
        _, status = os.waitpid(pid, 0)
        outcomes.append((os.waitstatus_to_exitcode(status), text))
    for code, text in outcomes:
        if code != 0 or not text:
            raise RuntimeError(f"forked child exited with code {code}")
    return [json.loads(text) for _, text in outcomes]


def report_in_child(args, profiles, work) -> tuple[Report, int]:
    """One untraced report in a forked child, and the child's peak RSS.

    The child starts from this process's state after set-up, so every
    report starts with empty in-process memos, and its peak RSS covers
    only that report and the workers or shards it started.
    """
    def task():
        report = run_report(args.workload, args, profiles, fresh_dir(work))
        report.gemstone = report.campaign = None
        reap_children()
        return {"report": dataclasses.asdict(report),
                "peak_rss_kib": peak_rss_kib()}

    [payload] = finish_children([start_child(task)])
    return Report(**payload["report"]), payload["peak_rss_kib"]


# ------------------------------------------------------------- host speed
#: Seconds the calibration kernel takes on the reference host speed.  The
#: timed metrics are scaled to this speed (see README.md, "Host speed").
CALIBRATION_REFERENCE_S = 0.07

#: Kernel repetitions per CPU in one calibration; their median counts.
CALIBRATION_REPEATS = 5


def calibration_kernel() -> float:
    """Seconds of a fixed piece of interpreter work: dict updates, string
    building and sorting.  The report's time is mostly interpreter time,
    and among the kernels tried this one tracked it best."""
    started = perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        key = i * 7 % 5003
        counts[key] = counts.get(key, 0) + i
    words = [str(i * 7919 % 100_003) for i in range(100_000)]
    words.sort()
    return perf_counter() - started


def calibrate() -> float:
    """Host speed now: the calibration kernel's seconds, averaged over CPUs.

    The kernel runs at once on each of the (at most two) CPUs this process
    may use, pinned one child to a CPU, as the workers and shards of the
    reports use both.
    """
    def task(cpu):
        os.sched_setaffinity(0, {cpu})
        return statistics.median(
            calibration_kernel() for _ in range(CALIBRATION_REPEATS)
        )

    cpus = sorted(os.sched_getaffinity(0))[:2]
    children = [start_child(functools.partial(task, cpu)) for cpu in cpus]
    return statistics.fmean(finish_children(children))


def to_reference_speed(calibrations) -> float:
    """Factor that scales wall seconds measured while ``calibrations`` were
    taken to the reference host speed."""
    return CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)


# ------------------------------------------------------------- consistency
def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def state_path(args) -> str:
    key = hashlib.sha256(
        f"{source_fingerprint()}:{args.seed}:{args.instructions}:"
        f"{args.max_workloads}".encode()
    ).hexdigest()[:24]
    return os.path.join(STATE_DIR, f"{key}.json")


def load_state(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def check_against_earlier(args, report: Report, problems: list) -> None:
    """Same inputs and code must give the same report on every workload.

    The first run of each key records its report digest and fidelity
    figures; every later run of any workload must match them.
    """
    os.makedirs(STATE_DIR, exist_ok=True)
    path = state_path(args)
    state = load_state(path)
    mine = {
        "digest": report.digest,
        "fig6_log_gap": report.fig6_log_gap.hex(),
        "a15_mpe_gap_pts": report.a15_mpe_gap_pts.hex(),
    }
    if "digest" in state:
        for field, value in mine.items():
            if state.get(field) != value:
                problems.append(
                    f"{field} differs from the {state.get('workload')} run "
                    "with the same seed and code"
                )
    else:
        state.update(mine, workload=args.workload)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(state, handle)
        os.replace(tmp, path)


# --------------------------------------------------------------------- main
def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def measure(args, profiles) -> tuple[dict, list, int, int]:
    """Untraced run: the end-to-end metrics.

    Reports run one after another, each in a fresh forked child, with a
    set-up sample after each, until the next report would end more than
    half a report past ``--seconds``.  A calibration of the host's speed
    comes first and after each report and set-up sample; the median wall
    times are scaled to the reference speed by their mean.
    """
    work = fresh_dir(os.path.join(WORK_ROOT, f"run-{os.getpid()}"))
    reports, peaks, setups = [], [], []
    calibrations = [calibrate()]
    try:
        began = perf_counter()
        while True:
            report, peak = report_in_child(
                args, profiles, os.path.join(work, f"report-{len(reports)}")
            )
            reports.append(report)
            peaks.append(peak)
            calibrations.append(calibrate())
            setups.append(setup_sample(args))
            calibrations.append(calibrate())
            typical = statistics.median(r.run_s for r in reports)
            if perf_counter() - began + typical / 2 > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))
            calibrations.append(calibrate())
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for r in reports for p in r.problems]
    first = reports[0]
    for other in reports[1:]:
        if (other.digest, other.fig6_log_gap, other.a15_mpe_gap_pts) != (
            first.digest, first.fig6_log_gap, first.a15_mpe_gap_pts
        ):
            problems.append("repeated reports differ")
    check_against_earlier(args, first, problems)
    scale = to_reference_speed(calibrations)
    metrics = {
        "run_s": statistics.median(r.run_s for r in reports) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(peaks) / 1024.0,
        "fig6_log_gap": first.fig6_log_gap,
    }
    units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
    print(f"digest {first.digest}")
    for label, values in (("report wall s", [r.run_s for r in reports]),
                          ("set-up wall s", setups),
                          ("calibration s", calibrations)):
        print(f"{label:14} " + " ".join(f"{v:.3f}" for v in values))
    return (
        {name: {"value": value, "unit": units[name]}
         for name, value in metrics.items()},
        problems,
        sum(r.attempted for r in reports),
        sum(r.failed for r in reports),
    )


def measure_traced(args, profiles) -> tuple[dict, list, int, int]:
    """Traced run: the per-layer metrics and the layer table."""
    import layers
    import probes

    # The tracing overhead is measured against an untraced twin of this
    # run, started right before it.  The twin's run_s is at the reference
    # speed; it is brought to the host speed calibrated around this report.
    twin = json.loads(run_child(
        child_command(args, "--workload", args.workload,
                      "--seconds", "0", "--trace", "0"),
        timeout=170,
    ).strip().splitlines()[-1])

    work = fresh_dir(os.path.join(WORK_ROOT, f"run-{os.getpid()}"))
    try:
        probe = probes.Probe(os.path.join(work, "spool"))
        probes.install(probe)
        before = calibrate()
        report = run_report(args.workload, args, profiles, work, tracing=True)
        reap_children()
        after = calibrate()
        untraced_run_s = (twin["metrics"]["run_s"]["value"]
                          / to_reference_speed([before, after]))
        values, table = layers.per_layer(
            probe, report, work,
            untraced_run_s=untraced_run_s,
        )
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    problems = report.problems + layers.consistency_problems(report, values)
    if not twin["correct"]:
        problems.append("the untraced twin run failed its checks")
    # The untraced runs recorded their digest: tracing must not change it.
    check_against_earlier(args, report, problems)
    print(table)
    print(f"digest {report.digest}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in spec.PER_LAYER.items()
    }
    return metrics, problems, report.attempted, report.failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--instructions", type=int, default=60_000,
        help="trace length per workload (the paper's report uses 60000)",
    )
    parser.add_argument(
        "--max-workloads", type=int, default=None,
        help="use only the first N validation workloads (self-test scale)",
    )
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        profiles = setup(args)
        if args.setup_only:
            print(json.dumps({"setup_s": perf_counter() - _STARTED}))
            return 0
        os.makedirs(WORK_ROOT, exist_ok=True)
        if args.trace:
            metrics, problems, attempted, failed = measure_traced(
                args, profiles
            )
        else:
            metrics, problems, attempted, failed = measure(args, profiles)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0 and attempted > 0
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
