"""gridhouse benchmark runner.

    python3 perfbench/run.py --workload expert_data --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process for --seconds seconds,
checks its outputs and prints a report followed, on the last line, by one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 each operation runs
twice, untraced and then traced, and the metrics are the per-layer ones.
See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1          # one process, one BLAS thread: steadier than 2 here
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_ROUNDS = 3      # set-up is timed in at least this many rounds,
SETUP_MIN_SECONDS = 1.0   # and until this much time went into it;
SETUP_ROUND_S = 0.05      # a round repeats it for at least this long
WORKLOADS = ("expert_data", "skill_pretrain", "task_finetune")
SLOTS = ("stage1_per_s", "stage2_per_s", "stage3_per_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root=ROOT) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def setup_rounds(workload, seed, cal) -> tuple[list[float], float]:
    """Set the workload up again and again, in rounds of at least
    SETUP_ROUND_S with the calibration kernel between rounds, so a set-up
    shorter than the kernel is timed in bulk.  Returns the wall seconds per
    set-up of each round and the mean kernel time around the rounds."""
    rounds, kernels = [], [cal.kernel()]
    while len(rounds) < SETUP_MIN_ROUNDS or sum(w for w, _ in rounds) < SETUP_MIN_SECONDS:
        n, t0 = 0, cal.clock()
        while n == 0 or cal.clock() - t0 < SETUP_ROUND_S:
            workload.setup(seed)
            n += 1
        rounds.append((cal.clock() - t0, n))
        kernels.append(cal.kernel())
    return [w / n for w, n in rounds], statistics.fmean(kernels)


def run_op(workload, k, seed, tally, outputs, failures):
    """One operation; an exception is recorded as a failure, not retried."""
    from workloads import sub_seed

    try:
        workload.op(k, tally, outputs)
    except Exception as e:
        frame = traceback.extract_tb(e.__traceback__)[-1]
        failures.append({
            "op": k, "seed": sub_seed(seed, k),
            "type": type(e).__name__, "message": str(e)[:160],
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno}"})


def run_loop(workload, seconds, seed, clock, outputs, failures, tracer=None):
    """Closed loop: operations back to back until `seconds` have passed; the
    last one runs to its end.

    With a tracer, each operation runs twice on the same inputs, untraced
    and then traced, so the two passes see the same work and warm-up.
    Returns the untraced and traced tallies, the operations attempted and
    the wall time of the traced operations."""
    from workloads import Tally

    plain, traced = Tally(), Tally()
    attempted, traced_wall = 0, 0.0
    start = clock()
    k = 0
    while k == 0 or clock() - start < seconds:
        run_op(workload, k, seed, plain, outputs, failures)
        attempted += 1
        if tracer is not None:
            tracer.install()
            t0 = clock()
            try:
                run_op(workload, k, seed, traced, outputs, failures)
            finally:
                traced_wall += clock() - t0
                tracer.uninstall()
            attempted += 1
        k += 1
    return plain, traced, attempted, traced_wall


def end_to_end(workload, tally, kernel, setup_s):
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for slot, (stage, _, _) in zip(SLOTS, workload.stages):
        metrics[slot] = (tally.rate(stage, kernel), "1/s")
    return metrics


def per_layer(tracer, workload, traced, untraced, wall, quality):
    """Per-layer metrics of the traced pass; `wall` is its wall time."""
    from spans import ENCODER, TRACED, function_stats

    stats = function_stats(tracer.spans)
    steps = tracer.count("world.step")
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    metrics = {}
    for mod, path in TRACED:
        name = f"{mod}.{path}"
        st = stats.get(name)
        metrics[f"{name}.calls"] = (per_step(st.calls) if st else 0.0, "1/step")
        if name != ENCODER:
            metrics[f"{name}.p50_us"] = (st.p50_us if st else 0.0, "us")
            metrics[f"{name}.tail_us"] = (st.tail_us if st else 0.0, "us")
        metrics[f"{name}.self_share"] = (
            100.0 * st.self_s / wall if st else 0.0, "%")
    buckets = sorted(int(k.rsplit("@", 1)[1]) for k in stats if k.startswith(ENCODER + "@"))
    for label, bucket in (("b1", 1), ("bmax", buckets[-1] if buckets else 0)):
        st = stats.get(f"{ENCODER}@{bucket}")
        metrics[f"{ENCODER}.{label}.p50_us"] = (st.p50_us if st else 0.0, "us")
        metrics[f"{ENCODER}.{label}.tail_us"] = (st.tail_us if st else 0.0, "us")
    metrics[f"{ENCODER}.bmax.batch"] = (float(buckets[-1]) if buckets else 0.0, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    ends = {k.split(".", 1)[1]: n for k, n in tracer.outcomes.items()
            if k.startswith("terminated.")}
    sampled = tracer.count("skills.sample_skill_episode")
    nofeasible = tracer.errors.get(("skills.sample_skill_episode", "NoFeasibleSkill"), 0)
    metrics.update({
        "ratio.geometry_builds_per_step": (
            ratio(tracer.count("world.build_geometry"), steps), "1/step"),
        "ratio.state_hash_per_step": (
            ratio(tracer.count("world.state_hash"), steps), "1/step"),
        "ratio.generate_attempts_per_episode": (
            ratio(tracer.count("tasks.generate_task"),
                  tracer.outcomes.get("verified", 0)), "1/episode"),
        "ratio.expert_budget_share": (
            ratio(100.0 * ends.get("budget", 0), sum(ends.values())), "%"),
        "ratio.nofeasible_retries_per_episode": (
            ratio(nofeasible, sampled - nofeasible), "1/episode"),
        "tensor.nodes_per_update": (
            ratio(tracer.graph_nodes, tracer.count("tensor.Tensor.backward")), "1/update"),
        "trace.env_steps": (float(steps), "count"),
        "quality.heldout_loss": (quality, "nats"),
    })
    for slot, (stage, _, _) in zip(SLOTS, workload.stages):
        plain, slowed = untraced.rate(stage), traced.rate(stage)
        metrics[f"trace.overhead.{slot}"] = (
            100.0 * (plain - slowed) / plain if plain else 0.0, "%")
    return metrics


def print_report(args, env, workload, setup_times, kernel, e2e, tallies, outputs,
                 failures, attempted, problems, quality, layer=None, tracer=None):
    from host import REF_S

    w = workload
    print(f"# gridhouse benchmark  workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + "  ".join(f"{k}={v}" for k, v in env.items()))
    cal = workload.cal.samples
    q = statistics.quantiles(cal, n=4)
    print(f"# closed loop, 1 caller, one new input per operation; set-up timed in "
          f"{len(setup_times)} rounds: {min(setup_times):.4f}-{max(setup_times):.4f} s wall")
    print(f"# calibration kernel: {len(cal)} samples, quartiles {q[0] * 1e3:.3f} "
          f"{q[1] * 1e3:.3f} {q[2] * 1e3:.3f} ms; loop mean {kernel * 1e3:.3f} ms "
          f"against the reference {REF_S * 1e3:g} ms")
    print(f"# operations: attempted {attempted}, failed {len(failures)} "
          f"({100.0 * len(failures) / max(attempted, 1):.1f}%)")
    for f in failures:
        print(f"#   FAILED op {f['op']} seed {f['seed']}: {f['type']} at {f['at']}: "
              f"{f['message']}")
    for p in problems:
        print(f"#   CHECK FAILED: {p}")
    print(f"# {'metric':<34} {'value':>12} {'unit':<8} better  stage work")
    for name, (value, unit) in e2e.items():
        print(f"# {name:<34} {value:>12.4f} {unit:<8} "
              f"{'higher' if name.endswith('_per_s') else 'lower'}")
    for label, tally in tallies:
        for stage, issue_name, unit in w.stages:
            print(f"#   {label} {issue_name:<30} {tally.rate(stage, kernel):>12.4f} 1/s      "
                  f"higher  {tally.work.get(stage, 0)} {unit} in "
                  f"{tally.seconds.get(stage, 0.0):.3f} s wall "
                  f"({tally.rate(stage):.4f}/s unscaled)")
    if w.quality:
        for key, value in sorted(outputs.quality.items()):
            print(f"#   {w.quality[0]:<32} {value:>12.6f} {w.quality[1]:<8} lower   "
                  f"input {key}")
        print(f"#   {w.quality[0] + ' (mean)':<32} {quality:>12.6f} {w.quality[1]:<8} lower")
    if layer is not None:
        from spans import function_stats
        stats = function_stats(tracer.spans)
        print("# per layer (traced pass; calls in total, steady = after warm-up, "
              "times in wall-clock us)")
        print(f"# {'function':<46} {'calls':>8} {'steady':>7} {'p50 us':>10} "
              f"{'tail':>6} {'tail us':>10} {'self %':>7}")
        for name in sorted(stats):
            st = stats[name]
            tail = f"p{st.tail_pct:g}" if st.tail_pct is not None else "-"
            share = layer.get(name + ".self_share")
            print(f"# {name:<46} {st.calls:>8} {st.steady_n:>7} {st.p50_us:>10.1f} "
                  f"{tail:>6} {st.tail_us:>10.1f} "
                  + (f"{share[0]:>7.2f}" if share else f"{'-':>7}"))
        for name, (value, unit) in layer.items():
            if name.startswith(("ratio.", "trace.", "quality.", "tensor.nodes")):
                print(f"# {name:<46} {value:>12.4f} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_VARS:           # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import numpy as np
        import gridhouse
        import host
        import workloads
    except ImportError as e:
        print(f"error: cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(gridhouse.__file__).startswith(SRC + os.sep):
        print(f"error: gridhouse imported from {gridhouse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    cal = host.Calibrator()
    clock = cal.clock
    workload = {"expert_data": workloads.ExpertData,
                "skill_pretrain": workloads.SkillPretrain,
                "task_finetune": workloads.TaskFinetune}[args.workload](cal)
    setup_times, setup_kernel = setup_rounds(workload, args.seed, cal)
    first_loop_sample = len(cal.samples)
    outputs = workloads.OpOutputs()
    failures: list[dict] = []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(clock)
    # a traced run measures both passes for --seconds each
    tally, traced, attempted, wall = run_loop(
        workload, args.seconds * (2 if tracer else 1), args.seed, clock,
        outputs, failures, tracer)
    tallies = [("untraced", tally)] + ([("traced", traced)] if tracer else [])
    layer = None

    quality = (statistics.fmean(outputs.quality.values())
               if outputs.quality else 0.0)
    problems = list(outputs.problems)
    problems += workloads.checks.same_outputs(outputs.fingerprints)
    if len(failures) == attempted:
        problems.append("every operation failed")
    kernel = statistics.fmean(cal.samples[first_loop_sample:])
    e2e = end_to_end(workload, tally, kernel,
                     host.scaled(statistics.median(setup_times), setup_kernel))
    if args.trace:
        layer = per_layer(tracer, workload, traced, tally, wall, quality)
    print_report(args, environment(np), workload, setup_times, kernel, e2e, tallies,
                 outputs, failures, attempted, problems, quality, layer, tracer)
    metrics = layer if args.trace else e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
