#!/usr/bin/env python3
"""The glitchmask benchmark.

One workload per invocation, run from the repository root:

    python3 perfbench/run.py --workload des_tvla --seed 1 --seconds 40 --trace 0

builds the library, glitchmaskd and the bench binary (perfbench/src)
into .bench_build/ on first use, runs the workload with every GLITCHMASK_*
variable removed from its environment, checks its outputs, prints every
metric with its unit, and ends with one JSON line:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(plus self time per span and the tracing overhead).  Two source trees are
compared with

    python3 perfbench/run.py --compare A_ROOT B_ROOT [--runs 10] [--seconds S]

which builds this benchmark against each tree's library and runs the two
in alternating order on the same seeds.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = Path(".bench_build")  # relative to ROOT, the run's cwd
# Verdict threshold of the paper's TVLA (|t| > 4.5 is a leak).
TVLA_THRESHOLD = 4.5
# Seconds the bench binary may take before it is killed (the whole
# invocation must end within 180 s once built).
RUN_TIMEOUT_S = 165

WORKLOADS = ("des_tvla", "gadget_pd_attr")

# name -> (unit, better)
END_TO_END = {
    "traces_per_s": ("traces/s", "higher"),
    "cpu_us_per_trace": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# name -> (unit, better)
PER_LAYER = {
    "des.core_build_ms": ("ms", "lower"),
    "eval.harness_build_ms": ("ms", "lower"),
    "sim.compile_ms": ("ms", "lower"),
    "sim.program_cache_hit_ratio": ("ratio", "higher"),
    "sim.replay_us_per_group": ("us", "lower"),
    "sim.events_per_trace": ("count", "lower"),
    "sim.toggles_per_trace": ("count", "lower"),
    "sim.glitches_per_trace": ("count", "lower"),
    "power.deposit_us_per_group": ("us", "lower"),
    "power.ns_per_toggle": ("ns", "lower"),
    "eval.stimulus_ns_per_trace": ("ns", "lower"),
    "eval.noise_ns_per_sample": ("ns", "lower"),
    "eval.worker_efficiency": ("ratio", "higher"),
    "eval.checkpoint_write_ms": ("ms", "lower"),
    "leakage.fold_ns_per_point": ("ns", "lower"),
    "leakage.finalize_us": ("us", "lower"),
    "leakage.probe_us_per_group": ("us", "lower"),
    "service.job_overhead_ms": ("ms", "lower"),
    "service.codec_us": ("us", "lower"),
    "service.hit_rtt_us": ("us", "lower"),
    "service.ping_rtt_us": ("us", "lower"),
    "service.cache_hit_ratio": ("ratio", "higher"),
    "service.coalesced_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}

def log(message):
    print(message, file=sys.stderr, flush=True)


# ----- build -----------------------------------------------------------------

def build(build_dir, source_dir=None):
    """Configures (once) and builds the bench binary and glitchmaskd; returns the
    paths of both binaries, relative to ROOT."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() and source_dir is None:
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    full = ROOT / build_dir
    if not (full / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(full),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if source_dir is not None:
            cmd.append(f"-DGLITCHMASK_SOURCE_DIR={Path(source_dir).resolve() / 'src'}")
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(full), "-j", jobs, "--target",
                    "glitchmask_perfbench", "glitchmaskd"],
                   cwd=ROOT, check=True, stdout=sys.stderr)
    return build_dir / "glitchmask_perfbench", build_dir / "glitchmask" / "glitchmaskd"


def clean_env():
    """This process's environment without any GLITCHMASK_* variable."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GLITCHMASK_")}


# ----- host and source stamp ---------------------------------------------------

def git_revision(start):
    """Commit id of the checkout containing `start` (the source tree, not
    the cwd), read from .git without running git; None outside a checkout."""
    for directory in [start, *start.parents]:
        git = directory / ".git"
        if git.is_file():  # worktree: "gitdir: <path>"
            text = git.read_text().strip()
            if text.startswith("gitdir:"):
                git = (directory / text[len("gitdir:"):].strip()).resolve()
        if not git.is_dir():
            continue
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head[4:].strip()
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = git / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return None
    return None


def source_digest(root):
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def physical_cores():
    cores = set()
    physical = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("physical id"):
                physical = line.split(":")[1].strip()
            elif line.startswith("core id"):
                cores.add((physical, line.split(":")[1].strip()))
    except OSError:
        pass
    return len(cores) or os.cpu_count() or 1


# ----- checks ------------------------------------------------------------------

def digest_of(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def evaluate(workload, raw):
    """Judges one raw report of the bench binary.  Returns (failed, digest, notes): every
    failed operation or output check counts once in `failed`; `digest`
    identifies the run's results (equal across runs of one seed)."""
    failed = len(raw["errors"])
    notes = [f"error: {e}" for e in raw["errors"]]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload}")
    digests = []
    for i, check in enumerate(raw["checks"]):
        t1 = check["t_value"][0]
        ok = t1 < TVLA_THRESHOLD
        if workload == "gadget_pd_attr":
            ok = ok and check["t_value"][1] > TVLA_THRESHOLD
        key = {k: check[k] for k in ("t", "toggles", "top", "traces") if k in check}
        digests.append(digest_of(key))
        if not ok:
            failed += 1
            notes.append(f"call {i}: verdict not reproduced (t={check['t_value']})")
        elif digests[-1] != digests[0]:
            failed += 1
            notes.append(f"call {i}: result digest differs from call 0")
    digest = digests[0] if digests else None
    if digest is None:
        failed += 1
        notes.append("no result to digest")
    return failed, digest, notes


def result_line(workload, raw, trace):
    """The final JSON object of a run."""
    failed, digest, notes = evaluate(workload, raw)
    table = PER_LAYER if trace else END_TO_END
    source = raw["layers"] if trace else raw["metrics"]
    missing = [name for name in table if name not in source]
    if missing:
        raise RuntimeError(f"bench binary did not report {', '.join(missing)}")
    metrics = {name: {"value": source[name], "unit": unit}
               for name, (unit, _) in table.items()}
    attempted = max(1, raw["attempted"])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": min(failed, attempted), "metrics": metrics}, digest, notes


# ----- one run -------------------------------------------------------------------

def run_bench(binary, daemon, workload, seed, seconds, trace):
    """Runs the bench binary once and returns its raw report."""
    workdir = BUILD_DIR / "tmp"
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--daemon", str(daemon), "--workdir", str(workdir)]
    if trace:
        spans = BUILD_DIR / "spans"
        (ROOT / spans).mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{seed}.json")]
    # Own process group: a timeout kills the binary and its daemon together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench binary exited with {proc.returncode}")
    return json.loads(lines[-1])


def print_summary(workload, seed, raw, result, digest, notes):
    stamp = raw["stamp"]
    print(f"workload {workload}  seed {seed}  trace {int(raw['trace'])}")
    print(f"revision {git_revision(ROOT) or '-'}  source {source_digest(ROOT)}  "
          f"backend {stamp['backend']}-{stamp['lanes']}  simd {stamp['simd']}  "
          f"nproc {os.cpu_count()}  physical_cores {physical_cores()}")
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_share':32s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted})")
    detail = raw["detail"]
    for key, value in detail.get("workload", detail).items():
        print(f"  {key}: {value}")
    if raw["trace"]:
        print("self time per span (ms):")
        for entry in detail.get("self_times", []):
            print(f"  {entry['span']:32s} n={entry['count']:<6d} "
                  f"total {entry['total_ms']:>11.3f}  self {entry['self_ms']:>11.3f}")
        curve = detail.get("layers", {}).get("worker_curve_traces_per_s")
        if curve:
            print("des_tvla traces/s at 1..nproc workers: " +
                  " ".join(f"{v:.1f}" for v in curve))
    for note in notes:
        print(f"  check: {note}")
    print(f"digest {digest}")


# ----- compare mode ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    sides = {"A": Path(args.compare[0]), "B": Path(args.compare[1])}
    binaries = {}
    for label, root in sides.items():
        tag = hashlib.sha256(str(root.resolve()).encode()).hexdigest()[:12]
        binaries[label] = build(BUILD_DIR / f"compare-{tag}", source_dir=root)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    values = {}   # (workload, side, metric) -> [values]
    digests = {}  # (workload, side, seed) -> digest
    failures = {}
    for i in range(args.runs):
        seed = args.seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                raw = run_bench(*binaries[side], workload, seed, args.seconds, False)
                result, digest, _ = result_line(workload, raw, False)
                digests[(workload, side, seed)] = digest
                failures[(workload, side)] = failures.get((workload, side), 0) + result["failed"]
                for name, entry in result["metrics"].items():
                    values.setdefault((workload, side, name), []).append(entry["value"])
                log(f"[{i + 1}/{args.runs}] {workload} {side} seed {seed} done")
    all_agree = True
    for workload in workloads:
        print(f"{workload}   (A = {sides['A']}, B = {sides['B']})")
        print(f"  {'metric':18s} {'n':>3s} {'A median':>11s} {'A q1..q3':>23s} {'spread':>7s} "
              f"{'B median':>11s} {'B q1..q3':>23s} {'spread':>7s} {'B-A':>8s} {'bound':>5s}  verdict")
        for name, (unit, better) in END_TO_END.items():
            a = values[(workload, "A", name)]
            b = values[(workload, "B", name)]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            delta = (bm - am) / am
            agree = abs(delta) <= bound[name]
            all_agree &= agree
            verdict = "agree" if agree else (
                "B better" if (delta > 0) == (better == "higher") else "B worse")
            print(f"  {name:18s} {len(a):>3d} {am:>11.5g} {a1:>11.5g}..{a3:<11.5g} "
                  f"{(a3 - a1) / am:>7.2%} {bm:>11.5g} {b1:>11.5g}..{b3:<11.5g} "
                  f"{(b3 - b1) / bm:>7.2%} {delta:>+8.2%} {bound[name]:>5.2f}  {verdict}")
        for side in ("A", "B"):
            print(f"  failed operations {side}: {failures.get((workload, side), 0)}")
        differing = [seed for seed in range(args.seed, args.seed + args.runs)
                     if digests[(workload, "A", seed)] != digests[(workload, "B", seed)]]
        if differing:
            all_agree = False
            print(f"  DIGEST MISMATCH on seeds {differing}")
        else:
            print("  digests identical on every seed")
    return 0 if all_agree else 1


# ----- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A_ROOT", "B_ROOT"))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.compare:
            return compare(args)
        if args.workload is None:
            parser.error("--workload is required")
        binary, daemon = build(BUILD_DIR)
        raw = run_bench(binary, daemon, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        result, digest, notes = result_line(args.workload, raw, bool(args.trace))
    except (RuntimeError, OSError, subprocess.CalledProcessError, ValueError,
            KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    print_summary(args.workload, args.seed, raw, result, digest, notes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
