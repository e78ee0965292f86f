"""kleinstep benchmark: drives the CLI the way a scripting user does.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 5     # table of every workload

Closed loop: one launch at a time from this single process, each launch a
fresh interpreter running the ``kleinstep`` console entry point against
``src/`` of this checkout.  A run repeats the workload's launch list (a pass)
until S seconds have gone, always finishing whole passes.  Every row of
every output is checked against the closed forms in checks.py.  End-to-end
timings are scaled by bare interpreter starts interleaved with the launches,
which track the host's drifting speed (see REFERENCE_S).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (launched through tracer.py).  The last stdout line is the
result object; the line before it is a record of the environment, the
realised regime shares and the output digests.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# The console script, plus a report of the launch's own peak RSS.  VmHWM counts
# only pages mapped after exec; wait4's ru_maxrss would also carry the
# spawning benchmark's peak RSS into the child.
ENTRY = """import sys
from kleinstep.cli import main
code = main()
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
SETUP_LAUNCHES = 15
# Timings are scaled to a host on which a bare interpreter starts in this many
# seconds (about its median on the 2-vCPU machine the bounds were set on).
# The host's speed drifts by 20-50% over minutes; bare starts interleaved with
# the workload's launches track that drift and nothing of kleinstep.
REFERENCE_S = 0.08
LAUNCH_TIMEOUT_S = 60.0
LAYERS = ("step", "dirac", "graphene", "device")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd, env, stderr_path=None):
    """Run one child to completion: (exit code, wall s, stdout bytes, stderr text, t_spawn)."""
    stderr = open(stderr_path, "w+b") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=stderr)
        killer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        err = ""
        if stderr_path:
            stderr.seek(0)
            err = stderr.read().decode("utf-8", "replace")
    finally:
        if stderr_path:
            stderr.close()
    return code, wall, out, err, t0


def peak_rss_mb(stderr_text):
    """The VmHWM line ENTRY writes last, in MB; None if the launch died first."""
    for line in reversed(stderr_text.splitlines()):
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


# ------------------------------------------------------------------ outputs


class Verifier:
    """Checks each launch's output, once per distinct output bytes."""

    def __init__(self, launches):
        self.launches = launches
        self.cache = {}
        self.first_rows = None

    def verify(self, index, code, data):
        """(rows emitted, failed rows, categories, bare NaN/Infinity tokens, digest)."""
        launch = self.launches[index]
        digest = hashlib.sha256(data).hexdigest()
        key = (index, code, digest)
        if key not in self.cache:
            if code != 0:
                self.cache[key] = (0, launch.rows, Counter(), 0, digest)
            else:
                try:
                    rows, nonfinite = checks.parse(data, launch.fmt)
                except (ValueError, KeyError, TypeError) as exc:
                    print(f"perfbench: unreadable output of launch {index}: {exc}",
                          file=sys.stderr)
                    rows, nonfinite = [], 0
                failed, cats = checks.check(launch, rows)
                if index == 0:
                    self.first_rows = rows
                self.cache[key] = (len(rows), failed, cats, nonfinite, digest)
        return self.cache[key]

    def canary(self) -> bool:
        """A deliberately corrupted row of launch 0 must count as one more failed row."""
        if not self.first_rows:
            return False
        launch = self.launches[0]
        column = checks.CANARY_COLUMN[launch.command]
        rows = [dict(row) for row in self.first_rows]
        baseline = checks.check(launch, rows)[0]
        for row in rows:
            if isinstance(row.get(column), float) and abs(row[column]) < float("inf"):
                row[column] += 0.25 + abs(row[column])
                break
        return checks.check(launch, rows)[0] == baseline + 1


def read_output(launch, stdout):
    if launch.output is None:
        return stdout
    try:
        with open(launch.output, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


# ------------------------------------------------------------------ tracing


def read_spans(path):
    with open(path, encoding="utf-8") as handle:
        meta = json.load(handle)
    n = meta["spans"]
    columns = [array("i"), array("i"), array("b"), array("d"), array("d")]
    with open(path + ".bin", "rb") as handle:
        for column in columns:
            column.fromfile(handle, n)
    return meta, columns


def span_totals(meta, columns):
    """Per span name: inclusive s, self s, calls, exceptions raised out of its layer."""
    name_id, parent, raised, start, end = columns
    names = meta["names"]
    duration = [e - s for s, e in zip(start, end)]
    children = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += duration[i]
    totals = defaultdict(lambda: [0.0, 0.0, 0, 0])
    for i, ident in enumerate(name_id):
        name = names[ident]
        entry = totals[name]
        entry[0] += duration[i]
        entry[1] += duration[i] - children[i]
        entry[2] += 1
        if raised[i]:
            p = parent[i]
            if p < 0 or names[name_id[p]].split(".")[0] != name.split(".")[0]:
                entry[3] += 1
    return totals


def importtime(stderr_text):
    """Cumulative import seconds of numpy and of kleinstep.cli from -X importtime lines."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            found.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return found.get("numpy", 0.0), found.get("kleinstep.cli", 0.0)


def layer_metrics(totals, rows):
    """Per-layer figures of one pass from the span totals summed over its launches."""
    def sum_of(prefix, index):
        return sum(v[index] for k, v in totals.items() if k.startswith(prefix + "."))

    def of(name, index):
        return totals[name][index] if name in totals else 0

    out = {
        "cli.parse_s": of("cli.parse_args", 0),
        "cli.rows_s": of("cli.main", 1),
        "cli.render_s": of("cli.render_csv", 0) + of("cli.render_json", 0),
        "cli.write_s": of("cli.emit", 1),
        "cli.rows": rows,
        "linalg.solve_s": of("linalg.solve", 0),
        "linalg.solve_calls": of("linalg.solve", 2),
        "step.kappa.calls": of("step.kappa", 2),
        "step.solve_step_numeric.self_s": of("step.solve_step_numeric", 1),
        "graphene.solve_barrier.self_s": of("graphene.solve_barrier", 1),
        "graphene.angle_kinematics.self_s": of("graphene.angle_kinematics", 1),
        "graphene.angle_kinematics.calls": of("graphene.angle_kinematics", 2),
        "graphene.t_paper.self_s": of("graphene.t_paper", 1),
    }
    for layer in LAYERS:
        calls = sum_of(layer, 2)
        out[f"{layer}.self_s"] = sum_of(layer, 1)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.calls_per_row"] = calls / rows if rows else 0.0
        out[f"{layer}.errors"] = sum_of(layer, 3)
    return out


# ------------------------------------------------------------------ one run


def environment(env) -> dict:
    probe = ("import json, os, sys, numpy; d = numpy.show_config(mode='dicts');"
             "b = d['Build Dependencies']['blas'];"
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
             " 'blas': f\"{b.get('name')} {b.get('version')}\"}))")
    try:
        info = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                                         capture_output=True, timeout=60).stdout)
    except (ValueError, subprocess.TimeoutExpired):
        info = {}
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    info.update({
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "commit": commit,
        "source_sha256": source.hexdigest(),
    })
    return info


class Tally:
    """What the launches of one pass add up to."""

    def __init__(self):
        self.rows = self.nonfinite = self.bytes = 0
        self.wall = 0.0
        self.spans = defaultdict(lambda: [0.0, 0.0, 0, 0])
        self.layers = Counter()  # setup.* seconds and trace.overhead_s

    def add_trace(self, meta, columns, stderr_text, t_spawn):
        for span, values in span_totals(meta, columns).items():
            entry = self.spans[span]
            for i, v in enumerate(values):
                entry[i] += v
        numpy_s, cli_s = importtime(stderr_text)
        self.layers["setup.interp_s"] += meta["t_start"] - t_spawn
        self.layers["setup.numpy_import_s"] += numpy_s
        self.layers["setup.kleinstep_import_s"] += cli_s - numpy_s
        self.layers["trace.overhead_s"] += meta["traced_s"] - meta["plain_s"]

    def per_layer(self, launches):
        out = layer_metrics(self.spans, self.rows)
        out.update(self.layers)
        out.update({"cli.bytes_out": self.bytes, "cli.json_nonfinite_tokens": self.nonfinite,
                    "cli.launches": launches})
        return out


def run_workload(name, seed, seconds, trace, workdir):
    env = child_env()
    load_before = os.getloadavg()
    import_only = [sys.executable, "-c", "import kleinstep.cli"]
    if spawn(import_only, env)[0] != 0:  # also writes the bytecode later launches reuse
        raise RuntimeError("kleinstep.cli does not import from src/")
    bare = [sys.executable, "-c", "pass"]
    setup, setup_bare, reference = [], [], []
    if not trace:
        for _ in range(SETUP_LAUNCHES):
            setup.append(spawn(import_only, env)[1])
            setup_bare.append(spawn(bare, env)[1])

    workload = gen.make(name, seed, str(workdir))
    for path, text in workload.files.items():
        Path(path).write_text(text, encoding="utf-8")
    launches = workload.launches
    verifier = Verifier(launches)
    stderr_path = str(workdir / "stderr.txt")
    spans_path = str(workdir / "spans.json")
    if trace:
        program = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"), spans_path]
    else:
        program = [sys.executable, "-c", ENTRY]

    walls, rss, tallies = defaultdict(list), [], []
    attempted = failed = mismatched = 0
    categories = defaultdict(Counter)
    digests = []
    deadline = time.perf_counter() + seconds
    while not tallies or time.perf_counter() < deadline:
        tally = Tally()
        for index, launch in enumerate(launches):
            code, wall, out, err, t_spawn = spawn(program + launch.argv, env, stderr_path)
            data = read_output(launch, out)
            rows, bad, cats, nonfinite, digest = verifier.verify(index, code, data)
            if trace and code == 0:
                meta, columns = read_spans(spans_path)
                tally.add_trace(meta, columns, err, t_spawn)
                if not meta["identical"]:  # tracing changed the output
                    mismatched += 1
                    bad = launch.rows
            if not tallies:
                digests.append(digest)
                categories[launch.command].update(cats)
            walls[index].append(wall)
            if not trace:
                rss.append(peak_rss_mb(err) or 0.0)
                reference.append(spawn(bare, env)[1])
            attempted += launch.rows
            failed += bad
            tally.rows += rows
            tally.wall += wall
            tally.nonfinite += nonfinite
            tally.bytes += len(data)
        tallies.append(tally)

    if trace:
        per_pass = [t.per_layer(len(launches)) for t in tallies]
        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        # also reported as the result's failed/attempted; the end-to-end list
        # cannot hold it, since there every metric must be non-zero
        metrics["failed_frac"] = failed / attempted
    else:
        raw = {
            "setup_s": statistics.median(setup),
            "rows_per_s": sum(t.rows for t in tallies) / sum(t.wall for t in tallies),
            # the median launch, each launch timed by its mean over the passes
            "sweep_p50_s": statistics.median(statistics.mean(w) for w in walls.values()),
        }
        scale = REFERENCE_S / statistics.median(reference)
        metrics = {
            "setup_s": raw["setup_s"] * REFERENCE_S / statistics.median(setup_bare),
            "rows_per_s": raw["rows_per_s"] / scale,
            "sweep_p50_s": raw["sweep_p50_s"] * scale,
            "peak_rss_mb": max(rss),
        }
    canary_ok = verifier.canary()
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(tallies),
        "launches": sum(map(len, walls.values())), "rows_per_pass": tallies[0].rows,
        "setup_samples_s": setup,
        "bare_start_median_s": statistics.median(reference) if reference else None,
        "setup_bare_start_median_s": statistics.median(setup_bare) if setup_bare else None,
        "unscaled": None if trace else raw,
        "failed_frac": failed / attempted, "canary_detected": canary_ok,
        "traced_output_mismatches": mismatched if trace else None,
        "shares": {cmd: {k: round(v / sum(c.values()), 6) for k, v in sorted(c.items())}
                   for cmd, c in categories.items()},
        "launch_sha256": digests,
        "workload_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "env": environment(env),
    }
    correct = failed == 0 and canary_ok and mismatched == 0
    return correct, attempted, failed, metrics, record


# ---------------------------------------------------------------------- cli


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_metrics(spec, metrics, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kleinstep" / "cli.py").is_file():
        print(f"perfbench: no kleinstep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work"
    table = []
    for name in names:
        workdir = work_root / f"{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            correct, attempted, failed, metrics, record = run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": result_metrics(spec, metrics, args.trace)}
        table.append((name, result, record))
    if args.workload != "all":
        print(json.dumps({"record": table[0][2]}, sort_keys=True))
        print(json.dumps(table[0][1]))
        return 0
    for name, result, record in table:
        print(f"{name}: correct={result['correct']} failed_frac={record['failed_frac']:.6g} "
              f"({result['failed']}/{result['attempted']} rows)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
