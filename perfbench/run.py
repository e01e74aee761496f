"""Audit benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload audit-cold --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (``audit_s``, ``setup_s``,
``peak_rss_mb``) with no tracing.  The two times are scaled to a reference
host speed (see :class:`HostProbe`); the wall times and the probe's median
are printed on the line before the result.  ``--trace 1`` measures untraced passes
for half the time, then traced passes for the other half, and reports the
per-layer split (see ``spans.py``) plus the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``; workload sizes, the layer of every
metric and which end-to-end metric each layer should move are recorded in
``perfbench/spec.json``.

Every run checks the workload's outputs (``audits.py``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the first
line stamps the machine (``nproc``, numpy version, kernel path) and the seed.  The benchmark imports ``fairexp`` from ``src/`` of the checkout it
sits in and exits with an error when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: An untraced run repeats the set-up every SETUP_INTERVAL seconds between
#: its passes, at least MIN_SETUPS times: set-up times drift over seconds on
#: a shared host, and a median of set-ups spread over the run follows the
#: same drift as the passes' median.
MIN_SETUPS = 3
SETUP_INTERVAL = 3.0
MIN_PASSES = 5
MIN_SCORE_SAMPLES = 200
#: Median time of :class:`HostProbe` on the host the benchmark was defined on
#: (2 vCPUs at 2.1 GHz, OpenBLAS 0.3.31, one BLAS thread).
PROBE_REFERENCE_S = 0.040


class HostProbe:
    """Times a fixed, fairexp-independent mix of the work an audit does:
    per-instance random draws, clip-and-select passes over a large candidate
    tensor, zlib compression and decompression, and plain interpreter work.

    The host this benchmark was defined on changes speed by up to 40% over
    minutes (other tenants share its cores), which moves every pass of a run
    alike.  The probe runs before every pass and set-up, and the reported
    times are multiplied by :meth:`scale`, so two runs that differ only in
    host speed read the same.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.tensor = rng.normal(size=(300, 200, 8))
        self.payload = rng.normal(size=20000).round(2).tobytes()
        self.times: list[float] = []

    def __call__(self) -> None:
        """Run the probe once and record its time."""
        import numpy as np

        start = time.perf_counter()
        point, scale = np.zeros(8), np.ones(8)
        for i in range(120):
            rng = np.random.default_rng(i)
            directions = rng.normal(size=(200, 8))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True) + 1e-12
            _ = point[None, :] + directions * rng.uniform(0.0, 1.0, 200)[:, None] * scale
        low, high = np.full(8, -1.0), np.full(8, 1.0)
        for _ in range(2):
            clipped = np.minimum(np.maximum(self.tensor, low), high)
            clipped = np.where(clipped > 0.5, self.tensor, clipped)
            np.abs(clipped - self.tensor).sum(axis=-1)
        blob = zlib.compress(self.payload)
        for _ in range(6):
            zlib.decompress(blob)
        table: dict[int, int] = {}
        for i in range(15000):
            table[i % 97] = table.get(i % 97, 0) + i
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor turning this run's wall seconds into reference seconds."""
        return PROBE_REFERENCE_S / statistics.median(self.times)


def load_json(path: Path) -> dict:
    """Parse one of the benchmark's JSON declarations."""
    return json.loads(path.read_text())


def import_fairexp():
    """Put the checkout's ``src/`` first on the path and import fairexp from
    it; refuse to fall back to any other installed copy."""
    source = ROOT / "src"
    if not (source / "fairexp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fairexp sources under {source}")
    sys.path.insert(0, str(source))
    import fairexp

    if Path(fairexp.__file__).resolve().parent != source / "fairexp":
        sys.exit(f"perfbench: imported fairexp from {fairexp.__file__}, not {source}")
    return fairexp


class Passes:
    """Runs timed audit passes and books attempted and failed operations."""

    def __init__(self, workload, probe: HostProbe) -> None:
        self.workload = workload
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.succeeded = 0

    def run_one(self) -> float | None:
        """One pass; its wall time, or ``None`` when it raised."""
        self.probe()
        self.attempted += 1
        start = time.perf_counter()
        try:
            calls = self.workload.run_pass()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.workload.tidy()
        self.attempted += calls
        self.succeeded += 1
        return elapsed

    def measure(self, seconds: float, done=lambda: True,
                between=lambda: None) -> list[float]:
        """Pass times until ``seconds`` passed, at least :data:`MIN_PASSES`
        succeeded and ``done()`` holds; ``between()`` runs after each pass."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(times) < MIN_PASSES or not done():
            elapsed = self.run_one()
            if elapsed is not None:
                times.append(elapsed)
            elif self.failed > MIN_PASSES and not times:
                break
            between()
        return times


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set the workload up, measure it, check it; returns the result object."""
    fairexp = import_fairexp()
    import numpy as np
    from fairexp.explanations import resolve_kernels

    import audits
    import spans

    bench = load_json(ROOT / "BENCHMARK.json")
    sizes = load_json(HERE / "spec.json")["workloads"][workload_name]
    kernel_set = resolve_kernels(None)
    print("perfbench: " + json.dumps({
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "numpy": np.__version__,
        "kernel_path": kernel_set.name, "fairexp": fairexp.__version__,
        "python": sys.version.split()[0],
    }), flush=True)

    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    probe = HostProbe()
    setup_times: list[float] = []
    last_setup = 0.0

    def set_up():
        nonlocal last_setup
        probe()
        start = time.perf_counter()
        built = audits.WORKLOADS[workload_name](
            seed, scratch, n_samples=sizes["n_samples"], audit_size=sizes["audit_size"])
        setup_times.append(time.perf_counter() - start)
        last_setup = time.perf_counter()
        return built

    def repeat_set_up():
        if time.perf_counter() - last_setup >= SETUP_INTERVAL:
            set_up().close()

    workload = None
    try:
        workload = set_up()
        passes = Passes(workload, probe)
        passes.run_one()  # warm-up: lazy imports, package digest, allocator
        if not trace:
            times = passes.measure(seconds, between=repeat_set_up)
            while len(setup_times) < MIN_SETUPS:
                set_up().close()
            wall = {"audit_s": statistics.median(times),
                    "setup_s": statistics.median(setup_times)}
            print("perfbench: wall " + json.dumps(
                {**wall, "probe_s": statistics.median(probe.times)}), flush=True)
            values = {name: seconds * probe.scale() for name, seconds in wall.items()}
            values["peak_rss_mb"] = peak_rss_mb()
            declared = bench["end_to_end"]
        else:
            untraced = passes.measure(seconds / 2)
            tracer = spans.Tracer()
            before = dict(workload.serving_counters)
            needs_samples = workload_name == "audit-remote"
            with spans.instrument(tracer, kernel_set):
                traced = passes.measure(
                    seconds / 2,
                    done=lambda: not needs_samples or sum(
                        span.name == "serving.score" for span in tracer.spans
                    ) >= MIN_SCORE_SAMPLES)
            counters = {key: workload.serving_counters[key] - before[key] for key in before}
            values = spans.layer_metrics(tracer.spans, len(traced),
                                         serving_counters=counters)
            values["trace.overhead_ratio"] = (statistics.median(traced)
                                              / statistics.median(untraced))
            declared = bench["per_layer"]
        failures = workload.check() if passes.succeeded else ["no pass succeeded"]
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still holds its own scratch directory
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(f"emitted {sorted(values)} but BENCHMARK.json declares "
                           f"{sorted(units)}")
    return {
        "correct": not failures,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    """Parse the driver's arguments and print the result line."""
    workloads = list(load_json(HERE / "spec.json")["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Set before numpy loads: with up to two caller threads on two CPUs,
    # OpenBLAS's own worker threads contend with them and make pass times
    # depend on the scheduler (same-seed audit_s spread 34% with them, 4%
    # without, audit-cold on a 2-CPU container).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
