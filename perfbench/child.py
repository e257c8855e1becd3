"""One execution of a workload config in a fresh process.

    python3 child.py --config CONFIG.json --out DIR --mode {setup,run,trace} --src SRC

`setup` imports skewprod from SRC and parses the config, then exits; `run`
goes on to feed the config to `skewprod.cli.main` with one worker; `trace`
does the same with the public functions of each layer module wrapped in
timing spans.  Times are reported at the reference speed (see `speed`), and
the wall times too.  The last line of standard output is
one JSON object with the timings; the CLI's own output goes to standard
error.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402

# (layer, module, attribute path, counter of the work one call did)
LAYER_TARGETS = [
    ("config.parse", "skewprod.config", "load_config", None),
    ("config.parse", "skewprod.config", "parse_config", None),
    ("config.parse", "skewprod.config", "build_symbolic_system", None),
    ("config.parse", "skewprod.config", "build_doeblin_system", None),
    ("base_env.windows", "skewprod.limits", "stratified_windows",
     lambda a, r: {"base_env.windows": len(r)}),
    ("rpf.orbit", "skewprod.rpf", "SystemOrbit.__init__",
     lambda a, r: {"rpf.orbits": 1, "rpf.orbit_positions": a["j_hi"] - a["j_lo"] + 1}),
    ("rpf.mean", "skewprod.rpf", "SystemOrbit.birkhoff_mean",
     lambda a, r: {"rpf.mean_steps": a["k"]}),
    # D = 1 sums k independent steps; D > 1 applies the operator k (k + 1) / 2 times
    ("rpf.variance", "skewprod.rpf", "SystemOrbit.birkhoff_variance",
     lambda a, r: {"rpf.variance_steps": a["k"] if a["self"].model.space_dim == 1
                   else a["k"] * (a["k"] + 1) // 2}),
    ("gibbs.dp", "skewprod.gibbs", "exact_Sn_distribution",
     lambda a, r: {"gibbs.dp_calls": 1, "gibbs.dp_steps": a["n"],
                   "gibbs.dp_support": len(r.probs)}),
    ("limits.classify", "skewprod.limits", "SymbolicSystem.classify", None),
    ("doeblin.orbit", "skewprod.doeblin", "DoeblinOrbit.__init__", None),
    ("doeblin.dp", "skewprod.doeblin", "exact_doeblin_law",
     lambda a, r: {"doeblin.dp_calls": 1, "doeblin.dp_steps": a["n"]}),
    ("doeblin.classify", "skewprod.doeblin", "DoeblinSystem.classify", None),
    ("runner.write", "skewprod.runner", "write_results", None),
]
SAMPLE_PERIOD_S = 0.05
NUMPY_SAMPLE_STEPS = 120
NUMPY_SAMPLE_REF_S = 0.00103  # sample times at the reference speed (see README)
PYTHON_SAMPLE_STEPS = 20000
PYTHON_SAMPLE_REF_S = 0.0017
SETUP_SPEED_SAMPLES = 20
ROOT_LAYER = "limits.self"  # the root span: its self time is the experiment's remainder


def numpy_sample(np, A) -> float:
    """Thread CPU time of a short loop of 2 x 2 numpy steps, like the run's work.

    Waiting for the interpreter lock does not count.
    """
    t = time.thread_time()
    x = np.ones(2)
    for _ in range(NUMPY_SAMPLE_STEPS):
        x = A @ x
        x = x / np.max(np.abs(x))
    return time.thread_time() - t


def python_sample() -> float:
    """Thread CPU time of a pure-Python integer loop, which tracks set-up's speed."""
    t = time.thread_time()
    s = 0
    for i in range(PYTHON_SAMPLE_STEPS):
        s += i * i
    return time.thread_time() - t


def speed(samples, ref_s: float) -> float:
    """Mean of ref_s / sample: a wall time multiplied by it reads as seconds
    at the reference speed."""
    return sum(ref_s / dt for dt in samples) / len(samples)


class SpeedSampler(threading.Thread):
    """Takes a numpy speed sample every SAMPLE_PERIOD_S while the run goes on."""

    def __init__(self, np, A):
        super().__init__(daemon=True)
        self.np, self.A = np, A
        self.halt = threading.Event()
        self.samples = []  # (end time, sample)

    def run(self):
        while not self.halt.wait(SAMPLE_PERIOD_S):
            dt = numpy_sample(self.np, self.A)
            self.samples.append((time.perf_counter(), dt))

    def stop(self):
        self.halt.set()
        self.join()


class Tracer:
    """Nested spans kept in memory; a span's self time excludes its children."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.missing = []

    def open(self, layer: str) -> dict:
        span = {"layer": layer, "parent": self.stack[-1]["id"] if self.stack else None,
                "id": len(self.spans), "start": time.perf_counter(), "child_s": 0.0}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        span["self_s"] = span["end"] - span["start"] - span.pop("child_s")
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child_s"] += span["end"] - span["start"]

    def wrap(self, fn, layer: str, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments, result))
            return result

        return traced

    def install(self):
        """Wrap every target, rebinding each name that refers to it in skewprod."""
        import importlib

        for layer, mod_name, path, count in LAYER_TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self.wrap(orig, layer, count)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for name, module in list(sys.modules.items()):
                if name == "skewprod" or name.startswith("skewprod."):
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, wrapped)

    def self_times(self) -> dict:
        out = Counter()
        for span in self.spans:
            out[span["layer"] + "_s"] += span["self_s"]
        return dict(out)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--src", required=True, help="directory holding the skewprod package")
    args = p.parse_args()

    import skewprod.cli
    from skewprod.config import load_config

    src = os.path.realpath(args.src)
    if not os.path.realpath(skewprod.__file__).startswith(src + os.sep):
        print(f"skewprod imported from {skewprod.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
        if tracer.missing:
            print(f"trace targets not found: {tracer.missing}", file=sys.stderr)
    load_config(args.config)
    if tracer is not None:
        tracer.spans.clear()  # the set-up parse counts in setup_s, not in a layer
    setup_wall_s = time.perf_counter() - T0
    import numpy
    import scipy

    # set-up's speed is sampled right after it, so sampling does not slow it
    setup_speed = speed([python_sample() for _ in range(SETUP_SPEED_SAMPLES)],
                        PYTHON_SAMPLE_REF_S)
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    out = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * setup_speed,
           "versions": versions}
    if args.mode != "setup":
        sampler = SpeedSampler(numpy, numpy.array([[0.6, 0.4], [0.3, 0.7]]))
        sampler.start()
        os.makedirs(args.out, exist_ok=True)
        argv = ["run", args.config, "--workers", "1", "--out", args.out]
        root = tracer.open(ROOT_LAYER) if tracer is not None else None
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = skewprod.cli.main(argv)
        t2 = time.perf_counter()
        out["exit_code"] = code
        if tracer is not None:
            tracer.close(root)
            t1, t2 = root["start"], root["end"]
        sampler.stop()
        scale = speed([dt for end, dt in sampler.samples if t1 < end <= t2],
                      NUMPY_SAMPLE_REF_S)
        out["run_wall_s"] = t2 - t1
        out["run_s"] = out["run_wall_s"] * scale
        if tracer is not None:
            out["self_s"] = {k: v * scale for k, v in tracer.self_times().items()}
            out["counts"] = dict(tracer.counts)
            out["missing"] = tracer.missing
            with open(os.path.join(args.out, "trace.json"), "w") as fh:
                json.dump({"spans": tracer.spans, "counts": out["counts"]}, fh)
        out["speed_sample_median_s"] = statistics.median(dt for _, dt in sampler.samples)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
