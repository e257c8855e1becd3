import copy
import json
import math
import os
import subprocess
import sys
from collections import Counter

import pytest
from ledger import SMALL_RUNS, check_record, small_variant

import skewprod
from skewprod.config import EXPERIMENTS, GRIDS, build_doeblin_system, config_hash, parse_config
from skewprod.errors import ConfigError
from skewprod.presets import PRESETS, preset_config
from skewprod.runner import record_bytes_from_file, run_experiment, write_results


def test_every_preset_validates():
    for name in PRESETS:
        cfg = parse_config(preset_config(name), name_hint=name)
        assert cfg.name == name


def test_catalog_contains_required_presets():
    required = {"scalar-iid", "two-state-base-lattice", "coboundary-degenerate",
                "span-2-counterexample", "doeblin-iid", "renewal-gamma-3-2", "matrix-llt"}
    assert required <= set(PRESETS)


def test_zero_transition_names_the_cell():
    cfg = preset_config("scalar-iid")
    cfg["base"]["transition"] = [[1.0, 0.0], [0.5, 0.5]]
    with pytest.raises(ConfigError, match=r"base\.transition\[0\]\[1\]"):
        parse_config(cfg)


def test_bad_experiment_and_missing_fields():
    for key, value in [("experiment", "nonsense"), ("experiment", []), ("experiment", {}),
                       ("kind", []), ("kind", "markov")]:
        cfg = preset_config("scalar-iid")
        cfg[key] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
    cfg = preset_config("scalar-iid")
    del cfg["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(cfg)
    cfg = preset_config("scalar-iid")
    cfg["potentials"]["phi"] = [[0.0]]
    with pytest.raises(ConfigError, match=r"potentials\.phi"):
        parse_config(cfg)


def test_bad_tolerances_and_unknown_keys():
    cases = [("tolerances", "ks", 0), ("tolerances", "ks", float("inf")),
             ("tolerances", "ks", "tight"), ("tolerances", "kss", 0.02),
             ("samples", "omega", 8), ("samples", "omega_samples", 8.5),
             ("samples", "omega_samples", True), ("samples", "strata_depth", -1),
             # the system sections were read with .get: a misspelled key ran
             # with its default
             ("base", "transitions", 1), ("fiber", "alfa", 1), ("fiber", "metric_base", 3),
             ("potentials", "lattice", 1), ("doeblin", "h", 1), ("renewal", "truncaton", 60)]
    for section, key, value in cases:
        cfg = preset_config("scalar-iid")
        cfg.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            parse_config(cfg)
    cfg = preset_config("scalar-iid")
    cfg["samples"] = {"omega_samples": 1, "strata_depth": 0}
    cfg["base"]["tol"] = 1e-9
    cfg["fiber"]["alpha"] = 0.5
    # f takes one value per fiber state: scalar-iid has one; a renewal
    # section belongs to a renewal config
    cfg["experiment"] = "renewal"
    cfg["renewal"] = {"truncation": 60, "f": [1.0], "limit_window": [40, 60]}
    parse_config(cfg)


@pytest.mark.parametrize("preset,key,value", [
    # each ran: a misspelled section or key with its defaults (64 windows,
    # llt_sup 0.05, the cycle (0,)), a section of the other kind of system or
    # of another statement unread
    ("scalar-iid", "sampels", {"omega_samples": 8}),
    ("scalar-iid", "tolerance", {"llt_sup": 1e-9}),
    ("scalar-iid", "periodic_cylce", [1]),
    ("scalar-iid", "doeblin", {"alpha": 0.5}),
    ("doeblin-iid", "fiber", {"alphabet_size": 2, "depth": 1}),
    ("scalar-iid", "renewal", {"truncation": 60}),
])
def test_top_level_key_of_no_such_config_exit_2(tmp_path, capsys, preset, key, value):
    from skewprod.cli import main

    cfg = preset_config(preset)
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    kind, experiment = cfg.get("kind", "symbolic"), cfg["experiment"]
    assert f"config error: {key}: not a key of a {kind} {experiment!r} config" \
        in capsys.readouterr().err


def test_bad_grids():
    cases = [("n_list", [0]), ("n_list", []), ("n_list", [2.5]), ("n_list", [True]),
             ("n_list", 100), ("n_grid", [50, -1]), ("a_list", []), ("a_list", [1.5]),
             ("a_list", ["40"]), ("t_grid", []), ("t_grid", [0.1, float("nan")]),
             ("t_small", ["x"]), ("t_large", [float("inf")]), ("n_lists", [50])]
    for key, value in cases:
        cfg = preset_config("scalar-iid")
        cfg["grids"] = {key: value}
        with pytest.raises(ConfigError, match=rf"grids\.{key}"):
            parse_config(cfg)
    cfg = preset_config("scalar-iid")
    cfg["grids"] = {"n_list": [1], "n_grid": [50], "a_list": [-20, 0, 40],
                    "t_grid": [0.1, 1], "t_small": [-0.5], "t_large": [2.4]}
    parse_config(cfg)


def test_repeated_grid_entries_are_refused(tmp_path):
    # llt on n_list [200, 200, 400] exited 1 with a LinAlgError traceback, and
    # clt on [200, 200] reported the second draw's KS as the one at n = 200
    for key in GRIDS:
        cfg = preset_config("scalar-iid")
        cfg["grids"] = {key: [50, 60, 50]}
        with pytest.raises(ConfigError, match=rf"grids\.{key}: expected .* distinct"):
            parse_config(cfg)
    for preset, experiment, n_list in [("scalar-iid", "llt", [200, 200, 400]),
                                       ("two-state-base-lattice", "clt", [200, 200])]:
        cfg = preset_config(preset)
        cfg["experiment"], cfg["grids"]["n_list"] = experiment, n_list
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(path)], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "config error: grids.n_list" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_renewal_limit_window_without_a_point_exit_2(tmp_path):
    # a window past every a ran with rel_err_window null and exit 0, its
    # limit never checked; the default window holds max(a_list)
    cfg = preset_config("renewal-gamma-3-2")
    cfg["renewal"]["limit_window"] = [100, 120]
    with pytest.raises(ConfigError, match=r"renewal\.limit_window: \[100, 120\] holds no point"):
        parse_config(cfg)
    path = tmp_path / "window.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: renewal.limit_window" in proc.stderr
    del cfg["renewal"]["limit_window"]
    parse_config(cfg)


def test_config_hash_ignores_output_dir():
    a = preset_config("scalar-iid")
    b = preset_config("scalar-iid")
    b["output_dir"] = "elsewhere"
    assert config_hash(a) == config_hash(b)
    b["seed"] = 1
    assert config_hash(a) != config_hash(b)


def small_renewal_config(tmp_path, seed=77):
    return dict(copy.deepcopy(SMALL_RUNS["renewal"]), seed=seed,
                output_dir=str(tmp_path / "out"))


def test_run_experiment_renewal_and_persistence(tmp_path):
    cfg = parse_config(small_renewal_config(tmp_path))
    result = run_experiment(cfg)
    assert result.exit_code == 0
    assert result.record["verdicts"]["passed"]
    path = write_results(cfg.output_dir, result)
    payload = json.loads(open(path).read())
    assert payload["record"]["experiment"] == "renewal"
    assert "wall_clock_seconds" in payload["timing"]
    csv_path = tmp_path / "out" / "curves" / "renewal.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "a,U,target"


def test_rerun_reproduces_record_bytes(tmp_path):
    cfg1 = parse_config(small_renewal_config(tmp_path / "a"))
    cfg2 = parse_config(small_renewal_config(tmp_path / "b"))
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    p1 = write_results(str(tmp_path / "a"), r1)
    p2 = write_results(str(tmp_path / "b"), r2)
    assert record_bytes_from_file(p1) == record_bytes_from_file(p2)


def test_workers_do_not_change_record(tmp_path, monkeypatch):
    from skewprod import runner
    from skewprod.config import canonical_record_bytes

    # two CPUs whatever the machine, so the second run starts a real pool
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    cfg = parse_config(small_renewal_config(tmp_path))
    r1 = run_experiment(cfg, workers=1)
    r2 = run_experiment(cfg, workers=4)
    assert r2.timing["workers"] == 2
    assert canonical_record_bytes(r1.record) == canonical_record_bytes(r2.record)


def test_worker_pool_bounded_by_cpu_count(tmp_path, monkeypatch):
    # a pool that only records its size and maps in-process: no worker starts
    from skewprod import runner

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cfg = parse_config(small_renewal_config(tmp_path))
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
    result = run_experiment(cfg, workers=10**6)
    assert sizes == [3] and result.timing["workers"] == 3
    monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
    result = run_experiment(cfg, workers=10**6)
    assert sizes == [3] and result.timing["workers"] == 1


def test_seed_override_recorded_and_omega_sensitive(tmp_path):
    cfg = parse_config(small_renewal_config(tmp_path))
    r2 = run_experiment(cfg, seed_override=12345)
    assert r2.record["seed"] == 12345
    # on an environment-modulated instance (the two-state base), different
    # seeds draw different ensembles and the statistics move
    parsed = parse_config(copy.deepcopy(SMALL_RUNS["clt"]))
    v1 = run_experiment(parsed)
    v2 = run_experiment(parsed, seed_override=999)
    assert v1.record["stats"]["sigma_sq"] != v2.record["stats"]["sigma_sq"]


def test_expect_degenerate_path(tmp_path):
    cfg = preset_config("coboundary-degenerate")
    cfg["grids"]["n_list"] = [200, 400]
    cfg["samples"] = {"omega_samples": 8, "fiber_replicates": 16}
    parsed = parse_config(cfg)
    result = run_experiment(parsed)
    assert result.record["verdicts"]["outcome"] == "degenerate"
    assert result.exit_code == 0


def test_degenerate_stats_do_not_depend_on_expect():
    # the CLT ran a degenerate branch of its own only under expect
    # "degenerate"; under "pass" the record held a bare error
    cfg = preset_config("coboundary-degenerate")
    cfg["grids"]["n_list"] = [200, 400]
    cfg["samples"] = {"omega_samples": 8, "fiber_replicates": 16}
    runs = {}
    for expect in ("pass", "degenerate"):
        cfg["expect"] = expect
        runs[expect] = run_experiment(parse_config(copy.deepcopy(cfg)))
        assert runs[expect].record["verdicts"]["outcome"] == "degenerate"
    assert runs["pass"].record["stats"] == runs["degenerate"].record["stats"]
    assert runs["pass"].exit_code == 1 and runs["degenerate"].exit_code == 0


@pytest.mark.parametrize("experiment,grids", [
    ("llt", {"n_list": [200]}), ("renewal", {"a_list": [10, 20]})])
def test_degenerate_preset_is_degenerate_for_every_runner(experiment, grids):
    # the classifier finds the radius pinned at 1: this was a classifier
    # failure, so the preset run as llt or renewal exited 1
    cfg = preset_config("coboundary-degenerate")
    cfg["experiment"], cfg["grids"] = experiment, grids
    cfg["samples"] = {"omega_samples": 8}
    result = run_experiment(parse_config(cfg))
    assert result.record["verdicts"]["outcome"] == "degenerate"
    assert result.exit_code == 0


def test_expect_classifier_failure_path():
    cfg = preset_config("span-2-counterexample")
    cfg["samples"] = {"omega_samples": 4}
    cfg["grids"]["n_list"] = [50]
    parsed = parse_config(cfg)
    result = run_experiment(parsed)
    assert result.record["verdicts"]["outcome"] == "classifier-failure"
    assert result.exit_code == 0


# The directory holding the imported skewprod package.  The child process gets
# it first on PYTHONPATH, so it runs the same copy as this process even from a
# foreign cwd, where a relative PYTHONPATH entry such as "src" resolves to
# nothing.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(skewprod.__file__)))


def run_child(args, cwd, env=None):
    """Run `python *args` with the imported skewprod first on its path, and
    the variables in `env` set on top of this process's environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(args, cwd, env=None):
    return run_child(["-m", "skewprod", *args], cwd, env)


def test_small_runs_cover_every_experiment_name():
    # one small run per (kind, name) in the table, keyed by its name
    assert {name: (cfg.get("kind", "symbolic"), cfg["experiment"])
            for name, cfg in SMALL_RUNS.items()} == \
        {name: (kind, name) for entry in EXPERIMENTS.values() for kind, name in entry.names.items()}


def test_every_statement_has_one_runner():
    from skewprod.runner import RUNNERS

    assert set(RUNNERS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", list(SMALL_RUNS))
def test_every_experiment_same_record_at_one_and_two_workers(name, monkeypatch):
    from skewprod import runner
    from skewprod.config import canonical_record_bytes

    # two CPUs whatever the machine, so the second run starts a real pool
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    cfg = parse_config(copy.deepcopy(SMALL_RUNS[name]))
    r1 = run_experiment(cfg, workers=1)
    r2 = run_experiment(cfg, workers=2)
    assert r2.timing["workers"] == 2
    assert canonical_record_bytes(r1.record) == canonical_record_bytes(r2.record)
    check_record(f"small/{name}", r1.record)


@pytest.mark.parametrize("name", list(SMALL_RUNS))
def test_one_orbit_build_per_environment(name, monkeypatch):
    # every environment of every ensemble has its orbit built exactly once
    from skewprod import limits
    from skewprod.doeblin import DoeblinSystem
    from skewprod.symbolic import SymbolicSystem

    ensembles, built = [], Counter()
    draw = limits.stratified_windows

    def recording_draw(*args, **kw):
        ensembles.append(draw(*args, **kw))
        return ensembles[-1]

    monkeypatch.setattr(limits, "stratified_windows", recording_draw)
    for cls in (SymbolicSystem, DoeblinSystem):
        def counting_orbit(self, window, n, _orbit=cls.orbit):
            built[id(window)] += 1
            return _orbit(self, window, n)

        monkeypatch.setattr(cls, "orbit", counting_orbit)
    run_experiment(parse_config(copy.deepcopy(SMALL_RUNS[name])))
    expected = [len(ens) for ens in ensembles]
    assert [sum(built[id(ww.window)] for ww in ens) for ens in ensembles] == expected
    assert set(built.values()) <= {1}
    assert sum(built.values()) == sum(expected)


@pytest.mark.parametrize("name", list(SMALL_RUNS))
def test_no_random_stream_is_drawn_twice(name, monkeypatch):
    # every generator of a run comes from its own (master_seed, *path): two
    # stages given one stream would draw the same numbers
    from skewprod import seeding

    drawn = Counter()
    derive = seeding.seed_sequence

    def recording(master_seed, *path):
        drawn[(master_seed, *path)] += 1
        return derive(master_seed, *path)

    monkeypatch.setattr(seeding, "seed_sequence", recording)
    run_experiment(parse_config(copy.deepcopy(SMALL_RUNS[name])))
    assert drawn
    assert [path for path, count in drawn.items() if count > 1] == []


@pytest.mark.parametrize("name", ["renewal", "doeblin-renewal"])
def test_renewal_run_draws_one_ensemble(name, ensemble_calls):
    assert run_experiment(parse_config(copy.deepcopy(SMALL_RUNS[name]))).exit_code == 0
    assert len(ensemble_calls) == 1


def tightened(name, **tolerances):
    """SMALL_RUNS[name] with the given tolerances."""
    cfg = copy.deepcopy(SMALL_RUNS[name])
    cfg["tolerances"] = {**cfg.get("tolerances", {}), **tolerances}
    return cfg


# one small config per experiment name whose outcome is "fail": a tolerance
# below the figure any finite ensemble gives, or an input the statement
# excludes
FAILING_RUNS = {
    "rpf-audit": copy.deepcopy(SMALL_RUNS["rpf-audit"]),
    "clt": tightened("clt", ks=1e-6),  # KS >= 1 / (2 samples)
    "llt": tightened("llt", llt_sup=1e-6),
    "renewal": tightened("renewal", renewal_rel=1e-12),
    "decay-survey": small_variant("two-state-base-lattice", "decay-survey",
                                  {"n_grid": [50, 100]}),
    "char-fn": tightened("char-fn", char_exact=1e-18),
    "doeblin-clt": tightened("doeblin-clt", ks=1e-6),
    "doeblin-llt": tightened("doeblin-llt", llt_sup=1e-6),
    "doeblin-renewal": tightened("doeblin-renewal", renewal_rel=1e-12),
    "doeblin-char": tightened("doeblin-char", char_exact=1e-18),
}
# the fiber chain W = [[0.98, 0.02], [0.02, 0.98]] in matrix-llt's r = 2
# layout: its transfer operator converges at rate 0.96, above the audit's 0.9
FAILING_RUNS["rpf-audit"]["potentials"]["phi"] = \
    [[math.log([[0.98, 0.02], [0.02, 0.98]][i % 2][i // 2]) for i in range(4)]] * 2
# u == 0 does not move: |lambda_n(it)| = 1 and the cocycle norms do not decay,
# so both fitted rates are 0, exactly so on an r = 1 fiber
FAILING_RUNS["decay-survey"]["potentials"]["u"] = [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("name", list(FAILING_RUNS))
def test_every_experiment_can_fail(name):
    assert set(FAILING_RUNS) == set(SMALL_RUNS)
    result = run_experiment(parse_config(copy.deepcopy(FAILING_RUNS[name])))
    assert result.record["verdicts"]["outcome"] == "fail", result.record["stats"]
    assert result.exit_code == 1


def test_decay_survey_without_decay_fails_on_the_matrix_fiber():
    # u == 0 on matrix-llt's r = 2 fiber: neither rate is above the fit's
    # rounding floor, whatever sign the rounding gives it
    cfg = copy.deepcopy(SMALL_RUNS["decay-survey"])
    cfg["potentials"]["u"] = [[0.0] * 4] * 2
    result = run_experiment(parse_config(cfg))
    stats = result.record["stats"]
    assert max(abs(stats["d2_fit"]), abs(stats["u_fit"])) < 1e-15, stats
    assert result.record["verdicts"]["outcome"] == "fail"
    assert result.exit_code == 1


# every stats field of each statement's record, as ("verdict", how it
# enters the verdict) or ("report", why it is reported only); both kinds of
# system run one runner per statement
STATS_REACH = {
    "rpf-audit": {
        "max_residual": ("verdict", "below tolerances.rpf_residual"),
        "max_conv_rate": ("verdict", "below 0.9"),
        "windows": ("report", "the number of windows audited, the run's size"),
    },
    "clt": {
        "sigma_sq": ("verdict", "scales the KS distance; below 1e-10 it picks the "
                                "degenerate branch"),
        "ks": ("verdict", "the last n's distance below tolerances.ks"),
        "degenerate_max_abs": ("verdict", "the degenerate branch's collapse, below 0.05"),
        "pooled_samples": ("report", "the number of samples pooled, the run's size"),
    },
    "llt": {
        "sigma_sq": ("verdict", "scales the gaussian"),
        "sup_dev": ("verdict", "the last n's deviation below tolerances.llt_sup"),
        "classifier_min_gap": ("verdict", "the classifier gates the run"),
        "sigma_sq_quenched": ("report", "the quenched part of sigma_sq, which decides "
                                        "through sigma_sq"),
        "sigma_sq_means": ("report", "the part of sigma_sq from the spread of the quenched "
                                     "means, which decides through sigma_sq"),
    },
    "renewal": {
        "gamma": ("verdict", "the drift in the target mu(f) h / gamma"),
        "mu_f": ("verdict", "the mass in the target mu(f) h / gamma"),
        "target": ("verdict", "the limit rel_err_window is measured against"),
        "rel_err_window": ("verdict", "below tolerances.renewal_rel"),
        "negative_side_max": ("verdict", "below tolerances.renewal_negative"),
        "tail_bound": ("report", "a Gaussian estimate of the mass beyond the truncation, "
                                 "not a bound (ROADMAP item 6); it only raises a warning"),
    },
    "decay-survey": {
        "d2_fit": ("verdict", "the small-t rate, above the fit's rounding floor"),
        "u_fit": ("verdict", "the large-t rate, above the fit's rounding floor"),
        "small_violation_frac": ("verdict", "non-increasing along n_grid"),
        "large_violation_frac": ("verdict", "non-increasing along n_grid"),
        "A_fit": ("report", "the small-t envelope's constant; the theory's constants "
                            "are existential"),
        "B0_fit": ("report", "the large-t envelope's constant; the theory's constants "
                             "are existential"),
    },
    "char-fn": {
        "max_exact_spectral_gap": ("verdict", "below tolerances.char_exact"),
        "mc_within_band": ("verdict", "the Monte Carlo route within its 4 sigma band"),
    },
}


@pytest.mark.parametrize("name", list(SMALL_RUNS))
def test_every_stats_field_is_listed(name):
    cfg = parse_config(copy.deepcopy(SMALL_RUNS[name]))
    reach = STATS_REACH[cfg.statement]
    assert all(kind in ("verdict", "report") and why for kind, why in reach.values())
    stats = run_experiment(cfg).record["stats"]
    assert set(stats) == set(reach), f"unlisted: {set(stats) - set(reach)}, " \
        f"listed but absent: {set(reach) - set(stats)}"


def test_char_fn_takes_negative_t(tmp_path):
    # a negative t made a negative Monte Carlo stream key: exit 1 with a
    # ValueError traceback
    cfg = copy.deepcopy(SMALL_RUNS["char-fn"])
    cfg["grids"]["t_grid"] = [-0.3, 0.7]
    path = tmp_path / "char.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_and_one_worker_run_stay_light(tmp_path):
    # the runtime needs numpy alone: scipy is a test-only oracle, and the
    # process-pool machinery loads only for --workers > 1.  The runs cover
    # every experiment name the runner knows and reach the KS distance (clt)
    # and the renewal tail, so a lazy scipy import shows too.
    # numpy.ma (10-20 ms to import) stays out too: on numpy 2.4 a bare
    # np.unique or np.quantile imports it, and no run calls either.
    runs = ["coboundary-degenerate"]
    for name, cfg in SMALL_RUNS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append(str(path))
    script = f"""
import sys
import skewprod, skewprod.cli
def heavy():
    return [m for m in ("scipy", "concurrent.futures.process", "numpy.ma") if m in sys.modules]
assert not heavy(), heavy()
for i, run in enumerate({runs!r}):
    code = skewprod.cli.main(["run", run, "--workers", "1", "--out", f"out{{i}}"])
    assert code == 0, (run, code)
    assert not heavy(), (run, heavy())
"""
    proc = run_child(["-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_presets_listing(tmp_path):
    proc = run_cli(["presets"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in PRESETS:
        assert name in proc.stdout


def test_cli_run_config_and_exit_codes(tmp_path):
    cfg = small_renewal_config(tmp_path)
    cfg_path = tmp_path / "renewal.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(cfg_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    # an unknown experiment exits 2, the deleted berry-esseen scan and
    # variance experiment included
    for experiment in ("bogus", "berry-esseen", "variance"):
        bad = dict(cfg)
        bad["experiment"] = experiment
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        proc2 = run_cli(["run", str(bad_path)], cwd=tmp_path)
        assert proc2.returncode == 2, proc2.stderr
        assert f"config error: experiment: {experiment!r} not valid" in proc2.stderr
    # unknown preset / missing file exits 2
    proc3 = run_cli(["run", "no-such-thing"], cwd=tmp_path)
    assert proc3.returncode == 2, proc3.stderr
    assert "config error" in proc3.stderr


@pytest.mark.parametrize("n_list", [[0], [], [-5], ["x"]])
def test_cli_bad_n_list_exit_2(tmp_path, n_list):
    # these crashed mid-run with a ValueError or IndexError (exit 1, which
    # reads as an acceptance failure)
    cfg = preset_config("two-state-base-lattice")
    cfg["grids"]["n_list"] = n_list
    cfg["samples"] = {"omega_samples": 8, "fiber_replicates": 16, "strata_depth": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: grids.n_list" in proc.stderr


def test_cli_preset_name_beside_directory_of_that_name(tmp_path):
    # an earlier `--out coboundary-degenerate` leaves such a directory; the
    # name still means the preset, not a config file
    (tmp_path / "coboundary-degenerate").mkdir()
    proc = run_cli(["run", "coboundary-degenerate"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("key,value", [("fiber_replicates", 0), ("strata_depth", -1),
                                       ("fiber_replicates", "many"), ("omega_samples", -3)])
def test_cli_bad_samples_exit_2(tmp_path, key, value):
    # these crashed mid-run (exit 1, which reads as an acceptance failure) or,
    # for a negative ensemble size, ran and passed
    cfg = preset_config("two-state-base-lattice")
    cfg["grids"]["n_list"] = [50]
    cfg["samples"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: samples.{key}" in proc.stderr


@pytest.mark.parametrize("preset,section,key,value,error", [
    # ran and passed: metric_base was read and then ignored (the Hoelder norms
    # are fixed at base 2), and a misspelled alpha ran with the default
    ("scalar-iid", "fiber", "metric_base", 3, "fiber.metric_base: unknown key"),
    ("scalar-iid", "fiber", "alfa", 3, "fiber.alfa: unknown key"),
    # exit 1: -1 ran to a classifier failure at a negative t, and 0 to a
    # ZeroDivisionError in the classifier's grid
    ("doeblin-iid", "doeblin", "lattice_h", -1, "doeblin: lattice_h must be finite and positive"),
    ("doeblin-iid", "doeblin", "lattice_h", 0, "doeblin: lattice_h must be finite and positive"),
    # exit 1 with a traceback: a ValueError from a bare float() or from the
    # matmul of f with the one-state (D = 1) start law, an IndexError or a
    # ZeroDivisionError; 1.5 was cut to 1 and ended at exit 3
    ("renewal-gamma-3-2", "renewal", "f", ["x", 1],
     "renewal.f: expected a non-empty list of finite numbers > 0, got ['x', 1]"),
    ("renewal-gamma-3-2", "renewal", "f", "x",
     "renewal.f: expected a non-empty list of finite numbers > 0, got 'x'"),
    ("renewal-gamma-3-2", "renewal", "f", [1.0, 2.0],
     "renewal.f: expected 1 values, one per fiber state, got 2"),
    ("renewal-gamma-3-2", "renewal", "limit_window", "ab",
     "renewal.limit_window: expected two integers lo <= hi, got 'ab'"),
    ("renewal-gamma-3-2", "renewal", "limit_window", [40],
     "renewal.limit_window: expected two integers lo <= hi, got [40]"),
    ("renewal-gamma-3-2", "renewal", "truncation", 0,
     "renewal.truncation: expected an integer >= 1, got 0"),
    ("renewal-gamma-3-2", "renewal", "truncation", -5,
     "renewal.truncation: expected an integer >= 1, got -5"),
    ("renewal-gamma-3-2", "renewal", "truncation", 1.5,
     "renewal.truncation: expected an integer, got 1.5"),
    # ran with seed 2, 1 or 17, the cycle (0,) or (1,), d = 2 and r = 1
    ("scalar-iid", None, "seed", 2.9, "seed: expected a non-negative integer, got 2.9"),
    ("scalar-iid", None, "seed", True, "seed: expected a non-negative integer, got True"),
    ("scalar-iid", None, "seed", "17", "seed: expected a non-negative integer, got '17'"),
    ("scalar-iid", None, "periodic_cycle", [0.7],
     "periodic_cycle: expected a non-empty list of integers, got [0.7]"),
    ("scalar-iid", None, "periodic_cycle", [True],
     "periodic_cycle: expected a non-empty list of integers, got [True]"),
    ("scalar-iid", "fiber", "alphabet_size", 2.7,
     "fiber.alphabet_size: expected an integer, got 2.7"),
    ("scalar-iid", "fiber", "depth", 1.9, "fiber.depth: expected an integer, got 1.9"),
    ("scalar-iid", "fiber", "depth", True, "fiber.depth: expected an integer, got True"),
    # turned the one-state base on and ended with exit 0
    ("scalar-iid", "base", "allow_deterministic", "no",
     "base.allow_deterministic: expected a boolean, got 'no'"),
    # exit 1 with a numpy ValueError traceback
    ("doeblin-iid", "doeblin", "initial_measure", "uniform",
     'doeblin.initial_measure: expected null, "invariant" or finite numbers >= 0 with a '
     "positive sum, got 'uniform'"),
    ("doeblin-iid", "doeblin", "initial_measure", [1, -1],
     'doeblin.initial_measure: expected null, "invariant" or finite numbers >= 0 with a '
     "positive sum, got [1, -1]"),
    ("doeblin-iid", "doeblin", "initial_measure", [0, 0],
     'doeblin.initial_measure: expected null, "invariant" or finite numbers >= 0 with a '
     "positive sum, got [0, 0]"),
    ("doeblin-iid", "doeblin", "initial_measure", [1, 1, 1],
     "doeblin.initial_measure: expected 2 values, one per fiber state, got 3"),
    # NaN passed every row-sum check, so rows summing to 1.8 made a chain
    ("scalar-iid", "base", "tol", float("nan"), "base.tol: expected a finite number > 0, got nan"),
    ("scalar-iid", "base", "tol", -1, "base.tol: expected a finite number > 0, got -1"),
    # exit 1 with a LinAlgError traceback
    ("scalar-iid", "potentials", "phi", [[float("nan"), 0.0], [0.0, 0.0]],
     "potentials.phi: expected finite numbers"),
    ("doeblin-iid", "doeblin", "u", [[1, float("inf")], [0, 0]],
     "doeblin.u: expected finite numbers"),
])
def test_cli_bad_system_config_exit_2(tmp_path, preset, section, key, value, error):
    cfg = preset_config(preset)
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {error}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_renewal_point_off_the_lattice_exit_2(tmp_path):
    # steps {2, 4} on the lattice 2 Z: no S_n reaches an odd a
    cfg = preset_config("renewal-gamma-3-2")
    cfg["potentials"]["u"], cfg["potentials"]["lattice_h"] = [[2.0, 4.0]] * 2, 2.0
    cfg["grids"]["a_list"] = list(range(81, 87))
    cfg["samples"], cfg["seed"] = {"omega_samples": 16}, 1
    path = tmp_path / "off-lattice.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: grids.a_list: a = 81 is off the lattice" in proc.stderr
    assert "Traceback" not in proc.stderr
    del cfg["grids"]  # the default a_list, -20 ... 60, is off 2 Z too
    with pytest.raises(ConfigError, match="grids.a_list: a = -15 is off the lattice"):
        parse_config(cfg)


@pytest.mark.parametrize("preset,section,key,value,error", [
    # each exited 1 with a ValueError traceback from a bare float() or int()
    ("scalar-iid", "fiber", "alpha", "x", "fiber.alpha: expected a number, got 'x'"),
    ("scalar-iid", "potentials", "lattice_h", "x",
     "potentials.lattice_h: expected a number, got 'x'"),
    ("doeblin-iid", "doeblin", "lattice_h", "x", "doeblin.lattice_h: expected a number, got 'x'"),
    ("renewal-gamma-3-2", "renewal", "truncation", "many",
     "renewal.truncation: expected an integer, got 'many'"),
    ("scalar-iid", "potentials", "phi", "x", "potentials.phi: not a numeric array"),
    ("scalar-iid", "potentials", "u", [["a", "b"]], "potentials.u: not a numeric array"),
    ("doeblin-iid", "doeblin", "kernels", "x", "doeblin.kernels: not a numeric array"),
    ("doeblin-iid", "doeblin", "u", [[1, 2], [3]], "doeblin.u: not a numeric array"),
])
def test_cli_non_numeric_config_value_exit_2(tmp_path, preset, section, key, value, error):
    cfg = preset_config(preset)
    cfg[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {error}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("preset,experiment,expect", [
    # exit 0 with PASS: the expected classifier failure came from the missing
    # lattice, and no classifier ran
    ("scalar-iid", "llt", "classifier-failure"),
    # outcome=classifier-failure (exit 1), though no classifier ran
    ("scalar-iid", "llt", "pass"),
    ("renewal-gamma-3-2", "renewal", "pass"),
    ("doeblin-iid", "doeblin-llt", "pass"),
    ("doeblin-iid", "doeblin-renewal", "pass"),
    # exit 3 with NotLattice from the exact laws
    ("scalar-iid", "char-fn", "pass"),
    ("doeblin-iid", "doeblin-char", "pass"),
])
def test_cli_lattice_experiment_without_lattice_exit_2(tmp_path, preset, experiment, expect):
    cfg = preset_config(preset)
    cfg["experiment"], cfg["expect"] = experiment, expect
    section = "doeblin" if cfg.get("kind") == "doeblin" else "potentials"
    del cfg[section]["lattice_h"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {section}.lattice_h: required by experiment {experiment!r}" \
        in proc.stderr
    assert "Traceback" not in proc.stderr
    # null is no lattice either; the experiments that need none accept it
    cfg[section]["lattice_h"] = None
    with pytest.raises(ConfigError, match=rf"{section}\.lattice_h"):
        parse_config(cfg)
    cfg["experiment"], cfg["expect"] = ("doeblin-clt", "pass") if section == "doeblin" \
        else ("clt", "pass")
    cfg.pop("renewal", None)  # a clt config has no renewal section
    parse_config(cfg)


@pytest.mark.parametrize("value,initial", [(None, None), ("invariant", None),
                                           ([1, 0], [1.0, 0.0]), ([0.25, 3], [0.25, 3.0])])
def test_doeblin_initial_measure_accepted(value, initial):
    cfg = preset_config("doeblin-iid")
    cfg["doeblin"]["initial_measure"] = value
    system = build_doeblin_system(parse_config(cfg))
    assert (system.initial is None) if initial is None else system.initial.tolist() == initial


def test_negative_seed_exit_2(tmp_path):
    # numpy's SeedSequence refused it mid-run (exit 1 with a ValueError)
    cfg = preset_config("coboundary-degenerate")
    cfg["seed"] = -3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: seed: expected a non-negative integer, got -3" in proc.stderr
    proc = run_cli(["run", "coboundary-degenerate", "--seed", "-1"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: --seed: expected a non-negative integer, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_rerun_byte_identical_results(tmp_path):
    cfg = small_renewal_config(tmp_path)
    cfg_path = tmp_path / "renewal.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    p1 = run_cli(["run", str(cfg_path), "--out", str(out1)], cwd=tmp_path)
    p2 = run_cli(["run", str(cfg_path), "--out", str(out2)], cwd=tmp_path)
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0, p2.stderr
    b1 = record_bytes_from_file(str(out1 / "results.json"))
    b2 = record_bytes_from_file(str(out2 / "results.json"))
    assert b1 == b2
    c1 = (out1 / "curves" / "renewal.csv").read_bytes()
    c2 = (out2 / "curves" / "renewal.csv").read_bytes()
    assert c1 == c2


# a small r = 3 LLT (space_dim 4), which no preset covers; the CI runs it too
LLT_R3 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "llt-r3.json")


RENEWAL_DOEBLIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs",
                               "renewal-doeblin.json")


def test_doeblin_renewal_config_reads_the_start_summand():
    # criterion 11's {1, 2} family (D = 2) with f = [1, 3]: S_1 = u(xi_0)
    # sits in the start of the Doeblin table, so U(1) = P(xi_0 = 0) f(0) and
    # U(2) = P(xi_0 = 1) f(1) + P(S_2 = 2); the CI runs it at two workers too
    from skewprod.config import load_config

    result = run_experiment(load_config(RENEWAL_DOEBLIN))
    assert result.exit_code == 0
    check_record("config/renewal-doeblin", result.record)
    U = {row["a"]: row["U"] for row in result.curves["renewal"]}
    assert result.record["stats"]["target"] == pytest.approx(4 / 3, rel=1e-15)
    assert [U[a] for a in (-20, -15, -10)] == [0.0, 0.0, 0.0]
    assert [U[1], U[2], U[3]] == pytest.approx([0.5, 1.75, 1.125], rel=1e-14)
    assert result.record["stats"]["rel_err_window"] < 1e-11


def test_blas_threads_do_not_change_record(tmp_path):
    # the laws of D >= 2 tables run GEMMs small enough that OpenBLAS keeps them
    # on one thread, so the record is the same whatever thread count it is
    # given: matrix-llt at D = 2, and the r = 3 chain at D = 4, where the
    # batched doubling's items are 4 to 8 times larger
    for target in ("matrix-llt", LLT_R3):
        records = []
        for threads in ("1", "2"):
            out = tmp_path / f"{os.path.basename(target)}-t{threads}"
            proc = run_cli(["run", target, "--out", str(out)], cwd=tmp_path,
                           env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            records.append(record_bytes_from_file(str(out / "results.json")))
        assert records[0] == records[1], target


@pytest.mark.parametrize("preset", ["matrix-llt", "scalar-iid"])
def test_cli_matrix_preset_passes_at_any_worker_count(tmp_path, preset):
    # the depth-2 preset runs the matrix path (space_dim 2) end to end, and
    # scalar-iid the stateless exact laws (grouped step-law powers)
    records = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        proc = run_cli(["run", preset, "--workers", str(workers), "--out", str(out)],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout
        records.append(record_bytes_from_file(str(out / "results.json")))
    assert records[0] == records[1]
