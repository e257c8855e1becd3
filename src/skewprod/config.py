"""Experiment configuration: schema validation and system construction.

Configs are JSON (the canonical interchange); every cross-reference between
the base chain, fiber model and potential tables is checked before any
computation, and validation errors carry the offending field path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .base_env import build_markov_base
from .doeblin import DoeblinSystem, build_doeblin_family
from .errors import ConfigError, NotLattice, SkewprodError
from .fiber import FiberModel, PotentialTable
from .limits import lattice_indices
from .symbolic import SymbolicSystem

SYMBOLIC_EXPERIMENTS = ("rpf-audit", "clt", "llt", "renewal", "decay-survey", "char-fn")
DOEBLIN_EXPERIMENTS = ("doeblin-clt", "doeblin-llt", "doeblin-renewal", "doeblin-char")
# experiments that read exact laws on a lattice: they need a declared lattice_h
LATTICE_EXPERIMENTS = ("llt", "renewal", "char-fn", "doeblin-llt", "doeblin-renewal",
                       "doeblin-char")
EXPECTATIONS = ("pass", "degenerate", "classifier-failure")
DEFAULT_A_LIST = [-20, -15, -10] + list(range(40, 61))  # the renewal points without grids.a_list

DEFAULT_TOLERANCES = {
    "ks": 0.02,
    "llt_sup": 0.05,
    "renewal_rel": 0.05,
    "renewal_negative": 0.01,
    "rpf_residual": 1e-8,
    "char_exact": 1e-9,
}

DEFAULT_SAMPLES = {
    "omega_samples": 64,
    "fiber_replicates": 200,
    "mc_replicates": 4000,
    "strata_depth": 2,
}


@dataclass
class ExperimentConfig:
    name: str
    kind: str
    experiment: str
    seed: int
    expect: str = "pass"
    base: dict = field(default_factory=dict)
    fiber: dict = field(default_factory=dict)
    potentials: dict = field(default_factory=dict)
    doeblin: dict = field(default_factory=dict)
    periodic_cycle: list = field(default_factory=lambda: [0])
    grids: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    renewal: dict = field(default_factory=dict)
    output_dir: str = "out"
    raw: dict = field(default_factory=dict)

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def sample(self, key: str) -> int:
        return int(self.samples.get(key, DEFAULT_SAMPLES[key]))


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: required field missing")
    return d[key]


def _array(section: dict, key: str, path: str) -> np.ndarray:
    """The required field `path.key` as a float array, a ConfigError naming
    it unless it is a numeric one with finite entries."""
    try:
        arr = np.asarray(_need(section, key, path), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}: not a numeric array ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}: expected finite numbers")
    return arr


def _settings(data: dict, section: str, known: dict, expected) -> dict:
    """The config's `section` object, checked key by key: every key is one of
    `known`, and `expected(key, value)` names what a bad value should have
    been (None for a good one)."""
    values = data.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"{section}: expected a JSON object, got {values!r}")
    for key, value in values.items():
        path = f"{section}.{key}"
        if key not in known:
            raise ConfigError(f"{path}: unknown key; choose one of {sorted(known)}")
        want = expected(key, value)
        if want:
            raise ConfigError(f"{path}: expected {want}, got {value!r}")
    return dict(values)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _sample_count(key: str, value) -> str | None:
    low = 0 if key == "strata_depth" else 1  # depth 0 samples without strata
    return None if _is_int(value) and value >= low else f"an integer >= {low}"


def _tolerance(key: str, value) -> str | None:
    return None if _is_finite(value) and value > 0 else "a finite number > 0"


def _is_length(value) -> bool:
    return _is_int(value) and value >= 1


# the grids the runners read: what their entries must be, and the check
GRIDS = {"n_list": ("integers >= 1", _is_length), "n_grid": ("integers >= 1", _is_length),
         "a_list": ("integers", _is_int), "t_small": ("finite numbers", _is_finite),
         "t_large": ("finite numbers", _is_finite), "t_grid": ("finite numbers", _is_finite)}


def _grid(key: str, value) -> str | None:
    want, entry = GRIDS[key]
    ok = isinstance(value, list) and len(value) > 0 and all(entry(v) for v in value) \
        and len(set(value)) == len(value)
    return None if ok else f"a non-empty list of distinct {want}"


RENEWAL_KEYS = ("truncation", "f", "limit_window")


def _renewal(key: str, value) -> str | None:
    if key == "truncation":
        if not _is_int(value):
            return "an integer"
        return None if value >= 1 else "an integer >= 1"
    if key == "f":  # its length is checked where the system is built
        ok = isinstance(value, list) and len(value) > 0 \
            and all(_is_finite(v) and v > 0 for v in value)
        return None if ok else "a non-empty list of finite numbers > 0"
    ok = isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value) \
        and value[0] <= value[1]
    return None if ok else "two integers lo <= hi"  # limit_window


# the keys of the sections that describe the system; the scalars are checked
# here, the arrays and every cross-reference where the system is built
SYSTEM_KEYS = {"base": ("transition", "tol", "allow_deterministic"),
               "fiber": ("alphabet_size", "depth", "alpha"),
               "potentials": ("phi", "u", "u_next_symbol", "lattice_h"),
               "doeblin": ("kernels", "u", "alpha", "lattice_h", "initial_measure")}
SYSTEM_SCALARS = {"tol": ("a finite number > 0", lambda v: _is_finite(v) and v > 0),
                  "alpha": ("a number", _is_number),
                  "lattice_h": ("a number", lambda v: v is None or _is_number(v)),
                  "alphabet_size": ("an integer", _is_int), "depth": ("an integer", _is_int),
                  "allow_deterministic": ("a boolean", lambda v: isinstance(v, bool)),
                  "u_next_symbol": ("a boolean", lambda v: isinstance(v, bool))}


def _system_value(key: str, value) -> str | None:
    if key == "initial_measure":  # its length is checked where the system is built
        ok = value in (None, "invariant") or isinstance(value, list) and len(value) > 0 \
            and all(_is_finite(v) and v >= 0 for v in value) and sum(value) > 0
        return None if ok else 'null, "invariant" or finite numbers >= 0 with a positive sum'
    want, check = SYSTEM_SCALARS.get(key, (None, None))
    return None if check is None or check(value) else want


def parse_config(data: dict, name_hint: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    name = data.get("name", name_hint)
    kind = data.get("kind", "symbolic")
    if kind not in ("symbolic", "doeblin"):
        raise ConfigError(f"kind: must be 'symbolic' or 'doeblin', got {kind!r}")
    experiment = data.get("experiment")
    if experiment is None:
        raise ConfigError("experiment: required field missing")
    valid = SYMBOLIC_EXPERIMENTS if kind == "symbolic" else DOEBLIN_EXPERIMENTS
    if experiment not in valid:
        raise ConfigError(f"experiment: {experiment!r} not valid for kind {kind!r}; "
                          f"choose one of {valid}")
    expect = data.get("expect", "pass")
    if expect not in EXPECTATIONS:
        raise ConfigError(f"expect: must be one of {EXPECTATIONS}, got {expect!r}")
    if "seed" not in data:
        raise ConfigError("seed: required field missing")
    seed = master_seed(data["seed"], "seed")
    cfg = ExperimentConfig(
        name=name, kind=kind, experiment=experiment, seed=seed, expect=expect,
        periodic_cycle=data.get("periodic_cycle", [0]),
        grids=_settings(data, "grids", GRIDS, _grid),
        samples=_settings(data, "samples", DEFAULT_SAMPLES, _sample_count),
        tolerances=_settings(data, "tolerances", DEFAULT_TOLERANCES, _tolerance),
        renewal=_settings(data, "renewal", RENEWAL_KEYS, _renewal),
        output_dir=str(data.get("output_dir", "out")), raw=data,
        **{section: _settings(data, section, keys, _system_value)
           for section, keys in SYSTEM_KEYS.items()},
    )
    section = "potentials" if kind == "symbolic" else "doeblin"
    if experiment in LATTICE_EXPERIMENTS and getattr(cfg, section).get("lattice_h") is None:
        raise ConfigError(f"{section}.lattice_h: required by experiment {experiment!r}, "
                          "which runs on the lattice of the observable's values")
    # build the system eagerly so every cross-reference is checked up front
    system = (build_symbolic_system if kind == "symbolic" else build_doeblin_system)(cfg)
    if experiment in ("renewal", "doeblin-renewal"):
        a_list = cfg.grids.get("a_list", DEFAULT_A_LIST)
        try:
            lattice_indices(a_list, system.lattice_h)
        except NotLattice as exc:
            raise ConfigError(f"grids.a_list: {exc}") from exc
        lw = cfg.renewal.get("limit_window")  # the default one holds max(a_list)
        if lw and not any(lw[0] <= a <= lw[1] for a in a_list):
            raise ConfigError(f"renewal.limit_window: {lw} holds no point of grids.a_list")
    return cfg


def master_seed(value, path: str) -> int:
    """The master seed `value` as an integer, a ConfigError naming `path`
    unless it is a non-negative one (numpy's SeedSequence takes no other)."""
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    import os

    return parse_config(data, name_hint=os.path.splitext(os.path.basename(str(path)))[0])


def _build_chain(cfg: ExperimentConfig):
    Q = _array(cfg.base, "transition", "base")
    if Q.ndim != 2:
        raise ConfigError(f"base.transition: expected a 2-d array, got shape {Q.shape}")
    zeros = np.argwhere(Q == 0.0)
    if len(zeros) and Q.shape[0] > 1:
        i, j = zeros[0]
        raise ConfigError(f"base.transition[{i}][{j}]: zero entry; the mixing "
                          "propositions need strictly positive transitions")
    deterministic = cfg.base.get("allow_deterministic", False)
    try:
        return build_markov_base(Q, tol=float(cfg.base.get("tol", 1e-9)),
                                 allow_deterministic=deterministic)
    except SkewprodError as exc:
        raise ConfigError(f"base.transition: {exc}") from exc


def _cycle(cfg: ExperimentConfig, chain) -> tuple:
    cycle = cfg.periodic_cycle
    if not (isinstance(cycle, list) and len(cycle) > 0 and all(_is_int(c) for c in cycle)):
        raise ConfigError(f"periodic_cycle: expected a non-empty list of integers, got {cycle!r}")
    for i, c in enumerate(cycle):
        if not 0 <= c < chain.n_states:
            raise ConfigError(f"periodic_cycle[{i}]: symbol {c} outside the base states")
    return tuple(cycle)


def _check_states(values, path: str, states: int):
    """A vector over the fiber states (renewal.f, doeblin.initial_measure)
    takes one value per state."""
    if isinstance(values, list) and len(values) != states:
        raise ConfigError(f"{path}: expected {states} values, one per fiber state, "
                          f"got {len(values)}")


def build_symbolic_system(cfg: ExperimentConfig) -> SymbolicSystem:
    chain = _build_chain(cfg)
    d = _need(cfg.fiber, "alphabet_size", "fiber")
    r = _need(cfg.fiber, "depth", "fiber")
    alpha = float(cfg.fiber.get("alpha", 1.0))
    try:
        model = FiberModel(d, r, alpha=alpha)
    except SkewprodError as exc:
        raise ConfigError(f"fiber: {exc}") from exc
    phi = _array(cfg.potentials, "phi", "potentials")
    u = _array(cfg.potentials, "u", "potentials")
    pair = cfg.potentials.get("u_next_symbol", False)
    lattice_h = cfg.potentials.get("lattice_h")
    if phi.ndim != 2 or phi.shape[0] != chain.n_states:
        raise ConfigError(
            f"potentials.phi: expected shape ({chain.n_states}, {d**r}), got {phi.shape}")
    try:
        pot = PotentialTable(phi, u, model, lattice_h=lattice_h, u_next_symbol=pair)
    except SkewprodError as exc:
        raise ConfigError(f"potentials: {exc}") from exc
    _check_states(cfg.renewal.get("f"), "renewal.f", model.space_dim)
    cycle = _cycle(cfg, chain)
    return SymbolicSystem(chain, model, pot, periodic_cycle=cycle)


def build_doeblin_system(cfg: ExperimentConfig) -> DoeblinSystem:
    chain = _build_chain(cfg)
    kernels = _array(cfg.doeblin, "kernels", "doeblin")
    u = _array(cfg.doeblin, "u", "doeblin")
    alpha = float(_need(cfg.doeblin, "alpha", "doeblin"))
    lattice_h = cfg.doeblin.get("lattice_h")
    if kernels.ndim != 3 or kernels.shape[0] != chain.n_states:
        raise ConfigError(
            f"doeblin.kernels: expected ({chain.n_states}, q, q), got {kernels.shape}")
    try:
        fam = build_doeblin_family(kernels, u, alpha, lattice_h=lattice_h)
    except SkewprodError as exc:
        raise ConfigError(f"doeblin: {exc}") from exc
    _check_states(cfg.renewal.get("f"), "renewal.f", fam.n_states)
    initial = cfg.doeblin.get("initial_measure")
    _check_states(initial, "doeblin.initial_measure", fam.n_states)
    cycle = _cycle(cfg, chain)
    init = None if initial in (None, "invariant") else np.asarray(initial, dtype=float)
    return DoeblinSystem(chain, fam, periodic_cycle=cycle, initial=init)


def canonical_record_bytes(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def config_hash(data: dict) -> str:
    payload = {k: v for k, v in data.items() if k not in ("output_dir",)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()
