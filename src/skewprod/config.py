"""Experiment configuration: schema validation and system construction.

Configs are JSON (the canonical interchange); every cross-reference between
the base chain, fiber model and potential tables is checked before any
computation, and validation errors carry the offending field path.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .base_env import build_markov_base
from .doeblin import DoeblinSystem, build_doeblin_family
from .errors import ConfigError, NotLattice, SkewprodError
from .fiber import FiberModel, PotentialTable
from .limits import lattice_indices
from .symbolic import SymbolicSystem

EXPECTATIONS = ("pass", "degenerate", "classifier-failure")


@dataclass(frozen=True)
class Experiment:
    """One limit statement: its experiment name for each kind of system,
    whether it reads exact laws on a lattice (and so needs a declared
    lattice_h), and the keys of each config section it reads, each with its
    default."""
    names: dict
    lattice: bool
    reads: dict


OMEGA = {"omega_samples": 64}  # the environments of a statement's ensemble
ENSEMBLE = {**OMEGA, "strata_depth": 2}  # and the base symbols it stratifies on

# the statements, by the key `runner.RUNNERS` runs them under
EXPERIMENTS = {
    "rpf-audit": Experiment(
        {"symbolic": "rpf-audit"}, lattice=False,
        reads={"samples": OMEGA, "tolerances": {"rpf_residual": 1e-8}}),
    "clt": Experiment(
        {"symbolic": "clt", "doeblin": "doeblin-clt"}, lattice=False,
        reads={"grids": {"n_list": [1000, 4000]},
               "samples": {**ENSEMBLE, "fiber_replicates": 200},
               "tolerances": {"ks": 0.02}}),
    "llt": Experiment(
        {"symbolic": "llt", "doeblin": "doeblin-llt"}, lattice=True,
        reads={"grids": {"n_list": [500, 1000, 2000]}, "samples": ENSEMBLE,
               "tolerances": {"llt_sup": 0.05}}),
    "renewal": Experiment(
        {"symbolic": "renewal", "doeblin": "doeblin-renewal"}, lattice=True,
        reads={"grids": {"a_list": [-20, -15, -10] + list(range(40, 61))},
               "samples": ENSEMBLE,
               "tolerances": {"renewal_rel": 0.05, "renewal_negative": 0.01},
               # f null weighs every fiber state 1; limit_window null is
               # [2 max(a_list) // 3, max(a_list)]
               "renewal": {"truncation": 200, "f": None, "limit_window": None}}),
    "decay-survey": Experiment(
        {"symbolic": "decay-survey"}, lattice=False,
        reads={"grids": {"t_small": [0.05, 0.1, 0.2], "t_large": [0.8, 1.6, 2.4],
                         "n_grid": [50, 100, 200]},
               "samples": ENSEMBLE}),
    "char-fn": Experiment(
        {"symbolic": "char-fn", "doeblin": "doeblin-char"}, lattice=True,
        reads={"grids": {"t_grid": [0.1, 0.3, 0.7], "n_list": [4, 8, 16, 32]},
               "samples": {**ENSEMBLE, "mc_replicates": 4000},
               "tolerances": {"char_exact": 1e-9}}),
}


@dataclass
class ExperimentConfig:
    """A checked config: every key its statement reads resolved to a value,
    and the system it runs on.  `parse_config` is its only constructor."""
    name: str
    kind: str
    experiment: str
    statement: str
    seed: int
    expect: str
    base: dict
    fiber: dict
    potentials: dict
    doeblin: dict
    periodic_cycle: list
    grids: dict
    samples: dict
    tolerances: dict
    renewal: dict
    output_dir: str
    raw: dict
    system: SymbolicSystem | DoeblinSystem


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


# what the entries of each grid must be, and the check
GRIDS = {"n_list": ("integers >= 1", _is_length), "n_grid": ("integers >= 1", _is_length),
         "a_list": ("integers", _is_int), "t_small": ("finite numbers", _is_finite),
         "t_large": ("finite numbers", _is_finite), "t_grid": ("finite numbers", _is_finite)}


def _grid(key: str, value) -> str | None:
    want, entry = GRIDS[key]
    ok = isinstance(value, list) and len(value) > 0 and all(entry(v) for v in value) \
        and len(set(value)) == len(value)
    return None if ok else f"a non-empty list of distinct {want}"


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


# the checks of the sections that set a statement's values
SETTINGS = {"grids": _grid, "samples": _sample_count, "tolerances": _tolerance,
            "renewal": _renewal}
# the top-level keys of every config, and the sections of each kind's system
TOP_LEVEL = ("name", "kind", "experiment", "expect", "seed", "base", "periodic_cycle",
             "grids", "samples", "tolerances", "output_dir")
KIND_SECTIONS = {"symbolic": ("fiber", "potentials"), "doeblin": ("doeblin",)}


def _resolved(data: dict, section: str, statement: str) -> dict:
    """The config's `section`, checked against every key a statement reads
    there, over the defaults of the keys that `statement` reads."""
    known = {key for entry in EXPERIMENTS.values() for key in entry.reads.get(section, {})}
    values = _settings(data, section, known, SETTINGS[section])
    return {**copy.deepcopy(EXPERIMENTS[statement].reads.get(section, {})), **values}


def parse_config(data: dict, name_hint: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    name = data.get("name", name_hint)
    kind = data.get("kind", "symbolic")
    if kind not in tuple(KIND_SECTIONS):
        raise ConfigError(f"kind: must be 'symbolic' or 'doeblin', got {kind!r}")
    experiment = data.get("experiment")
    if experiment is None:
        raise ConfigError("experiment: required field missing")
    statements = {entry.names[kind]: statement for statement, entry in EXPERIMENTS.items()
                  if kind in entry.names}
    if experiment not in tuple(statements):  # a tuple: the name may be unhashable JSON
        raise ConfigError(f"experiment: {experiment!r} not valid for kind {kind!r}; "
                          f"choose one of {tuple(statements)}")
    statement = statements[experiment]
    entry = EXPERIMENTS[statement]
    expect = data.get("expect", "pass")
    if expect not in EXPECTATIONS:
        raise ConfigError(f"expect: must be one of {EXPECTATIONS}, got {expect!r}")
    if "seed" not in data:
        raise ConfigError("seed: required field missing")
    seed = master_seed(data["seed"], "seed")
    tolerances = _resolved(data, "tolerances", statement)
    cfg = ExperimentConfig(
        name=name, kind=kind, experiment=experiment, statement=statement, seed=seed,
        expect=expect, periodic_cycle=data.get("periodic_cycle", [0]),
        grids=_resolved(data, "grids", statement),
        samples=_resolved(data, "samples", statement),
        tolerances={key: float(value) for key, value in tolerances.items()},
        renewal=_resolved(data, "renewal", statement),
        output_dir=str(data.get("output_dir", "out")), raw=data, system=None,
        **{section: _settings(data, section, keys, _system_value)
           for section, keys in SYSTEM_KEYS.items()},
    )
    allowed = TOP_LEVEL + KIND_SECTIONS[kind] + (("renewal",) if "renewal" in entry.reads else ())
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{key}: not a key of a {kind} {experiment!r} config; "
                              f"choose one of {sorted(allowed)}")
    section = "potentials" if kind == "symbolic" else "doeblin"
    if entry.lattice and getattr(cfg, section).get("lattice_h") is None:
        raise ConfigError(f"{section}.lattice_h: required by experiment {experiment!r}, "
                          "which runs on the lattice of the observable's values")
    # build the system eagerly so every cross-reference is checked up front
    system = (build_symbolic_system if kind == "symbolic" else build_doeblin_system)(cfg)
    if statement == "renewal":
        # f takes one weight per fiber state
        states = system.model.space_dim if kind == "symbolic" else system.family.n_states
        _check_states(cfg.renewal["f"], "renewal.f", states)
        a_list = cfg.grids["a_list"]
        try:
            lattice_indices(a_list, system.lattice_h)
        except NotLattice as exc:
            raise ConfigError(f"grids.a_list: {exc}") from exc
        lw = cfg.renewal["limit_window"]  # the default one holds max(a_list)
        if lw and not any(lw[0] <= a <= lw[1] for a in a_list):
            raise ConfigError(f"renewal.limit_window: {lw} holds no point of grids.a_list")
    cfg.system = system
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
