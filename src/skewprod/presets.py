"""Bundled instance presets covering the acceptance surface."""

from __future__ import annotations

import math

LN2 = math.log(2.0)

_UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]
# matrix-llt fiber chain: e^phi(a.w) = W[w, a], u by word index a * 2 + w
_MATRIX_W = [[0.6, 0.4], [0.3, 0.7]]

PRESETS = {
    "scalar-iid": {
        "description": "fair {0,1}-valued scalar steps; binomial oracles, lattice LLT",
        "criteria": ["5", "7 (LLT bound)"],
        "config": {
            "name": "scalar-iid",
            "kind": "symbolic",
            "experiment": "llt",
            "seed": 20260808,
            "base": {"transition": _UNIFORM2},
            "fiber": {"alphabet_size": 2, "depth": 1},
            "potentials": {"phi": [[-LN2, -LN2]] * 2, "u": [[0.0, 1.0]] * 2,
                           "lattice_h": 1.0},
            "periodic_cycle": [0],
            "grids": {"n_list": [500, 1000, 2000]},
            "samples": {"omega_samples": 512, "strata_depth": 2},
            "tolerances": {"llt_sup": 0.05},
        },
    },
    "span-2-counterexample": {
        "description": "fair +-1 steps: span-2 lattice defect; the classifier must "
                       "refuse the LLT (also the classical CLT instance)",
        "criteria": ["6 (CLT at n=10^4)", "7 (classifier refusal)"],
        "config": {
            "name": "span-2-counterexample",
            "kind": "symbolic",
            "experiment": "llt",
            "expect": "classifier-failure",
            "seed": 20260808,
            "base": {"transition": _UNIFORM2},
            "fiber": {"alphabet_size": 2, "depth": 1},
            "potentials": {"phi": [[-LN2, -LN2]] * 2, "u": [[-1.0, 1.0]] * 2,
                           "lattice_h": 1.0},
            "periodic_cycle": [0],
            "grids": {"n_list": [500, 1000]},
            "samples": {"omega_samples": 16},
        },
    },
    "two-state-base-lattice": {
        "description": "two-state base modulating lattice steps (fair +-1 vs "
                       "{-1,+2} at 2/3:1/3); annealed CLT, LLT, decay surveys",
        "criteria": ["5", "6 (CLT at n=4000)", "9"],
        "config": {
            "name": "two-state-base-lattice",
            "kind": "symbolic",
            "experiment": "clt",
            "seed": 20260808,
            "base": {"transition": [[0.7, 0.3], [0.4, 0.6]]},
            "fiber": {"alphabet_size": 2, "depth": 1},
            "potentials": {
                "phi": [[-LN2, -LN2], [math.log(2.0 / 3.0), math.log(1.0 / 3.0)]],
                "u": [[-1.0, 1.0], [-1.0, 2.0]],
                "lattice_h": 1.0,
            },
            "periodic_cycle": [0, 1],
            "grids": {"n_list": [1000, 4000],
                      "t_small": [0.05, 0.1, 0.2],
                      "t_large": [0.8, 1.6, 2.4],
                      "n_grid": [50, 100, 200]},
            "samples": {"omega_samples": 200, "fiber_replicates": 250},
            "tolerances": {"ks": 0.04},
        },
    },
    "matrix-llt": {
        "description": "depth-2 fiber (2x2 transfer matrices) over a two-state base: "
                       "truncated RPF solve, D = 2 exact laws and the lattice LLT",
        "criteria": ["7 (LLT bound, matrix case)"],
        "config": {
            "name": "matrix-llt",
            "kind": "symbolic",
            "experiment": "llt",
            "seed": 20260808,
            "base": {"transition": [[0.7, 0.3], [0.4, 0.6]]},
            "fiber": {"alphabet_size": 2, "depth": 2},
            "potentials": {
                "phi": [[math.log(_MATRIX_W[i % 2][i // 2]) for i in range(4)]] * 2,
                "u": [[0.0, 0.0, 1.0, 2.0]] * 2,
                "lattice_h": 1.0,
            },
            "periodic_cycle": [0, 1],
            "grids": {"n_list": [500, 1000, 2000]},
            "samples": {"omega_samples": 8, "strata_depth": 2},
            "tolerances": {"llt_sup": 0.05},
        },
    },
    "coboundary-degenerate": {
        "description": "base coboundary observable q(s) - q(s'): fiber variance "
                       "vanishes identically; runners must take the degenerate path",
        "criteria": ["10"],
        "config": {
            "name": "coboundary-degenerate",
            "kind": "symbolic",
            "experiment": "clt",
            "expect": "degenerate",
            "seed": 20260808,
            "base": {"transition": [[0.6, 0.4], [0.3, 0.7]]},
            "fiber": {"alphabet_size": 2, "depth": 1},
            "potentials": {
                "phi": [[-LN2, -LN2]] * 2,
                "u": [[[0.0, 0.0], [-1.0, -1.0]], [[1.0, 1.0], [0.0, 0.0]]],
                "u_next_symbol": True,
                "lattice_h": 1.0,
            },
            "periodic_cycle": [0],
            "grids": {"n_list": [500, 2000]},
            "samples": {"omega_samples": 32, "fiber_replicates": 64},
        },
    },
    "renewal-gamma-3-2": {
        "description": "positive steps {1,2} with drift 3/2: renewal measure "
                       "flattens at h/gamma = 2/3",
        "criteria": ["8"],
        "config": {
            "name": "renewal-gamma-3-2",
            "kind": "symbolic",
            "experiment": "renewal",
            "seed": 20260808,
            "base": {"transition": _UNIFORM2},
            "fiber": {"alphabet_size": 2, "depth": 1},
            "potentials": {"phi": [[-LN2, -LN2]] * 2, "u": [[1.0, 2.0]] * 2,
                           "lattice_h": 1.0},
            "periodic_cycle": [0],
            "grids": {"a_list": [-20, -15, -10] + list(range(40, 61))},
            "renewal": {"truncation": 200, "limit_window": [40, 60]},
            "samples": {"omega_samples": 128},
            "tolerances": {"renewal_rel": 0.05, "renewal_negative": 0.01},
        },
    },
    "doeblin-iid": {
        "description": "uniform Doeblin kernel with {0,1} observable: the chain "
                       "pipeline reduces to the classical i.i.d. walk",
        "criteria": ["11"],
        "config": {
            "name": "doeblin-iid",
            "kind": "doeblin",
            "experiment": "doeblin-llt",
            "seed": 20260808,
            "base": {"transition": _UNIFORM2},
            "doeblin": {
                "kernels": [_UNIFORM2, _UNIFORM2],
                "u": [[0.0, 1.0], [0.0, 1.0]],
                "alpha": 0.5,
                "lattice_h": 1.0,
            },
            "periodic_cycle": [0],
            "grids": {"n_list": [500, 1000, 2000]},
            "samples": {"omega_samples": 512},
            "tolerances": {"llt_sup": 0.05},
        },
    },
}


def preset_config(name: str) -> dict:
    import copy

    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name]["config"])


def catalog_lines() -> list:
    lines = []
    for name, entry in PRESETS.items():
        lines.append(f"{name:26s} {entry['description']}")
        lines.append(f"{'':26s} covers acceptance criteria: "
                     f"{', '.join(entry['criteria'])}")
    lines.append("")
    lines.append("criteria 1-4 (solver/cocycle oracles) and 12 (determinism) are "
                 "exercised by the test suite across all presets")
    return lines
