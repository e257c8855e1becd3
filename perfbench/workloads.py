"""The benchmark's four workloads: frozen experiment configs and their sizes.

The configs are written out here rather than read from `skewprod.presets`, so
that a change to a preset cannot change what the benchmark measures.  Each
config gets the benchmark seed as its master seed; nothing else depends on
the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LN2 = math.log(2.0)
DEFAULT_SEED = 20260808  # the bundled presets' seed

_UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]
_BASE_Q = [[0.7, 0.3], [0.4, 0.6]]
# llt-matrix fiber chain: e^phi(a.w) = W[w, a], u by word index a*2 + w
MATRIX_W = [[0.6, 0.4], [0.3, 0.7]]
MATRIX_U = [0.0, 0.0, 1.0, 2.0]
STRATA = 4  # strata_depth 2 over a two-state base: 2**2 base cylinders


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict            # everything but the seed
    variance_envs: int      # environments the runner's variance ensemble asks for

    def config_for(self, seed: int) -> dict:
        return dict(self.config, seed=int(seed))

    @property
    def omega(self) -> int:
        return int(self.config["samples"]["omega_samples"])

    @property
    def n_list(self) -> list:
        return list(self.config["grids"]["n_list"])

    @property
    def main_envs(self) -> int:
        return _stratified(self.omega)

    @property
    def env_tasks(self) -> int:
        """Per-environment tasks over both of the run's ensembles."""
        return _stratified(self.variance_envs) + self.main_envs


def _stratified(requested: int) -> int:
    # the ensemble gives every stratum the same number of windows, rounding up
    return STRATA * math.ceil(requested / STRATA)


_CLT_OMEGA = 32
_LLT_OMEGA = 32
_MATRIX_OMEGA = 8

WORKLOADS = {
    w.name: w for w in [
        Workload(
            "clt-scalar",
            "annealed CLT of the two-state-base-lattice preset (r = 1): orbit build "
            "and exact quadrature mean dominate, no lattice DP",
            {
                "name": "clt-scalar", "kind": "symbolic", "experiment": "clt",
                "base": {"transition": _BASE_Q},
                "fiber": {"alphabet_size": 2, "depth": 1},
                "potentials": {
                    "phi": [[-LN2, -LN2], [math.log(2.0 / 3.0), math.log(1.0 / 3.0)]],
                    "u": [[-1.0, 1.0], [-1.0, 2.0]],
                    "lattice_h": 1.0,
                },
                "periodic_cycle": [0, 1],
                "grids": {"n_list": [1000, 4000]},
                "samples": {"omega_samples": _CLT_OMEGA, "fiber_replicates": 250},
                "tolerances": {"ks": 0.04},
            },
            variance_envs=max(16, _CLT_OMEGA // 4),
        ),
        Workload(
            "llt-scalar",
            "LLT of the scalar-iid preset on the exact annealed mixture (r = 1): "
            "the lattice DP dominates, no quadrature mean",
            {
                "name": "llt-scalar", "kind": "symbolic", "experiment": "llt",
                "base": {"transition": _UNIFORM2},
                "fiber": {"alphabet_size": 2, "depth": 1},
                "potentials": {"phi": [[-LN2, -LN2]] * 2, "u": [[0.0, 1.0]] * 2,
                               "lattice_h": 1.0},
                "periodic_cycle": [0],
                "grids": {"n_list": [500, 1000, 2000]},
                "samples": {"omega_samples": _LLT_OMEGA, "strata_depth": 2},
                "tolerances": {"llt_sup": 0.05},
            },
            variance_envs=max(8, _LLT_OMEGA // 8),
        ),
        Workload(
            "llt-matrix",
            "r = 2 LLT (space_dim 2), the matrix case no preset covers: O(n^2) "
            "covariance quadrature, D = 2 DP and the truncated RPF solve",
            {
                "name": "llt-matrix", "kind": "symbolic", "experiment": "llt",
                "base": {"transition": _BASE_Q},
                "fiber": {"alphabet_size": 2, "depth": 2},
                "potentials": {
                    "phi": [[math.log(MATRIX_W[i % 2][i // 2]) for i in range(4)]] * 2,
                    "u": [MATRIX_U] * 2,
                    "lattice_h": 1.0,
                },
                "periodic_cycle": [0, 1],
                "grids": {"n_list": [500, 1000, 2000]},
                "samples": {"omega_samples": _MATRIX_OMEGA, "strata_depth": 2},
                "tolerances": {"llt_sup": 0.05},
            },
            variance_envs=max(8, _MATRIX_OMEGA // 8),
        ),
        Workload(
            "llt-doeblin",
            "LLT of the doeblin-iid preset: the only workload in doeblin.py "
            "(Doeblin orbit and exact chain law)",
            {
                "name": "llt-doeblin", "kind": "doeblin", "experiment": "doeblin-llt",
                "base": {"transition": _UNIFORM2},
                "doeblin": {"kernels": [_UNIFORM2, _UNIFORM2],
                            "u": [[0.0, 1.0], [0.0, 1.0]],
                            "alpha": 0.5, "lattice_h": 1.0},
                "periodic_cycle": [0],
                "grids": {"n_list": [500, 1000, 2000]},
                "samples": {"omega_samples": _LLT_OMEGA},
                "tolerances": {"llt_sup": 0.05},
            },
            variance_envs=max(8, _LLT_OMEGA // 8),
        ),
    ]
}
