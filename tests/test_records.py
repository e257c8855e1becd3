"""Every record is the one the ledger (`tests/records.json`) holds.

The small runs of every experiment and `tests/configs/renewal-doeblin.json`
are checked where their one-worker records are already computed
(`test_config_cli.py`); the other configs run here.
"""

import copy

import pytest
from ledger import (
    ABS_FLOOR,
    REL_TOL,
    SMALL_RUNS,
    check_record,
    ledger_configs,
    load_ledger,
    stats_differences,
)

from skewprod.config import parse_config
from skewprod.runner import run_experiment

CONFIGS = ledger_configs()
CHECKED_ELSEWHERE = {f"small/{name}" for name in SMALL_RUNS} | {"config/renewal-doeblin"}


def test_ledger_covers_every_config():
    assert set(load_ledger()["records"]) == set(CONFIGS)


@pytest.mark.parametrize("name", [name for name in CONFIGS if name not in CHECKED_ELSEWHERE])
def test_record_matches_ledger(name):
    check_record(name, run_experiment(parse_config(copy.deepcopy(CONFIGS[name]))).record)


def _numbers(tree, path=()):
    """(path, value) of every number in a JSON stats tree."""
    if isinstance(tree, dict):
        return [leaf for k, v in tree.items() for leaf in _numbers(v, path + (k,))]
    if isinstance(tree, list):
        return [leaf for i, v in enumerate(tree) for leaf in _numbers(v, path + (i,))]
    numeric = isinstance(tree, (int, float)) and not isinstance(tree, bool)
    return [(path, tree)] if numeric else []


def _moved(stats, path, factor):
    stats = copy.deepcopy(stats)
    node = stats
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * factor
    return stats


def test_ledger_fails_when_a_number_moves_by_1e_8():
    # every number of every entry above the absolute floor, moved by 1e-8
    # relative, fails the check; the hash is set aside (as under another
    # numpy), so the number check alone must catch it
    ledger = load_ledger()
    ledger["numpy"] = "another version"
    assert 1e-8 > REL_TOL
    moved = 0
    for name, entry in ledger["records"].items():
        record = {"seed": entry["seed"], "verdicts": {"outcome": entry["outcome"]},
                  "stats": entry["stats"]}
        check_record(name, record, ledger)
        for path, value in _numbers(entry["stats"]):
            if abs(value) * 1e-8 <= ABS_FLOOR:
                continue
            assert stats_differences(_moved(entry["stats"], path, 1 + 1e-8), entry["stats"])
            with pytest.raises(AssertionError, match=name):
                check_record(name, dict(record, stats=_moved(entry["stats"], path, 1 - 1e-8)),
                             ledger)
            moved += 1
    assert moved > 50
