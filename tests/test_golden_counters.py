"""Every counter of 128 fixed timing runs matches tests/golden_counters.json.

See :mod:`tests.golden_counters` for the matrix and the one way to
rewrite the file after an intended timing change.
"""

import json

from tests.golden_counters import GOLDEN_PATH, compute, first_difference, requests


def test_first_difference_names_the_nested_counter():
    expected = {"cycles": 10, "translation": {"base_misses": 3, "probes": 9}}
    actual = {"cycles": 10, "translation": {"base_misses": 4, "probes": 8}}
    assert first_difference(expected, actual) == "translation.base_misses"
    assert first_difference(expected, expected) is None
    assert first_difference({"a": 1}, {"a": 1, "b": 0}) == "b"


def test_golden_counters():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert list(golden) == list(requests()), "the run matrix changed; rewrite the file"
    moved = []
    for name, stats in compute().items():
        counter = first_difference(golden[name], stats)
        if counter is not None:
            moved.append(
                f"{name}: {counter} was {_at(golden[name], counter)}, "
                f"now {_at(stats, counter)}"
            )
    assert not moved, f"{len(moved)} of {len(golden)} runs moved; first: {moved[0]}"


def _at(stats, dotted):
    for key in dotted.split("."):
        if not isinstance(stats, dict) or key not in stats:
            return "(absent)"
        stats = stats[key]
    return stats
