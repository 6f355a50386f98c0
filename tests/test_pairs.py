"""scripts/pairs.py's summary of alternating parent/change runs."""

import importlib.util
import statistics
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01}]


def test_summary_counts_the_pairs_each_side_won():
    parent = [{"wall_s": w, "success_rate": 1.0} for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"wall_s": w, "success_rate": s}
              for w, s in ((0.5, 1.0), (2.0, 1.0), (3.5, 0.5), (3.0, 1.0), (4.0, 1.0))]
    wall, success = pairs.summarize(parent, change, END_TO_END)
    # Lower wins: pairs 1, 4 and 5; pair 2 ties and counts for neither side.
    assert wall == {"metric": "wall_s", "better": "lower", "parent_median": 3.0,
                    "change_median": 3.0, "parent_quartiles": (2.0, 4.0), "pairs": 5,
                    "change_wins": 3}
    # Higher wins: four ties and one loss give the change no pair.
    assert success["change_wins"] == 0 and success["parent_quartiles"] == (1.0, 1.0)
    assert pairs.line(wall) == "wall_s: parent 3 (2-4), change 3, +0.0%; change lower in 3 of 5"


def test_summary_needs_two_pairs():
    # Quartiles of one run are undefined, so main asks for --pairs >= 2.
    with pytest.raises(statistics.StatisticsError):
        pairs.summarize([{"wall_s": 1.0}], [{"wall_s": 1.0}], END_TO_END[:1])
