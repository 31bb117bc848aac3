"""The verdict rule of ``benchmarks/pairs.py`` on fixed numbers."""

import json

from pairs import ROOT, table, verdict

PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


def test_a_gain_on_nine_pairs_beyond_the_parents_spread_is_better():
    change = [value * 1.2 for value in PARENT]
    change[3] = 90  # one pair lost
    assert verdict(PARENT, change, 0.25, higher=True) == "better"
    # The same numbers as times: lower is better, so they read worse.
    assert verdict(PARENT, change, 0.1, higher=False) == "worse"


def test_eight_wins_are_not_enough():
    change = [value * 1.2 for value in PARENT]
    change[3] = change[4] = 90
    assert verdict(PARENT, change, 0.25, higher=True) == "same"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert verdict(PARENT, [value * 0.7 for value in PARENT], 0.25, higher=True) == "worse"
    assert verdict(PARENT, [value * 0.8 for value in PARENT], 0.25, higher=True) == "same"


def test_a_gain_inside_the_parents_spread_is_not_better():
    spread = [80, 120, 90, 110, 100, 85, 115, 95, 105, 100]  # q3 - q1 = 20
    assert verdict(spread, [value + 15 for value in spread], 0.25, higher=True) == "same"
    assert verdict(spread, [value + 25 for value in spread], 0.25, higher=True) == "better"


def test_a_wide_side_is_unresolved_unless_every_run_is_better():
    wide = [50, 150, 60, 140, 100, 70, 130, 80, 120, 100]
    assert verdict(PARENT, wide, 0.25, higher=False) == "unresolved"
    high = [160, 300, 170, 290, 200, 180, 280, 190, 270, 200]
    high[0], high[1] = high[1], high[0]  # the pairs are not all won
    assert verdict(PARENT[:9] + [400], high, 0.25, higher=True) in ("better", "all-better")


def test_the_table_has_one_row_per_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [
        {
            "seed": seed,
            "side": side,
            "workload": "serve_write",
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {"throughput_per_s": value * (1.3 if side == "change" else 1)},
        }
        for seed, value in enumerate(PARENT)
        for side in ("parent", "change")
    ]
    lines = table(records, spec).splitlines()
    (row,) = [line for line in lines if line.startswith("serve_write")]
    assert "throughput_per_s" in row and "10/10" in row and "better" in row
    assert lines[-1].endswith("runs not correct or with failures: none")
