"""The forecast oracle against a hand-computed three-rule pool.

Runs under pytest or directly: ``python3 perfbench/test_oracle.py``.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import count_matches, forecast, rules_from_payload  # noqa: E402

# D = 2.  Values are binary fractions, so every sum below is exact.
#   r0: 0 <= x0 <= 10, x1 = *      output 1 + 0.5*x0 + 0.25*x1
#   r1: 5 <= x0 <= 20, 0 <= x1 <= 4   constant 7
#   r2: 30 <= x0 <= 40, 30 <= x1 <= 40  output -2 + 1*x0 + 0*x1
PAYLOAD = {
    "format_version": 2,
    "n_rules": 3,
    "metadata": {},
    "rules": [
        {"lower": [0.0, "-inf"], "upper": [10.0, "inf"],
         "wildcard": [False, True], "prediction": 9.0, "error": 1.0,
         "coeffs": [0.5, 0.25, 1.0], "n_matched": 3, "fitness": 1.0},
        {"lower": [5.0, 0.0], "upper": [20.0, 4.0],
         "wildcard": [False, False], "prediction": 7.0, "error": 1.0,
         "coeffs": None, "n_matched": 2, "fitness": 1.0},
        {"lower": [30.0, 30.0], "upper": [40.0, 40.0],
         "wildcard": [False, False], "prediction": 33.0, "error": 1.0,
         "coeffs": [1.0, 0.0, -2.0], "n_matched": 2, "fitness": 1.0},
    ],
}


def test_hand_computed_pool():
    rules = rules_from_payload(PAYLOAD)
    windows = np.array([
        [10.0, 4.0],    # on r0's and r1's upper bounds: (1+5+1 + 7) / 2
        [2.0, 100.0],   # r0 only, through its wildcard lag: 1+1+25
        [25.0, 25.0],   # between every rule: abstain
        [30.0, 40.0],   # on r2's lower and upper bounds: -2 + 30 + 0
        [6.0, -1.0],    # r0 only (x1 under r1's floor): 1 + 3 - 0.25
    ])
    values, counts = forecast(rules, windows)
    assert counts.tolist() == [2, 1, 0, 1, 1]
    assert values[0] == 7.0
    assert values[1] == 27.0
    assert math.isnan(values[2])
    assert values[3] == 28.0
    assert values[4] == 3.75
    assert count_matches(rules, windows) == [3, 1, 1]


if __name__ == "__main__":
    test_hand_computed_pool()
    print("oracle test passed")
