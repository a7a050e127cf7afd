"""Golden CLI output: stdout must match the files in tests/golden byte for byte.

validate_two_node_1m_fixed.csv was rewritten when the simulator began
drawing each node's gaps between transmissions from its own seeded
stream (every estimate and z moved; the analytic column did not).  It
pins that stream, which must not depend on the block length or on
numpy's version.

sweep_nodes_2_10.csv was written by the scalar-object implementation (one
CostModel and Node per probe) and still holds.  Every point of it is a
LogTHR fallback on the access-budget face, tau = 1 / n: the coordinate
ascent's searches and the exact Newton solve in log-odds that replaced
them both print the same ten digits there.  solve_two_node_1m.csv was
rewritten when the solver became a single primal loop (the rate target of
node 0 met to 1e-9 instead of 2.4e-7, the objective moved in the 9th
digit), and again when the rate repair became an exact least lift: node 0
now meets its target to roundoff (rate 999999.9996 -> 1000000), and
sum_eta moves in the 10th digit (437020742.3 -> 437020742.2), with node
1's tau and efficiency and sum_tau in their last printed digit.

solve_two_node_1m_logee.csv pins the LogEE coordinate ascent,
sweep_rate_2e5_2p4e6.csv the EE certificate exit and two interior LogTHR
fallback points, and sweep_distance_1_10.csv an EE solve whose certificate
does not close (distance 9 m, four rounds of the ascent) and the fallback
at 10 m.  All three are two-node networks, so no sum depends on the
reduction order of numpy.

Regenerate a file only for a deliberate change of results, and say so in
the change log:

    PYTHONPATH=src python -m eecap.cli solve --scenario scenarios/two_node_1m.ini \
        > tests/golden/solve_two_node_1m.csv
    PYTHONPATH=src python -m eecap.cli sweep --scenario scenarios/nodes_sweep.ini \
        --axis nodes --from 2 --to 10 > tests/golden/sweep_nodes_2_10.csv
    PYTHONPATH=src python -m eecap.cli validate --scenario scenarios/two_node_1m_fixed.ini \
        --slots 100000 --seed 42 > tests/golden/validate_two_node_1m_fixed.csv
    PYTHONPATH=src python -m eecap.cli solve --scenario scenarios/two_node_1m.ini \
        --objective logee > tests/golden/solve_two_node_1m_logee.csv
    PYTHONPATH=src python -m eecap.cli sweep --scenario scenarios/two_node_1m.ini \
        --axis rate --from 2e5 --to 2.4e6 --steps 12 > tests/golden/sweep_rate_2e5_2p4e6.csv
    PYTHONPATH=src python -m eecap.cli sweep --scenario scenarios/distance_sweep.ini \
        --axis distance --from 1 --to 10 --steps 10 > tests/golden/sweep_distance_1_10.csv
"""

from __future__ import annotations

from pathlib import Path

import pytest

from eecap.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = (
    ("solve_two_node_1m.csv", ["solve", "--scenario", "two_node_1m.ini"]),
    ("sweep_nodes_2_10.csv", ["sweep", "--scenario", "nodes_sweep.ini",
                              "--axis", "nodes", "--from", "2", "--to", "10"]),
    ("validate_two_node_1m_fixed.csv", ["validate", "--scenario", "two_node_1m_fixed.ini",
                                        "--slots", "100000", "--seed", "42"]),
    ("solve_two_node_1m_logee.csv", ["solve", "--scenario", "two_node_1m.ini",
                                     "--objective", "logee"]),
    ("sweep_rate_2e5_2p4e6.csv", ["sweep", "--scenario", "two_node_1m.ini", "--axis", "rate",
                                  "--from", "2e5", "--to", "2.4e6", "--steps", "12"]),
    ("sweep_distance_1_10.csv", ["sweep", "--scenario", "distance_sweep.ini",
                                 "--axis", "distance", "--from", "1", "--to", "10",
                                 "--steps", "10"]),
)


@pytest.mark.parametrize("golden, argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(golden, argv, capsys):
    argv = [str(ROOT / "scenarios" / a) if a.endswith(".ini") else a for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
