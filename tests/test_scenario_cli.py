"""Scenario files and the command line interface.

The CLI is exercised in-process through main(argv); stdout carries only
CSV, diagnostics go to stderr, and exit codes distinguish missing files,
invalid inputs and a failed Monte Carlo gate.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from eecap import (
    NcpbTable,
    ScenarioError,
    VARIANT_EE,
    evaluate,
    load_scenario,
)
from eecap.cli import (
    EXIT_INVALID,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_ZGATE,
    SOLVE_HEADER,
    SWEEP_HEADER,
    VALIDATE_HEADER,
    main,
)
from eecap.scenario import _CHANNEL_KEYS, _ENERGY_KEYS, _PHY_KEYS, _TIMING_KEYS

SOLVE_SCN = "scenarios/two_node_1m.ini"
FIXED_SCN = "scenarios/two_node_1m_fixed.ini"

MINIMAL = """
[nodes]
d = 1.0, 2.0
r_min = 1e5, 1e5
"""


def write_ini(tmp_path, body: str) -> str:
    path = tmp_path / "scenario.ini"
    path.write_text(body, encoding="utf-8")
    return str(path)


class TestLoadScenario:
    def test_full_round_trip(self):
        scn = load_scenario(SOLVE_SCN)
        assert scn.distances == (1.0, 1.0)
        assert scn.r_mins == (1e6, 5e5)
        assert scn.channel.tx_eb_over_n0_at_d0 == 5530.0
        assert scn.channel.exponent == 3.3
        assert scn.solver.objective == VARIANT_EE
        assert scn.tau is None
        net = scn.network()
        assert net.n_nodes == 2
        assert net.nodes[0].link.n_cpb == 1

    def test_fixed_point_round_trip(self):
        scn = load_scenario(FIXED_SCN)
        assert scn.tau == (0.143, 0.077)
        assert scn.nts == (2646, 2646)

    def test_defaults_fill_missing_sections(self, tmp_path):
        scn = load_scenario(write_ini(tmp_path, MINIMAL))
        assert scn.phy.n == 63
        assert scn.energy.eps_b == 2e-9
        assert scn.table == NcpbTable()

    def test_inline_comments_are_stripped(self, tmp_path):
        scn = load_scenario(write_ini(tmp_path, """
[nodes]
d = 1.0, 2.0   # meters
r_min = 1e5, 1e5 ; bits per second
"""))
        assert scn.distances == (1.0, 2.0)

    @pytest.mark.parametrize("body,fragment", [
        ("[mystery]\nx = 1\n" + MINIMAL, "unknown section"),
        ("[channel]\nwavelength = 3\n" + MINIMAL, "unknown key"),
        ("[channel]\nd0 = fast\n" + MINIMAL, "expected number"),
        ("[phy]\nn = 63.5\n" + MINIMAL, "expected integer"),
        ("[nodes]\nd = 1.0\nr_min = 1e5, 1e5\n", "match d"),
        ("[nodes]\nd = 1.0, -2.0\nr_min = 1e5, 1e5\n", "must be positive"),
        ("[nodes]\nd = 1.0\nr_min = -1.0\n", "non-negative"),
        ("[nodes]\nd = 1.0\nr_min = 1e-320\n", "r_min: entry 0 must be non-negative and not subnormal"),
        ("[nodes]\nd = 1.0, 2.0\nr_min = 1e5, nan\n", "[nodes] r_min: entry 1 must be non-negative"),
        ("[nodes]\nr_min = 1e5\n", "[nodes] d"),
        ("[nodes]\nd = 1.0\n", "r_min"),
        (MINIMAL + "tau = 0.1, 0.2\n", "n_t: required"),
        (MINIMAL + "n_t = 126, 126\n", "[nodes] n_t: allowed only with tau"),
        (MINIMAL + "tau = 0.1, 1.2\nn_t = 126, 126\n", "lie in [0, 1]"),
        (MINIMAL + "tau = 0.1, 0.2\nn_t = 100, 126\n", "multiple of 63"),
        (MINIMAL + "tau = 0.1, 0.2\nn_t = 126, 5040\n", "multiple of 63"),
        ("[ncpb]\ntable = 2:1, 4-2\n" + MINIMAL, "distance:n_cpb"),
        ("[ncpb]\ntable = 2:1\n[nodes]\nd = 1.0, 5.0\nr_min = 0, 0\n", "out of supported range"),
        ("[solver]\nobjective = fastest\n" + MINIMAL, "objective"),
        ("[solver]\nmax_outer_iters = 0\n" + MINIMAL, "unknown key"),
        ("[solver]\nmax_feasibility_iters = 50\n" + MINIMAL, "unknown key"),
        ("[solver]\nconvergence_tol = 1e-6\n" + MINIMAL, "unknown key"),
        ("[solver]\ninner_search_tol = 1e-5\n" + MINIMAL, "unknown key"),
        ("[solver]\ninit_tau = 0.01\n" + MINIMAL, "unknown key"),
        ("[solver]\nmultiplier_scale = 1.0\n" + MINIMAL, "unknown key"),
        ("[energy]\neps_b_tx = 9e-9\n" + MINIMAL, "eps_b"),
        # Not keys: pl0_db cancels out of the burst SNR, and no formula reads [phy] k.
        ("[channel]\npl0_db = inf\n" + MINIMAL, "[channel] pl0_db: unknown key"),
        ("[channel]\npl0_db = nan\n" + MINIMAL, "[channel] pl0_db: unknown key"),
        ("[channel]\npl0_db = 3300\n" + MINIMAL, "[channel] pl0_db: unknown key"),
        ("[channel]\npl0_db = -4000\n" + MINIMAL, "[channel] pl0_db: unknown key"),
        ("[channel]\npl0_db = 3070\n" + MINIMAL, "[channel] pl0_db: unknown key"),
        ("[phy]\nk = 51\n" + MINIMAL, "[phy] k: unknown key"),
        ("[channel]\nexponent = inf\n" + MINIMAL, "[channel] exponent must be finite"),
    ])
    def test_rejects_malformed_scenarios(self, tmp_path, body, fragment):
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_ini(tmp_path, body))
        assert fragment in str(err.value)

    def test_readme_scenario_block_loads_and_solves(self, tmp_path, capsys):
        # A key deleted from the scenario format but left in the README fails here.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Scenario files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        path = write_ini(tmp_path, block)
        assert load_scenario(path).distances == (1.0, 1.0)
        assert main(["solve", "--scenario", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith(SOLVE_HEADER)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(str(tmp_path / "nope.ini"))


# One valid value per scenario key, away from its default.  The link at
# 9.5 m is lossy enough that each PHY parameter moves its frame success;
# at 8.5 m two preamble repetitions already detect with probability 1.
PERTURBED = {
    "phy": {"n": 21, "t": 3, "n_phr": 41, "t_phr": 3, "kasami_len": 64, "rho": 7,
            "preamble_reps": 1, "n_t_min": 189, "n_t_max": 2583, "t_sym": 7e-8, "t_p": 3e-9,
            "w_rx": 4e8},
    "channel": {"d0": 2.0, "exponent": 3.0, "tx_eb_over_n0_at_d0": 500.0},
    "timing": {"t_shr": 50e-6, "t_phr": 90e-6, "t_psifs": 80e-6, "t_idle_slot": 300e-6},
    "energy": {"eps_b": 3e-9, "eps_oh": 5e-7, "eps_st": 3e-7, "eps_b_tx": 5e-10,
               "eps_oh_tx": 1e-7, "eps_st_tx": 5e-8},
    "ncpb": {"table": "2:1, 4:2, 6:4, 8:8, 9:16, 10:16"},
}
GUARD_NODES = "[nodes]\nd = 1.0, 9.5\nr_min = 1e5, 1e4\n"


class TestEveryKeyMatters:
    def test_every_key_has_a_perturbation(self):
        keys = {"phy": _PHY_KEYS, "channel": _CHANNEL_KEYS, "timing": _TIMING_KEYS,
                "energy": _ENERGY_KEYS, "ncpb": {"table": None}}
        assert {section: set(k) for section, k in keys.items()} == \
            {section: set(k) for section, k in PERTURBED.items()}

    @pytest.mark.parametrize("section, key", [(section, key) for section, values
                                              in PERTURBED.items() for key in values])
    def test_every_key_changes_the_model(self, tmp_path, section, key):
        """A key that no payload table reads is one no answer depends on."""
        base = load_scenario(write_ini(tmp_path, GUARD_NODES)).network().payloads
        body = f"[{section}]\n{key} = {PERTURBED[section][key]}\n" + GUARD_NODES
        moved = load_scenario(write_ini(tmp_path, body)).network().payloads
        assert any(np.shape(a) != np.shape(b) or not np.array_equal(a, b)
                   for a, b in zip(base, moved))


class TestSolveCommand:
    def test_optimizes_when_tau_absent(self, capsys):
        assert main(["solve", "--scenario", SOLVE_SCN]) == EXIT_OK
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert lines[0] == SOLVE_HEADER
        assert lines[1].startswith("node,0,")
        assert lines[2].startswith("node,1,")
        assert lines[3].startswith("summary,variant=EE,feasible=1,")
        assert "variant=EE" in out.err

    def test_eval_mode_matches_library(self, capsys):
        assert main(["solve", "--scenario", FIXED_SCN]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        scn = load_scenario(FIXED_SCN)
        _, rates, etas = evaluate(scn.network(), scn.tau, scn.nts)
        for k in (0, 1):
            cells = out[1 + k].split(",")
            assert cells[:2] == ["node", str(k)]
            assert float(cells[4]) == pytest.approx(scn.tau[k], rel=1e-9)
            assert int(cells[5]) == scn.nts[k]
            assert float(cells[6]) == pytest.approx(rates[k], rel=1e-9)
            assert float(cells[7]) == pytest.approx(etas[k], rel=1e-9)
        assert out[3].startswith("summary,variant=eval,")

    @pytest.mark.parametrize("nodes, feasible", [
        ("d = 1.0, 1.0\nr_min = 1e6, 5e5\ntau = 0.143, 0.077\nn_t = 2646, 2646\n", 1),
        ("d = 1.0, 1.0\nr_min = 5e6, 5e6\ntau = 0.6, 0.6\nn_t = 126, 126\n", 0),
        ("d = 1.0, 1.0\nr_min = 1e5, 1e5\ntau = 0.6, 0.6\nn_t = 2646, 2646\n", 0),
        ("d = 1.0, 1.0\nr_min = 5e6, 0\ntau = 0.143, 0.077\nn_t = 2646, 2646\n", 0),
    ], ids=["shipped-point", "both-short-over-budget", "over-budget", "one-short"])
    def test_eval_mode_prints_the_solver_feasible_rule(self, tmp_path, capsys, nodes, feasible):
        # A fixed point is feasible when every rate meets its target to the
        # solver's _RATE_SLACK and sum tau is within its budget: the shipped
        # point's rates (1,004,930 and 502,423 b/s) meet theirs.
        assert main(["solve", "--scenario", write_ini(tmp_path, "[nodes]\n" + nodes)]) == EXIT_OK
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith(f"summary,variant=eval,feasible={feasible},")

    def test_objective_flag_overrides_scenario(self, capsys):
        assert main(["solve", "--scenario", SOLVE_SCN, "--objective", "logee"]) == EXIT_OK
        out = capsys.readouterr()
        assert "summary,variant=LogEE," in out.out

    @pytest.mark.parametrize("argv", [
        pytest.param(["solve"], id="solve"),
        pytest.param(["sweep", "--axis", "nodes", "--from", "2", "--to", "3"], id="sweep"),
        pytest.param(["validate"], id="validate"),
    ])
    def test_missing_file_exit_code(self, argv, capsys):
        path = "no/such/file.ini"
        assert main(argv + ["--scenario", path]) == EXIT_MISSING_FILE
        out = capsys.readouterr()
        assert f"error: scenario file not found: {path}" in out.err
        assert out.out == ""

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        path = write_ini(tmp_path, "[nodes]\nd = 1.0\nr_min = -5\n")
        assert main(["solve", "--scenario", path]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_unusable_path_loss_is_an_invalid_input(self, tmp_path, capsys):
        path = write_ini(tmp_path, "[channel]\nexponent = inf\n" + MINIMAL)
        assert main(["solve", "--scenario", path]) == EXIT_INVALID
        assert "[channel] exponent must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "[nodes]\nd = 1e-200, 1.0\nr_min = 1e5, 1e5\n",
        "[channel]\nexponent = 300\n[nodes]\nd = 1e-3, 1.0\nr_min = 1e5, 1e5\n",
    ], ids=["short-link", "steep-exponent"])
    def test_overflowing_burst_snr_solves_as_a_perfect_link(self, tmp_path, capsys, body):
        # (d0 / d) ** exponent overflows the floats at node 0: an infinite
        # burst SNR, which delivers every frame.
        path = write_ini(tmp_path, body)
        assert main(["solve", "--scenario", path]) == EXIT_OK
        assert "error" not in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        assert main(["solve", "--scenario", SOLVE_SCN]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["solve", "--scenario", SOLVE_SCN]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second


class TestSweepCommand:
    def test_nodes_axis_replicates_first_node(self, capsys):
        rc = main(["sweep", "--scenario", FIXED_SCN, "--axis", "nodes",
                   "--from", "2", "--to", "4"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == SWEEP_HEADER
        assert len(out) == 4
        for i, row in enumerate(out[1:], start=2):
            cells = row.split(",")
            assert cells[0] == "nodes"
            assert int(float(cells[1])) == i
            assert int(cells[2]) == i

    def test_rate_axis_scales_all_targets(self, capsys):
        rc = main(["sweep", "--scenario", SOLVE_SCN, "--axis", "rate",
                   "--from", "2e5", "--to", "4e5", "--steps", "2"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        out = captured.out.strip().splitlines()
        assert len(out) == 3
        r0 = float(out[1].split(",")[15])
        r1 = float(out[2].split(",")[15])
        assert r0 == pytest.approx(2e5, rel=1e-4)
        assert r1 == pytest.approx(4e5, rel=1e-4)
        # One stderr line per point, reporting a round-cap hit as converged=False.
        err = captured.err.strip().splitlines()
        assert len(err) == 2
        for line in err:
            words = line.split()
            assert sum(w.startswith("iterations=") and w[11:].isdigit() for w in words) == 1
            assert sum(w in ("converged=True", "converged=False") for w in words) == 1

    def test_distance_axis_reports_burst_length(self, capsys):
        rc = main(["sweep", "--scenario", FIXED_SCN, "--axis", "distance",
                   "--from", "1", "--to", "9", "--steps", "2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1].split(",")[5] == "1"
        assert out[2].split(",")[5] == "16"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--scenario", SOLVE_SCN, "--axis", "nodes", "--from", "2.5", "--to", "4"],
        ["sweep", "--scenario", SOLVE_SCN, "--axis", "nodes", "--from", "3", "--to", "2"],
        ["sweep", "--scenario", SOLVE_SCN, "--axis", "rate", "--from", "2e5", "--to", "1e5"],
        ["sweep", "--scenario", SOLVE_SCN, "--axis", "rate",
         "--from", "1e5", "--to", "2e5", "--steps", "0"],
    ])
    def test_invalid_ranges_exit_code(self, argv, capsys):
        assert main(argv) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("start,fragment", [
        ("-1", "error: [nodes] r_min: entry 0 must be non-negative"),
    ])
    def test_invalid_scaled_targets_name_their_key(self, start, fragment, capsys):
        # A scaled target is checked where the network is built, and the
        # message names its key, not the distances.
        argv = ["sweep", "--scenario", SOLVE_SCN, "--axis", "rate", "--from", start, "--to", "1e5"]
        assert main(argv) == EXIT_INVALID
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("axis,bounds,flag", [
        # int(inf) raised OverflowError; 1e400 parses as inf.
        ("nodes", ["--from", "2", "--to", "1e400"], "--to"),
        ("rate", ["--from", "nan", "--to", "1e5"], "--from"),
        # Every point was r_min = nan or d = nan, reported as a bad key.
        ("rate", ["--from", "2e5", "--to", "inf", "--steps", "3"], "--to"),
        ("distance", ["--from", "nan", "--to", "10"], "--from"),
    ])
    def test_non_finite_bounds_name_their_flag(self, axis, bounds, flag, capsys):
        argv = ["sweep", "--scenario", SOLVE_SCN, "--axis", axis, *bounds]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"error: sweep {flag} must be finite" in err
        assert "Traceback" not in err


class TestValidateCommand:
    def test_gate_passes_on_reference_scenario(self, capsys):
        rc = main(["validate", "--scenario", FIXED_SCN, "--slots", "200000", "--seed", "7"])
        assert rc == EXIT_OK
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert lines[0] == VALIDATE_HEADER
        # Three state rows plus rate and efficiency per node.
        assert len(lines) == 1 + 3 + 2 * 2
        zs = [abs(float(row.split(",")[5])) for row in lines[1:]]
        assert max(zs) <= 4.0
        assert "max |z|" in out.err

    def test_deterministic_output(self, capsys):
        args = ["validate", "--scenario", FIXED_SCN, "--slots", "50000", "--seed", "3"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_estimates_not_analytics(self, capsys):
        args = ["validate", "--scenario", FIXED_SCN, "--slots", "50000"]
        assert main(args + ["--seed", "1"]) == EXIT_OK
        first = capsys.readouterr().out.strip().splitlines()
        assert main(args + ["--seed", "2"]) == EXIT_OK
        second = capsys.readouterr().out.strip().splitlines()
        for a, b in zip(first[1:], second[1:]):
            assert a.split(",")[2] == b.split(",")[2]
        assert first != second

    def test_requires_fixed_access_probabilities(self, capsys):
        assert main(["validate", "--scenario", SOLVE_SCN]) == EXIT_INVALID
        assert "tau" in capsys.readouterr().err

    def test_rejects_bad_slot_count(self, capsys):
        rc = main(["validate", "--scenario", FIXED_SCN, "--slots", "0"])
        assert rc == EXIT_INVALID
        assert "num_slots" in capsys.readouterr().err

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_MISSING_FILE, EXIT_INVALID, EXIT_ZGATE}) == 4
