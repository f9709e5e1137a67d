"""Runs on which a rigorous grid check fails from its own discretization.

Each fixture's worst margin is negative at a coarse grid and falls by about
4x per doubling of the step count, as the O(dt^2) error of the audit's
central difference does.  So the audit reports a discretization failure
faithfully, and no theorem is falsified.  A check that integrates over each
step should pass on every fixture (ROADMAP item 6).
"""

import json

import pytest

from qspeed.cli import ProtocolConfig, main, run_pipeline

# a Landau-Zener sweep from the ground state; velocity_variance's worst
# sample sits mid-run, at t = 1.24 to 1.25, on every grid
LANDAU_ZENER = {
    "kind": "landau_zener",
    "dim": 2,
    "duration": 4.0,
    "params": {"sweep_rate": 2.0, "gap": 0.5},
    "initial_state": "ground",
}
STEPS = (256, 512, 1024, 2048)
TOL = 1e-6  # the audit's default tolerance


@pytest.fixture(scope="module")
def landau_zener_margins():
    """velocity_variance's worst margin at each of ``STEPS``."""
    margins = {}
    for steps in STEPS:
        _, _, audit, _ = run_pipeline(ProtocolConfig.from_dict({**LANDAU_ZENER, "steps": steps}))
        check = next(c for c in audit.checks if c.name == "velocity_variance")
        assert 1.2 < check.worst_time < 1.3
        margins[steps] = check.worst_margin
    return margins


def test_landau_zener_margin_is_a_discretization_error(landau_zener_margins):
    """Negative on every grid, below -1e-6 up to N = 512 and above it from
    N = 1024, and at least 3x smaller per doubling (3.9x, 4.2x and 3.7x when
    pinned)."""
    margins = landau_zener_margins
    assert all(m < 0 for m in margins.values()), margins
    assert margins[256] < -TOL and margins[512] < -TOL
    assert margins[1024] > -TOL and margins[2048] > -TOL
    for coarse, fine in zip(STEPS, STEPS[1:]):
        assert margins[coarse] <= 3.0 * margins[fine], (coarse, margins)


@pytest.mark.parametrize("steps, fails", [(256, True), (512, True), (1024, False), (2048, False)])
def test_landau_zener_audit_names_the_check(tmp_path, capsys, steps, fails):
    """``qspeed audit`` exits 4 at every N: phase_mean_energy, no theorem
    under driving, fails on each grid.  velocity_variance is named as
    failing exactly where its margin is below the tolerance."""
    cfg = tmp_path / "lz.json"
    cfg.write_text(json.dumps({**LANDAU_ZENER, "steps": steps}))
    assert main(["audit", str(cfg)]) == 4
    lines = capsys.readouterr().out.splitlines()
    line = next(s for s in lines if s.split()[1] == "velocity_variance")
    assert line.startswith("FAIL" if fails else "pass"), line
