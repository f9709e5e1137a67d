"""Config parsing, protocol kinds, the four CLI verbs, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import every_matrix, rotating_ground
from qspeed import HamiltonianProtocol, QuantumState, _linalg, ground_shift, propagate
from qspeed.cli import (
    SWEEP_HEADER,
    ProtocolConfig,
    _oscillator_leakage,
    _sanitize,
    build_protocol,
    fisher_command,
    gaussian_shift_track,
    initial_state,
    main,
    run_pipeline,
    sweep_command,
)
from qspeed.errors import BadConfig, DomainError

SRC = Path(__file__).resolve().parents[1] / "src"

BENCH = {
    "kind": "constant",
    "dim": 2,
    "hbar": 1.0,
    "duration": math.pi,
    "steps": 2048,
    "params": {"matrix": [[0, 0], [0, 1]]},
    "initial_state": "equal_superposition",
    "label": "bench",
}

OSC = {
    "kind": "modulated_oscillator",
    "dim": 6,
    "hbar": 1.0,
    "duration": 1.0,
    "steps": 1024,
    "params": {"omega0": 1.0, "pump_rate": 0.0, "squeeze": 0.0},
    "initial_state": {"amplitudes": [0.7071067811865476, 0, 0.7071067811865476, 0, 0, 0]},
    "label": "osc",
}


Z2 = [[0, 0], [0, 1]]
PWC = {**BENCH, "kind": "piecewise_const"}
SAMPLES = {**BENCH, "kind": "matrix_samples"}


# files that are not UTF-8 JSON; each verb refuses them with exit 2, naming the file
MALFORMED_CONFIGS = {
    "truncated": b'{"kind": "constant",',
    "not_utf8": b"\xff\xfe\x00{",
    "huge_integer": json.dumps({**BENCH, "steps": "N"}).replace('"N"', "9" * 5000).encode(),
    "deep_array": b"[" * 100000,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigValidation:
    def test_missing_duration_names_field(self):
        raw = dict(BENCH)
        del raw["duration"]
        with pytest.raises(BadConfig, match="duration"):
            ProtocolConfig.from_dict(raw)

    def test_bad_kind(self):
        with pytest.raises(BadConfig, match="kind"):
            ProtocolConfig.from_dict({**BENCH, "kind": "nope"})

    def test_steps_too_small(self):
        with pytest.raises(BadConfig, match="steps"):
            ProtocolConfig.from_dict({**BENCH, "steps": 8})

    def test_bad_shift_mode(self):
        with pytest.raises(BadConfig, match="ground_shift_mode"):
            ProtocolConfig.from_dict({**BENCH, "ground_shift_mode": "sometimes"})

    def test_grid_cap_alone_in_either_shift_mode(self):
        """Only the (steps + 1, dim, dim) grid counts toward the size cap; the
        global scan, evaluated in row slices, does not."""
        for mode in ("instantaneous", "global"):
            raw = {**BENCH, "dim": 2048, "steps": 16, "ground_shift_mode": mode}
            assert ProtocolConfig.from_dict(raw).ground_shift_mode == mode

    def test_global_scan_at_dim_600_is_accepted(self):
        """A global config whose whole scan stack would pass the cap, but whose
        (steps + 1, dim, dim) grid fits, is accepted."""
        raw = {**OSC, "dim": 600, "steps": 16, "ground_shift_mode": "global"}
        assert ProtocolConfig.from_dict(raw).ground_shift_mode == "global"

    @pytest.mark.parametrize(
        "duration, steps, reason",
        [(1.0, 64.5, "must be an integer"), (1.0, 2**26, "exceeds 4 GiB"), (1e-310, 64, "below the smallest normal float")],
        ids=["non_integer_steps", "grid_over_cap", "subnormal_step"],
    )
    def test_config_refuses_what_propagate_refuses(self, duration, steps, reason):
        """The config check and propagate share the start rules of qdyn.step_size."""

        def stack(ts):
            raise AssertionError("H(t) evaluated for a run that cannot start")

        p = HamiltonianProtocol(None, duration, dim=2, stack=stack)
        with pytest.raises(DomainError, match=reason):
            propagate(p, QuantumState.pure([1.0, 0.0]), steps)
        with pytest.raises(BadConfig, match=reason):
            ProtocolConfig.from_dict({**BENCH, "duration": duration, "steps": steps})

    def test_unknown_ml_mode(self):
        with pytest.raises(BadConfig, match="ml_mode"):
            ProtocolConfig.from_dict({**BENCH, "ml_mode": "cubic"})
        with pytest.raises(BadConfig, match="ml_mode"):
            ProtocolConfig.from_dict({**BENCH, "ml_mode": ["linear"]})

    def test_bad_hbar(self):
        with pytest.raises(BadConfig, match="hbar"):
            ProtocolConfig.from_dict({**BENCH, "hbar": 0})

    def test_defaults(self):
        cfg = ProtocolConfig.from_dict({k: v for k, v in BENCH.items() if k not in ("steps", "hbar")})
        assert cfg.steps == 2048 and cfg.hbar == 1.0
        assert cfg.ground_shift_mode == "instantaneous" and cfg.ml_mode == "linear"


class TestProtocolKinds:
    def test_constant_matrix(self):
        p = build_protocol(ProtocolConfig.from_dict(BENCH))
        assert np.allclose(p.matrix(0.3), np.diag([0.0, 1.0]))

    def test_constant_rejects_non_hermitian(self):
        raw = {**BENCH, "params": {"matrix": [[0, 1], [0, 0]]}}
        with pytest.raises(BadConfig, match="'params.matrix'.*Hermiticity"):
            build_protocol(ProtocolConfig.from_dict(raw))

    def test_rabi_zero_amplitude_matches_constant(self):
        rabi = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "rabi_qubit",
                "duration": 2.0,
                "steps": 256,
                "params": {"omega0": 1.0, "amplitude": 0.0, "drive_frequency": 3.0},
                "initial_state": "equal_superposition",
            }
        )
        const = ProtocolConfig.from_dict(
            {**BENCH, "duration": 2.0, "steps": 256, "params": {"matrix": [[0.5, 0], [0, -0.5]]}}
        )
        s0 = QuantumState.pure(np.ones(2) / math.sqrt(2))
        t_rabi = propagate(build_protocol(rabi), s0, 256)
        t_const = propagate(build_protocol(const), s0, 256)
        for a, b in zip(t_rabi.states, t_const.states):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_landau_zener_form(self):
        cfg = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "landau_zener",
                "duration": 4.0,
                "params": {"sweep_rate": 2.0, "gap": 1.0},
                "initial_state": "ground",
            }
        )
        p = build_protocol(cfg)
        t = 1.0
        expected = (2.0 * (t - 2.0) / 2) * np.diag([1.0, -1.0]) + 0.5 * np.array([[0, 1], [1, 0]])
        assert np.allclose(p.matrix(t), expected)

    def test_piecewise_const_segments(self):
        cfg = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "piecewise_const",
                "duration": 2.0,
                "params": {
                    "segments": [
                        {"matrix": [[0, 0], [0, 1]], "duration": 1.0},
                        {"matrix": [[0, 0], [0, 3]], "duration": 1.0},
                    ]
                },
            }
        )
        p = build_protocol(cfg)
        assert p.matrix(0.5)[1, 1] == 1.0
        assert p.matrix(1.5)[1, 1] == 3.0

    def test_piecewise_duration_mismatch(self):
        cfg = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "piecewise_const",
                "duration": 3.0,
                "params": {"segments": [{"matrix": [[0, 0], [0, 1]], "duration": 1.0}]},
            }
        )
        with pytest.raises(BadConfig, match="segments"):
            build_protocol(cfg)

    def test_matrix_samples_linear_interpolation(self):
        cfg = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "matrix_samples",
                "duration": 1.0,
                "params": {
                    "samples": [
                        {"t": 0.0, "matrix": [[0, 0], [0, 0]]},
                        {"t": 1.0, "matrix": [[0, {"re": 0, "im": -2}], [{"re": 0, "im": 2}, 0]]},
                    ]
                },
            }
        )
        p = build_protocol(cfg)
        assert np.allclose(p.matrix(0.25), np.array([[0, -0.5j], [0.5j, 0]]))

    def test_matrix_samples_must_cover_duration(self):
        cfg = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "matrix_samples",
                "duration": 2.0,
                "params": {
                    "samples": [
                        {"t": 0.0, "matrix": [[0, 0], [0, 0]]},
                        {"t": 1.0, "matrix": [[0, 0], [0, 1]]},
                    ]
                },
            }
        )
        with pytest.raises(BadConfig, match="cover"):
            build_protocol(cfg)

    def test_matrix_samples_widest_finite_spacing(self):
        """Knots 1.6e308 apart interpolate without an overflow warning."""
        samples = [{"t": -8e307, "matrix": [[0, 0], [0, 0]]}, {"t": 8e307, "matrix": [[0, 2e-300], [2e-300, 0]]}]
        cfg = ProtocolConfig.from_dict({**SAMPLES, "duration": 1.0, "params": {"samples": samples}})
        h = build_protocol(cfg).matrices(np.array([0.0, 1.0]))
        assert np.allclose(h[:, 0, 1], 1e-300, rtol=1e-12, atol=0)

    def test_matrix_samples_rejects_non_hermitian(self):
        cfg = ProtocolConfig.from_dict(
            {
                **BENCH,
                "kind": "matrix_samples",
                "duration": 1.0,
                "params": {
                    "samples": [
                        {"t": 0.0, "matrix": [[0, 1], [0, 0]]},
                        {"t": 1.0, "matrix": [[0, 0], [0, 1]]},
                    ]
                },
            }
        )
        with pytest.raises(BadConfig, match=r"'params.samples\[0\].matrix'.*Hermiticity"):
            build_protocol(cfg)

    def test_oscillator_matrix_structure(self):
        cfg = ProtocolConfig.from_dict({**OSC, "params": {"omega0": 1.0, "pump_rate": 0.5, "squeeze": 0.1}})
        p = build_protocol(cfg)
        h = p.matrix(1.0)
        assert h[1, 1] == pytest.approx(math.exp(0.5))
        assert h[0, 2] == pytest.approx(0.1 * math.sqrt(2))  # squeeze coupling a^2 + a†^2


class TestInitialState:
    def test_ground_label(self):
        cfg = ProtocolConfig.from_dict({**BENCH, "initial_state": "ground"})
        s = initial_state(cfg, build_protocol(cfg))
        assert abs(s.amplitudes[0]) == pytest.approx(1.0)

    def test_matrix_state(self):
        cfg = ProtocolConfig.from_dict({**BENCH, "initial_state": {"matrix": [[0.5, 0], [0, 0.5]]}})
        s = initial_state(cfg, build_protocol(cfg))
        assert not s.is_pure

    def test_invalid_state(self):
        cfg = ProtocolConfig.from_dict({**BENCH, "initial_state": "vacuum"})
        with pytest.raises(BadConfig, match="initial_state"):
            initial_state(cfg, build_protocol(cfg))


class TestRunCommand:
    def test_benchmark_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH)
        out = tmp_path / "out.json"
        assert main(["run", cfg, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "qsl", "audit"}
        assert doc["meta"]["version"] and doc["meta"]["grid"] == 2048 and doc["meta"]["wall_ms"] == 0
        assert doc["qsl"]["slacks"]["mt"] == pytest.approx(1.0, abs=1e-4)
        assert doc["qsl"]["tau_qsl"] == pytest.approx(math.pi, rel=1e-4)
        names = [c["name"] for c in doc["audit"]["checks"]]
        assert len(names) == 7

    def test_rescaled_benchmark_keeps_its_slacks(self, tmp_path):
        """E and hbar scaled by 1e150 and 1e308: 4 hbar and hbar L overflow
        on the way to the bounds, which stay finite and in their order.  E and
        hbar scaled by 1e100 and 1.5e308: the integrals of <H> and dE over the
        run overflow on the way to their averages over tau and to the audit's
        integrals over hbar, which stay finite."""
        small = {**BENCH, "steps": 64}
        huge = {**small, "hbar": 1e308, "duration": math.pi * 1e158, "params": {"matrix": [[0, 0], [0, 1e150]]}}
        long = {**small, "hbar": 1.5e308, "duration": 4.71238898038469e208, "params": {"matrix": [[0, 0], [0, 1e100]]}}
        slacks = []
        for raw in (small, huge, long):
            out = tmp_path / "out.json"
            assert main(["run", write_config(tmp_path, raw), "-o", str(out)]) == 0
            slacks.append(json.loads(out.read_text())["qsl"]["slacks"])
        assert slacks[1] == pytest.approx(slacks[0], rel=1e-12, abs=0)
        assert slacks[2] == pytest.approx(slacks[0], rel=1e-12, abs=0)

    def test_stationary_run(self, tmp_path):
        cfg = write_config(tmp_path, {**BENCH, "initial_state": {"amplitudes": [1, 0]}})
        out = tmp_path / "out.json"
        assert main(["run", cfg, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["qsl"]["bures"] == 0.0
        assert doc["qsl"]["tau_qsl"] == 0.0
        assert doc["qsl"]["slacks"]["mt"] == "inf"

    def test_missing_field_exit_2(self, tmp_path, capsys):
        raw = dict(BENCH)
        del raw["duration"]
        cfg = write_config(tmp_path, raw)
        assert main(["run", cfg]) == 2
        assert "duration" in capsys.readouterr().err

    def test_unreadable_config_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        for name, content in MALFORMED_CONFIGS.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(content)
            for verb, *flags in (["run"], ["audit"], ["sweep", "--param", "steps", "--values", "64"]):
                assert main([verb, str(path), *flags]) == 2, (name, verb)
                err = capsys.readouterr().err
                assert err.startswith(f"[qspeed] config error: config file {path} is not valid JSON: "), err

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BENCH, "steps": 64})
        assert main(["run", cfg, "-o", str(tmp_path / "missing" / "out.json")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_violating_run_exit_4(self, tmp_path):
        raw = {**BENCH, "initial_state": {"amplitudes": [math.sqrt(0.75), 0.5]}}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out.json"
        assert main(["run", cfg, "-o", str(out)]) == 4
        doc = json.loads(out.read_text())
        oc = next(c for c in doc["audit"]["checks"] if c["name"] == "overlap_cosine")
        assert not oc["passed"]
        assert doc["qsl"]["slacks"]["ml_lin"] < 1.0

    @pytest.mark.parametrize("mode, slack", [("instantaneous", 0.1987), ("global", 0.2018)])
    def test_driven_witness_falsifies_the_quadratic_bound(self, tmp_path, capsys, mode, slack):
        """65 knots of a ground state turning through pi/2 at the fixed
        spectrum {0, 10}: ``ml_mode: "quadratic"`` is no bound under driving.
        Other checks fail too, so ``qsl_bound`` is asserted among them."""
        knots = np.linspace(0.0, 2.0, 65)
        samples = [{"t": t, "matrix": h.tolist()} for t, h in zip(knots.tolist(), rotating_ground(10.0, 2.0)(knots))]
        raw = {
            **SAMPLES,
            "duration": 2.0,
            "ml_mode": "quadratic",
            "ground_shift_mode": mode,
            "params": {"samples": samples},
            "initial_state": {"amplitudes": [1, 0]},
        }
        out = tmp_path / "out.json"
        assert main(["run", write_config(tmp_path, raw), "-o", str(out)]) == 4
        failed = re.search(r"violation in: (.*)", capsys.readouterr().err).group(1).split(", ")
        assert "qsl_bound" in failed
        slacks = json.loads(out.read_text())["qsl"]["slacks"]
        assert slacks["ml_quad"] == pytest.approx(slack, abs=1e-4)
        assert slacks["mt"] >= 1.0

    def test_two_level_oscillator_exit_2_names_dim(self, tmp_path, capsys):
        raw = {**OSC, "dim": 2, "initial_state": {"amplitudes": [1, 0]}}
        assert main(["run", write_config(tmp_path, raw)]) == 2
        assert "dim >= 3" in capsys.readouterr().err

    def test_oscillator_leakage_exit_3(self, tmp_path):
        raw = {**OSC, "params": {"omega0": 1.0, "pump_rate": 0.0, "squeeze": 0.8}}
        cfg = write_config(tmp_path, raw)
        assert main(["run", cfg]) == 3

    @pytest.mark.parametrize("squeeze", [0.0, 0.3])
    def test_subnormal_hbar_exit_3_names_hbar(self, tmp_path, capsys, squeeze):
        raw = {**OSC, "hbar": 5e-324, "params": {**OSC["params"], "squeeze": squeeze}}
        cfg = write_config(tmp_path, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert "step phase |E|*dt/hbar overflows" in err and "hbar = 4.94066e-324" in err
        assert caught == []

    @pytest.mark.parametrize("mode", ["instantaneous", "global"])
    @pytest.mark.parametrize(
        "matrix",
        [[[1.7e308, 1.7e308], [1.7e308, -1.7e308]], [[1e308, 0], [0, -1e308]]],
        ids=["ground_energy_overflows", "shift_overflows"],
    )
    def test_overflowing_ground_energy_exit_3(self, tmp_path, capsys, mode, matrix):
        """A finite H whose eigenvalues, +-2.4e308, round to +-inf, and one
        whose spectrum, +-1e308, spans more than a float."""
        raw = {**BENCH, "ground_shift_mode": mode, "params": {"matrix": matrix}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", write_config(tmp_path, raw)]) == 3
        assert "the ground energy of H(t), or H(t) shifted by it, overflows a float" in capsys.readouterr().err
        assert caught == []

    @pytest.mark.parametrize(
        "field, literal",
        [
            ("hbar", '"x"'),
            ("audit_tolerance", "null"),
            ("hbar", "Infinity"),
            ("audit_tolerance", "Infinity"),
            ("hbar", "NaN"),
            ("duration", "Infinity"),
            ("duration", "NaN"),
            ("hbar", "true"),
            ("duration", "true"),
            ("duration", "1" + "0" * 400),
            ("dim", '"2"'),
            ("dim", "2.5"),
            ("dim", "1"),
            ("dim", "true"),
            ("steps", "2048.0"),
            ("steps", "true"),
            ("steps", "8"),
            ("kind", "3"),
            ("ground_shift_mode", '["global"]'),
            ("ground_shift_mode", "null"),
            ("ml_mode", "null"),
            ("params", "[]"),
            ("params", '"x"'),
            ("label", "null"),
            ("label", "[1]"),
            ("label", "5"),
        ],
        ids=lambda v: v if len(v) < 20 else "huge_int",
    )
    def test_bad_number_exit_2_names_field(self, tmp_path, capsys, field, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**BENCH, field: "@"}).replace('"@"', literal))
        assert main(["run", str(path), "-o", str(tmp_path / "out.json")]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("field", ["kind", "dim", "duration", "initial_state"])
    def test_missing_required_field_exit_2_names_it(self, tmp_path, capsys, field):
        out = tmp_path / "out.json"
        doc = {k: v for k, v in BENCH.items() if k != field}
        assert main(["run", write_config(tmp_path, doc), "-o", str(out)]) == 2
        assert f"missing required field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**OSC, "params": {**OSC["params"], "squeeze": "x"}}, "params.squeeze"),
            ({**OSC, "params": {**OSC["params"], "pump_rate": math.nan}}, "params.pump_rate"),
            ({**OSC, "params": {**OSC["params"], "omega0": True}}, "params.omega0"),
            ({**OSC, "params": {**OSC["params"], "pump_rate": 800.0}}, "params.pump_rate"),
            (
                {
                    **BENCH,
                    "kind": "piecewise_const",
                    "params": {"segments": [{"matrix": [[0, 0], [0, 1]], "duration": "x"}]},
                },
                "params.segments[0].duration",
            ),
            (
                {
                    **BENCH,
                    "kind": "matrix_samples",
                    "params": {
                        "samples": [
                            {"t": None, "matrix": [[0, 0], [0, 1]]},
                            {"t": math.pi, "matrix": [[0, 0], [0, 1]]},
                        ]
                    },
                },
                "params.samples[0].t",
            ),
            ({**BENCH, "params": {"matrix": [[{"re": "x"}, 0], [0, 1]]}}, "params.matrix[0][0].re"),
            ({**BENCH, "params": {"matrix": [[0, math.nan], [math.nan, 1]]}}, "params.matrix[0][1]"),
            ({**BENCH, "initial_state": {"amplitudes": [math.nan, 1]}}, "initial_state.amplitudes[0]"),
            ({**BENCH, "initial_state": {"amplitudes": [1, 1]}}, "initial_state.amplitudes"),
            ({**BENCH, "initial_state": {"matrix": [[1, 0], [0, 1]]}}, "initial_state.matrix"),
            ({**BENCH, "params": {"matrix": [[0, 1], [0, 0]]}}, "params.matrix"),
            ({**BENCH, "ground_shift_mod": "global"}, "ground_shift_mod"),
            (
                {
                    **BENCH,
                    "kind": "rabi_qubit",
                    "duration": 10.0,
                    "params": {"omega0": 1.0, "amplitude": 0.5, "drive_frequency": 1e308},
                },
                "params.drive_frequency",
            ),
            ({**BENCH, "initial_state": {"amplitudes": [1, 0], "matrix": Z2}}, "initial_state.matrix"),
            ({**BENCH, "initial_state": {"amplitudes": [1, 0], "foo": 1}}, "initial_state.foo"),
            ({**BENCH, "initial_state": {"matrix": [[1, 0], [0, 0]], "foo": 1}}, "initial_state.foo"),
            ({**PWC, "params": {"segments": [{"matrix": Z2, "duraton": 7}]}}, "params.segments[0].duraton"),
            (
                {**SAMPLES, "params": {"samples": [{"t": 0.0, "matrix": Z2}, {"t": math.pi, "matrix": Z2, "x": 1}]}},
                "params.samples[1].x",
            ),
            (
                {**BENCH, "kind": "landau_zener", "duration": 10.0, "params": {"sweep_rate": 1e308, "gap": 1.0}},
                "params.sweep_rate",
            ),
            ({**OSC, "params": {"omega0": 1e308, "pump_rate": 1.0}}, "params.omega0"),
            ({**OSC, "params": {"omega0": 1e308, "pump_rate": -1.0}}, "params.omega0"),
            ({**OSC, "params": {"omega0": 1.0, "pump_rate": 0.0, "squeeze": 1e308}}, "params.squeeze"),
        ],
        ids=[
            "squeeze_str",
            "pump_rate_nan",
            "omega0_bool",
            "pump_rate_exp_overflow",
            "segment_duration_str",
            "sample_t_null",
            "entry_re_str",
            "entry_nan",
            "amplitude_nan",
            "amplitudes_unnormalized",
            "density_matrix_trace_2",
            "matrix_non_hermitian",
            "unknown_top_level_key",
            "drive_phase_overflow",
            "amplitudes_and_matrix",
            "amplitudes_unknown_key",
            "matrix_unknown_key",
            "segment_unknown_key",
            "sample_unknown_key",
            "sweep_term_overflow",
            "oscillator_growing_term_overflow",
            "oscillator_decaying_term_overflow",
            "squeeze_term_overflow",
        ],
    )
    def test_bad_param_exit_2_names_field(self, tmp_path, capsys, doc, field):
        out = tmp_path / "out.json"
        assert main(["run", write_config(tmp_path, doc), "-o", str(out)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({**BENCH, "params": {"matrix": [["x", 0], [0, 1]]}}, "params.matrix[0][0]"),
            ({**PWC, "params": {"segments": {}}}, "params.segments"),
            ({**PWC, "params": {"segments": []}}, "params.segments"),
            ({**PWC, "params": {"segments": ["x"]}}, "params.segments[0]"),
            ({**PWC, "params": {"segments": [{"matrix": Z2}]}}, "params.segments[0]"),
            (
                {**PWC, "params": {"segments": [{"matrix": Z2, "duration": 0}, {"matrix": Z2, "duration": math.pi}]}},
                "params.segments[0].duration",
            ),
            (
                {**PWC, "params": {"segments": [{"matrix": Z2, "duration": math.pi}, {"matrix": Z2, "duration": -1}]}},
                "params.segments[1].duration",
            ),
            ({**SAMPLES, "params": {"samples": {}}}, "params.samples"),
            ({**SAMPLES, "params": {"samples": [{"t": 0.0, "matrix": Z2}]}}, "params.samples"),
            ({**SAMPLES, "params": {"samples": [{"t": 0.0, "matrix": Z2}, {"t": math.pi}]}}, "params.samples[1]"),
            ({**SAMPLES, "params": {"samples": [{"t": 0.0, "matrix": Z2}, 5]}}, "params.samples[1]"),
            (
                {**SAMPLES, "params": {"samples": [{"t": t, "matrix": Z2} for t in (0.0, 2.0, 2.0, math.pi)]}},
                "params.samples",
            ),
            (
                {**SAMPLES, "params": {"samples": [{"t": t, "matrix": Z2} for t in (0.0, math.pi, 1.0, 4.0)]}},
                "params.samples",
            ),
            (
                {
                    **SAMPLES,
                    "duration": 1,
                    "params": {"samples": [{"t": t, "matrix": Z2} for t in (-1.7e308, 1.7e308)]},
                },
                "params.samples",
            ),
            ({**BENCH, "params": {"matrix": [[0, 1.7e308], [-1.7e308, 0]]}}, "params.matrix"),
            ({**BENCH, "kind": "rabi_qubit", "dim": 3, "params": {}}, "rabi_qubit requires dim = 2"),
            ({**BENCH, "kind": "landau_zener", "dim": 3, "params": {}}, "landau_zener requires dim = 2"),
            ({**BENCH, "kind": "rabi_qubit", "params": {"omega0": 1.0, "amplitude": 0.5}}, "'drive_frequency'"),
            ({**BENCH, "kind": "landau_zener", "params": {"gap": 1.0}}, "'sweep_rate'"),
            ({**BENCH, "params": {"matrix": [[0, {}], [{}, 1]]}}, "params.matrix[0][1]"),
            (
                {**PWC, "params": {"segments": [{"matrix": [[0, {}], [{}, 1]], "duration": math.pi}]}},
                "params.segments[0].matrix[0][1]",
            ),
            (
                {**SAMPLES, "params": {"samples": [{"t": 0.0, "matrix": Z2}, {"t": math.pi, "matrix": [[{}, 0], [0, 1]]}]}},
                "params.samples[1].matrix[0][0]",
            ),
            ({**BENCH, "initial_state": {"amplitudes": [1, {}]}}, "initial_state.amplitudes[1]"),
        ],
        ids=[
            "entry_list",
            "segments_not_list",
            "segments_empty",
            "segment_not_object",
            "segment_no_duration",
            "segment_duration_zero",
            "segment_duration_negative",
            "samples_not_list",
            "samples_one",
            "sample_no_matrix",
            "sample_not_object",
            "sample_t_repeated",
            "sample_t_decreasing",
            "sample_t_spacing_overflows",
            "matrix_skew_overflows",
            "rabi_dim_3",
            "landau_zener_dim_3",
            "rabi_missing_param",
            "landau_zener_missing_param",
            "entry_empty_object",
            "segment_entry_empty_object",
            "sample_entry_empty_object",
            "amplitude_empty_object",
        ],
    )
    def test_bad_kind_input_exit_2_names_path(self, tmp_path, capsys, doc, path):
        """The message names the path itself, not an entry below it."""
        out = tmp_path / "out.json"
        assert main(["run", write_config(tmp_path, doc), "-o", str(out)]) == 2
        assert re.search(re.escape(path) + r"(?![\[.\w])", capsys.readouterr().err)
        assert not out.exists()

    def test_entry_object_may_give_one_part(self, tmp_path):
        """``{"re": x}`` and ``{"im": y}`` read the missing part as 0, in a
        matrix and in amplitudes."""
        reports = []
        for matrix, amplitudes in (
            ([[0, 0.5], [0.5, 1]], [{"re": 0.6, "im": 0}, {"re": 0, "im": 0.8}]),
            ([[{"im": 0}, {"re": 0.5}], [{"re": 0.5}, {"re": 1}]], [{"re": 0.6}, {"im": 0.8}]),
        ):
            doc = {**BENCH, "steps": 64, "params": {"matrix": matrix}, "initial_state": {"amplitudes": amplitudes}}
            out = tmp_path / f"out{len(reports)}.json"
            code = main(["run", write_config(tmp_path, doc), "-o", str(out)])
            reports.append((code, out.read_bytes()))
        assert reports[0][0] in (0, 4)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "doc, typo",
        [
            ({**BENCH, "params": {**BENCH["params"], "martix": 1}}, "martix"),
            (
                {
                    **BENCH,
                    "kind": "piecewise_const",
                    "params": {"segments": [{"matrix": [[0, 0], [0, 1]], "duration": math.pi}], "segment": []},
                },
                "segment",
            ),
            (
                {
                    **BENCH,
                    "kind": "rabi_qubit",
                    "params": {"omega0": 1.0, "amplitude": 0.5, "drive_frequency": 1.0, "drive_freq": 2.0},
                },
                "drive_freq",
            ),
            ({**BENCH, "kind": "landau_zener", "params": {"sweep_rate": 2.0, "gap": 1.0, "gaps": 0.5}}, "gaps"),
            ({**OSC, "params": {"omega0": 1.0, "pump_rate": 0.0, "sqeeze": 0.8}}, "sqeeze"),
            (
                {
                    **BENCH,
                    "kind": "matrix_samples",
                    "params": {
                        "samples": [{"t": 0.0, "matrix": [[0, 0], [0, 1]]}, {"t": math.pi, "matrix": [[0, 0], [0, 1]]}],
                        "sample": [],
                    },
                },
                "sample",
            ),
        ],
        ids=["constant", "piecewise_const", "rabi_qubit", "landau_zener", "modulated_oscillator", "matrix_samples"],
    )
    def test_unknown_param_exit_2_names_field(self, tmp_path, capsys, doc, typo):
        """A misspelt param is refused, not run with its default."""
        out = tmp_path / "out.json"
        assert main(["run", write_config(tmp_path, doc), "-o", str(out)]) == 2
        assert f"'params.{typo}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [{**BENCH, "steps": 10**400}, {**OSC, "dim": 10**400}], ids=["steps", "dim"])
    def test_oversized_grid_exit_2(self, tmp_path, capsys, doc):
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "'steps' and 'dim'" in capsys.readouterr().err

    def test_subnormal_step_exit_2(self, tmp_path, capsys):
        """A step below the smallest normal float is a config error naming its fields."""
        assert main(["run", write_config(tmp_path, {**BENCH, "duration": 1e-310, "steps": 64})]) == 2
        err = capsys.readouterr().err
        assert "'duration'" in err and "'steps'" in err and "smallest normal float" in err

    def test_global_scan_at_dim_600_reaches_the_build(self, tmp_path, monkeypatch):
        """``run`` passes the dim-600 global config on to ``build_protocol``."""
        built = []

        class Sentinel(Exception):
            pass

        def build(cfg):
            built.append((cfg.dim, cfg.ground_shift_mode))
            raise Sentinel

        monkeypatch.setattr("qspeed.cli.build_protocol", build)
        doc = {**OSC, "dim": 600, "steps": 16, "ground_shift_mode": "global"}
        with pytest.raises(Sentinel):
            main(["run", write_config(tmp_path, doc)])
        assert built == [(600, "global")]

    def test_sanitize_writes_non_finite_as_strings(self):
        doc = {"a": [math.nan, math.inf, -math.inf, 1.5], "b": {"c": math.nan}}
        assert _sanitize(doc) == {"a": ["nan", "inf", "-inf", 1.5], "b": {"c": "nan"}}

    @pytest.mark.parametrize("state", [OSC["initial_state"], {"matrix": np.diag([0.5, 0.3, 0.2, 0, 0, 0]).tolist()}])
    def test_leakage_matches_per_state_loop(self, state):
        raw = {**OSC, "params": {"omega0": 1.0, "pump_rate": 0.5, "squeeze": 0.01}, "initial_state": state}
        cfg = ProtocolConfig.from_dict(raw)
        protocol = build_protocol(cfg)
        traj = propagate(ground_shift(protocol), initial_state(cfg, protocol), cfg.steps)
        if traj.is_pure:
            loop = max(float(np.sum(np.abs(s[4:]) ** 2)) for s in traj.states)
        else:
            loop = max(float(np.trace(s[4:, 4:]).real) for s in traj.states)
        assert 0.0 < _oscillator_leakage(traj) == loop

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BENCH)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", cfg, "-o", str(out1)]) == 0
        assert main(["run", cfg, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("mode", ["instantaneous", "global"])
    @pytest.mark.parametrize(
        "start",
        ["equal_superposition", {"matrix": np.diag(np.arange(1.0, 9.0) / 36).tolist()}],
        ids=["pure", "mixed"],
    )
    def test_piecewise_const_report_has_the_bytes_of_decomposing_every_sample(self, tmp_path, monkeypatch, start, mode):
        """d = 8, four segments, two of them with edges off the grid: the
        report of decomposing each run of equal H(t) samples once is the
        report of decomposing every sample."""
        rng = np.random.default_rng(41)
        segments = []
        for duration in (0.3, 0.25, 0.2, 0.25):
            a = np.round(rng.normal(size=(8, 8)), 3)
            segments.append({"matrix": (a + a.T).tolist(), "duration": duration})
        doc = {
            "kind": "piecewise_const",
            "dim": 8,
            "duration": 1.0,
            "steps": 512,
            "params": {"segments": segments},
            "initial_state": start,
            "ground_shift_mode": mode,
        }
        cfg = write_config(tmp_path, doc)
        once, every = tmp_path / "once.json", tmp_path / "every.json"
        code = main(["run", cfg, "-o", str(once)])
        monkeypatch.setattr(_linalg, "once_per_run", every_matrix, raising=False)
        assert main(["run", cfg, "-o", str(every)]) == code
        assert once.read_bytes() == every.read_bytes()

    def test_module_entry_point_matches_in_process_run(self, tmp_path, capsys):
        """``python -m qspeed`` imports cleanly under -W error and writes the same report."""
        cfg = write_config(tmp_path, BENCH)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-W", "error", "-m", "qspeed", "run", cfg]
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert re.fullmatch(rb"\[qspeed\] bench: computed in [0-9.]+ ms\n", done.stderr)
        assert main(["run", cfg]) == 0
        assert done.stdout == capsys.readouterr().out.encode()

    @pytest.mark.parametrize(
        "content, verb",
        [(MALFORMED_CONFIGS[name], ["run"]) for name in ("not_utf8", "huge_integer", "deep_array")]
        + [(b"[1, 2]", ["audit", "--tol", "1e-6"])],
        ids=["not_utf8", "huge_integer", "deep_array", "audit_tol_on_list"],
    )
    def test_module_entry_point_malformed_config_exit_2(self, tmp_path, content, verb):
        """Under -W error a malformed file exits 2 with a config error and no
        traceback; only a fresh interpreter can show that none escapes."""
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-W", "error", "-m", "qspeed", verb[0], str(path), *verb[1:]]
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert done.returncode == 2, done.stderr.decode()
        assert done.stderr.startswith(b"[qspeed] config error: ") and b"Traceback" not in done.stderr

    def test_module_entry_point_overflowing_integral_exit_3(self, tmp_path):
        """The saturating run over 1e299 at hbar = 1e-10: the audit's
        integral of dE over hbar, 5e308, overflows a float.  Under -W error it
        exits 3 naming the integral, with no warning or traceback."""
        raw = {**BENCH, "steps": 64, "hbar": 1e-10, "duration": 1e299}
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-W", "error", "-m", "qspeed", "run", write_config(tmp_path, raw)]
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert done.returncode == 3, done.stderr.decode()
        assert done.stderr == b"[qspeed] error: integral of dE / hbar overflows a float\n"

    def test_module_entry_point_overflowing_pointwise_quotient_exit_3(self, tmp_path):
        """At hbar = 6e-309 the audit's pointwise dE / hbar overflows a float
        though its integrals do not.  Under -W error it exits 3 naming the
        check, with no warning or traceback."""
        raw = {
            "kind": "constant",
            "dim": 2,
            "hbar": 6e-309,
            "duration": 4.7104e-305,
            "steps": 2048,
            "params": {"matrix": [[0, 0], [0, 10]]},
            "initial_state": "equal_superposition",
        }
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-W", "error", "-m", "qspeed", "run", write_config(tmp_path, raw)]
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert done.returncode == 3, done.stderr.decode()
        assert done.stderr == b"[qspeed] error: a side of the velocity_variance check overflows a float or is NaN\n"

    def test_module_entry_point_with_threads_exits(self, tmp_path):
        """A d = 16 mixed run's midpoint stack holds more than 2 MiB, so it
        runs work on per-call threads; the interpreter still exits, under
        -W error."""
        rho = np.diag([0.5, 0.3, 0.2] + [0.0] * 13).tolist()
        cfg = write_config(tmp_path, {**OSC, "dim": 16, "steps": 2048, "initial_state": {"matrix": rho}})
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-W", "error", "-m", "qspeed", "run", cfg, "-o", str(tmp_path / "out.json")]
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert done.returncode in (0, 4), done.stderr.decode()


class TestSweepCommand:
    def test_header_order(self):
        assert SWEEP_HEADER == [
            "param_value", "tau", "bures", "e_avg", "de_avg",
            "tau_mt", "tau_ml_quad", "tau_ml_lin", "tau_qsl", "slack_min", "audit_passed",
        ]

    def test_pump_rate_sweep_monotonicity(self, tmp_path):
        cfg = write_config(tmp_path, OSC)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", cfg, "--param", "params.pump_rate", "--values", "0,0.5,1,2", "-o", str(out)]) == 0
        header, rows = csv_rows(out)
        assert header[:2] == ["param_value", "tau"] and header[-1] == "audit_passed"
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0, 2.0]
        e_avg = [float(r[header.index("e_avg")]) for r in rows]
        assert all(b > a for a, b in zip(e_avg, e_avg[1:]))
        ml = [float(r[header.index("tau_ml_lin")]) for r in rows]
        assert all(b <= a + 1e-6 * max(1.0, a) for a, b in zip(ml, ml[1:]))

    def test_hbar_sweep_exact_scaling(self, tmp_path):
        cfg = write_config(tmp_path, OSC)
        out = tmp_path / "hbar.csv"
        assert main(["sweep", cfg, "--param", "hbar", "--values", "0.5,1,2", "-o", str(out)]) == 0
        header, rows = csv_rows(out)
        get = lambda col: [float(r[header.index(col)]) for r in rows]
        bures, e_avg, de_avg, mt = get("bures"), get("e_avg"), get("de_avg"), get("tau_mt")
        # the generator H / hbar is fixed, so the trajectory is identical,
        # averaged energies scale with hbar, and the bounds cancel it exactly
        assert bures[0] == pytest.approx(bures[1], rel=1e-12)
        assert e_avg[1] == pytest.approx(2 * e_avg[0], rel=1e-9)
        assert de_avg[2] == pytest.approx(2 * de_avg[1], rel=1e-9)
        assert mt[0] == pytest.approx(mt[2], rel=1e-9)

    def test_unresolvable_param_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, OSC)
        assert main(["sweep", cfg, "--param", "params.nope", "--values", "1,2"]) == 2

    @pytest.mark.parametrize("param", ["params.nope.deeper", "params.omega0.x"], ids=["missing_key", "number"])
    def test_path_through_non_object_exit_2_names_it(self, tmp_path, capsys, param):
        cfg = write_config(tmp_path, OSC)
        assert main(["sweep", cfg, "--param", param, "--values", "1,2"]) == 2
        assert f"'{param}'" in capsys.readouterr().err

    def test_bad_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, OSC)
        assert main(["sweep", cfg, "--param", "hbar", "--values", "1,x"]) == 2

    @pytest.mark.parametrize("param, values", [("", "1,2"), ("hbar", ","), ("hbar", " ")], ids=["param", "values", "blank"])
    def test_empty_param_or_values_exit_2(self, tmp_path, param, values):
        cfg = write_config(tmp_path, OSC)
        assert main(["sweep", cfg, "--param", param, "--values", values]) == 2

    def test_integer_field_sweep(self, tmp_path):
        # a step-count convergence sweep: integer literals reach 'steps' as
        # ints, and float fields such as 'duration' take them as floats
        cfg = write_config(tmp_path, {**BENCH, "steps": 64})
        out = tmp_path / "steps.csv"
        assert main(["sweep", cfg, "--param", "steps", "--values", "16,32", "-o", str(out)]) == 0
        header, rows = csv_rows(out)
        assert [r[0] for r in rows] == ["16", "32"]
        for row in rows:
            assert float(row[header.index("bures")]) == pytest.approx(math.pi / 2, abs=1e-6)
        ints, floats = tmp_path / "ints.csv", tmp_path / "floats.csv"
        assert main(["sweep", cfg, "--param", "duration", "--values", "1,2", "-o", str(ints)]) == 0
        assert main(["sweep", cfg, "--param", "duration", "--values", "1.0,2.0", "-o", str(floats)]) == 0
        assert ints.read_bytes() == floats.read_bytes()

    def test_duration_sweep_demonstrates_speed_limit(self, tmp_path):
        # reaching angle pi/2 under diag(0, 1) from the equal superposition
        # needs tau >= pi; shorter runs top out at L = tau / 2 exactly
        cfg = write_config(tmp_path, {**BENCH, "steps": 1024})
        out = tmp_path / "dur.csv"
        assert main(["sweep", cfg, "--param", "duration", "--values", "1.0,2.0,3.0", "-o", str(out)]) == 0
        header, rows = csv_rows(out)
        for row in rows:
            tau, bures = float(row[header.index("tau")]), float(row[header.index("bures")])
            assert bures == pytest.approx(tau / 2, abs=1e-9)
            assert bures < math.pi / 2 - 0.07

    def test_failed_sweep_writes_no_partial_file(self, tmp_path):
        cfg = write_config(tmp_path, OSC)
        out = tmp_path / "partial.csv"
        assert main(["sweep", cfg, "--param", "duration", "--values", "1.0,-1.0", "-o", str(out)]) == 2
        assert not out.exists()

    def test_rows_match_single_runs(self, tmp_path):
        # a Landau-Zener run at gap 0.5 passes at this tolerance; at gap 2 it
        # needs more than its duration by the linear mean-energy bound
        cfg_doc = {
            "kind": "landau_zener",
            "dim": 2,
            "duration": 4.0,
            "steps": 256,
            "params": {"sweep_rate": 2.0, "gap": 0.5},
            "initial_state": "ground",
            "audit_tolerance": 0.1,
        }
        cfg = write_config(tmp_path, cfg_doc)
        out = tmp_path / "sweep.csv"
        assert sweep_command(cfg, "params.gap", [0.5, 2.0], str(out)) == 0
        header, rows = csv_rows(out)
        assert [row[-1] for row in rows] == ["true", "false"]
        for gap, row in zip([0.5, 2.0], rows):
            single = ProtocolConfig.from_dict({**cfg_doc, "params": {**cfg_doc["params"], "gap": gap}})
            _, report, _, failed = run_pipeline(single)
            assert float(row[0]) == gap
            for name, cell in zip(header[1:-1], row[1:-1]):
                assert float(cell) == getattr(report, name), name
            assert row[-1] == ("false" if failed else "true")


class TestAuditCommand:
    def test_benchmark_audit_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH)
        assert main(["audit", cfg]) == 0
        out = capsys.readouterr().out
        assert "velocity_variance" in out and "overlap_cosine" in out

    def test_violation_exit_4(self, tmp_path):
        raw = {**BENCH, "initial_state": {"amplitudes": [math.sqrt(0.75), 0.5]}}
        cfg = write_config(tmp_path, raw)
        assert main(["audit", cfg]) == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exit_2_names_field(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, {**BENCH, "steps": 16})
        assert main(["audit", cfg, f"--tol={tol}"]) == 2
        assert "'audit_tolerance'" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [-1, 0])
    def test_flag_and_config_tolerance_share_one_message(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, {**BENCH, "steps": 16})
        assert main(["audit", cfg, f"--tol={tol}"]) == 2
        from_flag = capsys.readouterr().err
        cfg = write_config(tmp_path, {**BENCH, "steps": 16, "audit_tolerance": tol})
        assert main(["audit", cfg]) == 2
        assert capsys.readouterr().err == from_flag

    @pytest.mark.parametrize("flags", [[], ["--tol", "1e-6"]])
    def test_non_object_config_exit_2(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["audit", cfg, *flags]) == 2
        assert capsys.readouterr().err == "[qspeed] config error: config must be a JSON object\n"

    @pytest.mark.parametrize("state", ["equal_superposition", {"matrix": [[0.7, 0.1], [0.1, 0.3]]}])
    def test_audit_writes_the_run_report(self, tmp_path, state):
        cfg = write_config(tmp_path, {**BENCH, "steps": 64, "initial_state": state})
        assert main(["audit", cfg, "-o", str(tmp_path / "a.json")]) == main(["run", cfg, "-o", str(tmp_path / "r.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "r.json").read_bytes()


class TestFisherCommand:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_inverse_width(self, tmp_path, sigma):
        out = tmp_path / "fisher.csv"
        assert fisher_command(sigma, str(out)) == 0
        header, rows = csv_rows(out)
        assert header == ["t", "fisher_information", "inv_sigma_sq", "wootters_velocity_sq"]
        for row in rows:
            j, ref, wv2 = float(row[1]), float(row[2]), float(row[3])
            assert j == pytest.approx(ref, rel=1e-3)
            assert wv2 == pytest.approx(j, rel=1e-2)

    @pytest.mark.parametrize("sigma", [0.5, 1e6])
    def test_track_is_the_per_row_formula(self, sigma):
        # one broadcast builds the table; each row keeps the bits of the per-t density
        track = gaussian_shift_track(sigma)
        x = track.grid
        for i, t in enumerate(track.parameter_values):
            row = np.exp(-((x - float(t)) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
            assert np.array_equal(track.densities[i], row)

    def test_bad_sigma_exit_2(self):
        assert main(["fisher", "--sigma", "-1"]) == 2

    # 1e200 and 1e-320 over- and underflow sigma**2; 1e154 overflows the
    # squared offsets of the density's 8-sigma grid; 1e9 is past the widest
    # Gaussian that the 0.005 parameter step resolves
    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "0", "1e200", "1e-320", "1e154", "1e9"])
    def test_unusable_sigma_exit_2_names_sigma(self, capsys, sigma):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fisher", f"--sigma={sigma}"]) == 2
        captured = capsys.readouterr()
        assert "'sigma'" in captured.err and captured.out == ""
        assert caught == []

    def test_narrow_sigma_exit_3_names_normalization(self, capsys):
        assert main(["fisher", "--sigma", "1e-3"]) == 3
        assert "density normalization off" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [1e6, 1e8])
    def test_widest_sigmas_resolved(self, tmp_path, sigma):
        # angles of ~5e-9 between neighbouring densities: the arccos route
        # read wootters_velocity_sq * sigma**2 = 17.8 at sigma = 1e6
        out = tmp_path / "fisher.csv"
        assert fisher_command(sigma, str(out)) == 0
        _, rows = csv_rows(out)
        for row in rows:
            assert float(row[1]) * sigma**2 == pytest.approx(1.0, abs=1e-4)
            assert float(row[3]) * sigma**2 == pytest.approx(1.0, abs=1e-4)
