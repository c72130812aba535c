import json
import os

import pytest

from vertexforge.cli import main
from vertexforge.harness import (
    InvalidCheckSpec,
    calibrate,
    compute,
    request_key,
    run_check,
)
from vertexforge.characters import DEFAULT_CONVENTION


class TestRunCheck:
    def test_unknown_check(self):
        with pytest.raises(InvalidCheckSpec):
            run_check("nope")

    def test_unknown_param(self):
        with pytest.raises(InvalidCheckSpec):
            run_check("egl", {"bogus": 1})

    def test_bad_value(self):
        with pytest.raises(InvalidCheckSpec):
            run_check("egl", {"n_values": [-1]})

    def test_small_egl(self):
        rep = run_check("egl", {"n_values": [1, 2], "u_orders": [2], "samples": 1})
        assert rep.verdict == "pass" and rep.exit_code == 0


class TestCache:
    def test_roundtrip_and_hit(self, tmp_path):
        req = {
            "type": "vertex",
            "theory": "DT",
            "boundary": {"kind": "leg", "shape": []},
            "qorder": 2,
            "seed": 3,
        }
        blob1, hit1 = compute(req, None, str(tmp_path))
        blob2, hit2 = compute(req, None, str(tmp_path))
        assert not hit1 and hit2
        assert blob1 == blob2  # byte-identical from cache

    def test_key_depends_on_convention(self):
        req = {"type": "vertex", "qorder": 1}
        from vertexforge.characters import Convention

        k1 = request_key(req, DEFAULT_CONVENTION)
        k2 = request_key(req, Convention(1, "t1t2", 1, 0))
        assert k1 != k2

    def test_truncation_coherence(self, tmp_path):
        base = {
            "type": "vertex",
            "theory": "DT",
            "boundary": {"kind": "leg", "shape": []},
            "seed": 3,
        }
        b2, _ = compute({**base, "qorder": 2}, None, str(tmp_path))
        b3, _ = compute({**base, "qorder": 3}, None, str(tmp_path))
        c2 = json.loads(b2)["result"]["coeffs"]
        c3 = json.loads(b3)["result"]["coeffs"]
        assert c3[: len(c2)] == c2


class TestCalibrate:
    def test_unique_winner(self):
        doc = calibrate()
        assert doc["winner_count"] == 1
        assert doc["winner"] == DEFAULT_CONVENTION.to_json()


class TestCLI:
    def test_check_exit_codes(self, tmp_path, capsys):
        rc = main(["check", "egl", "--params", '{"n_values": [1], "samples": 1}'])
        assert rc == 0
        capsys.readouterr()

    def test_invalid_params(self, capsys):
        rc = main(["check", "egl", "--params", '{"n_values": [-1]}'])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name,params", [
        ("mainpt", '{"shapes": [[1, 2]]}'), ("mainpt", '{"shapes": "x"}'),
        ("mainpt", '{"samples": 0}'), ("mainpt", '{"qorder": true}'),
        ("egl", '{"n_values": [true]}'), ("ptint", '{"degrees": [[0]]}'),
        ("simple", '{"degrees": [[-1, -1]]}'),
    ])
    def test_invalid_params_exit_2(self, name, params, capsys):
        rc = main(["check", name, "--params", params])
        assert rc == 2
        assert "invalid check spec" in capsys.readouterr().err

    def test_vacuous_mainpt_fails(self, capsys):
        # lambda = (1), q <= 1, u <= 1: both bases compare only zeros
        rc = main(["check", "mainpt", "--params",
                   '{"shapes": [[1]], "qorder": 1, "uorder": 1, "samples": 1}'])
        assert rc == 1
        capsys.readouterr()

    def test_malformed_json(self, capsys):
        rc = main(["compute", "{not json"])
        assert rc == 2
        capsys.readouterr()

    def test_compute_and_report(self, tmp_path, capsys):
        req = json.dumps(
            {"type": "vertex", "theory": "DT",
             "boundary": {"kind": "leg", "shape": []}, "qorder": 1, "seed": 1}
        )
        out = str(tmp_path / "result.json")
        rc = main(["--cache-dir", str(tmp_path / "cache"), "compute", req, "--out", out])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", out])
        assert rc == 0
        capsys.readouterr()

    def test_csv_format(self, capsys):
        rc = main(["--format", "csv", "check", "slices", "--params", '{"qorder": 2, "count_upto": 3}'])
        out = capsys.readouterr().out
        assert rc == 0 and "counts" in out
