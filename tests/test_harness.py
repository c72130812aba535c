import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertexforge
from vertexforge import harness
from vertexforge.cli import main
from vertexforge.harness import (
    InvalidCheckSpec,
    canonical_json,
    compute,
    request_key,
    run_check,
)
from vertexforge.characters import DEFAULT_CONVENTION, Convention, all_conventions


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

    def test_samples_above_three(self):
        rep = run_check("egl", {"n_values": [1], "u_orders": [2], "samples": 5})
        assert [c["sample"] for c in rep.cases] == [0, 1, 2, 3, 4]
        assert rep.verdict == "pass"


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

    @pytest.mark.parametrize("conv", [
        Convention(-1.0, "t1t2t3", -1, -1), Convention(-1, "t1t2t3", -1, True),
        Convention(2), Convention(-1, "t3"), (-1, "t1t2t3", -1, -1), "t1t2t3",
        Convention([-1], "t1t2t3"),
    ] + [c for c in all_conventions() if c != DEFAULT_CONVENTION])
    def test_convention_outside_the_candidates_is_invalid(self, conv, tmp_path):
        # the harness serves the shipped convention only, and the other 23
        # candidates are refused like any other value; a float field used to
        # reach Fraction and raise TypeError; nothing is computed or written
        with pytest.raises(InvalidCheckSpec):
            compute({"type": "vertex", "qorder": 1}, conv, str(tmp_path))
        with pytest.raises(InvalidCheckSpec):
            request_key({"type": "vertex", "qorder": 1}, conv)
        assert not list(tmp_path.iterdir())

    def test_bool_convention_field_is_invalid(self, tmp_path):
        # Convention(-1, ..., True) would be spelled `"hilb_norm": true`
        req = {"type": "vertex", "qorder": 1}
        with pytest.raises(InvalidCheckSpec):
            compute(req, Convention(-1, "t1t2t3", -1, True), str(tmp_path))
        assert not list(tmp_path.iterdir())
        blob, _ = compute(req, Convention(-1, "t1t2t3", -1, -1), str(tmp_path))
        assert json.loads(blob)["convention"]["hilb_norm"] == -1

    def test_key_spelled_out_under_every_convention(self):
        # the key under the shipped convention, the only one served, given
        # or None, is the checksum of the spelled-out canonical payload
        req = {"type": "glue", "theory": "DT", "degrees": [1, -3], "qorder": 2, "seed": 5}
        payload = json.dumps({"convention": DEFAULT_CONVENTION.to_json(), "request": req,
                              "version": harness.engine_fingerprint()},
                             sort_keys=True, separators=(",", ":")).encode()
        spelled_out = f"{zlib.crc32(payload):08x}{zlib.adler32(payload):08x}"
        assert request_key(req, DEFAULT_CONVENTION) == request_key(req, None) == spelled_out

    def test_entry_removed_between_calls_is_rewritten(self, tmp_path):
        req = {"type": "vertex", "theory": "PT", "boundary": {"kind": "chern", "shape": [1]},
               "qorder": 1, "seed": 6}
        blob, hit = compute(req, DEFAULT_CONVENTION, str(tmp_path))
        path = tmp_path / f"{request_key(req, DEFAULT_CONVENTION)}.json"
        assert not hit and path.read_bytes() == blob
        path.unlink()
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (blob, False)
        assert path.read_bytes() == blob
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (blob, True)

    def test_forced_collision_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_digest", lambda *parts: "0" * 16)
        base = {"type": "vertex", "theory": "DT", "boundary": {"kind": "leg", "shape": []},
                "seed": 3}
        b1, hit1 = compute({**base, "qorder": 1}, None, str(tmp_path))
        b2, hit2 = compute({**base, "qorder": 2}, None, str(tmp_path))
        assert not hit1 and not hit2
        assert json.loads(b2)["request"]["qorder"] == 2
        assert len(json.loads(b2)["result"]["coeffs"]) == 3
        assert os.listdir(tmp_path) == ["0" * 16 + ".json"]  # no temp file left
        # the file now holds the second request; the first is recomputed
        b3, hit3 = compute({**base, "qorder": 1}, None, str(tmp_path))
        assert not hit3 and b3 == b1

    def test_corrupt_file_is_recomputed(self, tmp_path):
        req = {"type": "vertex", "theory": "DT", "boundary": {"kind": "leg", "shape": []},
               "qorder": 1, "seed": 3}
        path = tmp_path / (request_key(req, DEFAULT_CONVENTION) + ".json")
        path.write_bytes(b"[1, 2")
        blob, hit = compute(req, DEFAULT_CONVENTION, str(tmp_path))
        assert not hit and json.loads(blob)["recomputed_after_corruption"]
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (path.read_bytes(), True)
        path.write_bytes(blob[:-1])  # truncated
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (blob, False)

    def test_hit_check_matches_the_written_document(self, tmp_path):
        req = {"type": "glue", "theory": "PT", "n": 1, "degrees": (-1, -1), "qorder": 1,
               "seed": 2, "descendents_zero": [{"variable": "u", "order": 1}]}
        blob, _ = compute(req, DEFAULT_CONVENTION, str(tmp_path))
        doc = json.loads(blob)
        assert blob == canonical_json(doc).encode()
        payload = canonical_json({k: doc[k] for k in ("request", "convention", "version")}).encode()
        assert doc["key"] == request_key(req, DEFAULT_CONVENTION) == (
            f"{zlib.crc32(payload):08x}{zlib.adler32(payload):08x}")
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (blob, True)
        other = dict(req, seed=3)
        assert not harness._is_entry_of(
            blob, doc["key"], canonical_json(other), canonical_json(doc["convention"]),
            canonical_json(doc["version"]))

    def test_changed_engine_fingerprint_misses(self, tmp_path, monkeypatch):
        req = {"type": "vertex", "theory": "PT", "boundary": {"kind": "fixedpoint", "shape": [1]},
               "qorder": 2, "seed": 4}
        blob, _ = compute(req, DEFAULT_CONVENTION, str(tmp_path))
        assert json.loads(blob)["version"] == harness.engine_fingerprint()
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (blob, True)
        old_key = request_key(req, DEFAULT_CONVENTION)
        monkeypatch.setattr(harness, "engine_fingerprint",
                            lambda: vertexforge.__version__ + "+0123456789abcdef")
        new_key = request_key(req, DEFAULT_CONVENTION)
        assert new_key != old_key
        # an old engine's entry left under the new key is not served either
        (tmp_path / f"{new_key}.json").write_bytes(blob)
        fresh, hit = compute(req, DEFAULT_CONVENTION, str(tmp_path))
        doc = json.loads(fresh)
        assert not hit and not doc["recomputed_after_corruption"]
        assert doc["version"] == vertexforge.__version__ + "+0123456789abcdef"
        assert doc["key"] == new_key and doc["result"] == json.loads(blob)["result"]
        assert compute(req, DEFAULT_CONVENTION, str(tmp_path)) == (fresh, True)

    def test_engine_fingerprint_follows_the_sources(self, tmp_path):
        shutil.copytree(Path(vertexforge.__file__).parent, tmp_path / "vertexforge",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = "from vertexforge import harness; print(harness.engine_fingerprint())"
        env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")

        def fingerprint():
            return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                                  capture_output=True, text=True, check=True).stdout.strip()

        assert fingerprint() == harness.engine_fingerprint()
        with open(tmp_path / "vertexforge" / "vertex.py", "a") as fh:
            fh.write("# edited\n")
        assert fingerprint() != harness.engine_fingerprint()

    def test_no_openssl_import(self):
        src = str(Path(vertexforge.__file__).resolve().parents[1])
        code = "import sys, vertexforge.harness; sys.exit(2 if '_hashlib' in sys.modules else 0)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

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

    @pytest.mark.parametrize("line", ["check.egl = [1]", "check.egl = {not json"])
    def test_config_params_not_an_object_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = main(["--config", str(cfg), "check", "egl"])
        assert rc == 2
        assert "config check.egl" in capsys.readouterr().err

    def test_convention_environment_variable_is_ignored(self, tmp_path):
        # nothing picks a convention; a process started with a convention
        # variable naming a non-JSON file runs the shipped one
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        src = str(Path(vertexforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, VERTEXFORGE_CONVENTION=str(bad))
        proc = subprocess.run([sys.executable, "-m", "vertexforge.cli", "check", "slices", "--params",
                               '{"qorder": 2, "count_upto": 3}'], env=env, timeout=120,
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["convention"] == DEFAULT_CONVENTION.to_json()

    def test_simple_fails_on_a_shifted_factorization(self, monkeypatch):
        # the factorization is compared at shift 0: a degree-0 factor off by
        # one power of q is a violation
        import vertexforge.localcurve as localcurve

        dt0 = localcurve.dt0_localcurve

        def shifted(degrees, s, qorder, conv):
            return [0] + dt0(degrees, s, qorder, conv)[:-1]

        monkeypatch.setattr(localcurve, "dt0_localcurve", shifted)
        rep = run_check("simple", {"samples": 1})
        assert rep.verdict == "fail"
        assert rep.cases[0]["factorization"] is False and rep.cases[0]["q_shift"] == 0

    @pytest.mark.parametrize("c_values", [[-1], [0]])
    def test_spec_poly_c_below_one_exit_2(self, c_values, capsys):
        # the closed two-column form is stated for c >= 1 only
        rc = main(["check", "spec-poly", "--params", json.dumps({"c_values": c_values})])
        assert rc == 2
        assert "invalid check spec" in capsys.readouterr().err

    def test_spec_poly_too_small_fit_exit_2(self, capsys):
        # one fit point gives a constant; the per-k values are linear
        rc = main(["check", "spec-poly", "--params", '{"fit_upto": 0}'])
        assert rc == 2
        assert "fit_upto 0 is too small" in capsys.readouterr().err
        rc = main(["check", "spec-poly", "--params", '{"fit_upto": 1}'])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cases"][-1] == {"control_off_line": "non-polynomial", "control_ok": True}

    def test_spec_poly_grid_order_and_repeats(self, capsys):
        shuffled = run_check("spec-poly", {"grid": [8, 0, 7, 1, 6, 2, 5, 3, 4]})
        assert shuffled.verdict == "pass"
        assert shuffled.cases == run_check("spec-poly").cases
        rc = main(["check", "spec-poly", "--params", '{"grid": [0, 0, 1, 2, 3], "fit_upto": 1}'])
        assert rc == 2
        assert "must be distinct" in capsys.readouterr().err

    def test_simple_one_sample_leaves_independence_untested(self):
        # one sample compares its series with itself: the row reads null and
        # the verdict rests on the factorization
        rep = run_check("simple", {"samples": 1})
        assert rep.verdict == "pass"
        assert rep.cases[0]["pt_parameter_independent"] is None
        rep = run_check("simple", {"samples": 2})
        assert rep.cases[0]["pt_parameter_independent"] is True

    def test_vacuous_mainpt_is_invalid(self, capsys):
        # lambda = (1), q <= 1, u <= 1: both bases would compare only zeros
        rc = main(["check", "mainpt", "--params",
                   '{"shapes": [[1]], "qorder": 1, "uorder": 1, "samples": 1}'])
        assert rc == 2
        assert "uorder >= 2" in capsys.readouterr().err

    def test_malformed_json(self, capsys):
        rc = main(["compute", "{not json"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("request_json", [
        '[1]',
        '{"type": "vertex", "qorder": "3"}',
        '{"type": "vertex", "theory": "DT", "boundary": {"kind": "leg", "shape": [1]}, '
        '"qorder": 2, "descendents": [{"variable": "u", "order": -1}]}',
        '{"type": "vertex", "theory": "DT", "boundary": {"kind": "leg", "shape": [1]}, '
        '"qorder": 2, "descendents": [{"variable": "u", "order": 1}, '
        '{"variable": "u", "order": 1}]}',
        # fields the computation would ignore: DT is computed with a leg,
        # and only the infinity vertex's descendents may sit at 'inf'
        '{"type": "vertex", "theory": "DT", "boundary": {"kind": "fixedpoint", "shape": [1]}, '
        '"qorder": 1}',
        '{"type": "vertex", "theory": "PT", "qorder": 1, '
        '"descendents": [{"variable": "u", "order": 1, "insertion": "inf"}]}',
        '{"type": "glue", "qorder": 1, '
        '"descendents_zero": [{"variable": "u", "order": 1, "insertion": "inf"}]}',
    ])
    def test_invalid_request_exit_2(self, request_json, tmp_path, capsys):
        cache = tmp_path / "cache"
        rc = main(["--cache-dir", str(cache), "compute", request_json])
        assert rc == 2
        assert "invalid request" in capsys.readouterr().err
        assert not cache.exists() or not os.listdir(cache)

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

    def test_config_format_applies(self, tmp_path, capsys):
        cfg = tmp_path / "csv.cfg"
        cfg.write_text("format = csv\n")
        rc = main(["--config", str(cfg), "check", "slices", "--params",
                   '{"qorder": 2, "count_upto": 3}'])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("counts,")

    @pytest.mark.parametrize("line", ["formt = csv", 'check.eg1 = {"samples": 1}', "junk line",
                                      "check.egl", "= csv", "cache-dir = x"])
    def test_config_unknown_line_exit_2(self, line, tmp_path, capsys):
        # a misspelled key used to be skipped and the check run without it
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n\nformat = json\n{line}\n")
        rc = main(["--config", str(cfg), "check", "slices", "--params",
                   '{"qorder": 2, "count_upto": 3}'])
        captured = capsys.readouterr()
        assert rc == 2 and not captured.out
        assert f"invalid config file {cfg}: line 4 {line!r}" in captured.err

    def test_default_config_follows_the_same_rule(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "vertexforge.cfg"
        cfg.write_text("formt = csv\n")
        assert main(["check", "slices", "--params", '{"qorder": 2, "count_upto": 3}']) == 2
        assert "invalid config file vertexforge.cfg: line 1 'formt = csv'" in capsys.readouterr().err
        cfg.write_text('# every key\n\nformat = csv\ncache_dir = cache\n'
                       'check.slices = {"qorder": 2, "count_upto": 3}\n')
        assert main(["check", "slices"]) == 0
        assert capsys.readouterr().out.startswith("counts,")

    @pytest.mark.parametrize("argv", [["calibrate"], ["--convention", "f", "check", "slices"]])
    def test_removed_verb_and_option_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: vertexforge" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "report not json", "report array", "compute missing file", "config format xml",
        "config missing", "report unknown verdict", "report verdict capitalized",
        "spec-poly uorder 0", "spec-poly uorder 1", "mainpt uorder 0", "mainpt uorder 1",
        "ptint uorder 0", "ptint uorder 1", "measure-ratio kmax 0", "slices count_upto 0",
        "slices qorder 0", "check out in missing dir", "compute out in missing dir",
        "cache dir a file", "cache variable a file",
    ])
    def test_invalid_input_exit_2(self, case, tmp_path, monkeypatch, capsys):
        # an output or cache path that cannot be written is invalid input,
        # never a violation: a passing check is not reported as failing
        files = {"bad.json": "{not json", "array.json": "[1, 2]", "empty.json": "{}",
                 "xml.cfg": "format = xml\n", "bogus.json": '{"verdict": "bogus"}',
                 "capital.json": '{"verdict": "Pass"}', "file": ""}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        check = ["check", "slices", "--params", '{"qorder": 2, "count_upto": 3}']
        compute = ["compute", '{"type": "vertex", "qorder": 1}']
        argv = {
            "report not json": ["report", "bad.json"],
            "report array": ["report", "array.json"],
            "compute missing file": cache + ["compute", "@missing.json"],
            "config format xml": ["--config", "xml.cfg", "report", "empty.json"],
            "config missing": ["--config", "missing.cfg", "report", "empty.json"],
            "report unknown verdict": ["report", "bogus.json"],
            "report verdict capitalized": ["report", "capital.json"],
            "spec-poly uorder 0": ["check", "spec-poly", "--params", '{"uorder": 0}'],
            "spec-poly uorder 1": ["check", "spec-poly", "--params", '{"uorder": 1}'],
            "mainpt uorder 0": ["check", "mainpt", "--params", '{"uorder": 0}'],
            "mainpt uorder 1": ["check", "mainpt", "--params", '{"uorder": 1}'],
            "ptint uorder 0": ["check", "ptint", "--params", '{"uorder": 0}'],
            "ptint uorder 1": ["check", "ptint", "--params", '{"uorder": 1}'],
            # each row would compare Exp(0) = 1 with 1
            "measure-ratio kmax 0": ["check", "measure-ratio", "--params", '{"kmax": 0}'],
            # the plane-partition count 1 with 1, or the constant series 1
            "slices count_upto 0": ["check", "slices", "--params", '{"count_upto": 0}'],
            "slices qorder 0": ["check", "slices", "--params", '{"qorder": 0}'],
            "check out in missing dir": check + ["--out", "missing/r.json"],
            "compute out in missing dir": cache + compute + ["--out", "missing/r.json"],
            "cache dir a file": ["--cache-dir", "file"] + compute,
            "cache variable a file": compute,
        }[case]
        if case == "cache variable a file":
            monkeypatch.setenv("VERTEXFORGE_CACHE", "file")
        monkeypatch.chdir(tmp_path)
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "invalid" in err and "Traceback" not in err


# --- malformed input never crashes: every one exits 2 with a message ------

_NOT_INT = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.lists(st.integers(-2, 2), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_BAD_SHAPES = st.one_of(
    _NOT_INT.filter(lambda x: not isinstance(x, list) or not x), st.just([[]]),
    st.lists(st.lists(st.one_of(st.integers(-2, 0), st.booleans(), st.text(max_size=1)),
                      min_size=1, max_size=3), min_size=1, max_size=2),
    st.just([[1, 2]]), st.just([[2, 1], [1, 3]]),
)
_BAD_PAIR = st.one_of(_NOT_INT.filter(lambda x: not (isinstance(x, list) and len(x) == 2)),
                      st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                      st.lists(st.one_of(st.booleans(), st.text(max_size=1)), min_size=2, max_size=2))


@st.composite
def _bad_check(draw):
    """(name, params): one parameter of a check malformed, an unknown key,
    or a size at which the check has no case."""
    name = draw(st.sampled_from(sorted(harness.CHECKS)))
    keys = sorted(harness.CHECK_DEFAULTS[name])
    kind = draw(st.sampled_from(["unknown", "value", "zero-case", "not-object"]))
    if kind == "unknown":
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in keys))
        return name, {key: draw(st.integers())}
    if kind == "zero-case":
        return draw(st.sampled_from([("measure-ratio", {"max_size": 0}),
                                     ("measure-ratio", {"max_size": 0, "kmax": 0}),
                                     ("simple", {"qorder": 0}),
                                     ("spec-poly", {"grid": [0, 1, 2], "fit_upto": 5}),
                                     ("spec-poly", {"grid": [6, 7, 8]})]))
    if kind == "not-object":
        return name, draw(st.one_of(st.lists(st.integers(), max_size=2), st.integers(),
                                    st.text(max_size=3)))
    key = draw(st.sampled_from(keys))
    if key in harness._INT_PARAMS:
        bad = st.one_of(_NOT_INT, st.integers(max_value=harness._INT_PARAMS[key] - 1))
        if key == "u_total":  # null is a valid total order
            bad = bad.filter(lambda x: x is not None)
    elif key in harness._INT_LIST_PARAMS:
        least = harness._INT_LIST_PARAMS[key]
        element = st.one_of(st.booleans(), st.none(), st.text(max_size=2),
                            st.integers(max_value=least - 1))
        bad = st.one_of(_NOT_INT.filter(lambda x: not isinstance(x, list) or not x),
                        st.lists(element, min_size=1, max_size=3))
    elif key == "shapes":
        bad = _BAD_SHAPES
    else:  # degrees: one pair for simple, a non-empty list of pairs for ptint
        bad = _BAD_PAIR if name == "simple" else st.one_of(
            _NOT_INT.filter(lambda x: not isinstance(x, list) or not x),
            st.lists(_BAD_PAIR, min_size=1, max_size=2))
    return name, {key: draw(bad)}


_VALID_VERTEX = {"type": "vertex", "theory": "PT", "boundary": {"kind": "fixedpoint", "shape": [1]},
                 "qorder": 1, "seed": 1}
_VALID_GLUE = {"type": "glue", "theory": "PT", "degrees": [-1, -1], "n": 1, "qorder": 1, "seed": 1}


@st.composite
def _bad_request(draw):
    """A compute request with one field malformed, or not an object."""
    kind = draw(st.sampled_from(["not-object", "type", "unknown", "int", "theory", "boundary",
                                 "descendents", "degrees"]))
    if kind == "not-object":
        return draw(st.one_of(st.lists(st.integers(), max_size=2), st.integers(),
                              st.text(max_size=3), st.none()))
    req = dict(draw(st.sampled_from([_VALID_VERTEX, _VALID_GLUE])))
    if kind == "type":
        req["type"] = draw(st.one_of(_NOT_INT, st.text(max_size=5)).filter(
            lambda x: x not in ("vertex", "glue")))
    elif kind == "unknown":
        req[draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in harness._REQUEST_KEYS[req["type"]]))] = 1
    elif kind == "int":
        key = draw(st.sampled_from(["qorder", "seed"] + (["n"] if req["type"] == "glue" else [])))
        req[key] = draw(st.one_of(_NOT_INT, st.integers(max_value=-1)))
    elif kind == "theory":
        req["theory"] = draw(st.one_of(_NOT_INT, st.text(max_size=3)).filter(
            lambda x: x not in ("PT", "DT")))
    elif kind == "boundary" and req["type"] == "vertex":
        req["boundary"] = draw(st.one_of(
            _NOT_INT.filter(lambda x: not isinstance(x, dict)),
            # a shape list of the check parameters, not one partition
            st.builds(lambda s: {"kind": "fixedpoint", "shape": s}, _BAD_SHAPES.filter(
                lambda s: s not in ([], [[]]))),
            st.builds(lambda k: {"kind": k, "shape": [1]}, st.one_of(
                _NOT_INT, st.sampled_from(["leg", "x"]))),
            st.just({"kind": "fixedpoint", "shape": [1], "extra": 1})))
    elif kind == "degrees" and req["type"] == "glue":
        req["degrees"] = draw(_BAD_PAIR)
    else:  # descendents
        key = "descendents" if req["type"] == "vertex" else "descendents_zero"
        good = {"variable": "u", "order": 1}
        spec = draw(st.one_of(
            st.builds(lambda o: {**good, "order": o}, st.one_of(_NOT_INT, st.integers(max_value=-1))),
            st.builds(lambda v: {**good, "variable": v}, _NOT_INT.filter(lambda x: not isinstance(x, str))),
            st.builds(lambda m: {**good, "mode": m}, st.one_of(_NOT_INT, st.just("chx"))),
            st.builds(lambda i: {**good, "insertion": i}, st.one_of(
                _NOT_INT.filter(lambda x: x != 0 or isinstance(x, bool)), st.just("zero"))),
            st.just({"variable": "u"}), st.just({**good, "extra": 1}), _NOT_INT,
        ))
        req[key] = draw(st.one_of(st.just([spec]), st.just([good, good]),
                                  _NOT_INT.filter(lambda x: not isinstance(x, list) and x is not None)))
    return req


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


class TestMalformedInput:
    @settings(max_examples=150, deadline=5000)
    @given(case=_bad_check())
    def test_check_params_exit_2(self, case):
        name, params = case
        rc, err = _run_cli(["check", name, "--params", json.dumps(params)])
        assert rc == 2, (name, params, err)
        assert "invalid" in err and "Traceback" not in err

    @settings(max_examples=150, deadline=5000)
    @given(req=_bad_request())
    def test_compute_requests_exit_2(self, req, tmp_path_factory):
        cache = tmp_path_factory.mktemp("cache")
        rc, err = _run_cli(["--cache-dir", str(cache), "compute", json.dumps(req)])
        assert rc == 2, (req, err)
        assert "invalid" in err and "Traceback" not in err
        assert not os.listdir(cache)
