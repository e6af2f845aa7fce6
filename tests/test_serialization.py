"""Canonical JSON, certificate fidelity, and the command line surface."""

import json
import runpy
import sys
import warnings

import numpy as np
import pytest

from fraisse import trace_states
from fraisse.amalgam import nap_amalgamate
from fraisse.certify import (
    Certificate,
    canonical_dumps,
    content_hash,
    fmt_real,
    fmt_vector,
    map_from_json,
    map_to_json,
    modulus_from_json,
    modulus_to_json,
    parse_real,
    space_from_json,
    space_to_json,
    verify_certificate,
)
from fraisse.chains import ExtensionResult
from fraisse.cli import main
from fraisse.spaces import BANACH, FUNCTION_SYSTEM, LinearMap, LinfSpace, NormedSpace
from fraisse.unital import minimality_map, simplex_system, system_from_json, system_to_json


def test_real_roundtrip_is_exact():
    rng = np.random.default_rng(109)
    for x in [0.0, 1.0, -1.0, 1e-300, -2.5e17, np.pi, *(rng.normal(size=20))]:
        assert parse_real(fmt_real(x)) == float(x)


def test_canonical_dumps_sorted_and_tight():
    s = canonical_dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'
    assert content_hash({"a": 1}) != content_hash({"a": 2})
    assert content_hash({"x": 1, "y": 2}) == content_hash({"y": 2, "x": 1})


def test_space_and_map_roundtrip():
    sp = NormedSpace([[1.0, 0.5], [0.25, -1.0]], label="probe")
    back = space_from_json(space_to_json(sp))
    assert np.array_equal(back.norming, sp.norming)
    assert back.label == "probe"
    t = LinearMap(sp, LinfSpace(3), np.arange(6.0).reshape(3, 2) / 7.0)
    tb = map_from_json(map_to_json(t))
    assert np.array_equal(tb.matrix, t.matrix)
    assert tb.dom.dim == 2 and tb.cod.dim == 3


def test_function_system_roundtrip_keeps_unit():
    sys3 = simplex_system(3)
    back = system_from_json(system_to_json(sys3))
    assert np.array_equal(back.unit, sys3.unit)
    assert np.array_equal(back.norming, sys3.norming)


def test_modulus_roundtrip_rejects_unknown_kinds():
    for modulus in (BANACH, FUNCTION_SYSTEM):
        assert modulus_from_json(modulus_to_json(modulus)) == modulus
    # neither a misspelt kind nor a dict may fall back to the 2*delta class
    for bad in ("Banach", {"kind": "banach"}):
        with pytest.raises(ValueError, match="unknown modulus kind"):
            modulus_from_json(bad)


def test_certificate_payload_roundtrip(tmp_path):
    mini = minimality_map([0.5, 0.5], np.full(10, 0.1), eps=0.5).certificate
    phi = LinearMap(LinfSpace(1), LinfSpace(2), [[1.0], [0.0]])
    f = LinearMap(LinfSpace(1), LinfSpace(1), [[1.0]])
    g = LinearMap(LinfSpace(2), LinfSpace(1), [[1.0, 0.0]])
    ext = ExtensionResult(g, 3, 0.0, 0.0, "extend", 0.05, BANACH, 0.15).certificate(phi, f)
    for cert, keys in ((mini, {"block_mass"}), (ext, {"distortion", "stage"})):
        assert set(cert.payload) == keys
        path = tmp_path / f"{cert.claim}.json"
        path.write_text(json.dumps(cert.to_json()))
        back = Certificate.from_json(json.loads(path.read_text()))
        assert back.payload == cert.payload
        assert back.inputs_hash == cert.inputs_hash
    older = mini.to_json()
    del older["payload"]
    assert Certificate.from_json(older).payload == {}


def test_certificate_roundtrip_and_tamper(tmp_path):
    cert = Certificate("minimality_defect", {"v": fmt_vector([0.5, 0.5])}, 0.5, 0.1)
    data = cert.to_json()
    back = Certificate.from_json(data)
    assert back.claim == cert.claim
    assert back.measured == cert.measured
    assert back.passed
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert Certificate.from_json(json.loads(path.read_text())).inputs_hash == cert.inputs_hash
    tampered = dict(data)
    tampered["inputs"] = {"v": fmt_vector([0.4, 0.6])}
    with pytest.raises(ValueError, match="hash"):
        Certificate.from_json(tampered)


def test_certificate_failure_is_reported_not_hidden():
    cert = Certificate("whatever", {}, 0.1, 0.5)
    assert not cert.passed
    assert "FAIL" in cert.summary_line()
    assert cert.slack < 0


@pytest.mark.parametrize("claim", ["no_such_claim", "unital_perturbation", "kernel_residual"])
def test_verify_unknown_claim_raises(claim, tmp_path, capsys):
    # the last two were once registered; their old certificate files fail loudly
    cert = Certificate(claim, {}, 1.0, 0.0)
    with pytest.raises(KeyError, match="no verifier"):
        verify_certificate(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json()))
    assert main(["verify", str(path)]) == 2
    assert "no verifier registered for claim" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_build_commands_write_artifacts(tmp_path, capsys):
    rc = main(["build-gurarij", "--depth", "1", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    arts = list(tmp_path.glob("gurarij-*.json"))
    assert len(arts) == 1
    data = json.loads(arts[0].read_text())
    assert data["kind"] == "gurarij"
    rc = main(["build-poulsen", "--depth", "1", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert list(tmp_path.glob("poulsen-*.json"))
    out = capsys.readouterr().out
    assert "[pass]" in out and "artifact" in out


def test_cli_build_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["build-gurarij", "--depth", "1"])
    assert exc.value.code == 2


def test_cli_certify_extension_verify_roundtrip(tmp_path, capsys):
    rc = main(
        ["certify-extension", "--depth", "2", "--seed", "4", "--out", str(tmp_path)]
    )
    assert rc == 0
    cert = next(tmp_path.glob("extension-cert-*.json"))
    rc = main(["verify", str(cert)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "faithful True" in out


def test_cli_homogeneity_certificate_verifies(tmp_path, capsys):
    rc = main(["homogeneity", "--depth", "1", "--seed", "0", "--rounds", "2", "--out", str(tmp_path)])
    assert rc == 0
    cert = next(tmp_path.glob("homogeneity-cert-*.json"))
    assert f"certificate {cert}" in capsys.readouterr().out
    assert main(["verify", str(cert)]) == 0
    assert "back_and_forth_defect" in capsys.readouterr().out


def test_cli_runs_as_a_module(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fraisse", "check-face"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # runpy: fraisse.cli is imported already
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("fraisse.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("[pass] facial_quotient")


def test_cli_verify_missing_file_is_resource_error(tmp_path):
    rc = main(["verify", str(tmp_path / "nope.json")])
    assert rc == 2


def test_cli_verify_tampered_certificate(tmp_path, capsys):
    rc = main(
        ["certify-extension", "--depth", "2", "--seed", "4", "--out", str(tmp_path)]
    )
    assert rc == 0
    path = next(tmp_path.glob("extension-cert-*.json"))
    data = json.loads(path.read_text())
    data["measured"] = fmt_real(parse_real(data["measured"]) + 1.0)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["verify", str(path)])
    # the recomputation disagrees with the tampered value: not faithful
    assert rc == 1
    assert "faithful False" in capsys.readouterr().out


def _nap_certificate_json():
    f = LinearMap(LinfSpace(1), LinfSpace(1), [[1.0]])
    return nap_amalgamate(f, f, f.distortion()).certificate(f, f).to_json()


def _unhashed(cert, **fields):
    """cert with fields replaced and no inputs hash, so only the decoding can object."""
    del cert["inputs_hash"]
    return {**cert, **fields}


def _null_matrix_entry(cert):
    cert["inputs"]["f_x"]["matrix"][0][0] = None
    return _unhashed(cert)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda cert: [cert],
        lambda cert: _unhashed(cert, inputs=[]),
        lambda cert: _unhashed(cert, bound=None),
        _null_matrix_entry,
    ],
    ids=["top-level list", "inputs list", "null bound", "null matrix entry"],
)
def test_cli_verify_json_of_the_wrong_shape_is_a_configuration_error(tamper, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(tamper(_nap_certificate_json())))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _cli_verify_error(data, tmp_path, capsys):
    """The one error line `fraisse verify` prints for data, which must exit 2."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    return err[0]


def test_cli_verify_names_a_tower_artifact(tmp_path, capsys):
    assert main(["build-poulsen", "--depth", "1", "--seed", "0", "--out", str(tmp_path)]) == 0
    artifact = json.loads(next(tmp_path.glob("poulsen-*.json")).read_text())
    err = _cli_verify_error(artifact, tmp_path, capsys)
    assert err == "error: a poulsen artifact, not a certificate (no 'claim' field)"


def test_cli_verify_names_a_missing_certificate_field(tmp_path, capsys):
    cert = _nap_certificate_json()
    del cert["bound"]
    err = _cli_verify_error(cert, tmp_path, capsys)
    assert err == "error: certificate has no 'bound' field"


def test_cli_verify_names_a_missing_input(tmp_path, capsys):
    cert = _nap_certificate_json()
    del cert["inputs"]["f_x"]
    err = _cli_verify_error(_unhashed(cert), tmp_path, capsys)
    assert err == "error: certificate has no input 'f_x'"


@pytest.mark.parametrize("command", ["check-face", "check-biface"])
def test_cli_check_input_of_the_wrong_shape_is_a_configuration_error(command, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text("[1]")
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: input of the wrong shape")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build-gurarij", "--depth", "-2"], "depth must be nonnegative, got -2"),
        (["build-poulsen", "--depth", "-1"], "depth must be nonnegative, got -1"),
        (["build-poulsen", "--targets-per-step", "0"], "targets_per_step must be at least 1, got 0"),
        (["universal-op", "--depth", "-1"], "depth must be nonnegative, got -1"),
        (["universal-state", "--depth", "-1"], "depth must be nonnegative, got -1"),
    ],
)
def test_cli_builders_reject_a_negative_size(argv, message, tmp_path, capsys):
    assert main([*argv, "--seed", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not list(tmp_path.iterdir())


def test_cli_check_face_and_biface_defaults(capsys):
    assert main(["check-face"]) == 0
    assert main(["check-biface"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 2


def test_cli_check_face_input(tmp_path, capsys):
    # the default instance read from a file, then a dominating sample that fails
    payload = {"system": system_to_json(simplex_system(3)), "p": [[1.0, 0.0, 0.0]], "y": [0.0, 1.0, 0.0]}
    path = tmp_path / "face.json"
    path.write_text(json.dumps(payload))
    assert main(["check-face", "--input", str(path)]) == 0
    payload["y"] = [1.0, 0.0, 0.0]
    path.write_text(json.dumps(payload))
    assert main(["check-face", "--input", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["[pass]", "[FAIL]"]


def test_cli_check_biface_negative_instance(tmp_path, capsys):
    payload = {
        "space": np.eye(3).tolist(),
        "p": [[1.0, -1.0, 0.0]],
        "x": [1.0, -1.0, 0.0],
        "y": [1.0, 1.0, 0.0],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(payload))
    rc = main(["check-biface", "--input", str(path), "--eps", "0.1"])
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_minimality(capsys):
    rc = main(["minimality", "--d", "2", "--eps", "0.5", "--trials", "5", "--seed", "1"])
    assert rc == 0
    assert "[pass]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [(["--eps", "0"], "--eps must be positive"), (["--eps", "-1"], "--eps must be positive"), (["--d", "0"], "--d must be at least 1")],
)
def test_cli_minimality_rejects_bad_arguments(args, message, capsys):
    rc = main(["minimality", *args, "--trials", "1"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def test_cli_matrix_minimality_small(tmp_path, capsys):
    rc = main(
        [
            "matrix-minimality",
            "--d", "2",
            "--eps", "8.0",
            "--seed", "0",
            "--samples", "100",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    cert = next(tmp_path.glob("matrix-cert-*.json"))
    assert main(["verify", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "faithful True" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_matrix_minimality_rejects_empty_samples(samples, capsys):
    rc = main(["matrix-minimality", "--eps", "8.0", "--seed", "0", "--samples", samples])
    assert rc == 2
    assert "at least one sample" in capsys.readouterr().err


def test_cli_verify_rejects_sampled_certificate_without_samples(tmp_path, capsys):
    rc = main(["matrix-minimality", "--eps", "8.0", "--seed", "0", "--samples", "100", "--out", str(tmp_path)])
    assert rc == 0
    path = next(tmp_path.glob("matrix-cert-*.json"))
    data = json.loads(path.read_text())
    # a consistent forgery: no samples, a zero sup, and no stale inputs hash
    data["inputs"]["samples"] = 0
    data["measured"] = fmt_real(0.0)
    del data["inputs_hash"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert "at least one sample" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_cli_matrix_minimality_rejects_a_non_positive_eps(eps, capsys):
    rc = main(["matrix-minimality", "--eps", eps, "--seed", "0"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --eps must be positive")


def test_cli_out_of_memory_is_a_resource_error(monkeypatch, capsys):
    # at --eps 0.001 the big density matrix alone would take about 1 TiB
    def exhausted(dim, rng):
        raise MemoryError(f"Unable to allocate array with shape ({dim}, {dim})")

    monkeypatch.setattr(trace_states, "random_density", exhausted)
    assert main(["matrix-minimality", "--eps", "0.001"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: Unable to allocate")


def test_cli_matrix_minimality_unimplemented_dimension():
    rc = main(["matrix-minimality", "--d", "3", "--eps", "8.0", "--seed", "0"])
    assert rc == 2


def test_cli_universal_towers(tmp_path, capsys):
    rc = main(
        ["universal-op", "--depth", "2", "--seed", "0", "--battery", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert list(tmp_path.glob("universal-op-*.json"))
    rc = main(["universal-state", "--depth", "2", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert list(tmp_path.glob("universal-state-*.json"))
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_cli_universal_op_short_battery_is_a_resource_error(tmp_path, capsys):
    # a depth-1 tower has too few fold records to supply 40 battery items
    rc = main(["universal-op", "--depth", "1", "--seed", "0", "--battery", "40", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: only 4 of 40 battery items")


def test_cli_universal_op_depth_zero_has_no_base_stage(tmp_path, capsys):
    # the image distances start at stage 1, which a depth-0 tower lacks
    rc = main(["universal-op", "--depth", "0", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: base_stage 1 is not a stage of this depth-0 tower"]


def test_cli_homogeneity(capsys):
    rc = main(["homogeneity", "--depth", "1", "--seed", "2", "--rounds", "2"])
    assert rc == 0
    assert "[pass]" in capsys.readouterr().out
