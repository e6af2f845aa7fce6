"""Matrix states, block lightness, and the diagonal embedding."""

import json

import numpy as np
import pytest

from fraisse import trace_states
from fraisse.certify import Certificate, verify_certificate
from fraisse.cli import main
from fraisse.trace_states import (
    SAMPLE_BATCH,
    DensityMatrix,
    MatrixState,
    block_compress,
    complex_matrix_from_json,
    complex_matrix_to_json,
    embedding_checks,
    find_light_block,
    minimal_embedding,
    projector_family,
    pullback_defect,
    random_density,
    random_hermitian_unit,
)


def test_density_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match="not 1"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)))
    # the Hermitian check is the one that refuses non-finite entries
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))
    rho = DensityMatrix(np.eye(2) / 2.0)
    assert rho.dim == 2


def _trace_one_with_least_eigenvalue(n, lam_min, rng):
    """U diag(lam_min, ...) U* for a random unitary U, with trace one."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rest = rng.uniform(0.5, 1.5, size=n - 1)
    spectrum = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
    return (u * spectrum) @ u.conj().T


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_positivity_agrees_with_the_eigenvalue_rule(n):
    rng = np.random.default_rng(n)
    for lam_min in (1e-6, 0.0, -1e-14, -5e-13, -0.9e-12, -1.1e-12, -1e-10, -1e-3):
        m = _trace_one_with_least_eigenvalue(n, lam_min, rng)
        # the rule DensityMatrix applied before the Cholesky route
        old = bool(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0] >= -trace_states.EIG_TOL)
        assert old == (lam_min >= -trace_states.EIG_TOL)
        try:
            DensityMatrix(m)
            accepted = True
        except ValueError as exc:
            assert "negative eigenvalue" in str(exc)
            accepted = False
        assert accepted == old, (n, lam_min)


def test_full_rank_density_needs_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert random_density(386, np.random.default_rng(0)).dim == 386


def test_each_positivity_fallback_asks_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    # a pure state is singular, so its factorization fails
    assert DensityMatrix(np.diag([1.0, 0.0])).dim == 2
    assert len(calls) == 1
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    assert len(calls) == 2
    # trace 2e4 fails the proof condition, so eigvalsh decides, and then the trace check
    with pytest.raises(ValueError, match="not 1"):
        DensityMatrix(1e4 * np.eye(2))
    assert len(calls) == 3


def test_expectation_is_real_on_hermitian():
    rng = np.random.default_rng(71)
    rho = random_density(3, rng)
    x = random_hermitian_unit(3, rng)
    val = rho.expect(x)
    assert isinstance(val, float)
    assert abs(val) <= 1.0 + 1e-12
    state = MatrixState(rho)
    assert state(x) == val
    # a raw matrix is checked into a density matrix first
    assert MatrixState(rho.matrix)(x) == val
    with pytest.raises(ValueError, match="not 1"):
        MatrixState(np.eye(3))
    assert state(np.eye(3, dtype=complex)) == pytest.approx(1.0, abs=1e-12)


def test_random_samples_are_what_they_claim():
    rng = np.random.default_rng(73)
    rho = random_density(4, rng)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    h = random_hermitian_unit(4, rng)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(h))) == pytest.approx(1.0, abs=1e-12)


def test_complex_json_roundtrip():
    rng = np.random.default_rng(79)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = complex_matrix_from_json(complex_matrix_to_json(m))
    assert np.max(np.abs(back - m)) == 0.0
    rho = random_density(2, rng)
    assert np.max(np.abs(DensityMatrix.from_json(rho.to_json()).matrix - rho.matrix)) == 0.0


def test_block_compress_properties():
    rng = np.random.default_rng(83)
    rho = random_density(8, rng)
    blocks = block_compress(rho, 2)
    assert len(blocks) == 4
    assert sum(float(np.trace(b).real) for b in blocks) == pytest.approx(1.0, abs=1e-9)
    for b in blocks:
        assert np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0] >= -1e-10
    with pytest.raises(ValueError, match="multiple"):
        block_compress(rho, 3)


def _diagonal_blocks(diag):
    return np.diag(np.asarray(diag, dtype=complex))


def test_block_compress_names_the_first_bad_block():
    # 2 x 2 blocks with negative entries in blocks 3 and 5; traces sum to one
    diag = [0.0625] * 16
    diag[0], diag[1] = 0.0, 0.0
    diag[6], diag[7] = 0.3, -0.05
    diag[10], diag[11] = 0.2, -0.075
    with pytest.raises(ValueError, match=r"block 3 is not positive semidefinite: -5\.000e-02"):
        block_compress(_diagonal_blocks(diag), 2)


def test_block_compress_checks_the_trace_total():
    diag = [0.125] * 8
    diag[0] += 2e-9
    with pytest.raises(ValueError, match="block traces sum to"):
        block_compress(_diagonal_blocks(diag), 2)
    diag[0] -= 1.5e-9
    assert len(block_compress(_diagonal_blocks(diag), 2)) == 4


def test_projector_family():
    fam = projector_family(2)
    assert len(fam) == 12
    for p in fam[:1] + fam[2:]:
        # all but the half-identity are projectors
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12
    with pytest.raises(NotImplementedError):
        projector_family(3)


def test_find_light_block_counting_guarantee():
    ell = 4
    fam = projector_family(2)
    k = ell * len(fam) + 1
    rng = np.random.default_rng(89)
    rho = random_density(2 * k, rng)
    j, block = find_light_block(rho, 2, ell)
    vals = [float(np.trace(block @ p).real) for p in fam]
    assert max(vals) < 1.0 / ell
    assert 0 <= j < k
    with pytest.raises(ValueError, match="counting argument"):
        find_light_block(random_density(8, rng), 2, ell)


def test_find_light_block_skips_heavy_blocks():
    # mass concentrated on the first blocks forces the scan past them
    ell = 4
    fam = projector_family(2)
    k = ell * len(fam) + 1
    n = 2 * k
    heavy = np.zeros((n, n), dtype=complex)
    # three blocks above the 1/ell = 0.25 threshold eat most of the trace
    for j in range(3):
        heavy[2 * j, 2 * j] = 0.26
        heavy[2 * j + 1, 2 * j + 1] = 0.01
    used = float(np.trace(heavy).real)
    rest = (1.0 - used) / (n - 6)
    for i in range(6, n):
        heavy[i, i] = rest
    rho = DensityMatrix(heavy)
    j, block = find_light_block(rho, 2, ell)
    # the first block past the heavy ones, returned as the density's own slice
    assert j == 3
    assert np.array_equal(block, rho.matrix[6:8, 6:8])
    assert block[0, 0] == rest and block[1, 1] == rest


def test_pullback_defect_depends_only_on_block():
    rng = np.random.default_rng(97)
    t = MatrixState(random_density(2, rng))
    block = 0.01 * np.eye(2, dtype=complex)
    x = random_hermitian_unit(2, rng)
    val = pullback_defect(block, t, x)
    direct = float(np.trace(block @ x).real) - t(x) * float(np.trace(block).real)
    assert val == pytest.approx(direct, abs=0.0)


def test_minimal_embedding_argument_validation():
    # a big algebra that is not made of d x d blocks is refused up front
    rng = np.random.default_rng(101)
    s = MatrixState(random_density(2 * 25 + 1, rng))
    t = MatrixState(random_density(2, rng))
    with pytest.raises(ValueError, match="not a multiple of the block size 2"):
        minimal_embedding(s, t, ell=2, seed=0, samples=10)


def test_minimal_embedding_small_scale():
    # ell = 2 keeps the big algebra at 25 blocks, fast enough for a unit test
    ell = 2
    fam = projector_family(2)
    k = ell * len(fam) + 1
    rng = np.random.default_rng(103)
    s = MatrixState(random_density(2 * k, rng))
    t = MatrixState(random_density(2, rng))
    res = minimal_embedding(s, t, ell=ell, seed=5, samples=200)
    assert res.certificate.bound == pytest.approx(16.0 / ell)
    assert res.certificate.passed
    assert res.block_norm <= 8.0 / ell + 1e-12
    assert res.block_trace <= 8.0 / ell + 1e-12
    # the certificate recomputes the seeded sample sup exactly
    ok, again = verify_certificate(res.certificate)
    assert ok
    assert again == pytest.approx(res.certificate.measured, abs=0.0)
    gap = embedding_checks(res, s)
    assert gap <= 1e-12


def test_embedding_structural_properties():
    rng = np.random.default_rng(107)
    ell = 2
    k = ell * 12 + 1
    s = MatrixState(random_density(2 * k, rng))
    t = MatrixState(random_density(2, rng))
    res = minimal_embedding(s, t, ell=ell, seed=0, samples=50)
    emb = res.embedding
    big = emb.apply(np.eye(2, dtype=complex))
    assert np.max(np.abs(big - np.eye(2 * k))) <= 1e-12
    x = random_hermitian_unit(2, rng)
    bx = emb.apply(x)
    assert np.max(np.abs(bx - bx.conj().T)) <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(bx))) == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(x))), abs=1e-10
    )
    with pytest.raises(ValueError, match="argument must be"):
        emb.apply(np.eye(3, dtype=complex))


def _looped_defect(block, t_state, seed, samples):
    """The sampled defect by its definition: one seeded sample at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = random_hermitian_unit(block.shape[0], rng)
        worst = max(worst, abs(pullback_defect(block, t_state, x)))
    return worst


def _defect_certificate(block, t_state, seed, samples, measured):
    inputs = {
        "block": complex_matrix_to_json(block),
        "t": complex_matrix_to_json(t_state.density.matrix),
        "seed": seed,
        "samples": samples,
    }
    return Certificate("matrix_state_defect", inputs, 1.0, measured)


@pytest.mark.parametrize("seed", [0, 11])
def test_sampled_defect_equals_the_per_sample_loop(seed):
    # sample counts on both sides of a batch boundary, and the default
    counts = [1, SAMPLE_BATCH - 1, SAMPLE_BATCH, SAMPLE_BATCH + 1, 1000]
    rng = np.random.default_rng(200 + seed)
    ell = 2
    s = MatrixState(random_density(2 * (ell * len(projector_family(2)) + 1), rng))
    t2 = MatrixState(random_density(2, rng))
    # no projector family for d = 3, so its block goes through the recheck
    t3 = MatrixState(random_density(3, rng))
    block3 = random_density(3, rng).matrix / 10.0
    for samples in counts:
        res = minimal_embedding(s, t2, ell=ell, seed=seed, samples=samples)
        loop = _looped_defect(res.block, t2, seed, samples)
        assert res.certificate.measured == loop
        assert verify_certificate(res.certificate)[1] == loop
        loop3 = _looped_defect(block3, t3, seed, samples)
        assert verify_certificate(_defect_certificate(block3, t3, seed, samples, loop3)) == (True, loop3)


def test_sampled_defect_batches_continue_one_stream(monkeypatch):
    # with tiny batches every later batch must pick up the stream where the
    # previous one stopped, and the last, partial batch must count
    monkeypatch.setattr(trace_states, "SAMPLE_BATCH", 3)
    rng = np.random.default_rng(113)
    for d in (2, 3):
        t = MatrixState(random_density(d, rng))
        block = random_density(d, rng).matrix / 10.0
        for samples in (1, 2, 3, 4, 5, 6, 7, 100):
            loop = _looped_defect(block, t, samples, samples)
            assert verify_certificate(_defect_certificate(block, t, samples, samples, loop)) == (True, loop)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_defect_needs_samples(samples):
    rng = np.random.default_rng(109)
    s = MatrixState(random_density(2 * 25, rng))
    t = MatrixState(random_density(2, rng))
    with pytest.raises(ValueError, match="at least one sample"):
        minimal_embedding(s, t, ell=2, seed=0, samples=samples)
    # a certificate claiming a sup over no samples does not recheck to 0
    cert = _defect_certificate(0.01 * np.eye(2), t, 0, samples, 0.0)
    with pytest.raises(ValueError, match="at least one sample"):
        verify_certificate(cert)


def test_verify_rejects_a_non_finite_block(tmp_path, capsys):
    rng = np.random.default_rng(127)
    t = MatrixState(random_density(2, rng))
    block = random_density(2, rng).matrix / 10.0
    path = tmp_path / "defect.json"
    path.write_text(json.dumps(_defect_certificate(block, t, 0, 100, _looped_defect(block, t, 0, 100)).to_json()))
    assert main(["verify", str(path)]) == 0
    # a tampered block whose defects come out NaN must not recheck as 0
    cert = json.loads(path.read_text())
    cert["inputs"]["block"]["re"][0][0] = "nan"
    cert["measured"] = "0"
    del cert["inputs_hash"]
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err
