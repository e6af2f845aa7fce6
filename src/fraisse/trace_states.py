"""Matrix states and the light-block embedding of a small matrix algebra.

A state on d x d complex matrices is trace against a density matrix.
Given a state s on the big algebra M_{kd} and a target state t on M_d,
the embedding x -> diag(x, t(x) I) is unital, self-adjoint and exactly
isometric, and pulling s back through it lands near t as soon as the
block of s's density matrix sitting under the x-slot is light. A finite
projector family makes lightness countable: for each test projector at
most ell blocks can weigh 1/ell or more, so with k = ell |P| + 1 blocks
a fully light one exists by counting alone, and the scan returns the
first block that passes every test.

Orientation: the compression goes from the big algebra down to M_d.
The pulled-back functional s . phi is the object compared against t;
everything is phrased over Hermitian arguments, where trace against a
density matrix is automatically real.

The certificate's sampled defect is evaluated in stacked batches of at
most SAMPLE_BATCH samples, and block_compress checks all blocks in one
stacked eigvalsh. Both equal the per-sample formulas bit for bit: the
sampled defect is exactly what looping random_hermitian_unit and
pullback_defect over the same seeded generator gives.

DensityMatrix proves positivity with one Cholesky factorization when
the rounding bound of Higham's Thm 10.3 (Accuracy and Stability of
Numerical Algorithms, 2nd ed., 2002) puts the least eigenvalue above
-EIG_TOL; only a factorization that fails, or a trace too large for the
bound, falls back to eigvalsh's least eigenvalue. Either way an
accepted matrix has lambda_min >= -EIG_TOL, on the fallback up to
eigvalsh's own rounding.
"""

import numpy as np

from .certify import INT, Claim, fmt_matrix, fmt_real, parse_matrix

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-12
SAMPLE_BATCH = 4096


def _as_complex(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def _cholesky_proves_psd(m, tr):
    """True when a completed Cholesky factorization proves lambda_min(m) >= -EIG_TOL.

    tr is m's trace. m must be exactly Hermitian, as the symmetrized
    (m + m*) / 2 is bit for bit, since LAPACK reads only one triangle of it.
    """
    # Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.,
    # 2002), Thm 10.3: a Cholesky factorization of m that runs to
    # completion, in any summation order, gives R*R = m + D with
    # |D| <= g |R*| |R|, g = gamma_{n+1} = (n+1)u / (1 - (n+1)u), u = eps/2.
    # Since || |R*| |R| ||_2 <= ||R||_F^2 = tr(m + D) <= tr(m) + g ||R||_F^2,
    # lambda_min(m) >= -||D||_2 >= -g tr(m) / (1 - g). The test below asks
    # 8 (n+1) u tr(m) <= EIG_TOL, a factor 8 over the real-arithmetic
    # gamma_{n+1}: that covers complex arithmetic (Higham §3.6), the
    # 1 / (1 - g) and the rounding of tr(m). So a matrix accepted here has
    # lambda_min >= -EIG_TOL, as eigvalsh's rule requires; at n = 386 and
    # trace one the left side is 3.4e-13.
    n = m.shape[0]
    if 4 * (n + 1) * np.finfo(float).eps * tr > EIG_TOL:
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


class DensityMatrix:
    """Hermitian, positive semidefinite, trace one; the data of a state.

    Positivity is proved by a Cholesky factorization of the symmetrized
    matrix when one completes and 4 (n + 1) eps tr(m) <= EIG_TOL (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3);
    otherwise eigvalsh's least eigenvalue must be at least -EIG_TOL.
    """

    def __init__(self, matrix):
        m = _as_complex(matrix)
        adjoint = m.conj().T
        # "not <=" so that a NaN entry fails the check
        if not float(np.max(np.abs(m - adjoint))) <= HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("density matrix must be Hermitian")
        m = (m + adjoint) / 2.0
        tr = float(np.trace(m).real)
        if not _cholesky_proves_psd(m, tr):
            eigs = np.linalg.eigvalsh(m)
            if eigs[0] < -EIG_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
        m.setflags(write=False)
        self.matrix = m
        self.dim = m.shape[0]

    def expect(self, x):
        """Tr(rho x); real for Hermitian x, returned as a real number."""
        x = _as_complex(x)
        val = np.trace(self.matrix @ x)
        return float(val.real)

    def to_json(self):
        return complex_matrix_to_json(self.matrix)

    @staticmethod
    def from_json(data):
        return DensityMatrix(complex_matrix_from_json(data))


class MatrixState:
    """The functional x -> Tr(rho x) on Hermitian d x d matrices."""

    def __init__(self, density):
        if not isinstance(density, DensityMatrix):
            density = DensityMatrix(density)
        self.density = density
        self.dim = density.dim

    def __call__(self, x):
        return self.density.expect(x)


def complex_matrix_to_json(m):
    m = _as_complex(m)
    return {"re": fmt_matrix(m.real), "im": fmt_matrix(m.imag)}


def complex_matrix_from_json(data):
    return parse_matrix(data["re"]) + 1j * parse_matrix(data["im"])


def random_density(dim, rng):
    """Ginibre construction: G G* normalized to trace one."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_hermitian_unit(dim, rng):
    """Ginibre Hermitian sample scaled to operator norm exactly one."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    nrm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return h / nrm


def block_compress(rho, d):
    """The consecutive d x d diagonal blocks of a density matrix.

    Each block is positive semidefinite and the traces sum to one
    exactly; both facts are asserted, not assumed.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else _as_complex(rho)
    n = m.shape[0]
    if n % d != 0:
        raise ValueError(f"dimension {n} is not a multiple of the block size {d}")
    k = n // d
    idx = np.arange(k)
    # the k diagonal blocks as one (k, d, d) array
    stack = m.reshape(k, d, k, d)[idx, :, idx, :]
    lowest = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
    bad = np.flatnonzero(lowest < -1e-10)
    if bad.size:
        raise ValueError(f"block {bad[0]} is not positive semidefinite: {lowest[bad[0]]:.3e}")
    total = 0.0
    for tr in np.trace(stack, axis1=1, axis2=2).real:
        total += float(tr)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"block traces sum to {total}, not 1")
    blocks = [m[j * d : (j + 1) * d, j * d : (j + 1) * d] for j in range(k)]
    return blocks


def projector_family(d):
    """The finite test family certifying block lightness.

    For qubits: the identity, half the identity, the six octahedral
    rank-one projectors (both signs of the three Pauli axes) and the four
    tetrahedral projectors. Every Bloch direction is within cos^-1(1/sqrt 3)
    of an octahedral axis, which converts per-projector lightness into an
    operator norm bound on the block.
    """
    if d != 2:
        raise NotImplementedError("the test family is implemented for 2 x 2 blocks")
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    fam = [eye, eye / 2.0]
    for axis in (sx, sy, sz):
        for sign in (1.0, -1.0):
            fam.append((eye + sign * axis) / 2.0)
    r = 1.0 / np.sqrt(3.0)
    for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        bloch = r * (v[0] * sx + v[1] * sy + v[2] * sz)
        fam.append((eye + bloch) / 2.0)
    return fam


def find_light_block(rho, d, ell):
    """First block whose every family test is under 1/ell.

    For each test p, sum_j Tr(b_j p) <= ||p|| <= 1, so at most ell blocks
    can test at 1/ell or above; with k >= ell |P| + 1 blocks a light one
    exists by counting. The scan walks blocks in order and returns the
    first light one with its index.
    """
    family = projector_family(d)
    blocks = block_compress(rho, d)
    k = len(blocks)
    if k < ell * len(family) + 1:
        raise ValueError(
            f"need at least {ell * len(family) + 1} blocks for the counting argument, have {k}"
        )
    thresh = 1.0 / ell
    # the loop always returns: were every block heavy, some test p would be
    # heavy on ell + 1 of them, and their traces against p would exceed one
    for j, b in enumerate(blocks):
        if max(float(np.trace(b @ p).real) for p in family) < thresh:
            return j, b


class MatrixEmbedding:
    """x -> diag(x, t(x) I) with the light block rotated into the x slot."""

    def __init__(self, d, k, t_state, block_index):
        self.d = d
        self.k = k
        self.t_state = t_state
        self.block_index = block_index
        # permutation swapping block 0 with the light block
        perm = list(range(k))
        perm[0], perm[block_index] = perm[block_index], perm[0]
        self.perm = perm

    def apply(self, x):
        x = _as_complex(x)
        if x.shape[0] != self.d:
            raise ValueError(f"argument must be {self.d} x {self.d}")
        t_val = self.t_state(x)
        big = np.zeros((self.k * self.d, self.k * self.d), dtype=complex)
        d = self.d
        for slot, block in enumerate(self.perm):
            # slot 0 of the abstract embedding carries x; the permutation
            # places it at the light block's position
            content = x if slot == 0 else t_val * np.eye(d, dtype=complex)
            big[block * d : (block + 1) * d, block * d : (block + 1) * d] = content
        return big


class MatrixEmbeddingResult:
    def __init__(self, embedding, block, block_norm, block_trace, certificate):
        self.embedding = embedding
        self.block = block
        self.block_norm = block_norm
        self.block_trace = block_trace
        self.certificate = certificate


def pullback_defect(block, t_state, x):
    """s(phi(x)) - t(x) evaluated through the light block only.

    Expanding the trace of rho against diag(x, t(x) I) leaves
    Tr(b x) + t(x)(1 - Tr b) with b the light block, so the defect is
    Tr(b x) - t(x) Tr(b); nothing else of rho enters.
    """
    b = _as_complex(block)
    t_val = t_state(x)
    return float((np.trace(b @ x)).real) - t_val * float(np.trace(b).real)


def _sampled_defect(block, t, seed, samples):
    """The largest |pullback_defect| over the seeded Hermitian unit samples,
    for the light block and the density matrix t of the target state.

    Each batch draws the loop's normal stream (a sample's real part, then
    its imaginary part) and runs its steps stacked over the batch.
    """
    if samples < 1:
        raise ValueError(f"the sampled defect needs at least one sample, got {samples}")
    b = _as_complex(block)
    if not np.isfinite(b).all():
        raise ValueError("the light block must be finite")  # a NaN defect would lose every max
    d = b.shape[0]
    tr_b = float(np.trace(b).real)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, samples, SAMPLE_BATCH):
        draw = rng.normal(size=(min(SAMPLE_BATCH, samples - start), 2, d, d))
        g = draw[:, 0] + 1j * draw[:, 1]
        h = (g + g.conj().transpose(0, 2, 1)) / 2.0
        x = h / np.max(np.abs(np.linalg.eigvalsh(h)), axis=1)[:, None, None]
        t_vals = np.trace(t.matrix @ x, axis1=1, axis2=2).real
        defects = np.trace(b @ x, axis1=1, axis2=2).real - t_vals * tr_b
        worst = max(worst, float(np.max(np.abs(defects))))
    return worst


MATRIX_STATE_DEFECT = Claim(
    "matrix_state_defect", 1e-9, _sampled_defect,
    block=(complex_matrix_to_json, complex_matrix_from_json), t=(DensityMatrix.to_json, DensityMatrix.from_json),
    seed=INT, samples=INT,
)


def minimal_embedding(s_state, t_state, ell, seed, samples):
    """Embed M_d into M_{kd} carrying t almost onto the restriction of s.

    Takes the state s on the big algebra and the target t on the small
    one; ell sets the lightness scale, the certificate's bound is 16/ell
    (so ell = ceil(16/eps) certifies eps), and the big algebra must have
    at least ell |P| + 1 blocks of size d, which find_light_block checks.
    The embedding is exactly unital, self-adjoint and isometric (the
    operator norm of diag(x, t(x) I) is max(||x||, |t(x)|) = ||x||); the
    certificate freezes the defect of the pulled-back state against t
    sampled at `samples` Hermitian unit matrices drawn from `seed`, which
    depends on the density matrix only through the light block.
    """
    d = t_state.dim
    k = s_state.dim // d
    j, block = find_light_block(s_state.density, d, ell)
    block_norm = float(np.max(np.abs(np.linalg.eigvalsh((block + block.conj().T) / 2.0))))
    block_trace = float(np.trace(block).real)
    emb = MatrixEmbedding(d, k, t_state, j)
    worst = _sampled_defect(block, t_state.density, seed, samples)
    payload = {
        "block_index": j,
        "block_norm": fmt_real(block_norm),
        "block_trace": fmt_real(block_trace),
        "ell": ell,
    }
    cert = MATRIX_STATE_DEFECT.certificate(
        16.0 / ell, worst, payload=payload, block=block, t=t_state.density, seed=seed, samples=samples
    )
    return MatrixEmbeddingResult(emb, block, block_norm, block_trace, cert)


def embedding_checks(result, s_state):
    """Direct route: materialize phi(x) and evaluate s against it.

    Cross-checks the block formula against the full trace on five seeded
    samples, and confirms unitality, self-adjointness and exact isometry
    of the embedding on those samples. Returns the worst formula gap.
    """
    rng = np.random.default_rng(0)
    emb = result.embedding
    d = emb.d
    gap = 0.0
    eye_big = emb.apply(np.eye(d, dtype=complex))
    if float(np.max(np.abs(eye_big - np.eye(emb.k * d, dtype=complex)))) > 1e-12:
        raise RuntimeError("embedding is not unital")
    for _ in range(5):
        x = random_hermitian_unit(d, rng)
        big = emb.apply(x)
        if float(np.max(np.abs(big - big.conj().T))) > 1e-12:
            raise RuntimeError("embedding does not preserve self-adjointness")
        norm_big = float(np.max(np.abs(np.linalg.eigvalsh(big))))
        norm_x = float(np.max(np.abs(np.linalg.eigvalsh(x))))
        if abs(norm_big - norm_x) > 1e-10:
            raise RuntimeError(f"embedding is not isometric: {norm_big} vs {norm_x}")
        via_full = s_state(big) - result.embedding.t_state(x)
        via_block = pullback_defect(result.block, emb.t_state, x)
        gap = max(gap, abs(via_full - via_block))
    return gap
