"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own computation paths: distances come
from an explicit orthonormal-basis projector, spectral quantities from dense
eigensolves of explicitly assembled matrices, and Gabor values from adaptive
quadrature of the underlying integrals.  Matrix CSV text has a per-cell
reference formatter and a character-level recognizer of the cell grammar, and
sampled Gabor systems a dense per-node builder, and seeded random Riesz bases
the one-line draw the generator's in-place arithmetic must reproduce.
The `complex_*` oracles redo the library's kernels on complex128 copies, so a
real system factored in real arithmetic can be checked against complex
arithmetic.
Sampled Gabor phases also have an exact-argument reference, reduced in
rational arithmetic, and sampled Gabor systems the closed-form Gram matrix of
the continuous system they discretize.  Two references keep the gather-based forms the in-place
Gabor build and the real twin must reproduce bit for bit; the Gabor one takes
its phase table from the library, since only the assembly is under test.
"""

import math
from fractions import Fraction

import numpy as np

from rieszlab import generators


def gaussian_draw(rng, n):
    """The complex Gaussian draw of `generators.random_riesz`, as one expression."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def random_riesz_columns(n, seed):
    """The columns `generators.random_riesz(n, seed)` must return: draws
    redrawn until the condition number is at most 1e6."""
    rng = np.random.default_rng(seed)
    while True:
        columns = gaussian_draw(rng, n)
        sigma = np.linalg.svd(columns, compute_uv=False)
        if sigma[-1] > 0.0 and sigma[0] / sigma[-1] <= 1e6:
            return columns


def random_columns(seed, dim, count):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))) / np.sqrt(2)


def format_complex(value):
    """One matrix CSV cell: 17 significant digits, the imaginary part unless it is +0.0."""
    z = complex(value)
    real = format(z.real, ".17g")
    if z.imag == 0.0 and math.copysign(1.0, z.imag) > 0:
        return real
    sign = "+" if math.copysign(1.0, z.imag) > 0 else "-"
    return f"{real}{sign}{format(abs(z.imag), '.17g')}i"


def matrix_text_by_cells(columns):
    """The text `matrixio.write_matrix` must write, one `format_complex` per cell,
    for a system of `columns`: one without a nonzero imaginary part is real, so
    each of its imaginary parts is +0.0."""
    cols = np.asarray(columns, dtype=complex)
    if not cols.imag.any():
        cols = cols.real.astype(complex)
    lines = [f"# dim={cols.shape[0]} count={cols.shape[1]}"]
    lines += [",".join(format_complex(z) for z in row) for row in cols]
    return "\n".join(lines) + "\n"


def _digits_end(text, i):
    """The index just past the run of decimal digits (any Unicode Nd) at `i`."""
    while i < len(text) and text[i].isdecimal():
        i += 1
    return i


def _unsigned_end(text, i):
    """The index just past the `unsigned` that starts at `i`, or None if none does:
    digits [ "." [ digits ] ] or "." digits, then an optional exponent
    ("e" | "E") [ "+" | "-" ] digits."""
    j = _digits_end(text, i)
    if j < len(text) and text[j] == ".":
        k = _digits_end(text, j + 1)
        if j == i and k == j + 1:
            return None  # "." with no digit on either side
        j = k
    elif j == i:
        return None
    if j < len(text) and text[j] in "eE":
        j += 1
        if j < len(text) and text[j] in "+-":
            j += 1
        k = _digits_end(text, j)
        if k == j:
            return None  # an exponent needs digits; nothing else may follow an "e"
        j = k
    return j


def is_cell(text):
    """Whether `text` is one matrix CSV cell of the README grammar, scanned
    character by character:

        cell     = number [ ("+" | "-") unsigned "i" ]
        number   = [ "+" | "-" ] unsigned
    """
    i = 1 if text.startswith(("+", "-")) else 0
    i = _unsigned_end(text, i)
    if i is not None and i < len(text) and text[i] in "+-":
        i = _unsigned_end(text, i + 1)
        if i is None or i == len(text) or text[i] != "i":
            return False
        i += 1
    return i == len(text)


def projector_distance(columns, vector):
    """Distance to the column span via an explicit orthonormal projector."""
    u, s, _ = np.linalg.svd(np.asarray(columns, dtype=complex), full_matrices=False)
    if s[0] == 0.0:
        return float(np.linalg.norm(vector))
    rank = int(np.count_nonzero(s > s[0] * max(columns.shape) * 1e-12))
    basis = u[:, :rank]
    residual = vector - basis @ (basis.conj().T @ vector)
    return float(np.linalg.norm(residual))


def as_complex(values):
    """A complex128 copy: numpy then runs its complex LAPACK and BLAS kernels."""
    return np.array(values, dtype=complex)


def complex_singular_values(columns):
    return np.linalg.svd(as_complex(columns), compute_uv=False)


def complex_gram_eigenvalues(columns):
    f = as_complex(columns)
    return np.linalg.eigvalsh(f.conj().T @ f)


def complex_minimal_dual(columns):
    """Columns F (F^H F)^{-1} from a complex solve."""
    f = as_complex(columns)
    return np.linalg.solve(f.conj().T @ f, f.conj().T).conj().T


def complex_lstsq_distance(columns, vector):
    """Residual norm of a complex least-squares solve at the shared rank threshold."""
    f, h = as_complex(columns), as_complex(vector)
    solution = np.linalg.lstsq(f, h, rcond=max(f.shape) * 1e-12)[0]
    return float(np.linalg.norm(h - f @ solution))


def complex_identity_residual(columns, partner_columns):
    """||F G^H - I|| from a complex dim x dim SVD."""
    f, g = as_complex(columns), as_complex(partner_columns)
    return float(np.linalg.norm(f @ g.conj().T - np.eye(f.shape[0]), 2))


def spectral_norm(matrix):
    """Largest singular value through the Hermitian eigenproblem of A^H A."""
    a = np.asarray(matrix, dtype=complex)
    lam = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(lam[-1], 0.0)))


def gram_by_loops(columns):
    """Entrywise Gram assembly with explicit inner products."""
    cols = np.asarray(columns, dtype=complex)
    m = cols.shape[1]
    out = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            out[j, k] = np.vdot(cols[:, j], cols[:, k])
    return out


def dense_gabor_columns(nodes, disc):
    """Sampled Gabor columns with both factors evaluated at every (grid point, node):
    sqrt(1/s) * exp(-pi (x - tau)^2) * exp(2 pi i mu x), the per-node formula
    that `generators.gaussian_gabor` matches to rounding, without its
    distinct-value split or its phase table."""
    x = disc.grid()
    taus = np.array([t for t, _ in nodes])
    mus = np.array([m for _, m in nodes])
    envelopes = np.exp(-np.pi * (x[:, None] - taus[None, :]) ** 2)
    phases = np.exp(2j * np.pi * x[:, None] * mus[None, :])
    return disc.normalization * envelopes * phases


def gathered_gabor_columns(points, disc):
    """Sampled Gabor columns assembled from gathered copies of both factor
    tables, `np.take(envelopes) * np.take(phases)`, each table built once per
    distinct value (by bit pattern) as `generators.gaussian_gabor` builds it.

    numpy may evaluate a product of two temporaries in the buffer of one of
    them: for a product of at least 256 KiB it computes phases * envelopes in
    the phase buffer.  Its complex multiply may fuse a product and a sum, so
    the operand order can set the sign of an imaginary part whose product
    underflows to zero; below that size this reference takes the envelope
    first and such a zero may take the other sign."""
    taus, mus = np.array(points.nodes).T
    x = disc.grid()
    tau_keys, tau_index = np.unique(taus.view(np.uint64), return_inverse=True)
    mu_keys, mu_index = np.unique(mus.view(np.uint64), return_inverse=True)
    envelopes = disc.normalization * np.exp(-np.pi * (x[:, None] - tau_keys.view(float)) ** 2)
    phases = generators._phase_table(x, mu_keys.view(float), disc.samples_per_unit)
    return np.take(envelopes, tau_index, axis=1) * np.take(phases, mu_index, axis=1)


def gathered_real_twin(columns):
    """The real twin [real columns, sqrt(2) Re f, sqrt(2) Im f] of complex
    columns that split exactly into conjugate pairs (f, conj f), built from
    complex copies of both members of every pair, column-major; None when
    they do not split.  Pairs are matched by their column sums, which must
    pair up exactly and uniquely, and confirmed entry by entry.  The layout
    is the canonical one `generators._gabor_twin` builds from a point set's
    nodes: the real columns in their order, then the pairs ordered by their
    first column, f being that first column."""
    cols = np.asarray(columns)
    sums = cols.sum(axis=0)
    is_complex = sums.imag != 0.0
    is_complex[~is_complex] = cols.imag[:, ~is_complex].any(axis=0)
    sums = sums[is_complex]
    if sums.size % 2:
        return None
    ranked = np.lexsort((sums.imag, np.abs(sums.imag), sums.real))
    low, high = sums[ranked[0::2]], sums[ranked[1::2]]
    if not np.array_equal(low, high.conj()) or np.any(low[1:] == low[:-1]):
        return None
    complex_index = np.flatnonzero(is_complex)
    matched = sorted(
        sorted(pair) for pair in zip(complex_index[ranked[0::2]], complex_index[ranked[1::2]])
    )
    pairs = cols[:, [first for first, _ in matched]]
    partners = cols[:, [second for _, second in matched]]
    if not np.array_equal(pairs, np.conjugate(partners)):
        return None
    real_count, pair_count = cols.shape[1] - complex_index.size, pairs.shape[1]
    twin = np.empty(cols.shape, order="F")
    twin[:, :real_count] = cols.real[:, ~is_complex]
    np.multiply(pairs.real, np.sqrt(2.0), out=twin[:, real_count:real_count + pair_count])
    np.multiply(pairs.imag, np.sqrt(2.0), out=twin[:, real_count + pair_count:])
    return twin


def exact_gabor_phases(mus, disc, rows):
    """exp(2 pi i mu x_l) at the ideal grid points x_l = -X + l/s, one row per l
    in `rows` and one column per mu.  mu * x_l is reduced exactly, in rational
    arithmetic, to its remainder r in [-1/2, 1/2] from the nearest integer, so
    only cos(2 pi r) and sin(2 pi r) round."""
    half_width = Fraction(disc.half_width)
    phases = np.empty((len(rows), len(mus)), dtype=complex)
    for j, mu in enumerate(mus):
        mu = Fraction(mu)
        for i, l in enumerate(rows):
            turns = mu * (Fraction(int(l), disc.samples_per_unit) - half_width)
            angle = 2.0 * math.pi * float(turns - round(turns))
            phases[i, j] = complex(math.cos(angle), math.sin(angle))
    return phases


def gaussian_inner_product(tau1, mu1, tau2, mu2):
    """Quadrature value of the continuous Gabor inner product modulus."""
    from scipy.integrate import quad

    def integrand(x, part):
        value = (
            np.exp(-np.pi * (x - tau1) ** 2)
            * np.exp(-np.pi * (x - tau2) ** 2)
            * np.exp(2j * np.pi * (mu1 - mu2) * x)
        )
        return value.real if part == "re" else value.imag

    re = quad(lambda x: integrand(x, "re"), -np.inf, np.inf)[0]
    im = quad(lambda x: integrand(x, "im"), -np.inf, np.inf)[0]
    return abs(complex(re, im))


def gabor_gram(nodes):
    """The Gram matrix of the Gaussian Gabor system at `nodes` on the whole
    line, in closed form (Groechenig, Foundations of Time-Frequency Analysis,
    2001): entry (j, k) = <f_k, f_j> is

        2^(-1/2) exp(-pi (dt^2 + dm^2) / 2) exp(-pi i (m_j - m_k)(t_j + t_k))

    with dt = t_j - t_k and dm = m_j - m_k.  No grid, window or sampling rate
    enters, so a sampled system's bounds at an admissible rate must match its
    extreme eigenvalues to rounding."""
    t, m = np.array(nodes, dtype=float).T
    dt, dm, ts = t[:, None] - t, m[:, None] - m, t[:, None] + t
    return 2.0 ** -0.5 * np.exp(-np.pi * (dt ** 2 + dm ** 2) / 2) * np.exp(-1j * np.pi * dm * ts)
