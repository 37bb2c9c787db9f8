"""Constructors for the named vector systems and Gabor time-frequency systems.

The weighted, alternating and Young-style families come with their designated
biorthogonal partners.  Gabor systems sample time-shifted, frequency-modulated
Gaussians g(x) = exp(-pi x^2) on a uniform grid over [-X, X); with column
scaling sqrt(1/s) the discrete inner products are Riemann sums of the
corresponding integrals, so closed-form values are available as oracles:
the column norm approaches 2^(-1/4) and

    |<v_1, v_2>| = 2^(-1/2) * exp(-pi ((t1-t2)^2 + (m1-m2)^2) / 2)

for nodes (t1, m1), (t2, m2).

A sampled Gabor system is built from its distinct time shifts and
modulations: a (2M+1)^2 lattice needs the Gaussian envelope at 2M+1 shifts
and the phase at 2M+1 modulations, not at every node.  Each phase is the
product of two small exponential tables, one over a coarse grid and one over
the fine offsets within a coarse step, so an L-point grid costs about
2 sqrt(L) complex exponentials per distinct modulation instead of L; the
entries agree with the per-node formula to rounding (see `gaussian_gabor`).
The distinct values are found once per point set and kept with it, so each
rate of a refinement reuses them.  The system is assembled in the array it
returns: the phases are written into it and the gathered envelopes
multiplied into them in place.

The bounds and the rank of a system depend only on its singular values,
which its real twin F U (U unitary) shares.  The point set also keeps its
node pairing, (tau, mu) with (tau, -mu), and where every node has a partner
the private `_gabor_twin` builds that float64 twin straight from the nodes,
with the factor tables of `gaussian_gabor`.  `gabor` and the Gabor families
read the twin, drawn from `scaling._sampled`; the complex system is built for a
set that does not pair up, and for `gabor --dump-matrix` of one that does.

Every generator builds a fresh C-contiguous array, float64 for the real
families, and hands it to the private `VectorSequence._adopt`, which checks it
as the constructor does and freezes it in place instead of copying it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, TruncationError
from .seqcore import VectorSequence, _read_only, _singular_values

#: Time shifts must stay this far from the grid edge; three widths of the
#: Gaussian leave a tail amplitude of exp(-9 pi) ~ 5e-13.
SAFE_WINDOW_MARGIN = 3.0

#: Seeded random bases are redrawn while the condition number exceeds this.
RIESZ_CONDITION_LIMIT = 1e6


@dataclass(frozen=True)
class PointSet2D:
    """Time-frequency nodes (tau, mu), distinct as float pairs: (-0.0, 0.0) is
    (0.0, 0.0), and nodes however close, even 1e-170 apart, are kept."""

    nodes: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        nodes = tuple((float(t), float(m)) for t, m in self.nodes)
        if not nodes:
            raise ValueError("a point set needs at least one node")
        if not all(math.isfinite(c) for node in nodes for c in node):
            raise ValueError("nodes contain non-finite coordinates")
        if len(set(nodes)) < len(nodes):
            raise ValueError("nodes must be pairwise distinct")
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def _split(self) -> tuple:
        """The node analysis the Gabor builds read, once per point set: the
        time shifts, then the distinct shifts and their inverse index, the
        distinct modulations and theirs, and last the node pairing.  Distinct
        values are told apart by their float64 bit pattern, so the keys are
        uint64.  The pairing gives each node the index of its partner
        (tau, -mu), matched by float equality, so (-0.0, mu) pairs with
        (0.0, -mu), as their columns are conjugate; a node with mu = +-0 is
        its own partner, and a node without one reads -1.  The arrays are
        read-only; derived from the frozen nodes, they take no part in
        equality or hashing."""
        taus, mus = np.array(self.nodes).T
        tau_keys, tau_index = np.unique(taus.view(np.uint64), return_inverse=True)
        mu_keys, mu_index = np.unique(mus.view(np.uint64), return_inverse=True)
        # Float tuples compare and hash by value: -0.0 finds 0.0.
        index = {node: k for k, node in enumerate(self.nodes)}
        partner = np.array([index.get((t, -m), -1) for t, m in self.nodes])
        return tuple(map(_read_only, (taus, tau_keys, tau_index, mu_keys, mu_index, partner)))


@dataclass(frozen=True)
class GaborDiscretization:
    """Uniform grid on [-X, X) with step 1/s and column scaling sqrt(1/s).

    The half-open grid holds exactly 2*X*s samples, so the squared scaling
    times the sample count equals the window length 2X exactly and discrete
    inner products are Riemann sums.
    """

    half_width: float
    samples_per_unit: int

    def __post_init__(self) -> None:
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError("half_width must be positive and finite")
        rate = self.samples_per_unit
        if not 1 <= rate < math.inf or int(rate) != rate:
            raise ValueError("samples_per_unit must be a positive integer")
        # A rate beyond the float range would overflow the product, so its
        # window counts as infinite.  Below 0.5 the count rounds to no sample;
        # at inf round() overflows.
        total = 2.0 * self.half_width * rate if rate <= sys.float_info.max else math.inf
        if not 0.5 < total < math.inf:
            raise ValueError("the window must hold a finite, nonzero number of samples")
        if abs(total - round(total)) > 1e-9:
            raise ValueError("the window must hold a whole number of samples")
        object.__setattr__(self, "half_width", float(self.half_width))
        object.__setattr__(self, "samples_per_unit", int(self.samples_per_unit))

    @property
    def normalization(self) -> float:
        return math.sqrt(1.0 / self.samples_per_unit)

    @property
    def sample_count(self) -> int:
        return int(round(2.0 * self.half_width * self.samples_per_unit))

    def grid(self) -> np.ndarray:
        return -self.half_width + np.arange(self.sample_count) / self.samples_per_unit


@dataclass(frozen=True)
class GeneratedPair:
    """A constructed system plus its designated biorthogonal partner, if any."""

    primal: VectorSequence
    partner: Optional[VectorSequence] = None

    def __post_init__(self) -> None:
        if self.partner is not None:
            if (
                self.partner.dim != self.primal.dim
                or self.partner.count != self.primal.count
            ):
                raise DimensionError("partner must match the primal system's shape")


def orthonormal(n: int) -> VectorSequence:
    """The identity columns e_1..e_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return VectorSequence._adopt(np.eye(n))


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """(x + 1j * y) / sqrt(2) for n x n standard normal draws x, then y,
    computed step for step in the result and one float buffer, so that every
    bit, and the sign of every zero, is that of the expression: 1j * y is
    (0 * y - 0) + (0 + y)i, adding x adds x to its real part and 0 to its
    imaginary part, and the division is numpy's complex one.  The result is
    allocated before the first draw: allocated after it, `family_sweep`'s
    peak RSS read about 2 MB higher (55.6-55.8 against 52.8-54.1 MB over
    three runs on a 2-vCPU x86_64 machine)."""
    v = np.empty((n, n), dtype=complex)
    real, imag = v.real, v.imag
    draw = rng.standard_normal((n, n))
    real[...] = draw
    rng.standard_normal(out=draw)
    np.add(draw, 0.0, out=imag)
    imag += 0.0
    draw *= 0.0
    draw -= 0.0
    real += draw
    v /= math.sqrt(2)
    return v


def random_riesz(n: int, seed=0) -> VectorSequence:
    """Seeded random Riesz basis.

    Entries are complex Gaussian, (x + iy)/sqrt(2) with x, y standard normal,
    redrawn until the condition number is at most 1e6.  Identical seeds give
    identical systems.  Each draw is factored once, in the system it returns.
    """
    rng = np.random.default_rng(seed)
    while True:
        seq = VectorSequence._adopt(_complex_gaussian(rng, n))
        sigma = _singular_values(seq)
        if sigma[-1] > 0.0 and sigma[0] / sigma[-1] <= RIESZ_CONDITION_LIMIT:
            return seq


def weighted_pair(n: int) -> GeneratedPair:
    """The pair (e_k / k) and (k e_k): biorthogonal, only one side bounded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1, dtype=float)
    primal = VectorSequence._adopt(np.diag(1.0 / k))
    partner = VectorSequence._adopt(np.diag(k))
    return GeneratedPair(primal, partner)


def alternating_weighted_pair(n: int) -> GeneratedPair:
    """(e_1, 2e_2, e_3/3, 4e_4, e_5/5, ...) with its reciprocal partner.

    Both sides have unbounded weight subsequences as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1, dtype=float)
    weights = np.where(k % 2 == 0, k, 1.0 / k)
    primal = VectorSequence._adopt(np.diag(weights))
    partner = VectorSequence._adopt(np.diag(1.0 / weights))
    return GeneratedPair(primal, partner)


def young_example(n_vectors: int) -> GeneratedPair:
    """(e_k + e_1)_{k=2..N+1} paired with (e_k)_{k=2..N+1} in dimension N+1.

    Both members are biorthogonal; the primal's span gets arbitrarily close
    to e_1 as N grows (distance 1/sqrt(N+1)) while the partner misses e_1
    exactly at every size.
    """
    return young_general(n_vectors, n_vectors, 1)


def young_general(subspace_dim: int, n_vectors: int, complement_dim: int = 1) -> GeneratedPair:
    """Orthonormal vectors in a subspace, each shifted by a complement vector.

    The ambient dimension is complement_dim + subspace_dim.  The partner
    consists of the first n_vectors orthonormal directions of the subspace;
    the primal adds to each of them one vector cycled from an orthonormal
    basis of the complement (every complement direction is reused, the finite
    stand-in for unbounded repetition).  complement_dim == 1 reduces to
    `young_example`.
    """
    if min(subspace_dim, n_vectors, complement_dim) < 1:
        raise DimensionError("all dimensions must be >= 1")
    if n_vectors > subspace_dim:
        raise DimensionError(
            f"cannot pick {n_vectors} orthonormal vectors in a {subspace_dim}-dimensional subspace"
        )
    dim = complement_dim + subspace_dim
    partner_cols = np.zeros((dim, n_vectors))
    primal_cols = np.zeros((dim, n_vectors))
    for k in range(n_vectors):
        partner_cols[complement_dim + k, k] = 1.0
        primal_cols[complement_dim + k, k] = 1.0
        primal_cols[k % complement_dim, k] = 1.0
    return GeneratedPair(VectorSequence._adopt(primal_cols), VectorSequence._adopt(partner_cols))


def _phase_table(x: np.ndarray, mus: np.ndarray, samples_per_unit: int,
                 columns=slice(None)) -> np.ndarray:
    """exp(2 pi i mu x) on the nonempty grid x of step 1/samples_per_unit, one
    column per entry of mus[columns], as the product of a coarse table at
    every step-th grid point and a fine table over the offsets
    b/samples_per_unit, b < step = isqrt(len(x)).  Both tables are evaluated
    once per mu and gathered to their columns, and their products are
    written straight into the result."""
    step = math.isqrt(x.size)
    coarse = np.exp(2j * np.pi * x[::step, None] * mus)[:, columns]
    fine = np.exp(2j * np.pi * (np.arange(step) / samples_per_unit)[:, None] * mus)[:, columns]
    table = np.empty((x.size, coarse.shape[1]), dtype=complex)
    # Row a*step + b is coarse[a] * fine[b]: the whole blocks of step rows,
    # then the rows left over, which take the first fine offsets.
    whole = x.size // step
    np.multiply(coarse[:whole, None], fine, out=table[:whole * step].reshape(whole, step, -1))
    np.multiply(coarse[whole:], fine[:x.size - whole * step], out=table[whole * step:])
    return table


def _gabor_tables(points: PointSet2D, disc: GaborDiscretization, mu_columns) -> tuple:
    """The factor tables of a sampled Gabor system, after its safe-window
    check and its phase check: `_phase_table` over columns `mu_columns` of
    the distinct modulations, and the normalized envelope at each distinct
    shift."""
    taus, tau_keys, _, mu_keys, mu_index, _ = points._split
    safe = disc.half_width - SAFE_WINDOW_MARGIN
    outside = np.flatnonzero(np.abs(taus) > safe)
    if outside.size:
        tau, mu = points.nodes[outside[0]]
        raise TruncationError(f"node ({tau}, {mu}) outside the safe window |tau| <= {safe}")
    # A phase argument 2 pi mu x stays finite: |x| <= X on the coarse grid,
    # and the fine offsets stay below 2X.
    limit = sys.float_info.max / (4.0 * math.pi * disc.half_width)
    overflow = np.flatnonzero(np.abs(mu_keys.view(float))[mu_index] > limit)
    if overflow.size:
        tau, mu = points.nodes[overflow[0]]
        raise ValueError(f"node ({tau}, {mu}): |mu| above {limit:.3g} overflows its phase")
    x = disc.grid()
    phases = _phase_table(x, mu_keys.view(float), disc.samples_per_unit, mu_columns)
    envelopes = disc.normalization * np.exp(-np.pi * (x[:, None] - tau_keys.view(float)) ** 2)
    return phases, envelopes


def gaussian_gabor(points: PointSet2D, disc: GaborDiscretization) -> VectorSequence:
    """Sampled Gaussian Gabor system, one column per node (tau, mu).

    Column entries are sqrt(1/s) * exp(-pi (x_l - tau)^2) * exp(2 pi i mu x_l)
    over the grid.  Every time shift must satisfy |tau| <= X - 3 so the
    Gaussian tail lost to truncation stays below the working tolerances.

    The build is separable: the normalized envelope is evaluated once per
    distinct tau and the phase once per distinct mu, and each column is the
    product of its node's two factors.  Distinct values are told apart by
    their bit pattern, so -0.0 and 0.0 each keep their own factor; the point
    set finds them on the first build and keeps them.  The phases are
    written straight into the result and the gathered envelopes multiplied
    into it in place, so the build holds the result, the envelope table and
    one gathered envelope copy (half the result's bytes) at most.  The
    product is phase * envelope, in that order: numpy's complex multiply may
    fuse a product and a sum, so where a product underflows the operand
    order sets the sign of its zero.

    The phase comes from two tables.  With L grid points and a step
    B = isqrt(L), exp(2 pi i mu x) is evaluated at the coarse points
    x_0, x_B, x_2B, ... and exp(2 pi i mu b/s) at the fine offsets b < B;
    the phase at x_(aB+b) is their product.  That is ceil(L/B) + B complex
    exponentials per distinct mu, about 2 sqrt(L), and one complex multiply
    per entry; both tables are gathered to the nodes, so no table over the
    whole grid is built.  Entries move from the per-node formula in their
    last bits but are as accurate: each lies within 4 eps * (1 + 2 pi |mu| X)
    times its modulus of the exact phase at -X + l/s, as the per-node
    formula's entries do.  Two properties hold exactly.  The phase angle of
    -mu is the negated angle of mu, and a product of conjugates is the
    conjugate of the product, so the columns of (tau, mu) and (tau, -mu) are
    exact conjugates, up to the sign of a zero (as where x_l = 0).  A column
    with mu = +-0 is real, its entries bit-identical to the per-node
    formula's.
    """
    _, _, tau_index, _, mu_index, _ = points._split
    # The phases become the result, C-contiguous: adopted, not copied.
    columns, envelopes = _gabor_tables(points, disc, mu_index)
    np.multiply(columns, envelopes[:, tau_index], out=columns)
    return VectorSequence._adopt(columns)


def _gabor_twin(points: PointSet2D, disc: GaborDiscretization) -> VectorSequence:
    """The real twin of `gaussian_gabor(points, disc)`, a float64 system built
    from the node pairing without the complex system; for a set not closed
    under mu -> -mu, `gaussian_gabor(points, disc)` itself.

    The twin is [real columns, sqrt(2) Re f, sqrt(2) Im f] in a canonical
    layout: first the columns of the real nodes (mu = +-0) in node order,
    whose phase is exactly 1, so each is its envelope; then for each pair,
    ordered by its first node, sqrt(2) Re f, and then, in a second block in
    the same order, sqrt(2) Im f of that first node's column f.  Each of
    those entries is sqrt(2) * (Re phase * envelope), or the same with
    Im phase, rounded in that order, as sqrt(2) Re f and sqrt(2) Im f round
    when taken from `gaussian_gabor`'s columns: this layout gathered from
    the complex system agrees with the twin bit for bit but for the sign of
    a zero where an envelope underflows.  The twin is F U with U unitary (a
    2x2 block (1, -i; 1, i)/sqrt(2) per pair, times a column permutation),
    so it has the singular values and the complex span of F, all that the
    bounds, the rank and `span_distance` read.
    """
    _, _, tau_index, _, mu_index, partner = points._split
    if (partner < 0).any():
        return gaussian_gabor(points, disc)
    node = np.arange(partner.size)
    real, first = np.flatnonzero(partner == node), np.flatnonzero(node < partner)
    phases, envelopes = _gabor_tables(points, disc, slice(None))
    twin = np.empty((disc.sample_count, partner.size))
    twin[:, :real.size] = envelopes[:, tau_index[real]]
    pair_envelopes = envelopes[:, tau_index[first]]
    # Each block is computed in a contiguous gather and copied in: ufuncs
    # writing the strided blocks directly buffer them, more slowly.
    for part, start in ((phases.real, real.size), (phases.imag, real.size + first.size)):
        block = part[:, mu_index[first]]
        block *= pair_envelopes
        block *= np.sqrt(2.0)
        twin[:, start:start + first.size] = block
    return VectorSequence._adopt(twin)


def lattice_points(a: float, b: float, max_index: int) -> PointSet2D:
    """All nodes (j*a, k*b) with |j|, |k| <= max_index."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("lattice steps must be positive")
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    span = range(-max_index, max_index + 1)
    return PointSet2D(tuple((j * a, k * b) for j in span for k in span))


def punctured_lattice(max_index: int) -> PointSet2D:
    """The integer lattice window with the node (1, 0) removed: the nodes of
    `lattice_points(1.0, 1.0, max_index)`, in their order, without (1, 0)."""
    window = lattice_points(1.0, 1.0, max_index).nodes
    return PointSet2D(tuple(node for node in window if node != (1.0, 0.0)))


def als_point_set(n_max: int) -> PointSet2D:
    """{(-1,0), (1,0)} plus (0, +-sqrt(2n)) and (+-sqrt(2n), 0) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    nodes = [(-1.0, 0.0), (1.0, 0.0)]
    for n in range(1, n_max + 1):
        r = math.sqrt(2.0 * n)
        nodes.extend([(0.0, r), (0.0, -r), (r, 0.0), (-r, 0.0)])
    return PointSet2D(tuple(nodes))
