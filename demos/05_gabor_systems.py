#!/usr/bin/env python3
"""Gaussian Gabor systems on time-frequency point sets.

A node (tau, mu) stands for the time-shifted, frequency-modulated Gaussian
e^(2 pi i mu x) g(x - tau) with g(x) = e^(-pi x^2).  Sampling on a uniform
grid over [-X, X) with column scaling sqrt(1/s) makes discrete inner products
Riemann sums of the underlying integrals, so closed forms are available to
check the discretization against.
"""

import numpy as np

import rieszlab as rl

disc = rl.GaborDiscretization(half_width=6.0, samples_per_unit=16)
print(f"grid: {disc.sample_count} samples, step {1 / disc.samples_per_unit}")

print()
print("=" * 70)
print("Single Gaussian: norm against the closed form 2^(-1/4)")
print("=" * 70)
single = rl.gaussian_gabor(rl.PointSet2D(((0.0, 0.0),)), disc)
norm = np.linalg.norm(single.columns[:, 0])
print(f"discrete norm: {norm:.10f}")
print(f"closed form  : {2**-0.25:.10f}")

print()
print("=" * 70)
print("Overlaps: a unit time shift and a unit frequency shift agree")
print("=" * 70)
closed_form = 2**-0.5 * np.exp(-np.pi / 2)
for label, node in (("time  shift (1,0)", (1.0, 0.0)), ("freq. shift (0,1)", (0.0, 1.0))):
    pair = rl.gaussian_gabor(rl.PointSet2D(((0.0, 0.0), node)), disc)
    overlap = abs(np.vdot(pair.columns[:, 1], pair.columns[:, 0]))
    print(f"  {label}: |<v1, v2>| = {overlap:.9f}   (closed form {closed_form:.9f})")

print()
print("=" * 70)
print("Three point sets and their finite-section bounds")
print("=" * 70)
for label, points in (
    ("full lattice, |j|,|k| <= 2 ", rl.lattice_points(1.0, 1.0, 2)),
    ("punctured lattice, no (1,0)", rl.punctured_lattice(2)),
    ("two-cross point set        ", rl.als_point_set(2)),
):
    system = rl.gaussian_gabor(points, disc)
    lower, upper = rl.riesz_bounds(system)
    print(f"  {label}: {len(points):3d} nodes, A = {lower:.6f}, B = {upper:.6f}")
print("  The upper bounds sit near each other; the lower bounds melt away as")
print("  nodes accumulate, so none of these families keeps a two-sided bound.")

print()
print("=" * 70)
print("Grid refinement: the bounds track the system, not the grid")
print("=" * 70)
points = rl.punctured_lattice(2)
uppers = []
for rate in (12, 16, 32):
    lower, upper = rl.riesz_bounds(rl.gaussian_gabor(points, rl.GaborDiscretization(6.0, rate)))
    uppers.append(upper)
    print(f"  s = {rate:2d}: A = {lower:.8f}, B = {upper:.8f}")
print(f"  upper bounds vary by {max(uppers) / min(uppers) - 1:.1e} across the three rates")

print()
print("=" * 70)
print("Safe window: time shifts too close to the grid edge are refused")
print("=" * 70)
try:
    rl.gaussian_gabor(rl.PointSet2D(((4.0, 0.0),)), disc)
except rl.TruncationError as exc:
    print(f"  TruncationError: {exc}")
print("  Widen the window instead:")
wide = rl.GaborDiscretization(7.0, 16)
system = rl.gaussian_gabor(rl.PointSet2D(((4.0, 0.0),)), wide)
print(f"  at half-width 7, the (4, 0) column has norm {np.linalg.norm(system.columns[:, 0]):.8f}")
