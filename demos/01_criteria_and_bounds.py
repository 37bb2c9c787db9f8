#!/usr/bin/env python3
"""Tour of the basic diagnostics: bound constants, completeness, verdicts.

Every finite system of vectors f_1..f_m in complex n-space satisfies optimal
two-sided bounds

    A sum |c_k|^2 <= || sum c_k f_k ||^2 <= B sum |c_k|^2,

and the package computes them as extreme eigenvalues of the Gram matrix,
cross-checked against the singular values of the column matrix.  `classify`
turns the numbers into one of three verdicts.
"""

import numpy as np

import rieszlab as rl

print("=" * 70)
print("An orthonormal system: the reference point")
print("=" * 70)
ortho = rl.orthonormal(4)
verdict = rl.classify(ortho)
print(f"verdict      : {verdict.kind.value}")
print(f"bounds (A, B): ({verdict.bounds.riesz_lower:.3f}, {verdict.bounds.bessel_upper:.3f})")
print(f"defect       : {verdict.bounds.completeness_defect}")
print(f"conditioning : {verdict.bounds.conditioning:.3f}")

print()
print("=" * 70)
print("A skewed basis: image of the orthonormal system under V = [[1,1],[0,1]]")
print("=" * 70)
skewed = rl.VectorSequence(np.array([[1.0, 1.0], [0.0, 1.0]]))
verdict = rl.classify(skewed)
lower, upper = rl.riesz_bounds(skewed)
print(f"verdict      : {verdict.kind.value}")
print(f"bounds (A, B): ({lower:.6f}, {upper:.6f})")
print("The bounds are the squared extreme singular values of V:")
sigma = np.linalg.svd(skewed.columns, compute_uv=False)
print(f"sigma^2      : ({sigma[-1]**2:.6f}, {sigma[0]**2:.6f})")

print()
print("Under the inner product induced by W = (V V^H)^-1 the same system")
print("is orthonormal again.  W = G G^H for the biorthogonal sequence G (the")
print("minimal dual), and the W-Gram matrix is the identity:")
dual = rl.minimal_dual(skewed).columns
w = dual @ dual.conj().T
w_gram = skewed.columns.conj().T @ w @ skewed.columns
print(np.round(w_gram.real, 12))

print()
print("=" * 70)
print("Losing independence and losing completeness")
print("=" * 70)
dependent = rl.VectorSequence(np.array([[1.0, 2.0], [0.0, 0.0]]))
print(f"two parallel vectors        : {rl.classify(dependent).kind.value}")
tall = rl.VectorSequence(np.eye(4)[:, :2])
print(f"two of four directions      : {rl.classify(tall).kind.value}"
      f" (defect {rl.completeness_defect(tall)})")
h = np.array([0.0, 0.0, 1.0, 1.0])
print(f"distance from (0,0,1,1) to their span: {rl.span_distance(tall, h):.6f}"
      f"  (exact value sqrt(2) = {np.sqrt(2):.6f})")
