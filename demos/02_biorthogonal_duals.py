#!/usr/bin/env python3
"""Biorthogonal duals and the reconstruction identity.

A linearly independent system has a unique biorthogonal partner inside its
own span (columns F Gram^-1).  Pairing a system with a biorthogonal partner
gives back coefficients (<sum c_k f_k, g_j> = c_j) and, when the partner is
complete, reconstructs vectors: sum_k <h, g_k> f_k = h.
"""

import numpy as np

import rieszlab as rl

print("=" * 70)
print("Minimal dual of a skewed pair in the plane")
print("=" * 70)
system = rl.VectorSequence.from_columns(np.array([[1.0, 1.0], [0.0, 1.0]]))
dual = rl.minimal_dual(system)
print("system columns:")
print(system.columns.real)
print("dual columns:")
print(dual.columns.real)
print(f"biorthogonality residual : {rl.biorthogonality_residual(system, dual):.2e}")
print(f"reconstruction residual  : {rl.duality_identity_residual(system, dual):.2e}")

print()
print("Coefficients survive the round trip through the dual:")
c = np.array([2.0, -1.0 + 0.5j])
recovered = np.asarray(rl.injectivity_witness(system, dual, c))
print(f"c         = {c}")
print(f"recovered = {np.round(recovered, 12)}")

print()
print("=" * 70)
print("Duality is an involution on bases")
print("=" * 70)
basis = rl.random_riesz(5, seed=11)
again = rl.minimal_dual(rl.minimal_dual(basis))
print(f"|| dual(dual(F)) - F ||_max = {np.abs(again.columns - basis.columns).max():.2e}")

print()
print("=" * 70)
print("Incomplete systems: equal defects on both sides of the pairing")
print("=" * 70)
pair = rl.young_example(4)
dual = rl.minimal_dual(pair.primal)
defect_primal = rl.completeness_defect(pair.primal)
defect_dual = rl.completeness_defect(dual)
print(f"defect of the system       : {defect_primal}")
print(f"defect of its minimal dual : {defect_dual}")
print(f"equal                      : {defect_primal == defect_dual}")

print()
print("The minimal dual never leaves the span; any component in the")
print("orthogonal complement would be invisible to biorthogonality:")
u, s, _ = np.linalg.svd(pair.primal.columns, full_matrices=True)
complement = u[:, 4:]  # rank is 4 in dimension 5
leakage = np.linalg.norm(complement.conj().T @ dual.columns)
print(f"complement component of the dual columns: {leakage:.2e}")

print()
print("With the designated (non-minimal) partner of the same construction the")
print("reconstruction identity fails, and the failure grows with size:")
for n in (4, 9, 16):
    p = rl.young_example(n)
    residual = rl.duality_identity_residual(p.primal, p.partner)
    print(f"  N={n:2d}: residual = {residual:.6f}   (sqrt(N+1) = {np.sqrt(n+1):.6f})")
