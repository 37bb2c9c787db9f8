#!/usr/bin/env python3
"""Biorthogonal duals and the reconstruction identity.

A linearly independent system has a unique biorthogonal partner inside its
own span (columns F Gram^-1).  Pairing a system with a biorthogonal partner
gives back coefficients (<sum c_k f_k, g_j> = c_j) and, when the partner is
complete, reconstructs vectors: sum_k <h, g_k> f_k = h.  Every biorthogonal
partner satisfies the paper's inequality A_F * B_G >= 1, with equality for
the minimal dual.
"""

import numpy as np

import rieszlab as rl

print("=" * 70)
print("Minimal dual of a skewed pair in the plane")
print("=" * 70)
system = rl.VectorSequence(np.array([[1.0, 1.0], [0.0, 1.0]]))
dual = rl.minimal_dual(system)
print("system columns:")
print(system.columns.real)
print("dual columns:")
print(dual.columns.real)
print(f"biorthogonality residual : {rl.biorthogonality_residual(system, dual):.2e}")
print(f"reconstruction residual  : {rl.duality_identity_residual(system, dual):.2e}")

print()
print("Coefficients survive the round trip through the dual, G^H (F c) = c:")
c = np.array([2.0, -1.0 + 0.5j])
recovered = dual.columns.conj().T @ (system.columns @ c)
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
print("The paper's inequality: A_F * B_G >= 1 for every biorthogonal partner")
print("=" * 70)
print("From ||c||^2 = sum_j |<sum_k c_k f_k, g_j>|^2 <= B_G ||sum_k c_k f_k||^2;")
print("the minimal dual attains it, and A_G * B_F >= 1 by symmetry.")


def products(primal, partner):
    lower, upper = rl.riesz_bounds(primal)
    dual_lower, dual_upper = rl.riesz_bounds(partner)
    return f"A_F*B_G = {lower * dual_upper:.12f}   A_G*B_F = {dual_lower * upper:.12f}"


print(f"basis, minimal dual             : {products(basis, rl.minimal_dual(basis))}")
pair = rl.young_example(4)
dual = rl.minimal_dual(pair.primal)
print(f"Young N=4, minimal dual         : {products(pair.primal, dual)}")
print(f"Young N=4, designated partner   : {products(pair.primal, pair.partner)}")
print("classify checks the minimal dual's identity; here it holds, so it returns")
print(f"{rl.classify(pair.primal).kind.value} for the Young system.")

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
