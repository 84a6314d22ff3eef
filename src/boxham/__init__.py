"""Spectral structure of lattice operators with box-constant disorder.

Finite truncations of Delta + sum_n omega_n P_n on Z^d with the potential
constant over rectangular boxes: geometry and exact operator identities
(`lattice`), restricted resolvents and the large-r Schur/Neumann reduction
(`resolvent`), boundary-perturbed tridiagonal expansions (`tridiag`),
Kronecker-sum cluster analysis (`cluster`), the coefficient-separation design
(`separation`), exact cyclotomic zero tests (`cyclotomic`), compensated
arithmetic (`compensated`), and the reproducible experiment harness + CLI
(`harness`, `cli`).

The modules are the API and the package re-exports nothing: import from
them, as in ``from boxham.harness import load_config``.
"""
