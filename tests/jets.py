"""Point evaluation of the quadratic action jets and KAM Hamiltonians, for tests."""

import numpy as np


def evaluate_jet(jet, theta, t, rho):
    """r0 + <r1, rho> + <rho, r2 rho> of an ActionJet at N points; rho is (N, d)."""
    return (jet.r0.evaluate(theta, t)
            + np.einsum("nj,nj->n", jet.r1.evaluate(theta, t), rho)
            + np.einsum("nj,njk,nk->n", rho, jet.r2.evaluate(theta, t), rho))


def kam_hamiltonian(st, theta, t, rho):
    """A KamState's Hamiltonian at N points (theta, t, rho), rho the offset from its centre."""
    epa = st.eps ** (-st.a)
    out = st.const + epa * (rho @ st.omega
                            + np.einsum("nj,jk,nk->n", rho, st.Omega, rho))
    out = out + evaluate_jet(st.low, theta, t, rho)
    if st.high is not None and st.high.n_modes:
        out = out + st.high.evaluate(theta, t, rho)
    return out
