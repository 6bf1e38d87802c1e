"""Point evaluation of KAM Hamiltonians, for tests."""

import numpy as np


def kam_hamiltonian(st, theta, t, rho):
    """A KamState's Hamiltonian at N points (theta, t, rho), rho the offset from its centre."""
    epa = st.eps ** (-st.a)
    return (st.const + epa * (rho @ st.omega + np.einsum("nj,jk,nk->n", rho, st.Omega, rho))
            + st.R.evaluate(theta, t, rho))
