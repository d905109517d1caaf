"""Extending a map that is only known on a subspace.

At a rank collapse the propagator is pinned down only on the image of the
map; whether a CPTP extension to all operators exists is a convex
feasibility question about Choi matrices.  The interior-point solver
finds extensions for the collapse subspaces of every preset and returns a
dual certificate of infeasibility for a deliberately non-extendable
prescription.
"""

import numpy as np

from markovlens import (
    SubspaceMapSpec,
    extend_cp,
    gram_schmidt_hermitian,
    jencova_reduce,
    positively_generated_check,
    verify_extension,
    verify_infeasibility,
)
from markovlens.operator_core import GROUND_PROJECTOR, PAULI_X, PAULI_Z

# --- is the domain spanned by positive operators? ---------------------------
for name, span in [("span{I, sigma_z}", [np.eye(2), PAULI_Z]),
                   ("span{P0}", [GROUND_PROJECTOR]),
                   ("span{sigma_x}", [PAULI_X])]:
    basis = gram_schmidt_hermitian(span)
    ok, cert = positively_generated_check(basis)
    print(f"{name:18s} positively generated: {ok}")

# the reduction conjugates the subspace into an operator system
basis = gram_schmidt_hermitian([np.eye(2), PAULI_Z])
rho, support, m_prime = jencova_reduce(basis)
print("\nreduction element rho:\n", np.round(rho, 6))
print("support projector:\n", np.round(support, 6))

# --- feasible: identity on the dephasing image ------------------------------
spec = SubspaceMapSpec(domain=basis,
                       images=tuple(g.copy() for g in basis.elements),
                       dim=2, require_tp=True)
res = extend_cp(spec)
print(f"\nidentity on span(I, sigma_z): {res.status.value} "
      f"after {res.iterations} Newton steps")
print("independent re-check:", verify_extension(res.choi, spec, tol=1e-7)["ok"])

# --- infeasible: an expanding direction has no CP extension -----------------
expanding = SubspaceMapSpec(domain=basis,
                            images=(basis.elements[0].copy(),
                                    1.5 * basis.elements[1]),
                            dim=2, require_tp=True)
res_bad = extend_cp(expanding)
check = verify_infeasibility(res_bad.certificate, expanding)
print(f"\nexpansion by 1.5 on sigma_z: {res_bad.status.value}, "
      f"certificate value {check['value']:.3e}")
print("independent re-check of the certificate:", check["ok"])
