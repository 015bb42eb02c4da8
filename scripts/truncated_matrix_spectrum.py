"""What does literal diagonalization of the truncated H give? (exploratory)

The plain truncated H is exactly Hermitian, so its spectrum is real and
cannot approximate either complex analytic family; the interesting part
is watching the eigenvalue histogram fail to settle as n_max grows. No
verification claim is attached to this script.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from bateman.construction import eigenvalue
from bateman.fock import build_hamiltonian, build_ladder, dense
from bateman.imagscale import IS
from bateman.params import derive_params


@dataclass
class Config:
    n_maxes: tuple = (6, 10, 14)
    m: float = 1.0
    gamma: float = 1.0
    k: float = 1.25


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, action="append", dest="n_maxes")
    args = ap.parse_args(argv)
    cfg = Config()
    if args.n_maxes:
        cfg.n_maxes = tuple(args.n_maxes)

    params = derive_params(m=cfg.m, gamma=cfg.gamma, k=cfg.k)
    analytic = sorted(
        eigenvalue(IS, n1, n2, "+").as_complex(params).real
        for n1 in range(3)
        for n2 in range(3)
    )
    print(f"# analytic real parts (imag-scale, low states): {analytic}")

    for n_max in cfg.n_maxes:
        lad = build_ladder(n_max)
        # the dense eigensolver needs the whole matrix, not the sparse operator
        h = dense(build_hamiltonian(lad, params).h)
        herm = float(np.max(np.abs(h - h.conj().T)))
        evals = np.linalg.eigvalsh(h)
        # low edge of the spectrum, where convergence would show first
        low = np.sort(evals)[:6]
        print(f"n_max={n_max:3d} dim={lad.space.dim:4d} hermiticity={herm:.1e} "
              f"low eigenvalues: {np.array2string(low, precision=4)}")
    print("# the low edge keeps sliding with n_max: the truncated plain H has no")
    print("# stable spectral limit to compare against, which is why verification")
    print("# runs through the transformed bases instead")
    return 0


if __name__ == "__main__":
    sys.exit(main())
