"""Per-layer kernel timings: the dense kernels against their block-by-block form.

    python bench/run.py [--out FILE]

Times, in CPU seconds of this process with BLAS on one thread:

- `scipy.linalg.expm` of the whole matrix against `fock.matrix_exp` for
  0.3 X, 0.3 Y and 0.3 Z at n_max in {12, 24, 32};
- `np.linalg.svd` of the whole stacked check-annihilator pair against
  `imagscale._joint_null_vector` in the original frame (chi = i pi/4) and
  the bounded frame at n_max in {12, 24}.

Each kernel runs REPEATS = 5 times; the median, minimum and
maximum are reported with the block count, the size of the largest block
and the gap between the two results (for expm the largest entrywise gap
relative to the largest entry; for the SVD 1 - |<dense, block>| of the
unit null vectors).
The JSON record goes to FILE, or to stdout without `--out`, and carries the
machine: core count, Python, numpy, scipy and BLAS versions.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bateman.construction import transform  # noqa: E402
from bateman.fock import _closed_blocks, blocks, build_ladder, matrix_exp  # noqa: E402
from bateman.ft import generator_matrix  # noqa: E402
from bateman.imagscale import (  # noqa: E402
    IS,
    _joint_null_vector,
    generator_y_matrix,
    generator_z_matrix,
    is_check_rep,
)
from bateman.params import derive_params  # noqa: E402

EXP_N_MAX = (12, 24, 32)
SVD_N_MAX = (12, 24)
REPEATS = 5
CHI_Q = 1j * math.pi / 4
GENERATORS = {"X": generator_matrix, "Y": generator_y_matrix, "Z": generator_z_matrix}


def timed(fn) -> tuple[dict, object]:
    """CPU seconds of REPEATS calls of fn: median, min, max; and the last result."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        result = fn()
        times.append(time.process_time() - start)
    return {"median_s": statistics.median(times), "min_s": min(times),
            "max_s": max(times)}, result


def exp_rows() -> list[dict]:
    rows = []
    for n_max in EXP_N_MAX:
        lad = build_ladder(n_max)
        for name, generator in GENERATORS.items():
            a = 0.3 * generator(lad)
            dense, want = timed(lambda: scipy.linalg.expm(a))
            block, got = timed(lambda: matrix_exp(a))
            parts = _closed_blocks(a)
            rows.append({
                "kernel": "expm", "operator": name, "n_max": n_max, "dim": lad.space.dim,
                "blocks": len(parts), "largest_block_dim": max(len(idx) for idx in parts),
                "dense": dense, "block": block,
                "speedup": dense["median_s"] / block["median_s"],
                "max_rel_gap": float(np.max(np.abs(got - want)) / np.max(np.abs(want))),
            })
    return rows


def svd_rows() -> list[dict]:
    params = derive_params(m=1.0, gamma=1.0, k=1.25)
    rows = []
    for n_max in SVD_N_MAX:
        lad = build_ladder(n_max)
        frames = {"original": transform(IS, CHI_Q, lad),
                  "bounded": is_check_rep(CHI_Q, lad, params)}
        for frame_name, frame in frames.items():
            stacked = np.vstack([frame.ann1, frame.ann2])
            dense, (_, _, vh) = timed(lambda: np.linalg.svd(stacked))
            block, got = timed(
                lambda: _joint_null_vector(stacked, "check annihilator", frame))
            parts = blocks(stacked)
            rows.append({
                "kernel": "nullspace_svd", "frame": frame_name, "n_max": n_max,
                "shape": list(stacked.shape), "blocks": len(parts),
                "largest_block_entries": max(len(r) * len(c) for r, c in parts),
                "dense": dense, "block": block,
                "speedup": dense["median_s"] / block["median_s"],
                "overlap_gap": float(1.0 - abs(np.vdot(vh[-1].conj(), got))),
            })
    return rows


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "clock": "time.process_time (CPU seconds of this process)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    record = {"machine": machine(), "repeats": REPEATS, "kernels": exp_rows() + svd_rows()}
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
