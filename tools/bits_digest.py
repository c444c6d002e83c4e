"""Print one SHA-256 over the operator builds of the benchmark clouds.

A change meant to keep the numbers the same should print the same digest
before and after it. The digest covers the r = 2 and r = 3 gradient_operator
builds of franke L4 jittered, plate L3 jittered, cantilever L2 structured and
cantilever L1 jittered (seed 0): of each component, the CSR data, indices and
indptr and the verify_moments deviations; of each build, eps, support_size and
condition. Each array enters as a label, its shape and its little-endian
float64 or int64 bytes.

The r = 3 3-d moment matrices go through the BLAS, whose bits can differ from
one machine or library to another, so compare digests taken on one machine.

Run from anywhere:  python tools/bits_digest.py
It imports the package from the src/ directory beside this script.
"""

import hashlib
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dcpse import build_index, generate_nodes, gradient_operator, verify_moments  # noqa: E402

CLOUDS = (
    ("franke", 4, "jittered"),
    ("plate", 3, "jittered"),
    ("cantilever", 2, "structured"),
    ("cantilever", 1, "jittered"),
)
ORDERS = (2, 3)


def _feed(digest, label: str, values) -> None:
    values = np.asarray(values)
    kind = "<f8" if values.dtype.kind == "f" else "<i8"
    digest.update(f"{label} {values.shape}\n".encode())
    digest.update(np.ascontiguousarray(values, dtype=kind).tobytes())


def main() -> None:
    digest = hashlib.sha256()
    for problem, level, kind in CLOUDS:
        cloud = generate_nodes(problem, level, kind, seed=0)
        index = build_index(cloud)
        for r in ORDERS:
            ops = gradient_operator(cloud, index, r)
            tag = f"{problem} L{level} {kind} r={r}"
            for name in ("eps", "support_size", "condition"):
                _feed(digest, f"{tag} {name}", getattr(ops[0], name))
            for op in ops:
                matrix = op._matrix
                for name in ("data", "indices", "indptr"):
                    _feed(digest, f"{tag} {op.alpha} {name}", getattr(matrix, name))
                _feed(digest, f"{tag} {op.alpha} verify_moments", verify_moments(op))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
