"""The closed-form projections onto a monotone cone that dlfmkit.kernels
used before every polyhedral set went through its active-set loop, kept
verbatim as a reference: pooling adjacent violators (PAVA), and PAVA then
clipping under bounds that are one scalar pair on every coordinate.

`monotone_scalar_bounds(poly)` takes canonical atoms (kernels.canonical_atoms)
and returns the projection onto them where it is that closed form, None
otherwise.
"""

import numpy as np

from dlfmkit import model

_MONOTONE_KINDS = (model.MONOTONE_NONINCREASING, model.MONOTONE_NONDECREASING)


def pava_nondecreasing(v: np.ndarray) -> np.ndarray:
    """Isotonic (nondecreasing) projection by pooling adjacent violators."""
    vals: list[float] = []
    cnts: list[int] = []
    for x in np.asarray(v, dtype=float):
        vals.append(float(x))
        cnts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, c2 = vals.pop(), cnts.pop()
            v1, c1 = vals.pop(), cnts.pop()
            vals.append((v1 * c1 + v2 * c2) / (c1 + c2))
            cnts.append(c1 + c2)
    return np.repeat(vals, cnts)


def pava_nonincreasing(v: np.ndarray) -> np.ndarray:
    return -pava_nondecreasing(-np.asarray(v, dtype=float))


def monotone_scalar_bounds(poly):
    """Exact projection onto one monotone cone intersected with uniform bounds.

    Clipping an isotonic fit at scalar bounds preserves the ordering and the
    pooled-block optimality conditions, so clip(pava(v)) is the intersection
    projection. Bounds that differ across coordinates do not qualify:
    clipping there can break the ordering. Returns that map when the
    canonical atoms poly are a box with one bound pair on every coordinate
    followed by a monotone atom, None otherwise.
    """
    if len(poly) != 2 or poly[0].kind != model.BOX or poly[1].kind not in _MONOTONE_KINDS:
        return None
    lo, hi = poly[0].lo, poly[0].hi
    if np.any(lo != lo[0]) or np.any(hi != hi[0]):
        return None
    lo, hi = lo[0], hi[0]
    if poly[1].kind == model.MONOTONE_NONINCREASING:
        return lambda v: np.clip(pava_nonincreasing(v), lo, hi)
    return lambda v: np.clip(pava_nondecreasing(v), lo, hi)
