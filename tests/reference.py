"""Direct-spectra references for the tests: whole spectra grids over parameter sets.

No engine builds these grids; the tests compare the engines' orbit, column
and rank routes against them.  spectra_block transforms one truth table
per (b, c), indexed by x, and reindexes through walsh_perm, so it shares
with walsh_spectrum only fwht and the trace rows.
"""

from __future__ import annotations

import numpy as np

from gkasami import quadform as qf
from gkasami.gf2n import FieldCtx, TooLarge
from gkasami.histogram import ValueHistogram


def spectra_block(ctx: FieldCtx, k: int, b_list, c_list) -> np.ndarray:
    """Spectra of all forms with b in b_list, c in c_list.

    Returns an int64 array of shape (len(b_list), len(c_list), 2^n) whose
    last axis is indexed by lambda: fwht of the +-1 tables indexed by x,
    reindexed through walsh_perm.  Raises TooLarge when the block would
    pass quadform's memory cap at its bytes per transformed value.
    """
    qf.require_valid_k(ctx.n, k)
    b_list = [int(b) for b in b_list]
    c_list = qf._subfield_list(ctx, c_list)
    order = ctx.order
    if len(b_list) * len(c_list) * order * qf._TRANSFORM_BYTES > qf._BLOCK_BYTES_CAP:
        raise TooLarge(
            f"spectra block of {len(b_list)}x{len(c_list)}x{order} exceeds the memory cap"
        )
    e1, e2 = qf.exponents(ctx, k)
    u = qf.trace_rows(ctx, b_list, e1, ctx.tr1)
    v = qf.trace_rows(ctx, c_list, e2, ctx.trh)
    return qf.fwht(1 - 2 * (u[:, None, :] ^ v[None, :, :]).view(np.int8))[..., ctx.walsh_perm]


def spectrum_distribution(ctx: FieldCtx, k: int, b_set, c_set, lambda_set,
                          multiplicity: int = 1) -> ValueHistogram:
    """Histogram of transform values over b_set x c_set x lambda_set.

    Every triple is counted `multiplicity` times; counts are exact ints.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    block = spectra_block(ctx, k, sorted(set(b_set)), sorted(set(c_set)))
    lam = np.array(sorted(set(lambda_set)), dtype=np.int64)
    return ValueHistogram.from_array(block[:, :, lam], multiplicity)
