"""Matrix factorizations with pinned sign conventions.

Every routine here is deterministic for a fixed input: singular vectors are
sign-normalized so the largest-magnitude entry of each left vector is
positive (ties broken by lowest index), and QR bases make the corresponding
R diagonal nonnegative. Rank decisions use the threshold 1e-12 * sigma_1.
:func:`left_singular` gives the left singular vectors of a wide matrix, such
as an unfolding, from the R factor of its transpose's QR, so the right
singular vectors are never formed; :func:`svd` serves the small sketches.
That R comes from a TSQR when the transpose is narrow: its rows are cut into
blocks of 64 KiB, one batched QR takes every block's R, and the stacked R
factors, with the leftover rows, are factored the same way until fewer than
two blocks remain. A transpose wider than 64 columns, whose block could not
hold twice its width in rows, or shorter than two blocks takes one QR.
Every factorization rejects matrices holding NaN or infinity with a
``ValueError``. Every decomposition factorizes a sketch or an unfolding of its
input, so this is where a non-finite tensor is caught, without a separate pass
over the tensor.
"""

import numpy as np

from .core import positive_int

RANK_RTOL = 1e-12
# entries per block of left_singular's TSQR (64 KiB of doubles)
_BLOCK = 1 << 13


def svd(a):
    """Full (thin) SVD with the package sign convention.

    Returns ``(u, s, vt)`` with ``u @ diag(s) @ vt == a``, singular values
    non-increasing, and each column of ``u`` (with the matching row of
    ``vt``) flipped so its largest-magnitude entry is positive.
    """
    a = check_finite(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    flip = column_sign_flips(u)
    return u * flip, s, vt * flip[:, None]


def left_singular(a, width):
    """Leading ``width`` left singular vectors of ``a`` and all its singular values.

    Takes an R factor of the QR of ``a.T`` and the SVD of the small ``R.T``:
    since ``a = R.T @ Q.T`` with orthonormal ``Q``, both share their left
    singular vectors and singular values, and the QR is backward stable, so
    the accuracy is the SVD's. Neither ``Q`` nor any right singular vector
    is formed. R is that of a TSQR (Demmel, Grigori, Hoemmen and Langou
    2012): with I = ``a.shape[0]``, ``a.T`` is cut into blocks of
    ``_BLOCK // I`` rows, one batched Householder QR gives every block's R,
    and the stacked R factors plus the ragged tail are reduced the same way
    until fewer than two blocks remain, then take one last QR. When a block
    cannot hold 2·I rows (I > 64), or ``a.T`` is shorter than two blocks,
    that last QR is the only one, the single Householder QR of ``a.T``.
    Returns ``(u, s)`` with ``u`` of shape (rows, ``width``), signs as in
    :func:`svd`, and ``s`` the ``min(a.shape)`` singular values,
    non-increasing. A ``width`` above ``min(a.shape)`` completes ``u`` with
    orthonormal columns orthogonal to the range, in rows x ``width`` memory:
    no rows x rows array is formed.
    """
    a = check_finite(a)
    if not 1 <= width <= a.shape[0]:
        raise ValueError(
            f"basis width must be in 1..{a.shape[0]} for shape {a.shape}, got {width}"
        )
    m, i = a.T, a.shape[0]
    rows = _BLOCK // i
    while rows >= 2 * i and (k := len(m) // rows) >= 2:
        # the k leading blocks are a view for a C- or F-contiguous a
        r = np.linalg.qr(m[: k * rows].reshape(k, rows, i), mode="r")
        m = np.concatenate([r.reshape(-1, i), m[k * rows :]])
    r = np.linalg.qr(m, mode="r")
    u, s, _ = np.linalg.svd(r.T, full_matrices=False)
    if width > u.shape[1]:
        # the Householder Q of [u | leading identity columns] is orthonormal
        # whatever their rank; its trailing columns complete u
        q = np.linalg.qr(np.hstack([u, np.eye(i, width - u.shape[1])]))[0]
        u = np.hstack([u, q[:, u.shape[1]:]])
    u = u[:, :width]
    return u * column_sign_flips(u), s


def check_finite(a):
    """``a`` as a float array; ``ValueError`` if it holds NaN or infinity."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(
            f"matrix of shape {a.shape} has non-finite entries (NaN or infinity); "
            "the input tensor must be finite"
        )
    return a


def column_sign_flips(u):
    """+-1 per column making each column's largest-magnitude entry positive.

    Ties take the lowest row index (argmax semantics).
    """
    idx = np.argmax(np.abs(u), axis=0)
    return np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def delta_tail(s, k):
    """Tail energy sqrt(sum_{i >= k} s_i^2) for 1-based ``k``.

    ``s`` must be non-increasing; ``k`` past the end of ``s`` gives 0.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("singular values must be a 1-d sequence")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be non-increasing")
    k = positive_int(k, "tail index")
    if k > s.size:
        return 0.0
    return float(np.linalg.norm(s[k - 1:]))


def numerical_rank(s):
    """Number of entries of ``s`` above 1e-12 times its largest magnitude.

    For non-increasing singular values the threshold is 1e-12 * sigma_1; QR
    R-diagonal entries and other unsorted, signed estimates go in as they are.
    """
    mags = np.abs(np.asarray(s, dtype=np.float64))
    if mags.size == 0 or mags.max() == 0.0:
        return 0
    return int(np.count_nonzero(mags > RANK_RTOL * mags.max()))


def fixed_rank_basis(a, mu):
    """Leading ``mu`` left singular vectors of ``a`` and their numerical rank.

    Returns ``(q, rank)`` like :func:`qr_basis_with_rank`: ``q`` the first
    ``mu`` columns of :func:`svd`'s ``u`` and ``rank`` the
    :func:`numerical_rank` of ``sigma_1..sigma_mu``. If ``mu`` exceeds the
    numerical rank, the trailing columns of ``q`` are an arbitrary
    orthonormal completion.
    """
    a = np.asarray(a, dtype=np.float64)
    mu = positive_int(mu, f"basis width for shape {a.shape}", 1, min(a.shape))
    u, sig, _ = svd(a)
    return u[:, :mu], numerical_rank(sig[:mu])


def qr_basis_with_rank(a):
    """Sign-normalized economy QR basis plus the R-diagonal rank decision."""
    a = check_finite(a)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    q = q * np.where(diag < 0, -1.0, 1.0)
    return q, numerical_rank(diag)
