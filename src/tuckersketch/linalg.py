"""Matrix factorizations with pinned sign conventions.

Every routine here is deterministic for a fixed input: singular vectors are
sign-normalized so the largest-magnitude entry of each left vector is
positive (ties broken by lowest index), and QR bases make the corresponding
R diagonal nonnegative. Rank decisions use the threshold 1e-12 * sigma_1.
:func:`left_singular` gives the left singular vectors of a wide matrix, such
as an unfolding, from the R factor of its transpose's QR, so the right
singular vectors are never formed; :func:`svd` serves the small sketches.
Every factorization rejects matrices holding NaN or infinity with a
``ValueError``. Every decomposition factorizes a sketch or an unfolding of its
input, so this is where a non-finite tensor is caught, without a separate pass
over the tensor.
"""

import warnings

import numpy as np

RANK_RTOL = 1e-12


class RankDeficiencyWarning(UserWarning):
    """Requested basis width exceeds the numerical rank of the input."""


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

    Takes the R factor of the Householder QR of ``a.T`` and the SVD of the
    small ``R.T``: since ``a = R.T @ Q.T`` with orthonormal ``Q``, both share
    their left singular vectors and singular values, and the QR is backward
    stable, so the accuracy is the SVD's. Neither ``Q`` nor any right
    singular vector is formed. Returns ``(u, s)`` with ``u`` of shape
    (rows, ``width``), signs as in :func:`svd`, and ``s`` the
    ``min(a.shape)`` singular values, non-increasing. A ``width`` above
    ``min(a.shape)`` completes ``u`` with an orthonormal basis of the
    complement of the range.
    """
    a = check_finite(a)
    if not 1 <= width <= a.shape[0]:
        raise ValueError(
            f"basis width must be in 1..{a.shape[0]} for shape {a.shape}, got {width}"
        )
    r = np.linalg.qr(a.T, mode="r")
    u, s, _ = np.linalg.svd(r.T, full_matrices=width > min(a.shape))
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
    if k < 1:
        raise ValueError(f"tail index must be >= 1, got {k}")
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
    """Rank-``mu`` orthonormal basis of the range of ``a`` via truncated SVD.

    Returns ``(q, s)`` with ``q`` the leading ``mu`` left singular vectors and
    ``s = diag(sigma_1..sigma_mu) @ vt``, so ``q @ s`` is the best rank-``mu``
    approximation of ``a`` and ``||q @ s - a||_2 <= sigma_{mu+1}(a)``.

    If ``mu`` exceeds the numerical rank, the trailing columns of ``q`` are an
    arbitrary orthonormal completion and a :class:`RankDeficiencyWarning` is
    emitted. The row norms of ``s`` are exactly the leading singular values,
    so callers can re-derive the rank decision from the returned data.
    """
    a = np.asarray(a, dtype=np.float64)
    if not 1 <= mu <= min(a.shape):
        raise ValueError(
            f"basis width must be in 1..{min(a.shape)} for shape {a.shape}, got {mu}"
        )
    u, sig, vt = svd(a)
    if numerical_rank(sig) < mu:
        warnings.warn(
            f"requested basis width {mu} exceeds numerical rank {numerical_rank(sig)}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    q = u[:, :mu]
    s = sig[:mu, None] * vt[:mu]
    return q, s


def qr_basis_with_rank(a):
    """Sign-normalized economy QR basis plus the R-diagonal rank decision."""
    a = check_finite(a)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    q = q * np.where(diag < 0, -1.0, 1.0)
    return q, numerical_rank(diag)
