"""The conformal iterated function system generated by the admissible cells.

Each admissible pair (u, s) defines a contraction of Q into itself,

    g_{u,s}(z) = F_inv_u(F_inv_s(z)),

and finite words over the admissible alphabet define cylinder maps by
composition.  The attractor is sampled through random words; the lift F
acts on the samples as the two-step left shift, which is what the
invariance check verifies.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstructionError, NumericError
from .loglift import MapFamily
from .numerics import TWO_PI
from .tractgeom import GSet, Rect

# exp overflows past this; plane projections switch to log-polar records
_EXP_OVERFLOW_RE = 700.0


def _as_word(word) -> np.ndarray:
    arr = np.asarray(word, dtype=np.int64)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ConstructionError("a word is a nonempty sequence of (u, s) pairs")
    return arr


def _letters_in_gset(word: np.ndarray, gset: GSet) -> bool:
    return all((u, s) in gset for u, s in word.tolist())


def cylinder_eval(family: MapFamily, word, z, square: Optional[Rect] = None,
                  gset: Optional[GSet] = None):
    """Evaluate the cylinder map of a word at z, with its derivative.

    Letters are applied right to left.  When the square Q is given, every
    intermediate point is required to stay in Q; leaving Q means some
    letter is not admissible and is flagged as an invariant breach.
    """
    word = _as_word(word)
    if gset is not None and not _letters_in_gset(word, gset):
        raise ConstructionError("word contains a letter outside the admissible set")
    val = np.asarray(z, dtype=complex)
    scalar = val.ndim == 0
    val = np.atleast_1d(val)
    deriv = np.ones_like(val)
    if square is not None and not np.all(square.contains(val)):
        raise ConstructionError("evaluation point outside Q")
    for u, s in word[::-1]:
        first = np.asarray(family.inv0(val)) + TWO_PI * 1j * int(s)
        if np.any(np.real(first) <= family.ln_r0):
            raise ConstructionError(
                f"intermediate point leaves the half plane at letter ({u},{s})")
        d = np.asarray(family.inv0_deriv(val)) * np.asarray(family.inv0_deriv(first))
        val = np.asarray(family.inv0(first)) + TWO_PI * 1j * int(u)
        deriv = deriv * d
        if square is not None and not np.all(square.contains(val)):
            raise ConstructionError(
                f"cylinder image leaves Q at letter ({u},{s}); letter not in G?")
    if scalar:
        return complex(val[0]), complex(deriv[0])
    return val, deriv


def cylinder_fixed_point(family: MapFamily, word, square: Rect,
                         tol: float = 1e-12, max_iter: int = 1000):
    """Fixed point of the cylinder map and the multiplier of the return map.

    Iterates from the center of Q; contraction makes convergence
    geometric.  The multiplier is the derivative of the expanding return
    composition at the fixed point, the reciprocal of the cylinder
    derivative, so |multiplier| > 1.
    """
    word = _as_word(word)
    z = square.center
    for _ in range(max_iter):
        nxt, _ = cylinder_eval(family, word, z, square=square)
        if abs(nxt - z) < tol:
            z = nxt
            break
        z = nxt
    else:
        raise NumericError(f"fixed-point iteration did not converge in {max_iter} steps")
    _, deriv = cylinder_eval(family, word, z, square=square)
    if deriv == 0:
        raise NumericError("degenerate cylinder derivative at the fixed point")
    return z, 1.0 / deriv


class LimitSample(NamedTuple):
    """Sampled attractor points with their generating words.

    `points` are the depth-step images of the center of Q; `shifted` are
    the images under the same words with their first letter dropped; `first`
    are the first-level points between them, F_inv_s1 of `shifted`.  The
    conjugacy and invariance checks compare F of `points` with `first`, and
    the invariance check F of `first` with `shifted`.
    """

    points: np.ndarray
    shifted: np.ndarray
    first: np.ndarray
    words_u: np.ndarray       # (count, depth)
    words_s: np.ndarray       # (count, depth)
    depth: int

    @property
    def count(self) -> int:
        return int(self.points.size)


def sample_limit_set(family: MapFamily, gset: GSet, square: Rect,
                     depth: int = 8, count: int = 10000, seed: int = 42) -> LimitSample:
    """Sample the attractor with random words of letters drawn uniformly
    over all of G, through the ranks of its runs (`GSet.random_ranks`).

    Words hold the letters of `GSet.letters`, int64 or Python ints; a G
    whose 2*pi*|s| passes the float range raises ConstructionError.
    Deterministic for a fixed seed; rows come in draw order: row i is the
    image of the i-th word, whose letters are the draws i*depth to
    (i+1)*depth - 1 of `GSet.random_ranks`, first letter first.
    `tractdim sample` writes the rows in this order, then their plane
    projections in the same order.

    Each of the 2*depth inverse steps adds 2*pi*s, a float formed in one
    buffer, to the imaginary part of its `inv0` image in place: bit for
    bit the complex sum inv0 + 2*pi*i*s, whose term has real part +-0 and
    the same imaginary part either way (s cast to a float, times 2*pi).
    Every level checks the half plane and Q.
    """
    if gset.is_empty():
        raise ConstructionError("cannot sample: G has no letters")
    if depth < 1:
        raise ConstructionError("depth must be >= 1")
    if gset.max_abs_index() > sys.float_info.max / TWO_PI:
        raise ConstructionError("cannot sample: G has letters with 2*pi*|s| past the float range")
    rng = np.random.default_rng(seed)
    u, s = gset.letters(gset.random_ranks(rng, count * depth))
    words_u, words_s = u.reshape(count, depth), s.reshape(count, depth)
    z = np.full(count, square.center, dtype=complex)
    turn = np.empty(count)  # 2*pi times a column of letter indices
    for k in range(depth - 1, -1, -1):
        shifted = z  # the words' images from letter k + 1 on; at k = 0, `shifted`
        first = np.asarray(family.inv0(z))
        first.imag += np.multiply(words_s[:, k], TWO_PI, out=turn, casting="unsafe")
        if np.any(first.real <= family.ln_r0):
            raise ConstructionError("sampled intermediate point left the half plane")
        z = np.asarray(family.inv0(first))
        z.imag += np.multiply(words_u[:, k], TWO_PI, out=turn, casting="unsafe")
        if not np.all(square.contains(z)):
            raise ConstructionError("sampled point left Q; letters outside G?")
    return LimitSample(points=z, shifted=shifted, first=first, words_u=words_u,
                       words_s=words_s, depth=depth)


class PlaneProjection(NamedTuple):
    """Exponential projection of a lifted sample to the dynamical plane.

    Rows with lifted real part beyond the exp range are emitted in
    log-polar form: `log_polar` marks them and for those rows `points`
    stores ln|.| + i*arg instead of the plane value.
    """

    points: np.ndarray
    log_polar: np.ndarray
    conjugacy_checked: int        # rows in the exp range, all compared on the lift


def project_to_plane(family: MapFamily, sample: LimitSample) -> PlaneProjection:
    """Project sampled points by exp; a point past the exp range, Re z >
    700, goes log-polar, as most do at anchor 469 (lam = 1, inset 3),
    where Q reaches Re = 1.5 * anchor.

    Also verifies the conjugacy f o exp = exp o F on the lift: on every
    row in the exp range, F z = e^z + Log(lam) must equal the row's
    first-level point to relative tolerance 1e-9.  Both have modulus
    about 2*pi*|s| at any s, and e^z carries the rounding of z, a few
    ulps of |z|: the residual is at most 6.3e-14 at anchor 400 (10,000
    rows, lam = 1, i, 0.5+0.5i or -2).  With no row in the exp range it
    raises NumericError, as it would check nothing.
    """
    z = sample.points
    logp = np.real(z) > _EXP_OVERFLOW_RE
    if np.all(logp):
        raise NumericError("no sampled point lies in the exp range (Re z <= 700), "
                           "so the conjugacy is checked on no row")
    ez = np.exp(z[~logp])  # e^z on the rows in the exp range, formed once
    pts = np.empty_like(z)
    pts[~logp] = ez
    # log-polar record: modulus as ln|.|, angle wrapped to (-pi, pi]
    pts[logp] = np.real(z[logp]) + 1j * (math.pi - np.mod(math.pi - np.imag(z[logp]), TWO_PI))
    first = sample.first[~logp]
    fz = ez + family.log_lam  # F z = e^z + Log(lam), as `family.lift` forms it
    resid = float(np.max(np.abs(fz - first) / np.abs(first)))
    if resid > 1e-9:
        raise ConstructionError(f"conjugacy residual {resid:.3g} exceeds 1e-9")
    if np.any(ez == 0):
        raise ConstructionError("plane projection produced 0")
    return PlaneProjection(points=pts, log_polar=logp, conjugacy_checked=int(ez.size))


class InvarianceReport(NamedTuple):
    rows_checked: int             # rows whose point and first-level point are in the exp range
    branch_residual: float        # F(points) against `first`, relative to |first|
    modulus_residual: float       # e^(Re first) against |shifted - Log(lam)|, relative
    max_shift_residual: float     # F(first) against `shifted`, relative to |shifted - Log(lam)|
    shift_tolerance: float        # 1e-9 + 4 eps max|Im first|


def check_invariance(family: MapFamily, sample: LimitSample) -> InvarianceReport:
    """Verify the two-step return dynamics on a sample, a step at a time
    on the lift, on the rows whose point and first-level point lie in the
    exp range (Re <= 700).

    F z = e^z + Log(lam) must take each point to its first-level point
    `first` to relative 1e-9, as `project_to_plane` checks (e^z carries the
    rounding of z, so F z is known only relative to |first|: the lifted
    tract, Re > ln R0, is checked on `first`).  And F must take `first` to
    `shifted`, the point of the word with its first letter dropped.  The
    modulus e^(Re first) is compared with |shifted - Log(lam)| to relative
    1e-9.  The phase Im first holds 2*pi*s1 only to about two ulps of it,
    so F(first) is compared with `shifted` to 1e-9 + 4 eps max|Im first|,
    relative to |shifted - Log(lam)|: about 6e-8 at anchor 12 and 9e-3 at
    anchor 20 (lam = 1, inset 0.5), and past 2 from anchor 24 on, where a
    float `first` holds no phase of `shifted` and only the moduli are
    compared.  Raises ConstructionError on a failed step or a `first`
    outside the tracts, and NumericError with no row in the exp range.
    """
    rows = np.maximum(sample.points.real, sample.first.real) <= _EXP_OVERFLOW_RE
    if not np.any(rows):
        raise NumericError("no sampled point lies in the exp range (Re z <= 700)")
    z, first, shifted = sample.points[rows], sample.first[rows], sample.shifted[rows]
    fz = np.asarray(family.lift(z))
    branch = np.abs(fz - first) / np.abs(first)
    w = np.abs(shifted - family.log_lam)
    modulus = np.abs(np.exp(first.real) - w) / w
    shift = np.abs(np.asarray(family.lift(first)) - shifted) / w
    tol = 1e-9 + 4.0 * sys.float_info.epsilon * float(np.max(np.abs(first.imag)))
    bad = (first.real <= family.ln_r0) | (branch > 1e-9) | (modulus > 1e-9) | (shift > tol)
    if np.any(bad):
        k = int(np.argmax(bad))
        i = int(np.flatnonzero(rows)[k])
        raise ConstructionError(
            f"invariance failure at word {list(zip(sample.words_u[i], sample.words_s[i]))}: "
            f"branch residual {branch[k]:.3g}, modulus residual {modulus[k]:.3g}, "
            f"shift residual {shift[k]:.3g} (tol {tol:.3g})")
    return InvarianceReport(rows_checked=int(z.size), branch_residual=float(np.max(branch)),
                            modulus_residual=float(np.max(modulus)),
                            max_shift_residual=float(np.max(shift)), shift_tolerance=tol)
