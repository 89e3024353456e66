"""Worst-case error envelopes for quantised shard storage.

The serving layer can hold released sketch rows at reduced precision
(``f4`` / ``f2`` / scalar-quantised ``int8`` — see
:mod:`repro.serving.storage`).  The paper's estimators are unbiased
over the *sketch noise*; storage quantisation adds a second, purely
deterministic perturbation on top.  This module gives closed-form,
conservative bounds on that perturbation, asserted coordinate-for-
coordinate by the property suite (``tests/test_quantised_properties.py``).

**Model.**  A stored row ``v`` (float64) decodes to ``v' = v + dv`` with
per-coordinate rounding ``|dv_i| <= e_v`` (:func:`coordinate_error`).
For the float32-scanned specs the query ``u`` is additionally cast down
once inside the distance kernel (``|du_i| <= e_u``) and the inner
products accumulate in float32, with classical summation error at most
``gamma_k = k*eps / (1 - k*eps)`` relative to ``sum |u_i||v'_i|``
(``eps = 2**-24``; any summation tree rounds each product at most ``k``
times, so the bound holds for blocked/SIMD BLAS schedules too).  The
squared norms and the debias correction always accumulate in float64
(`repro.core.estimators.cross_sq_distances_from_parts`), so they only
contribute the quantisation of ``v`` itself.

The served squared-distance estimate therefore differs from the
full-precision one by at most::

    |est_q - est_f8| <=   2*||v||*||dv|| + ||dv||^2              (norm term)
                        + 2*(||du||*(||v||+||dv||) + ||u||*||dv||)  (cross term)
                        + 2*gamma_k*(||u||+||du||)*(||v||+||dv||)   (accumulation)

with ``||dv|| <= sqrt(k)*e_v`` and ``||du|| <= sqrt(k)*e_u``
(:func:`sq_distance_error_bound`).  For ``f8`` storage every term is
zero and the bound collapses to the float64 slack.

**Composition with the paper's sketch variance.**  Quantisation error
is deterministic and bounded, the sketch error is random and unbiased:
the served estimate satisfies
``|est_q - d(x, y)^2| <= |est_f8 - d(x, y)^2| + bound`` — i.e. the
paper's concentration bounds (Lemma 3 / Lemma 8, the variance formulas
of :mod:`repro.theory.moments`) hold for quantised serving after
widening every deviation by the envelope, and the envelope shrinks the
store by 2-8x.  In the intended regime (``f4`` over sketches whose
coordinates are O(1)-scaled) the envelope is orders of magnitude below
one standard deviation of the sketch noise, so ranking quality is
essentially unchanged — the quantised-store benchmark pins recall@10.
"""

from __future__ import annotations

import numpy as np

#: Unit roundoff of float32 / float16 (round-to-nearest half ulp).
EPS_F4 = 2.0 ** -24
EPS_F2 = 2.0 ** -11

#: Absolute rounding floor in the subnormal range, where the relative
#: bound above does not apply (half the smallest subnormal step).
TINY_F4 = 2.0 ** -150
TINY_F2 = 2.0 ** -25

#: Relative slack charged for the float64 arithmetic both paths share
#: (reference and served estimates round at ~2**-53 per operation; this
#: dominates it by orders of magnitude without loosening anything).
F8_SLACK = 1e-12

_FLOAT32_SCANNED = ("f4", "f2", "int8")


def _storage_name(storage) -> str:
    """Accept a :class:`~repro.serving.storage.StorageSpec` or its name."""
    return getattr(storage, "name", storage)


def coordinate_error(storage, max_abs: float, scale: float | None = None) -> float:
    """Worst-case per-coordinate decode error for rows peaking at ``max_abs``.

    ``f4``/``f2`` round each stored coordinate to the nearest
    representable (half-ulp relative error, plus the subnormal floor);
    ``int8`` rounds to the nearest multiple of the shard's ``scale``
    (half a step), plus the float32 rounding of the decode multiply.
    Values must be finite and, for ``f2``, inside its ~6.5e4 range —
    the store enforces the former and the envelope presumes the latter.
    """
    name = _storage_name(storage)
    if name == "f8":
        return 0.0
    if name == "f4":
        return max_abs * EPS_F4 + TINY_F4
    if name == "f2":
        return max_abs * EPS_F2 + TINY_F2
    if name == "int8":
        if scale is None:
            raise ValueError("the int8 envelope needs the shard's scale")
        return 0.5 * scale + max_abs * EPS_F4
    raise ValueError(f"unknown storage spec {storage!r}")


def accumulation_gamma(storage, dim: int) -> float:
    """``gamma_k`` for the kernel's inner-product accumulation.

    Zero for ``f8`` (the float64 path's own rounding rides in the
    shared slack); the classical ``k*eps/(1 - k*eps)`` with float32
    ``eps`` for the float32-scanned specs.
    """
    if _storage_name(storage) == "f8":
        return 0.0
    ke = dim * EPS_F4
    return ke / (1.0 - ke)


def sq_distance_error_bound(
    storage, query: np.ndarray, row: np.ndarray, scale: float | None = None
) -> float:
    """Conservative bound on ``|served estimate - float64 estimate|``.

    ``query`` and ``row`` are the float64 sketch vectors; ``scale`` is
    the storing shard's int8 step (ignored otherwise).  The bound is
    the closed form derived in the module docstring — every factor an
    over-estimate, so it holds coordinate-for-coordinate for any
    rounding the kernel's GEMVs actually perform.
    """
    u = np.asarray(query, dtype=np.float64)
    v = np.asarray(row, dtype=np.float64)
    k = v.size
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    e_v = coordinate_error(storage, float(np.max(np.abs(v))) if k else 0.0, scale)
    dv = np.sqrt(k) * e_v
    if _storage_name(storage) in _FLOAT32_SCANNED:
        e_u = (float(np.max(np.abs(u))) if k else 0.0) * EPS_F4 + TINY_F4
    else:
        e_u = 0.0
    du = np.sqrt(k) * e_u
    gamma = accumulation_gamma(storage, k)
    bound = (
        2.0 * norm_v * dv
        + dv * dv
        + 2.0 * (du * (norm_v + dv) + norm_u * dv)
        + 2.0 * gamma * (norm_u + du) * (norm_v + dv)
    )
    slack = F8_SLACK * (norm_u * norm_u + norm_v * norm_v + 2.0 * norm_u * norm_v + 1.0)
    return bound + slack


def sq_norm_error_bound(storage, row: np.ndarray, scale: float | None = None) -> float:
    """Bound on ``| ||v'||^2 - ||v||^2 |`` for a stored row.

    The norms query and the prefilter's cached norms are float64 sums
    over the decoded row, so only the decode perturbation enters:
    ``2*||v||*||dv|| + ||dv||^2`` plus the shared float64 slack.
    """
    v = np.asarray(row, dtype=np.float64)
    k = v.size
    norm_v = float(np.linalg.norm(v))
    e_v = coordinate_error(storage, float(np.max(np.abs(v))) if k else 0.0, scale)
    dv = np.sqrt(k) * e_v
    return 2.0 * norm_v * dv + dv * dv + F8_SLACK * (norm_v * norm_v + 1.0)
