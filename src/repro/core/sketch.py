"""The public sketching API: configuration, sketcher and private sketches.

A :class:`PrivateSketcher` owns a public random transform (derived from
the shared seed) and a calibrated noise distribution (chosen by Note 5
unless pinned).  Calling :meth:`PrivateSketcher.sketch` on a vector
returns a :class:`PrivateSketch` — safe to publish — from which squared
distances, norms and inner products can be estimated without further
access to the data.

Typical use::

    config = SketchConfig(input_dim=10_000, epsilon=1.0)
    sketcher = PrivateSketcher(config)
    sketch_x = sketcher.sketch(x)        # done by the party holding x
    sketch_y = sketcher.sketch(y)        # done by the party holding y
    d2 = sketcher.estimate_sq_distance(sketch_x, sketch_y)

Batch use — the matrix-shaped workload of all-pairs distance release.
:meth:`PrivateSketcher.sketch_batch` sketches every row of a matrix in
one vectorised pass (one independent noise draw per row, one shared
config digest) and returns a :class:`SketchBatch`, from which the
analyst-side matrix estimators answer whole query workloads at once::

    batch = sketcher.sketch_batch(X)               # X is (n, d)
    d2_matrix = sketcher.pairwise_sq_distances(batch)   # (n, n)
    norms = sketcher.sq_norms(batch)                    # (n,)

Row ``i`` of a batch equals ``sketcher.sketch(X[i])`` with the same
noise stream, so the scalar and batch paths are interchangeable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.core import estimators
from repro.core.mechanism_choice import (
    NOISE_CHOICES,
    MechanismChoice,
    build_mechanism,
    choose_noise_name,
)
from repro.core.variance import (
    chebyshev_interval,
    fjlt_transform_variance_bound,
    fjlt_variance_coefficient,
    general_variance,
    input_perturbation_variance_bound,
    sjlt_transform_variance_bound,
)
from repro.dp.mechanisms import PrivacyGuarantee
from repro.dp.noise import noise_from_spec
from repro.dp.sensitivity import SensitivityProfile, sensitivity_profile
from repro.hashing import prg
from repro.theory.bounds import (
    jl_output_dimension,
    optimal_output_dimension,
    sjlt_dimensions,
    sjlt_sparsity,
)
from repro.transforms import TRANSFORMS, create_transform
from repro.utils.timing import Timer
from repro.utils.validation import (
    as_float_matrix,
    as_float_vector,
    check_positive,
    check_unit_range,
)

_PERTURBATIONS = ("auto", "output", "input")


@dataclass(frozen=True)
class SketchConfig:
    """Everything needed to reconstruct a sketcher (the *public* state).

    Parameters
    ----------
    input_dim:
        Dimension ``d`` of the data vectors.
    epsilon, delta:
        The per-release differential-privacy target.  ``delta = 0``
        requests pure DP (forces a Laplace-family noise).
    alpha, beta:
        JL accuracy parameters; used to derive ``output_dim`` and
        ``sparsity`` when they are not given explicitly.
    transform:
        Registry name: ``sjlt`` (default, the paper's main result),
        ``fjlt``, ``gaussian`` (Kenthapadi), ``achlioptas`` or ``dks``.
    noise:
        ``auto`` (Note 5 rule), or pin one of ``laplace``, ``gaussian``,
        ``discrete_laplace``, ``discrete_gaussian``.
    perturbation:
        ``output`` (noise on the sketch, the paper's main setting) or
        ``input`` (noise on the data, Lemma 8); ``auto`` maps the FJLT
        to ``input`` and everything else to ``output``.
    seed:
        The **public** transform seed shared by all parties.
    """

    input_dim: int
    epsilon: float
    delta: float = 0.0
    alpha: float = 0.25
    beta: float = 0.05
    transform: str = "sjlt"
    noise: str = "auto"
    perturbation: str = "auto"
    output_dim: int | None = None
    sparsity: int | None = None
    seed: int = 0
    analytic_gaussian: bool = False
    sjlt_construction: str = "block"
    fjlt_density: float | None = None

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        check_positive(self.epsilon, "epsilon")
        if self.delta < 0 or self.delta >= 1:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        check_unit_range(self.alpha, "alpha")
        check_unit_range(self.beta, "beta")
        if self.transform not in TRANSFORMS:
            raise ValueError(
                f"unknown transform {self.transform!r}; available: {sorted(TRANSFORMS)}"
            )
        if self.noise not in NOISE_CHOICES:
            raise ValueError(f"unknown noise {self.noise!r}; choose from {NOISE_CHOICES}")
        if self.perturbation not in _PERTURBATIONS:
            raise ValueError(
                f"perturbation must be one of {_PERTURBATIONS}, got {self.perturbation!r}"
            )

    def canonical(self) -> dict:
        """A JSON-serialisable canonical form (drives the digest)."""
        return asdict(self)

    def digest(self) -> str:
        """Hash identifying sketch compatibility (same transform + noise)."""
        payload = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class PrivateSketch:
    """A released, differentially private sketch ``Sx + eta``.

    The payload plus the metadata needed to estimate from it; contains
    nothing derived from the secret noise draw beyond the values
    themselves.
    """

    values: np.ndarray
    input_dim: int
    output_dim: int
    perturbation: str
    noise_spec: dict
    noise_second_moment: float
    guarantee: PrivacyGuarantee
    config_digest: str
    label: str = ""

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing byte string."""
        header = {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "perturbation": self.perturbation,
            "noise_spec": self.noise_spec,
            "noise_second_moment": self.noise_second_moment,
            "epsilon": self.guarantee.epsilon,
            "delta": self.guarantee.delta,
            "config_digest": self.config_digest,
            "label": self.label,
        }
        return json.dumps(header).encode("utf-8") + b"\n" + self.values.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PrivateSketch":
        """Inverse of :meth:`to_bytes`."""
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline].decode("utf-8"))
        values = np.frombuffer(blob[newline + 1 :], dtype=np.float64).copy()
        if values.size != header["output_dim"]:
            raise ValueError(
                f"payload has {values.size} values, header says {header['output_dim']}"
            )
        return cls(
            values=values,
            input_dim=header["input_dim"],
            output_dim=header["output_dim"],
            perturbation=header["perturbation"],
            noise_spec=header["noise_spec"],
            noise_second_moment=header["noise_second_moment"],
            guarantee=PrivacyGuarantee(header["epsilon"], header["delta"]),
            config_digest=header["config_digest"],
            label=header.get("label", ""),
        )


@dataclass(frozen=True, eq=False)
class SketchBatch:
    """A stack of released private sketches sharing one configuration.

    ``values`` has shape ``(n, k)`` — row ``i`` is the published sketch
    of input row ``i``, carrying its own independent noise draw.  The
    metadata (noise spec, second moment, guarantee, config digest) is
    shared across rows, which is what makes the vectorised estimators
    in :mod:`repro.core.estimators` valid on whole batches at once.

    Indexing with an ``int`` materialises that row as a standalone
    :class:`PrivateSketch`; indexing with a slice or index array yields
    a sub-batch.  Iteration yields rows as sketches.
    """

    values: np.ndarray
    input_dim: int
    output_dim: int
    perturbation: str
    noise_spec: dict
    noise_second_moment: float
    guarantee: PrivacyGuarantee
    config_digest: str
    labels: tuple = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-dimensional, got shape {values.shape}")
        if values.shape[1] != self.output_dim:
            raise ValueError(
                f"values have sketch dimension {values.shape[1]}, "
                f"expected output_dim={self.output_dim}"
            )
        object.__setattr__(self, "values", values)
        labels = tuple(self.labels)
        if labels and len(labels) != values.shape[0]:
            raise ValueError(
                f"got {len(labels)} labels for {values.shape[0]} rows"
            )
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self):
        return (self.row(i) for i in range(len(self)))

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            return self.row(int(item))
        values = self.values[item]
        labels = tuple(np.array(self.labels, dtype=object)[item]) if self.labels else ()
        return dataclasses.replace(self, values=values, labels=labels)

    def row(self, i: int) -> PrivateSketch:
        """Row ``i`` as a standalone :class:`PrivateSketch`."""
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"row index {i} out of range for batch of {n}")
        i %= n
        return PrivateSketch(
            values=self.values[i].copy(),
            input_dim=self.input_dim,
            output_dim=self.output_dim,
            perturbation=self.perturbation,
            noise_spec=self.noise_spec,
            noise_second_moment=self.noise_second_moment,
            guarantee=self.guarantee,
            config_digest=self.config_digest,
            label=str(self.labels[i]) if self.labels else "",
        )

    @classmethod
    def from_sketches(cls, sketches) -> "SketchBatch":
        """Stack compatible :class:`PrivateSketch` objects into a batch."""
        sketches = list(sketches)
        if not sketches:
            raise ValueError("cannot build a batch from zero sketches")
        first = sketches[0]
        for other in sketches[1:]:
            estimators.check_compatible(first, other)
        return cls(
            values=np.stack([np.asarray(s.values, dtype=np.float64) for s in sketches]),
            input_dim=first.input_dim,
            output_dim=first.output_dim,
            perturbation=first.perturbation,
            noise_spec=first.noise_spec,
            noise_second_moment=first.noise_second_moment,
            guarantee=first.guarantee,
            config_digest=first.config_digest,
            labels=tuple(s.label for s in sketches),
        )

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing byte string."""
        header = {
            "n_rows": len(self),
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "perturbation": self.perturbation,
            "noise_spec": self.noise_spec,
            "noise_second_moment": self.noise_second_moment,
            "epsilon": self.guarantee.epsilon,
            "delta": self.guarantee.delta,
            "config_digest": self.config_digest,
            "labels": [str(label) for label in self.labels],
        }
        return json.dumps(header).encode("utf-8") + b"\n" + self.values.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SketchBatch":
        """Inverse of :meth:`to_bytes`."""
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline].decode("utf-8"))
        flat = np.frombuffer(blob[newline + 1 :], dtype=np.float64)
        n, k = header["n_rows"], header["output_dim"]
        if flat.size != n * k:
            raise ValueError(f"payload has {flat.size} values, header says {n} x {k}")
        return cls(
            values=flat.copy().reshape(n, k),
            input_dim=header["input_dim"],
            output_dim=k,
            perturbation=header["perturbation"],
            noise_spec=header["noise_spec"],
            noise_second_moment=header["noise_second_moment"],
            guarantee=PrivacyGuarantee(header["epsilon"], header["delta"]),
            config_digest=header["config_digest"],
            labels=tuple(header.get("labels", ())),
        )


class PrivateSketcher:
    """Builds private sketches and estimates distances between them."""

    def __init__(self, config: SketchConfig) -> None:
        self.config = config
        self.output_dim, self.sparsity = _resolve_dimensions(config)
        self.transform = _build_transform(config, self.output_dim, self.sparsity)
        self.perturbation = (
            ("input" if config.transform == "fjlt" else "output")
            if config.perturbation == "auto"
            else config.perturbation
        )

        with Timer() as timer:
            if self.perturbation == "input":
                # Perturbing the input: neighbours differ by <= 1 in l1,
                # hence also <= 1 in l2 (Lemma 8's observation).
                self.sensitivities = SensitivityProfile(l1=1.0, l2=1.0, closed_form=True)
            else:
                self.sensitivities = sensitivity_profile(self.transform)
        #: Seconds spent resolving sensitivities — the O(dk) initialisation
        #: cost of Section 2.1.1 when no closed form exists.
        self.initialization_seconds = timer.elapsed

        if config.noise == "auto":
            self.choice: MechanismChoice | None = choose_noise_name(
                self.sensitivities.l1, self.sensitivities.l2, config.epsilon, config.delta
            )
            noise_name = self.choice.noise_name
        else:
            self.choice = None
            noise_name = config.noise
        self.mechanism = build_mechanism(
            noise_name,
            self.sensitivities.l1,
            self.sensitivities.l2,
            config.epsilon,
            config.delta,
            analytic_gaussian=config.analytic_gaussian,
        )

    # -- properties -----------------------------------------------------------

    @property
    def noise(self):
        """The calibrated noise distribution."""
        return self.mechanism.noise

    @property
    def guarantee(self) -> PrivacyGuarantee:
        """Per-release privacy guarantee."""
        return self.mechanism.guarantee

    @property
    def noise_dimension(self) -> int:
        """Coordinates receiving noise: ``k`` (output) or ``d`` (input)."""
        return self.config.input_dim if self.perturbation == "input" else self.output_dim

    @property
    def distance_correction(self) -> float:
        """The estimator's bias correction ``2 * noise_dim * E[eta^2]``."""
        return 2.0 * self.noise_dimension * self.noise.second_moment

    # -- sketching --------------------------------------------------------------

    def sketch(self, x, noise_rng=None, label: str = "") -> PrivateSketch:
        """Release a private sketch of ``x``.

        ``noise_rng`` is the party's *secret* randomness (a Generator,
        an int seed, or ``None`` for fresh entropy).
        """
        x = as_float_vector(x, "x")
        if x.size != self.config.input_dim:
            raise ValueError(f"x has dimension {x.size}, expected {self.config.input_dim}")
        generator = prg.as_generator(noise_rng)
        if self.perturbation == "input":
            noisy_input = x + self.noise.sample(x.size, generator)
            values = self.transform.apply(noisy_input)
        else:
            values = self.transform.apply(x) + self.noise.sample(self.output_dim, generator)
        return self._wrap(values, label)

    def sketch_batch(self, X, noise_rng=None, labels=()) -> SketchBatch:
        """Release private sketches of every row of ``X`` in one pass.

        The projection runs as one batched call
        (:meth:`LinearTransform.apply_batch`) and each row receives its
        own independent noise draw, taken from ``noise_rng`` in row
        order — so a batch release matches sketching the rows one at a
        time with the same generator: identical noise, and a projection
        that is exact for the sparse transforms (SJLT, DKS, FJLT, whose
        ``CooProjector`` fixes each entry's summation order) and equal
        up to BLAS summation order for the dense ones.  ``labels`` may
        be empty or one label per row.
        """
        generator = prg.as_generator(noise_rng)
        if self.perturbation == "input":
            X = as_float_matrix(X, self.config.input_dim, "X")
            values = self.transform.apply_batch(
                X + self.noise.sample_rows(X.shape[0], X.shape[1], generator)
            )
        else:
            # apply_batch validates, so the common path checks X once
            values = self.transform.apply_batch(X)
            values += self.noise.sample_rows(values.shape[0], self.output_dim, generator)
        return SketchBatch(
            values=values,
            input_dim=self.config.input_dim,
            output_dim=self.output_dim,
            perturbation=self.perturbation,
            noise_spec=self.noise.spec(),
            noise_second_moment=self.noise.second_moment,
            guarantee=self.guarantee,
            config_digest=self.config.digest(),
            labels=tuple(labels),
        )

    def sketch_sparse(self, indices, values, noise_rng=None, label: str = "") -> PrivateSketch:
        """Release a sketch of a sparse vector in ``O(s * nnz + k)``.

        Only meaningful for output perturbation (input noise is dense by
        construction).
        """
        if self.perturbation == "input":
            raise ValueError("sparse sketching requires output perturbation")
        generator = prg.as_generator(noise_rng)
        projected = self.transform.apply_sparse(indices, values)
        noisy = projected + self.noise.sample(self.output_dim, generator)
        return self._wrap(noisy, label)

    def project(self, x) -> np.ndarray:
        """The *non-private* projection ``Sx`` (for tests and baselines)."""
        return self.transform.apply(as_float_vector(x, "x"))

    def _wrap(self, values: np.ndarray, label: str) -> PrivateSketch:
        return PrivateSketch(
            values=values,
            input_dim=self.config.input_dim,
            output_dim=self.output_dim,
            perturbation=self.perturbation,
            noise_spec=self.noise.spec(),
            noise_second_moment=self.noise.second_moment,
            guarantee=self.guarantee,
            config_digest=self.config.digest(),
            label=label,
        )

    # -- estimation --------------------------------------------------------------

    def estimate_sq_distance(self, a: PrivateSketch, b: PrivateSketch) -> float:
        """Unbiased estimate of ``||x - y||_2^2`` (Lemma 3 / Theorem 3)."""
        return estimators.estimate_sq_distance(a, b)

    def estimate_distance(self, a: PrivateSketch, b: PrivateSketch) -> float:
        """Estimate of ``||x - y||_2`` (clipped at zero before the root)."""
        return estimators.estimate_distance(a, b)

    def estimate_sq_norm(self, sketch: PrivateSketch) -> float:
        """Unbiased estimate of ``||x||_2^2`` from a single sketch."""
        return estimators.estimate_sq_norm(sketch)

    def estimate_inner_product(self, a: PrivateSketch, b: PrivateSketch) -> float:
        """Unbiased estimate of ``<x, y>`` (no correction needed)."""
        return estimators.estimate_inner_product(a, b)

    def pairwise_sq_distances(self, batch: SketchBatch) -> np.ndarray:
        """All-pairs unbiased squared-distance estimates within a batch."""
        return estimators.pairwise_sq_distances(batch)

    def cross_sq_distances(self, batch_a: SketchBatch, batch_b: SketchBatch) -> np.ndarray:
        """Unbiased squared-distance estimates between two batches."""
        return estimators.cross_sq_distances(batch_a, batch_b)

    def sq_norms(self, batch: SketchBatch) -> np.ndarray:
        """Unbiased squared-norm estimates for every row of a batch."""
        return estimators.sq_norms(batch)

    # -- theory ---------------------------------------------------------------------

    def theoretical_variance(self, dist_sq: float) -> float:
        """Lemma 3 variance of the distance estimator at true ``||x-y||^2``.

        Uses the transform's variance *bound* (2/k for SJLT-style maps,
        3/k for the FJLT), so this upper-bounds the Monte-Carlo variance.
        """
        k = self.output_dim
        if self.config.transform == "fjlt":
            transform_var = fjlt_transform_variance_bound(k, dist_sq)
        else:
            transform_var = sjlt_transform_variance_bound(k, dist_sq)
        if self.perturbation == "output":
            return general_variance(
                k, dist_sq, self.noise.second_moment, self.noise.fourth_moment, transform_var
            )
        # Input perturbation: the difference noise w = eta - mu has
        # E[w^2] = 2 m2 and E[w^4] = 2 m4 + 6 m2^2.
        m2, m4 = self.noise.second_moment, self.noise.fourth_moment
        if self.config.transform == "fjlt":
            coefficient = fjlt_variance_coefficient(
                self.transform.padded_dim, self.transform.density
            )
        else:
            coefficient = 2.0  # Lemma 10 holds per fixed vector
        return input_perturbation_variance_bound(
            k, self.config.input_dim, dist_sq, 2.0 * m2, 2.0 * m4 + 6.0 * m2**2, coefficient
        )

    def recommended_output_dim(self, max_sq_distance: float) -> int:
        """Section 6.2.1's variance-minimising ``k*`` for a known domain."""
        return optimal_output_dimension(
            max_sq_distance, self.noise.second_moment, self.noise.fourth_moment
        )

    def distance_confidence_interval(
        self, a: PrivateSketch, b: PrivateSketch, failure_prob: float = 0.05
    ) -> tuple[float, float]:
        """Chebyshev interval for ``||x - y||^2`` around the estimate.

        Plugs the (clipped) point estimate into the theoretical variance
        formula, so the interval is approximate when the estimate is far
        from the truth, but remains conservative in the regimes the
        paper targets (variance grows with distance).
        """
        estimate = estimators.estimate_sq_distance(a, b)
        variance = self.theoretical_variance(max(estimate, 0.0))
        return chebyshev_interval(estimate, variance, failure_prob)


def _resolve_dimensions(config: SketchConfig) -> tuple[int, int | None]:
    """Derive ``(output_dim, sparsity)`` from the config and JL theory."""
    k = config.output_dim
    s = config.sparsity
    needs_sparsity = config.transform in ("sjlt", "dks")
    if not needs_sparsity:
        if s is not None:
            raise ValueError(f"transform {config.transform!r} takes no sparsity")
        return (k if k is not None else jl_output_dimension(config.alpha, config.beta)), None

    if k is None and s is None:
        return sjlt_dimensions(config.alpha, config.beta)
    if k is None:
        k = jl_output_dimension(config.alpha, config.beta)
    if s is None:
        s = min(sjlt_sparsity(config.alpha, config.beta), k)
    if s < 1 or s > k:
        raise ValueError(f"sparsity must lie in [1, {k}], got {s}")
    if config.transform == "sjlt" and k % s:
        k += s - (k % s)  # round k up so the block construction is valid
    return k, s


def _build_transform(config: SketchConfig, output_dim: int, sparsity: int | None):
    kwargs: dict = {}
    if config.transform in ("sjlt", "dks"):
        kwargs["sparsity"] = sparsity
    if config.transform == "sjlt":
        kwargs["construction"] = config.sjlt_construction
    if config.transform == "fjlt":
        kwargs["beta"] = config.beta
        if config.fjlt_density is not None:
            kwargs["density"] = config.fjlt_density
    return create_transform(
        config.transform, config.input_dim, output_dim, seed=config.seed, **kwargs
    )


def rebuild_noise(sketch: PrivateSketch):
    """Reconstruct the noise distribution recorded in a sketch."""
    return noise_from_spec(sketch.noise_spec)
