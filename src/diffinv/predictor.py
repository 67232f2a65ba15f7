"""Noise-predictor interface and analytic toy predictors.

A noise predictor maps (latent, prompt, timestep) to a same-shaped noise
estimate.  The toy implementations here are desk-scale stand-ins for a
denoising network: each prompt selects its own parameters, which emulates
prompt-dependent predictions without any text encoder.  All predictors are
deterministic, shape preserving and immutable after construction, so
concurrent `predict` calls are safe.
"""

from __future__ import annotations

import abc
import enum
import math

import numpy as np

from .errors import (NumericsError, check_broadcast, check_choice, check_count, check_finite,
                     check_instance, check_real)
from .schedule import NoiseSchedule, build_schedule, inversion_eps_coeff


class PromptId(enum.Enum):
    """Conditioning selector: the null reference, a source or a target prompt."""

    NULL = "null"
    SOURCE = "source"
    TARGET = "target"

    @classmethod
    def conditioning(cls, name: str, prompt) -> "PromptId":
        """`prompt`, or ValueError naming `name` unless it is a PromptId other than NULL.

        The one rule for a prompt that guidance conditions on: a string such
        as "source" is not one, and the null prompt is the reference.
        """
        if check_instance(name, prompt, cls) is cls.NULL:
            raise ValueError(f"{name} must not be the null prompt")
        return prompt


class NoisePredictor(abc.ABC):
    @abc.abstractmethod
    def predict(self, z: np.ndarray, prompt: PromptId, t: int) -> np.ndarray:
        """Return a noise estimate with the same shape as `z`."""


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value, exact: the top eigenvalue of M^T M.

    M is first divided by its largest |entry|, so huge entries cannot
    overflow the product.  An entry that is not a finite real raises
    ValueError naming the matrix.
    """
    m = check_finite(matrix, "matrix")
    if m.ndim != 2:
        raise ValueError("spectral_norm expects a 2-D matrix")
    peak = float(np.max(np.abs(m)))
    if peak == 0.0:
        return 0.0
    scaled = m / peak
    return peak * math.sqrt(np.linalg.eigvalsh(scaled.T @ scaled)[-1])


# Relative growth of the top Ritz value that `_lanczos_norm` counts as none: 8 ulps.
_RITZ_GROWTH_TOL = 8 * np.finfo(np.float64).eps


def _lanczos_norm(m: np.ndarray) -> float:
    """||m||_2 of a standard-normal draw, to rounding: three-term Lanczos on m^T m.

    Each step costs two GEMVs and keeps two Lanczos vectors, with no stored
    basis: without reorthogonalization the top Ritz value still converges,
    and lost orthogonality only repeats it.  Every other step (an eigvalsh
    of the k x k tridiagonal matrix costs about a dim-256 GEMV pair) the top
    Ritz value is recomputed; it grows monotonically towards the answer, and
    the loop returns once it has grown by at most `_RITZ_GROWTH_TOL`
    relative.  Exact arithmetic needs at most n steps; past n + 32 it raises
    NumericsError instead of returning an estimate.  From its fixed start
    vector Lanczos cannot see a singular direction orthogonal to it, which
    a standard-normal draw avoids with probability 1; explicit weights are
    measured by `spectral_norm` instead.
    """
    n = m.shape[1]
    q = np.full(n, 1.0 / math.sqrt(n))
    q_prev = np.zeros(n)
    alphas, betas = [], []
    beta, theta = 0.0, -math.inf
    for k in range(1, n + 33):
        w = m.T @ (m @ q)
        w -= beta * q_prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        beta = float(np.linalg.norm(w))
        if beta == 0.0 or k % 2 == 0:
            t = np.diag(alphas)
            t.flat[k :: k + 1] = betas  # the subdiagonal: eigvalsh reads the lower triangle
            top = float(np.linalg.eigvalsh(t)[-1])
            if beta == 0.0 or top - theta <= _RITZ_GROWTH_TOL * top:
                return math.sqrt(max(top, theta))
            theta = top
        betas.append(beta)
        q_prev, q = q, w / beta
    raise NumericsError(f"Lanczos norm of a {n} x {n} matrix did not converge in {n + 32} steps")


class _Weights(dict):
    """One read-only square matrix per prompt, all of one size, with its spectral norm.

    Generated weights pass the norms they were scaled to; others are checked to be
    real and finite as given, and measured exactly.  A caller's matrices are copied
    before they are frozen; `copy=False` freezes in place the ones this module has
    just built.
    """

    def __init__(self, weights, norms: dict[PromptId, float] | None = None, copy: bool = True):
        super().__init__()
        for prompt in PromptId:
            if prompt not in weights:
                raise ValueError(f"missing weights for prompt {prompt.value}")
            w = weights[prompt]
            if norms is None:  # checked as given: a cast would pass [[True]] as 1.0
                w = check_finite(w, f"weights for prompt {prompt.value}")
            w = (np.array if copy else np.asarray)(w, dtype=np.float64)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError("weights must be square matrices")
            w.setflags(write=False)
            self[prompt] = w
        self.dim = self[PromptId.NULL].shape[0]
        if any(w.shape[0] != self.dim for w in self.values()):
            raise ValueError("all prompts must share one latent dimension")
        if norms is None:
            norms = {p: spectral_norm(w) for p, w in self.items()}
        self.norms = dict(norms)

    def flat(self, z: np.ndarray) -> np.ndarray:
        """The latent as one vector, checked against the matrix size."""
        flat = z.reshape(-1)
        if flat.size != self.dim:
            raise ValueError(f"latent has {flat.size} elements, predictor expects {self.dim}")
        return flat


def _random_weights(rng: np.random.Generator, dim: int, norms: dict[PromptId, float]) -> _Weights:
    """One standard-normal dim x dim matrix per prompt, scaled to its spectral norm.

    The scaling divides by `_lanczos_norm`, exact to rounding: at every size,
    each matrix's exact norm matches its requested one within a few ulps
    (at most 4e-15 relative at dim 1024).  The weights carry the requested
    norms, so they are not measured again.
    """
    check_count("dim", dim, 1)
    weights = {}
    for p in PromptId:
        if p not in norms:
            raise ValueError(f"missing norm for prompt {p.value}")
        check_real(f"norm_{p.value}", norms[p], 0.0)
        raw = rng.standard_normal((dim, dim))
        raw *= norms[p] / _lanczos_norm(raw)  # in place: no second dim x dim matrix
        weights[p] = raw
    return _Weights(weights, norms, copy=False)


def _generator(seed) -> np.random.Generator:
    """The generator that generated weights and biases draw from; `seed` is an integer >= 0."""
    return np.random.default_rng(check_count("seed", seed, 0))


# Spectral norms of generated weights, by prompt, unless a caller or spec gives others.
_AFFINE_NORMS = {PromptId.NULL: 0.02, PromptId.SOURCE: 0.05, PromptId.TARGET: 0.05}
_CONTRACTIVE_NORMS = {PromptId.NULL: 0.1, PromptId.SOURCE: 0.4, PromptId.TARGET: 0.4}
# The generated predictors' contractive amplitude and affine bias spread, unless given.
_CONTRACTIVE_SCALE = 0.1
_BIAS_SCALE = 0.1


class ConstantPredictor(NoisePredictor):
    """Predicts one finite constant for every pixel, prompt and timestep; 0.0 is zero noise."""

    def __init__(self, value: float):
        self.value = check_real("value", value)

    def predict(self, z, prompt, t):
        return np.full_like(np.asarray(z, dtype=np.float64), self.value)


class AffinePredictor(NoisePredictor):
    """eps(z, p) = A_p @ flat(z) + b_p; `weights.norms` holds each ||A_p||_2."""

    def __init__(self, weights: dict[PromptId, np.ndarray], biases: dict[PromptId, np.ndarray]):
        self.weights = weights if isinstance(weights, _Weights) else _Weights(weights)
        self.biases = {}
        for prompt in PromptId:
            if prompt not in biases:
                raise ValueError(f"missing bias for prompt {prompt.value}")
            b = np.array(check_finite(biases[prompt], f"bias for prompt {prompt.value}"))
            if b.shape != (self.weights.dim,):
                raise ValueError("bias length must match the weight matrix size")
            b.setflags(write=False)
            self.biases[prompt] = b

    @classmethod
    def random(
        cls,
        dim: int,
        seed: int,
        norms: dict[PromptId, float] | None = None,
        bias_scale: float = _BIAS_SCALE,
    ) -> "AffinePredictor":
        rng = _generator(seed)
        check_real("bias_scale", bias_scale)
        weights = _random_weights(rng, dim, _AFFINE_NORMS if norms is None else norms)
        biases = {p: bias_scale * rng.standard_normal(dim) for p in PromptId}
        return cls(weights, biases)

    def predict(self, z, prompt, t):
        z = np.asarray(z, dtype=np.float64)
        return (self.weights[prompt] @ self.weights.flat(z) + self.biases[prompt]).reshape(z.shape)


class ContractivePredictor(NoisePredictor):
    """eps(z, p) = s * tanh(W_p @ flat(z)), built to keep inversion contractive.

    The per-step implicit inversion map multiplies the noise prediction by a
    schedule coefficient; construction asserts that the largest such
    coefficient on the default 20-step schedule times the predictor
    Lipschitz bound s * max_p ||W_p|| stays below 0.9, which guarantees the
    fixed-point iteration converges at guidance scale 1.  The check reads
    `weights.norms`: the exact norms of explicit weights, and for generated
    ones their requested norms, which match the exact ones to rounding.
    """

    CONTRACTION_LIMIT = 0.9

    def __init__(self, scale: float, weights: dict[PromptId, np.ndarray]):
        self.scale = check_real("scale", scale, 0.0, strict=True)
        self.weights = weights if isinstance(weights, _Weights) else _Weights(weights)
        coeff = max_inversion_coeff(build_schedule().subsample(20))
        margin = coeff * (self.scale * max(self.weights.norms.values()))
        if margin >= self.CONTRACTION_LIMIT:
            raise ValueError(
                f"contraction margin {margin:.4f} >= {self.CONTRACTION_LIMIT}; "
                "reduce scale or the weight norms"
            )

    @classmethod
    def default(cls, dim: int, seed: int) -> "ContractivePredictor":
        """Weak nonlinear predictor with a milder null branch.

        The null-conditioned weights get a smaller norm than the prompted
        ones, mirroring how unconditioned predictions are tamer than
        prompted ones.
        """
        weights = _random_weights(_generator(seed), dim, _CONTRACTIVE_NORMS)
        return cls(scale=_CONTRACTIVE_SCALE, weights=weights)

    def predict(self, z, prompt, t):
        z = np.asarray(z, dtype=np.float64)
        return (self.scale * np.tanh(self.weights[prompt] @ self.weights.flat(z))).reshape(z.shape)


def max_inversion_coeff(schedule: NoiseSchedule) -> float:
    """Largest noise coefficient of the implicit inversion map over a schedule's steps.

    A `schedule` that is not a NoiseSchedule raises ValueError naming it.
    """
    check_instance("schedule", schedule, NoiseSchedule)
    return max(
        abs(inversion_eps_coeff(*schedule.levels(t, t_prev)))
        for t_prev, t in schedule.inversion_pairs()
    )


class CallCounter(NoisePredictor):
    """Wraps a predictor and counts `predict` calls (not thread safe)."""

    def __init__(self, inner: NoisePredictor):
        self.inner = inner
        self.calls = 0

    def predict(self, z, prompt, t):
        self.calls += 1
        return self.inner.predict(z, prompt, t)


def guided_epsilon(
    pred: NoisePredictor, z: np.ndarray, cond: PromptId, omega, t: int
) -> np.ndarray:
    """Classifier-free guided noise: omega * eps_cond + (1 - omega) * eps_null.

    The one reader of the guidance scale.  `omega` is a finite real or a
    per-pixel field of finite reals, such as an ndarray or list, that
    broadcasts to the latent; a float (numpy.float64 included) is checked
    in constant time, and anything else goes through `check_finite`, so an
    int NumPy cannot hold as int64 or uint64 is refused like a string.  A
    bad omega raises ValueError starting with `omega`, and a `cond` that is
    not a PromptId other than NULL one naming `cond`, both before either
    predictor call.  Affine in omega, so omega = 1 returns the conditional
    prediction bit-exactly, omega = 0 the null-conditioned one, and a
    uniform field the same noise as its value used as a scalar.  `pred` is
    not checked here: each library entry point that reaches this function
    checks it once, and an isinstance check per guided evaluation would
    cost about 3% of a dim-64 inversion.
    """
    if cond is PromptId.NULL or not isinstance(cond, PromptId):
        PromptId.conditioning("cond", cond)  # raises; the guard saves a call per evaluation
    if not (isinstance(omega, float) and math.isfinite(omega)):
        omega = check_finite(omega, "omega")
        if omega.ndim:
            check_broadcast(omega.shape, np.shape(z), "omega")
        else:
            omega = float(omega)
    eps_cond = pred.predict(z, cond, t)
    eps_null = pred.predict(z, PromptId.NULL, t)
    if eps_cond.shape != eps_null.shape:
        raise ValueError(
            f"conditional/unconditional shape mismatch: {eps_cond.shape} vs {eps_null.shape}"
        )
    return omega * eps_cond + (1.0 - omega) * eps_null


def _prompt_keys(prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}_{p.value}" for p in PromptId)


_GENERATED_KEYS = ("dim", "seed", *_prompt_keys("norm"))
# The keys besides `kind` that a spec reads, by kind and by whether it names weight files.
_SPEC_KEYS = {
    ("constant", False): ("value",),
    ("contractive", False): ("scale", *_GENERATED_KEYS),
    ("contractive", True): ("scale", *_prompt_keys("w")),
    ("affine", False): ("bias_scale", *_GENERATED_KEYS),
    ("affine", True): (*_prompt_keys("a"), *_prompt_keys("b")),
}
_KINDS = tuple(dict.fromkeys(kind for kind, _ in _SPEC_KEYS))


def load_predictor(path) -> NoisePredictor:
    """Build a predictor from a `key = value` spec file.

    `kind` is constant | affine | contractive.  Weights load from tensor
    files referenced relative to the spec file (`w_null = w0.txt`,
    `a_source = ...`, `b_source = ...`), or are generated from `dim` (>= 1),
    `seed` (>= 0) and per-prompt spectral norms (`norm_null = 0.1`, ...).
    `scale` sets the contractive amplitude, `value` the constant and
    `bias_scale` the spread of generated affine biases; each must be finite.
    Every ValueError it raises, such as for a key the kind and weight source
    do not read, a number that does not parse or a value out of range,
    starts with the spec file's path.
    """
    from pathlib import Path

    from .fileio import load_tensor, parse_kv_file

    path = Path(path)
    spec = parse_kv_file(path)
    try:
        kind = check_choice("kind", spec.get("kind"), _KINDS)
        prefix = {"contractive": "w", "affine": "a"}.get(kind)
        named = prefix is not None and any(key in spec for key in _prompt_keys(prefix))
        unread = sorted(set(spec) - {"kind", *_SPEC_KEYS[kind, named]})
        if unread:
            source = " with weight files" if named else ""
            raise ValueError(f"{kind} predictor{source} does not read: {', '.join(unread)}")

        def tensor(key, default=None):
            if key not in spec:
                return default
            return load_tensor(path.parent / spec[key])

        def number(key, default, parse=float):
            if key not in spec:
                return default
            try:
                return parse(spec[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None

        def norms(defaults):
            return {p: number(f"norm_{p.value}", defaults[p]) for p in PromptId}

        if kind == "constant":
            if "value" not in spec:
                raise ValueError("constant predictor needs 'value'")
            return ConstantPredictor(number("value", None))
        if named:
            if not all(key in spec for key in _prompt_keys(prefix)):
                raise ValueError(f"give all of {'/'.join(_prompt_keys(prefix))} or none")
            weights = _Weights({p: tensor(f"{prefix}_{p.value}") for p in PromptId}, copy=False)
        else:
            dim, seed = number("dim", 64, int), number("seed", 0, int)
            if kind == "affine":
                bias_scale = number("bias_scale", _BIAS_SCALE)
                return AffinePredictor.random(dim, seed, norms(_AFFINE_NORMS), bias_scale)
            weights = _random_weights(_generator(seed), dim, norms(_CONTRACTIVE_NORMS))
        if kind == "contractive":
            return ContractivePredictor(number("scale", _CONTRACTIVE_SCALE), weights)
        biases = {p: tensor(f"b_{p.value}", np.zeros(weights.dim)) for p in PromptId}
        return AffinePredictor(weights, biases)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
