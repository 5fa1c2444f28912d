"""Synthetic monotone, normalized value-function generators.

Three families, all with non-negative coefficients so monotonicity holds by
construction, and all normalized so the full bundle is worth exactly 1:

* ``additive``          -- sum of per-item base values.
* ``pairwise-synergy``  -- additive plus non-negative pairwise complements
                           on a sparse random item graph.
* ``coverage``          -- a saturating power of the additive sum,
                           modelling diminishing returns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import AuctionInstance, as_bundle, dataclass_from_json
from .errors import InvalidInputError, UnsupportedSizeError

KINDS = ("additive", "pairwise-synergy", "coverage")


@dataclass
class ValueModel:
    """An immutable monotone value function with v(empty)=0 and v(full)=1."""

    kind: str
    base: np.ndarray  # (m,) non-negative
    synergy: dict[tuple[int, int], float] = field(default_factory=dict)
    gamma: float = 1.0  # saturation exponent for the coverage family
    normalizer: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown value-model kind {self.kind!r}")
        self.base = np.asarray(self.base, dtype=np.float64)
        if (self.base < 0).any():
            raise InvalidInputError("base values must be non-negative")
        if any(s < 0 for s in self.synergy.values()):
            raise InvalidInputError("synergies must be non-negative")
        if not (0 < self.gamma <= 1):
            raise InvalidInputError("gamma must lie in (0, 1]")
        if self.normalizer <= 0:
            raise InvalidInputError("normalizer must be positive")

    @property
    def m(self) -> int:
        return self.base.shape[0]

    def _raw(self, x: np.ndarray) -> np.ndarray:
        # x: (..., m) float or int in {0,1}
        s = x @ self.base
        if self.kind == "additive":
            return s
        if self.kind == "coverage":
            return np.power(s, self.gamma)
        for (j, k), w in self.synergy.items():
            s = s + w * x[..., j] * x[..., k]
        return s

    def value(self, bundle) -> float:
        """Exact normalized value of one bundle; pure function."""
        b = as_bundle(bundle, self.m)
        return float(self._raw(b.astype(np.float64)) / self.normalizer)

    def value_batch(self, bundles: np.ndarray) -> np.ndarray:
        """Values for a (B, m) batch of bundles."""
        x = np.asarray(bundles, dtype=np.float64)
        return self._raw(x) / self.normalizer

    def to_json_obj(self) -> dict:
        return {
            "type": self.kind,
            "params": {
                "base": self.base.tolist(),
                "synergy": [[j, k, w] for (j, k), w in sorted(self.synergy.items())],
                "gamma": self.gamma,
                "normalizer": self.normalizer,
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ValueModel":
        p = obj["params"]
        return cls(
            kind=obj["type"],
            base=np.asarray(p["base"], dtype=np.float64),
            synergy={(int(j), int(k)): float(w) for j, k, w in p["synergy"]},
            gamma=float(p.get("gamma", 1.0)),
            normalizer=float(p["normalizer"]),
        )


def _normalized(kind, base, synergy=None, gamma=1.0) -> ValueModel:
    vm = ValueModel(kind=kind, base=base, synergy=synergy or {}, gamma=gamma)
    full = np.ones(vm.m)
    vm.normalizer = float(vm._raw(full))
    if vm.normalizer <= 0:
        raise InvalidInputError("degenerate value model: full bundle has zero value")
    return vm


@dataclass
class GeneratorConfig:
    """Instance-generator settings.

    ``bidder_kinds`` cycles over bidders; ``synergy_density`` is the expected
    fraction of item pairs carrying a complementarity term.
    """

    n: int
    m: int
    bidder_kinds: tuple[str, ...] = ("additive", "pairwise-synergy", "coverage")
    synergy_density: float = 0.25
    synergy_scale: float = 1.0
    gamma_range: tuple[float, float] = (0.4, 0.9)

    def __post_init__(self):
        self.bidder_kinds = tuple(self.bidder_kinds)
        self.gamma_range = tuple(self.gamma_range)
        if not (1 <= self.n <= 12):
            raise InvalidInputError("bidder count must lie in [1, 12]")
        if not (1 <= self.m <= 30):
            raise InvalidInputError("item count must lie in [1, 30]")
        for k in self.bidder_kinds:
            if k not in KINDS:
                raise InvalidInputError(f"unknown bidder kind {k!r}")

    def to_json_obj(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GeneratorConfig":
        return dataclass_from_json(cls, obj, "generator")


def _random_model(kind: str, m: int, cfg: GeneratorConfig, rng: np.random.Generator) -> ValueModel:
    base = rng.uniform(0.1, 1.0, size=m)
    if kind == "additive":
        return _normalized("additive", base)
    if kind == "coverage":
        gamma = float(rng.uniform(*cfg.gamma_range))
        return _normalized("coverage", base, gamma=gamma)
    synergy = {}
    for j in range(m):
        for k in range(j + 1, m):
            if rng.random() < cfg.synergy_density:
                synergy[(j, k)] = float(rng.uniform(0, cfg.synergy_scale))
    return _normalized("pairwise-synergy", base, synergy=synergy)


def generate_instance(config: GeneratorConfig, seed: int) -> AuctionInstance:
    """Deterministically generate an instance and cache its exact optimum."""
    from .wdp import BRUTE_FORCE_LIMIT, SolveBudget, brute_force_wdp, solve_wdp

    rng = np.random.default_rng(seed)
    models = [
        _random_model(config.bidder_kinds[i % len(config.bidder_kinds)], config.m, config, rng)
        for i in range(config.n)
    ]
    evaluators = [vm.value_batch for vm in models]
    if (config.n + 1) ** config.m <= BRUTE_FORCE_LIMIT:
        sol = brute_force_wdp(evaluators, config.m)
    else:
        sol = solve_wdp(evaluators, config.m, budget=SolveBudget(relative_gap=0.0))
        if sol.status != "optimal":
            raise UnsupportedSizeError(f"optimum not proven within the time limit ({sol.status})")
    return AuctionInstance(
        n=config.n,
        m=config.m,
        values=models,
        optimal_allocation=sol.allocation,
        optimal_welfare=sol.objective,
        seed=seed,
        generator_config=config.to_json_obj(),
    )
