"""Experiment configuration and deterministic RNG plumbing.

Identical configs must produce bit-identical CSV artifacts: randomness
flows only through per-item generators derived from (seed, item index),
and output rows are canonically ordered before writing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..quadrature import DEFAULT_SPEC, QuadratureSpec

COMMANDS = (
    "expsum-eval",
    "expsum-sweep",
    "verify-mult",
    "salie-bounds",
    "specfun-check",
    "specfun-whittaker",
    "specfun-bessel",
    "oscillatory-map",
    "specfun-mellin-barnes",
    "theta-check",
    "shifted-sum",
    "sym2",
    "fit",
    "remark-check",
    "gen-form",
)


@dataclass
class ExperimentConfig:
    command: str
    seed: int = 0
    tolerances: QuadratureSpec = field(default_factory=lambda: DEFAULT_SPEC)
    out_dir: str = "."
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def item_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one work item; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
