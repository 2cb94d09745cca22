"""Synthetic bimodal sequences with controllable modality relationships.

Each sequence carries a smooth latent emotion track in [-1, 1]. A
modality observes a fixed random linear embedding of four stacked tracks:
the signal track plus three nuisance tracks of the same smooth family.
The regime decides what lands in each modality's signal slot:

  strong_complementary   both modalities embed the true track
  weak_conflicting       visual's slot holds an independent track plus
                         noise_sigma white noise; audio stays clean
  dominating_audio       visual's slot holds only noise_sigma white noise
  dominating_visual      audio's slot holds only noise_sigma white noise

Only the last three kinds read noise_sigma; strong_complementary ignores it.

Embeddings are drawn once per generate() call, so every sequence of a
call (and any split carved out of it) shares the same observation model.
Sequence-level randomness comes from a splitmix-style derivation of the
master seed, making each sequence reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .gating import require_type

REGIME_KINDS = ("strong_complementary", "weak_conflicting",
                "dominating_audio", "dominating_visual")

_N_TRACKS = 4  # signal slot + 3 nuisance tracks

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 output for a 64-bit state; standard finalizer."""
    z = (state + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, index: int) -> int:
    """Independent stream seed for the index-th consumer of a master seed."""
    return splitmix64(((seed & _MASK) + index * _GOLDEN) & _MASK)


@dataclass
class Regime:
    kind: str = "strong_complementary"
    noise_sigma: float = 0.0
    corrupt_fraction: float = 0.0  # train-time audio masking, applied by the harness

    def validate(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"kind must be one of {REGIME_KINDS}, got {self.kind!r}")
        require_type(self, float, "noise_sigma", "corrupt_fraction")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ValueError(
                f"corrupt_fraction must lie in [0, 1], got {self.corrupt_fraction}")


@dataclass
class SyntheticSequence:
    xa: np.ndarray  # d x L
    xv: np.ndarray  # d x L
    target: np.ndarray  # 1 x L, entries in [-1, 1]
    regime: Regime
    seed: int


def smooth_track(rng: np.random.Generator, n_clips: int) -> np.ndarray:
    """Sum of 2-4 random low-frequency sinusoids, clamped to [-1, 1]."""
    t = np.linspace(0.0, 1.0, n_clips)
    track = np.zeros(n_clips)
    for _ in range(int(rng.integers(2, 5))):
        amplitude = rng.uniform(0.3, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        track += amplitude * np.sin(2.0 * np.pi * freq * t + phase)
    return np.clip(track, -1.0, 1.0)


def _track_stack(rng: np.random.Generator, n_clips: int,
                 signal: np.ndarray) -> np.ndarray:
    rows = [signal]
    rows += [smooth_track(rng, n_clips) for _ in range(_N_TRACKS - 1)]
    return np.stack(rows)


def generate(regime: Regime, d: int = 32, n_clips: int = 64,
             n_sequences: int = 16, seed: int = 0) -> List[SyntheticSequence]:
    """Sequences drawn under one observation model; deterministic in seed."""
    regime.validate()
    if d < 2:
        raise ValueError(f"feature dimension must be >= 2, got {d}")
    if n_clips < 2:
        raise ValueError(f"sequence length must be >= 2, got {n_clips}")
    if n_sequences < 1:
        raise ValueError(f"need at least one sequence, got {n_sequences}")

    embed_rng = np.random.default_rng(derive_seed(seed, 0))
    scale = 1.0 / np.sqrt(_N_TRACKS)
    embed_a = embed_rng.normal(0.0, scale, size=(d, _N_TRACKS))
    embed_v = embed_rng.normal(0.0, scale, size=(d, _N_TRACKS))

    out = []
    for i in range(n_sequences):
        seq_seed = derive_seed(seed, i + 1)
        rng = np.random.default_rng(seq_seed)
        signal = smooth_track(rng, n_clips)

        sig_a, sig_v = signal, signal
        if regime.kind == "weak_conflicting":
            conflict = smooth_track(rng, n_clips)
            sig_v = conflict + regime.noise_sigma * rng.normal(size=n_clips)
        elif regime.kind == "dominating_audio":
            sig_v = regime.noise_sigma * rng.normal(size=n_clips)
        elif regime.kind == "dominating_visual":
            sig_a = regime.noise_sigma * rng.normal(size=n_clips)

        xa = embed_a @ _track_stack(rng, n_clips, sig_a)
        xv = embed_v @ _track_stack(rng, n_clips, sig_v)
        out.append(SyntheticSequence(xa=xa, xv=xv,
                                     target=signal.reshape(1, n_clips),
                                     regime=regime, seed=seq_seed))
    return out


def corrupt_missing(x: np.ndarray, fraction: float, seed: int = 0) -> np.ndarray:
    """Zero out one contiguous block of floor(fraction * L) clip columns of a
    copy of x (a dropped stream), placed at random by the seed."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be a d x L matrix, got shape {x.shape}")
    out = x.copy()
    n_clips = x.shape[1]
    n_zero = int(np.floor(fraction * n_clips))
    if n_zero == 0:
        return out
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n_clips - n_zero + 1))
    out[:, start:start + n_zero] = 0.0
    return out

