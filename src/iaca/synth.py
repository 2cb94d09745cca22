"""Synthetic bimodal sequences with controllable modality relationships.

Each sequence carries a smooth latent emotion track: a sum of 2 to 4
random low-frequency sinusoids, clamped to [-1, 1]. A modality observes
a fixed random linear embedding of four stacked tracks: the signal track
plus three nuisance tracks of the same smooth family. The regime's kind
decides what lands in each modality's signal slot. ``_KINDS`` is the one
table of the kinds: what each draws, and which slot takes its noise_sigma
white noise (a kind that draws no noise ignores noise_sigma).

Embeddings are drawn once per generate() call, so every sequence of a
call (and any split carved out of it) shares the same observation model.
Sequence-level randomness comes from a splitmix-style derivation of the
master seed, making each sequence reproducible in isolation. A sequence
first makes all its draws, in the order the README's "Data regimes" lists
and a test pins, and then evaluates all its tracks together in one step,
the module's one track evaluator. A new kind appends its draws after these
and shares that evaluation, so the existing kinds keep their bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List

import numpy as np

from .gating import check_field, check_types

# kind -> whether a conflict track is drawn after the signal, and which
# stack's signal slot (0 audio, 1 visual) takes the noise drawn next: added
# to the conflict track, or in place of the signal (None: no noise)
_KINDS = {
    "strong_complementary": (False, None),  # both modalities embed the true track
    "weak_conflicting": (True, 1),  # visual: an independent track plus noise; audio clean
    "dominating_audio": (False, 1),  # visual: noise only; audio clean
    "dominating_visual": (False, 0),  # audio: noise only; visual clean
}
REGIME_KINDS = tuple(_KINDS)

_N_TRACKS = 4  # signal slot + 3 nuisance tracks
_MAX_SINES = 4  # a track sums 2 to 4 sines
# where each sine's amplitude, frequency and phase start and how wide their
# ranges are: rng.uniform(low, high) returns low + (high - low) * u
_SINE_LOW = (0.3, 0.5, 0.0)
_SINE_SPAN = (1.0 - 0.3, 3.0 - 0.5, 2.0 * np.pi - 0.0)

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
    return splitmix64(((operator.index(seed) & _MASK) + index * _GOLDEN) & _MASK)


@dataclass
class Regime:
    kind: str = "strong_complementary"
    noise_sigma: float = 0.0
    corrupt_fraction: float = 0.0  # train-time audio masking, applied by the harness

    def validate(self) -> None:
        check_types(self)
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"kind must be one of {REGIME_KINDS}, got {self.kind!r}")
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
    seed: int


def _draw_sines(rng: np.random.Generator) -> np.ndarray:
    # one track's draws: its sine count, then each sine's amplitude,
    # frequency and phase uniforms in turn, as one (n, 3) array
    return rng.random((int(rng.integers(2, _MAX_SINES + 1)), 3))


def _tracks(draws: List[np.ndarray], t: np.ndarray) -> np.ndarray:
    # every track of `draws` on the times t, one row each, in one np.sin: the
    # doubles and arithmetic of one rng.uniform per parameter, and each
    # track's sines added to 0.0 in draw order, so each row has the bits of a
    # loop over its sines. A track's rows past its count stay +0.0; a sum that
    # starts at 0.0 is never -0.0, so adding +0.0 to it changes no bit.
    amplitude, freq, phase = (np.concatenate(draws) * _SINE_SPAN + _SINE_LOW).T[:, :, None]
    sines = np.zeros((len(draws), _MAX_SINES, t.size))
    drawn = np.arange(_MAX_SINES) < np.array([[len(u)] for u in draws])
    sines[drawn] = amplitude * np.sin(2.0 * np.pi * freq * t + phase)
    tracks = np.add.reduce(sines, axis=1, initial=0.0)
    return np.clip(tracks, -1.0, 1.0, out=tracks)


def generate(regime: Regime, d: int = 32, n_clips: int = 64,
             n_sequences: int = 16, seed: int = 0) -> List[SyntheticSequence]:
    """Sequences drawn under one observation model; deterministic in seed."""
    regime.validate()
    for label, value in (("d", d), ("n_clips", n_clips), ("n_sequences", n_sequences),
                         ("seed", seed)):
        check_field(label, int, value)
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
    t = np.linspace(0.0, 1.0, n_clips)

    conflicting, noisy = _KINDS[regime.kind]
    n_first = 1 + conflicting
    # the rows of a sequence's evaluated tracks that fill the audio and the
    # visual stack: signal (visual: conflict, if drawn), then 3 nuisance
    rows = [[0, n_first, n_first + 1, n_first + 2],
            [n_first - 1, n_first + 3, n_first + 4, n_first + 5]]

    out = []
    for i in range(n_sequences):
        seq_seed = derive_seed(seed, i + 1)
        rng = np.random.default_rng(seq_seed)
        draws = [_draw_sines(rng) for _ in range(n_first)]
        if noisy is not None:
            noise = regime.noise_sigma * rng.normal(size=n_clips)
        draws += [_draw_sines(rng) for _ in range(2 * (_N_TRACKS - 1))]

        tracks = _tracks(draws, t)
        stacks = tracks[rows]
        if conflicting:
            stacks[noisy, 0] += noise
        elif noisy is not None:
            stacks[noisy, 0] = noise
        out.append(SyntheticSequence(xa=embed_a @ stacks[0], xv=embed_v @ stacks[1],
                                     target=tracks[:1].copy(), seed=seq_seed))
    return out


def corrupt_missing(x: np.ndarray, fraction: float, seed: int = 0) -> np.ndarray:
    """Zero out one contiguous block of floor(fraction * L) clip columns of a
    copy of x (a dropped stream), placed at random by the seed."""
    check_field("fraction", float, fraction)
    check_field("seed", int, seed)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    if seed < 0:  # numpy rejects it too, but unnamed and only when a block is zeroed
        raise ValueError(f"seed must be >= 0, got {seed}")
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

