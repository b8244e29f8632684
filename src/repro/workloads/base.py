"""Shared infrastructure for the benchmark workloads.

Every workload module (micro, TM1, TPC-B, TPC-C) follows one contract:

* ``build_database(scale_factor, layout="column", ...) -> Database``
* ``build_procedures(...) -> list[TransactionType]`` (or a module-level
  ``PROCEDURES`` for fixed sets)
* ``generate_transactions(db_or_params, n, seed, ...) -> list[(name, params)]``

so benches and examples can swap workloads freely. This module holds
the common random generators (the skewed "first lock with probability
alpha" distribution of Section 6.1, NURand for TPC-C, deterministic
string pools).
"""

from __future__ import annotations

import math
import string
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: A submission-ready transaction: (type name, parameter tuple).
TxnSpec = Tuple[str, tuple]

#: A timed transaction: (type name, parameter tuple, submit time).
TimedTxnSpec = Tuple[str, tuple, float]


def make_rng(seed: int) -> np.random.Generator:
    """The single RNG entry point -- keeps workloads reproducible."""
    return np.random.default_rng(seed)


def skewed_first_item(
    rng: np.random.Generator, n_items: int, alpha: float, size: int
) -> np.ndarray:
    """The paper's skew model (Section 6.1).

    Each transaction targets item 0 with probability ``alpha``;
    otherwise one of the remaining items uniformly. ``alpha = 1/n``
    reproduces a uniform workload; larger alpha deepens the
    T-dependency graph.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be within [0, 1]")
    if n_items < 1:
        raise ValueError("need at least one item")
    hot = rng.random(size) < alpha
    others = rng.integers(1, max(2, n_items), size=size)
    out = np.where(hot, 0, others % n_items)
    if n_items == 1:
        out[:] = 0
    return out.astype(np.int64)


def zipfian_items(
    rng: np.random.Generator, n_items: int, theta: float, size: int
) -> np.ndarray:
    """Zipfian-skewed item choice (the SmallBank/YCSB hot-set model).

    Item ``i`` is drawn with probability proportional to
    ``1 / (i + 1) ** theta``: item 0 is the hottest, popularity falls
    off by rank. ``theta = 0`` is exactly uniform; the YCSB default is
    ``theta ~= 0.99``; larger values concentrate the mass further and
    deepen the T-dependency graph, like the paper's ``alpha`` model
    (:func:`skewed_first_item`) but with a full popularity tail
    instead of one hot item.
    """
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    if n_items < 1:
        raise ValueError("need at least one item")
    if theta == 0.0:
        return rng.integers(0, n_items, size=size).astype(np.int64)
    weights = 1.0 / np.power(
        np.arange(1, n_items + 1, dtype=np.float64), theta
    )
    return rng.choice(
        n_items, size=size, p=weights / weights.sum()
    ).astype(np.int64)


#: Rejection-sampling budget per pair before falling back to whatever
#: was drawn last. With any balanced router the per-draw success
#: probability is at least 1/n_shards, so 64 tries essentially never
#: fall through; the cap only matters for degenerate shard maps.
_PAIR_MAX_TRIES = 64


def paired_items(
    rng: np.random.Generator,
    n_items: int,
    shard_of: Callable[[int], int],
    cross_fraction: float,
    size: int,
) -> np.ndarray:
    """Item pairs with a tunable cross-shard fraction (cluster workloads).

    Each pair's first item is uniform over ``[0, n_items)``. With
    probability ``cross_fraction`` the partner is drawn from a
    *different* shard (per ``shard_of``); otherwise from the same shard
    (itself, if no distinct same-shard partner turns up). Partners are
    found by rejection sampling, so cost scales with ``size``, not with
    ``n_items`` -- the paper-scale tables (millions of tuples) are
    never enumerated. When every item lives on one shard, no
    cross-shard pair can exist and partners stay local.

    Returns an ``(size, 2)`` int64 array.
    """
    if not 0.0 <= cross_fraction <= 1.0:
        raise ValueError("cross_fraction must be within [0, 1]")
    if n_items < 1:
        raise ValueError("need at least one item")
    firsts = rng.integers(0, n_items, size=size)
    pairs = np.empty((size, 2), dtype=np.int64)
    # Once one cross search exhausts its budget, the shard map is
    # (effectively) single-shard: stop asking for cross partners.
    cross_feasible = True
    for i in range(size):
        a = int(firsts[i])
        home = shard_of(a)
        want_cross = (
            cross_feasible and rng.random() < cross_fraction
        )
        b = a
        found = False
        for _ in range(_PAIR_MAX_TRIES):
            candidate = int(rng.integers(0, n_items))
            is_cross = shard_of(candidate) != home
            if want_cross and is_cross:
                b = candidate
                found = True
                break
            if not want_cross and not is_cross and candidate != a:
                b = candidate
                found = True
                break
        if want_cross and not found:
            cross_feasible = False
        pairs[i, 0] = a
        pairs[i, 1] = b
    return pairs


# ---------------------------------------------------------------------------
# Arrival-time generators (online serving workloads).
# ---------------------------------------------------------------------------
def _require_arrivals(n: int) -> None:
    """Every generator promises at least one arrival.

    ``n < 1`` used to return a silently empty stream, which a serve
    loop treats as "the stream ended before it began" -- a confusing
    no-op far from the misconfiguration that caused it.
    """
    if n < 1:
        raise ValueError("need at least one arrival (n >= 1)")


def uniform_arrival_times(
    n: int, rate_tps: float, start: float = 0.0
) -> np.ndarray:
    """Deterministic arrivals: transaction ``i`` at ``start + i/rate``.

    The arrival model of the paper's response-time experiments
    (Figures 9, 15), exposed for the online ingest runtime.
    """
    _require_arrivals(n)
    if not rate_tps > 0:
        raise ValueError(f"rate_tps must be positive, got {rate_tps!r}")
    return start + np.arange(n, dtype=np.float64) / rate_tps


def poisson_arrival_times(
    rng: np.random.Generator, n: int, rate_tps: float, start: float = 0.0
) -> np.ndarray:
    """Poisson process: exponential inter-arrival gaps at ``rate_tps``."""
    _require_arrivals(n)
    if not rate_tps > 0:
        raise ValueError(f"rate_tps must be positive, got {rate_tps!r}")
    gaps = rng.exponential(1.0 / rate_tps, size=n)
    return start + np.cumsum(gaps)


def bursty_arrival_times(
    rng: np.random.Generator,
    n: int,
    rate_tps: float,
    period_s: float,
    duty: float = 0.25,
    start: float = 0.0,
) -> np.ndarray:
    """On/off bursts: each period's arrivals land in its first
    ``duty`` fraction, so the instantaneous rate is ``rate/duty``
    during a burst and zero between bursts while the mean rate stays
    ``rate_tps``. The stress case for a fixed bulk former: no single
    size suits both the burst and the lull.
    """
    _require_arrivals(n)
    if not 0 < period_s < math.inf:
        raise ValueError(f"period_s must be positive and finite, got {period_s!r}")
    if not 0.0 < duty <= 1.0:
        raise ValueError("duty must be within (0, 1]")
    base = poisson_arrival_times(rng, n, rate_tps, start=0.0)
    periods = np.floor(base / period_s)
    phase = base - periods * period_s
    return start + periods * period_s + phase * duty


def diurnal_arrival_times(
    rng: np.random.Generator,
    n: int,
    base_rate_tps: float,
    peak_rate_tps: float,
    period_s: float,
    start: float = 0.0,
) -> np.ndarray:
    """Sinusoidal day/night load: a nonhomogeneous Poisson process
    whose instantaneous rate swings between ``base_rate_tps`` (the
    trough, at t=0) and ``peak_rate_tps`` (half a period later),
    sampled by thinning against the peak rate. ``peak == base``
    degenerates to a plain Poisson process.
    """
    _require_arrivals(n)
    if not base_rate_tps > 0:
        raise ValueError(
            "base_rate_tps must be positive: a rate-0 trough would "
            "stall the stream for half of every period"
        )
    if not base_rate_tps <= peak_rate_tps < math.inf:
        raise ValueError(
            "peak_rate_tps must be >= base_rate_tps and finite (arrivals "
            f"are thinned against it), got {peak_rate_tps!r}"
        )
    if not 0 < period_s < math.inf:
        raise ValueError(f"period_s must be positive and finite, got {period_s!r}")
    times = np.empty(n, dtype=np.float64)
    filled = 0
    t = 0.0
    while filled < n:
        chunk = 2 * max(64, n - filled)
        gaps = rng.exponential(1.0 / peak_rate_tps, size=chunk)
        candidates = t + np.cumsum(gaps)
        t = float(candidates[-1])
        swing = 0.5 * (1.0 - np.cos(2.0 * np.pi * candidates / period_s))
        rate = base_rate_tps + (peak_rate_tps - base_rate_tps) * swing
        kept = candidates[rng.random(chunk) < rate / peak_rate_tps]
        take = min(len(kept), n - filled)
        times[filled:filled + take] = kept[:take]
        filled += take
    return start + times


def flash_crowd_arrival_times(
    rng: np.random.Generator,
    n: int,
    base_rate_tps: float,
    flash_at_s: float,
    flash_rate_tps: float,
    flash_duration_s: float,
    start: float = 0.0,
) -> np.ndarray:
    """A steady Poisson baseline with a flash crowd riding on top: an
    extra burst of arrivals at ``flash_rate_tps`` lands inside the
    window ``[flash_at_s, flash_at_s + flash_duration_s)``. The burst
    takes as many of the ``n`` arrivals as its rate x duration demands
    (capped at ``n - 1`` so the baseline always exists); the rest form
    the baseline.
    """
    _require_arrivals(n)
    if not base_rate_tps > 0:
        raise ValueError("base_rate_tps must be positive")
    if not 0 <= flash_at_s < math.inf:
        raise ValueError("flash_at_s must be >= 0 and finite")
    if not base_rate_tps < flash_rate_tps < math.inf:
        raise ValueError(
            "flash_rate_tps must exceed base_rate_tps: the flash crowd "
            "is defined as load *above* the baseline (and be finite)"
        )
    if not 0 < flash_duration_s < math.inf:
        raise ValueError(
            "flash_duration_s must be positive and finite: a zero-duration "
            "burst is an empty stream segment, not a flash crowd"
        )
    n_flash = int(round(flash_rate_tps * flash_duration_s))
    if n_flash < 1:
        raise ValueError(
            "flash window too short to hold one arrival at "
            f"flash_rate_tps={flash_rate_tps}"
        )
    n_flash = min(n_flash, n - 1)
    if n_flash < 1:
        raise ValueError("need n >= 2: one baseline plus one flash arrival")
    n_base = n - n_flash
    base = poisson_arrival_times(rng, n_base, base_rate_tps, start=0.0)
    flash = flash_at_s + np.sort(rng.random(n_flash)) * flash_duration_s
    return start + np.sort(np.concatenate([base, flash]))


def timed_specs(
    specs: Sequence[TxnSpec], times: np.ndarray
) -> List[TimedTxnSpec]:
    """Zip specs with nondecreasing arrival times into submit triples."""
    if len(specs) != len(times):
        raise ValueError(
            f"{len(specs)} specs but {len(times)} arrival times"
        )
    return [
        (name, params, float(t)) for (name, params), t in zip(specs, times)
    ]


def nurand(rng: np.random.Generator, a: int, x: int, y: int, c: int = 123) -> int:
    """TPC-C's non-uniform random NURand(A, x, y)."""
    return (
        ((int(rng.integers(0, a + 1)) | int(rng.integers(x, y + 1))) + c)
        % (y - x + 1)
    ) + x


_LAST_NAME_SYLLABLES = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
]


def tpcc_last_name(num: int) -> str:
    """TPC-C customer last name from a three-digit number."""
    return (
        _LAST_NAME_SYLLABLES[(num // 100) % 10]
        + _LAST_NAME_SYLLABLES[(num // 10) % 10]
        + _LAST_NAME_SYLLABLES[num % 10]
    )


def padded_number_string(value: int, width: int) -> str:
    """Fixed-width numeric string (TM1's sub_nbr representation)."""
    return str(value).zfill(width)


def random_string(rng: np.random.Generator, length: int) -> str:
    """Uppercase filler string of exactly ``length`` characters."""
    letters = np.array(list(string.ascii_uppercase))
    return "".join(letters[rng.integers(0, 26, size=length)])


def choose_mix(
    rng: np.random.Generator, mix: Sequence[Tuple[str, float]], size: int
) -> List[str]:
    """Draw ``size`` type names from a (name, weight) mix.

    The one owner of the mix check: an empty mix, a negative or
    non-finite weight, or a total that is not positive and finite is a
    ``ValueError``.
    """
    names = [name for name, _w in mix]
    weights = np.asarray([w for _n, w in mix], dtype=float)
    if not names:
        raise ValueError("transaction mix is empty")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError(
            f"mix weights must be finite and >= 0, got {weights.tolist()}"
        )
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not 0 < total < np.inf:
        raise ValueError(f"mix weights must have a positive total, got {total}")
    picks = rng.choice(len(names), size=size, p=weights / total)
    return [names[i] for i in picks]
