"""Event-driven Monte Carlo oracle for the analytic rate and correlation model.

Empty pulses add nothing to any tally, so only emitting pulses (events) are
simulated.  The event count is drawn once, K ~ Binomial(pulses, P(n >= 1)),
and each event draws its pair number from the source law conditioned on
n >= 1: n = 1 + Geom(x) for the geometric sources, because the geometric is
memoryless, and a zero-truncated Poisson table for the coherent source.
This is an exact sampler of the same per-pulse law.  Each event thins its
photons through bucket detectors and (in the splitter configuration)
divides the signal photons binomially between two branches.  Integer
tallies of clicks, coincidences, and emission moments are merged across
chunks by plain addition, so results are exact and associative.

Reproducibility contract: both random streams are counter-based (Philox)
and keyed by the seed.  K comes from the stream whose second key word is 1;
the events use the stream whose second key word is 0, indexed by event, not
by pulse or worker.  Event i always consumes the same fixed window of that
stream, so identical configurations produce bit-identical tallies
regardless of chunk size or thread count.  Chunk boundaries are kept at
multiples of four events because the generator seeks in four-word blocks.

The chunk kernel reads the raw 64-bit words w through tables built once per
simulate call, and reproduces exactly the float computations on the uniform
u = ((w >> 11) + 1) / 2**53 that defined it.  Two identities carry it:

- Clicks.  A detector reached by n photons clicks when u < p[n] =
  1 - (1 - eta)**n.  Scaling by 2**53 is exact, so that is (w >> 11) <
  thr[n] with thr[n] = max(ceil(p[n] 2**53) - 1, 0); and (w >> 11) < T <=>
  w < T 2**11, so the test is w < (thr << 11)[n] with no shift of the word.
- Coherent draws.  searchsorted(cdf, u, "left") counts the entries cdf_j <
  u, and cdf_j < u <=> w >= floor(cdf_j 2**53) 2**11, so the zero-truncated
  Poisson draw counts integer word thresholds, through a 4096-bucket guide
  table indexed by w >> 52.

The geometric draw keeps the float steps of u, log and division in their
order.  Emission moments come from a histogram of n, and coincidences from
counts of the click masks.

Each worker thread runs every T-th chunk through one set of scratch arrays
sized to a chunk: three 8-byte arrays and three bool masks.  Every ufunc
and gather writes into them through out=, so a chunk allocates no array but
its random words.  Chunks default to 2**15 events, so a heralded_split
chunk's words take 1.3 MB.  2**16 ran 2-7 % faster at 1e7 pulses with two
threads, but raised the peak RSS of ten such runs from 45-48 to 51 MB.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .detector_model import (
    DetectorChain,
    click_probability,
    coincidence_rate,
    detected_vs_incident,
    singles_rate,
    split_coincidences,
)
from .correlation import g2_from_counts
from .errors import ResourceLimitError
from .photon_statistics import (
    log_binomial_half,
    log_factorials,
    poisson_pmf,
    validate_emission_parameter,
)

MODES = ("two_arm", "heralded_split", "saturation")

DEFAULT_CHUNK_PULSES = 1 << 15

# buckets of the guide table over the truncated Poisson cdf
_GUIDE_BUCKETS = 4096

# words of the key stream consumed per event, by mode
_STRIDE = {"two_arm": 3, "heralded_split": 5, "saturation": 2}

_TWO53 = float(1 << 53)

_TALLY_FIELDS = (
    "clicks1",
    "clicks2",
    "clicks3",
    "pair12",
    "pair13",
    "triple123",
    "emitted",
    "emitted_sq",
    "emitted_cu",
    "pulses_with_emission",
    "clicked_photons",
)

# Stirling numbers of the second kind S(k, j) for k = 1..6; they convert
# factorial moments into raw moments, E[n^k] = sum_j S(k,j) * fm_j.
_STIRLING = {
    1: (1,),
    2: (1, 1),
    3: (1, 3, 1),
    4: (1, 7, 6, 1),
    5: (1, 15, 25, 10, 1),
    6: (1, 31, 90, 65, 15, 1),
}


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation; equal configs give equal output.

    mode "two_arm" uses x and chain (eta1, eta2); "heralded_split" uses x
    and chain (eta1, eta2, eta3) where eta2/eta3 are post-splitter branch
    efficiencies; "saturation" uses source_kind ("thermal" or "coherent"),
    mean, and chain.eta1 as the single detector efficiency.
    """

    mode: str
    pulses: int
    seed: int
    x: float | None = None
    chain: DetectorChain | None = None
    source_kind: str | None = None
    mean: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not isinstance(self.pulses, int) or self.pulses < 1:
            raise ValueError(f"pulses must be a positive integer, got {self.pulses!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if self.mode in ("two_arm", "heralded_split"):
            if self.x is None or self.chain is None:
                raise ValueError(f"mode {self.mode} requires x and chain")
            validate_emission_parameter(self.x)
            if self.chain.eta2 is None:
                raise ValueError(f"mode {self.mode} requires chain.eta2")
            if self.mode == "heralded_split" and self.chain.eta3 is None:
                raise ValueError("heralded_split requires chain.eta3")
        else:
            if self.source_kind not in ("thermal", "coherent"):
                raise ValueError(
                    "saturation mode requires source_kind thermal|coherent"
                )
            if self.mean is None or not math.isfinite(self.mean) or self.mean < 0:
                raise ValueError(
                    f"saturation mode requires a finite mean >= 0, got {self.mean!r}"
                )
            if self.chain is None:
                raise ValueError("saturation mode requires chain.eta1")


@dataclass(frozen=True)
class SimCounts:
    """Exact integer tallies from one simulation.

    clicks1..3 are per-detector singles; pair12/pair13 are coincidences of
    detector 1 with each branch; triple123 is the three-fold coincidence.
    emitted, emitted_sq, emitted_cu accumulate n, n^2, n^3 of the per-pulse
    emission; pulses_with_emission counts pulses with n >= 1; and
    clicked_photons accumulates n over pulses whose detector clicked
    (saturation mode only).
    """

    pulses: int
    clicks1: int = 0
    clicks2: int = 0
    clicks3: int = 0
    pair12: int = 0
    pair13: int = 0
    triple123: int = 0
    emitted: int = 0
    emitted_sq: int = 0
    emitted_cu: int = 0
    pulses_with_emission: int = 0
    clicked_photons: int = 0

    def fraction(self, field: str) -> float:
        return getattr(self, field) / self.pulses

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def geometric_sampler(x: float, rng: np.random.Generator, size=None):
    """Draw pair numbers from Pr(n) = (1 - x) x**n by CDF inversion.

    n = floor(log(u) / log(x)) for u uniform on (0, 1]; always 0 at x = 0.
    """
    x = validate_emission_parameter(x)
    u = 1.0 - rng.random(size)
    if x == 0.0:
        zero = np.zeros_like(np.asarray(u), dtype=np.int64)
        return int(zero) if size is None else zero
    n = np.floor(np.log(u) / math.log(x)).astype(np.int64)
    return int(n) if size is None else n


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to floats in (0, 1]: ((w >> 11) + 1) / 2**53.

    The chunk kernel reads the words through identities that are exact for
    every word, so only the rare n >= 64 split path forms these floats.
    """
    return (
        np.right_shift(words, np.uint64(11)).astype(np.float64) + 1.0
    ) / _TWO53


# _LOW_BITS[n] keeps the low n bits of a word, n = 0 .. 63
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


def _binomial_half(
    n: np.ndarray, words: np.ndarray, top: int, out: np.ndarray
) -> np.ndarray:
    """k ~ Binomial(n, 1/2) for each n into the int64 array out, driven by
    one word per draw; top is n.max().

    For n <= 63 the k value is the popcount of the low n bits, which is an
    exact fair-coin count per photon; that path works in out alone.  Larger
    n (rare) fall back to CDF inversion on the uniform derived from the same
    word, so the result stays a pure function of (n, word).
    """
    if top <= 63:
        bits = out.view(np.uint64)
        np.take(_LOW_BITS, n, out=bits, mode="clip")
        np.bitwise_and(bits, words, out=bits)
        np.bitwise_count(bits, out=bits)
        return out
    fast = n <= 63
    out[fast] = np.bitwise_count(words[fast] & _LOW_BITS[n[fast]])
    slow = np.flatnonzero(~fast)
    u = _uniforms(words[slow])
    ns = n[slow]
    log_fact = log_factorials(int(ns.max()))
    for nv in np.unique(ns):
        sel = ns == nv
        cdf = np.cumsum(np.exp(log_binomial_half(int(nv), log_fact)))
        cdf[-1] = 1.0
        out[slow[sel]] = np.searchsorted(cdf, u[sel], side="left")
    return out


def _geometric_parameter(config: SimConfig) -> float | None:
    """x of the geometric pair-number law; None for the coherent source."""
    if config.mode != "saturation":
        return config.x
    if config.source_kind == "thermal":
        return config.mean / (1.0 + config.mean)
    return None


def _emission_probability(config: SimConfig) -> float:
    """P(n >= 1) per pulse."""
    x = _geometric_parameter(config)
    return x if x is not None else -math.expm1(-config.mean)


def _truncated_poisson_cdf(mean: float) -> np.ndarray:
    """Cumulative Poisson table conditioned on n >= 1: entry i is
    Pr(n <= i + 1 | n >= 1), long enough that the tail is below 2**-53."""
    n_max = int(mean + 12.0 * math.sqrt(mean) + 40.0)
    if n_max > 200_000:
        raise ResourceLimitError(f"Poisson mean {mean} too large to tabulate")
    cdf = np.cumsum(poisson_pmf(mean, n_max, n_min=1))
    return cdf / cdf[-1]


# A draw maps one word per event to its pair number n >= 1.  draw(w, a, n,
# mask) writes n for the words w and returns n.max(); a (uint64) and mask
# (bool) are scratch of the same length that it may overwrite.
_Draw = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]


def _geometric_draw(x: float) -> _Draw:
    """n = 1 + floor(log(u) / log(x)) with u = ((w >> 11) + 1) * 2**-53.

    The float steps are those of geometric_sampler on _uniforms, in the same
    order, so every n is identical: a + 1 <= 2**53 converts exactly, the
    scaling by a power of two is exact, log, then a true division by log(x)
    (a multiply by 1 / log(x) would round differently), then a truncating
    cast, which is floor because the ratio is >= 0 or -0.0.  u lives in a's
    buffer.
    """
    log_x = math.log(x)

    def draw(w, a, n, mask):
        u = a.view(np.float64)
        np.right_shift(w, 11, out=a)
        np.add(a, 1, out=a)
        np.copyto(u, a)
        np.multiply(u, 1.0 / _TWO53, out=u)
        np.log(u, out=u)
        np.divide(u, log_x, out=u)
        np.copyto(n, u, casting="unsafe")
        np.add(n, 1, out=n)
        return int(n.max())

    return draw


def _poisson_draw(cdf: np.ndarray) -> _Draw:
    """n = 1 + searchsorted(cdf, u, side="left") on raw words, through an
    integer guide table.

    With a = w >> 11 and u = (a + 1) / 2**53, cdf_j < u <=> a >= C_j, where
    C_j = floor(cdf_j * 2**53), <=> w >= C_j * 2**11.  So the draw counts the
    word thresholds C_j * 2**11 at or below w; entries with C_j = 2**53 never
    count and are dropped, which keeps every threshold below 2**64.

    Bucket b = w >> 52 holds the words b * 2**52 .. (b + 1) * 2**52 - 1, and
    hi[b] is the count at its last word.  With at most one threshold inside
    the bucket the count is hi[b] - (w < edge[b]), edge[b] being the largest
    threshold at or below that last word (0 when there is none).  Crowded
    buckets, where the cdf piles up near 1, carry a count past the table;
    the words that land there are recounted by binary search.
    """
    c = np.floor(cdf * _TWO53)
    thresholds = c[c < _TWO53].astype(np.uint64) << np.uint64(11)
    first = np.arange(_GUIDE_BUCKETS, dtype=np.uint64) << np.uint64(52)
    lo = np.searchsorted(thresholds, first, side="right")
    hi = np.searchsorted(
        thresholds, first | np.uint64((1 << 52) - 1), side="right"
    )
    edge = np.concatenate(([np.uint64(0)], thresholds))[hi]
    n_max = cdf.size
    # n = n_count[b] - (w < edge[b]); past n_max in crowded buckets
    n_count = np.where(hi - lo > 1, n_max + 2, hi + 1).astype(np.int64)

    def draw(w, a, n, mask):
        b = a.view(np.int64)
        np.right_shift(w, 52, out=a)
        np.take(edge, b, out=n.view(np.uint64), mode="clip")
        np.less(w, n.view(np.uint64), out=mask)
        np.take(n_count, b, out=n, mode="clip")
        np.subtract(n, mask, out=n)
        top = int(n.max())
        if top > n_max:
            np.greater(n, n_max, out=mask)
            slow = np.flatnonzero(mask)
            n[slow] = 1 + np.searchsorted(thresholds, w[slow], side="right")
            top = int(n.max())
        return top

    return draw


def _event_photon_sampler(config: SimConfig) -> _Draw:
    """The draw of pair numbers of emitting pulses (n >= 1) for config."""
    x = _geometric_parameter(config)
    if x is not None:
        return _geometric_draw(x)
    return _poisson_draw(_truncated_poisson_cdf(config.mean))


def _event_count(config: SimConfig) -> int:
    """K ~ Binomial(pulses, P(n >= 1)) from the seed's second stream, which
    shares the seed but not the key word of the event stream.

    The key is built as uint64: from a list, numpy would make seeds >= 2**63
    float64 and round them to 53 bits.
    """
    key = np.array([config.seed, 1], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return int(rng.binomial(config.pulses, _emission_probability(config)))


def _detector_etas(config: SimConfig) -> tuple[float, ...]:
    """Efficiencies of the detectors the mode reads, in tally order."""
    chain = config.chain
    return {
        "saturation": (chain.eta1,),
        "two_arm": (chain.eta1, chain.eta2),
        "heralded_split": (chain.eta1, chain.eta2, chain.eta3),
    }[config.mode]


def _click_thresholds(eta: float, top: int) -> np.ndarray:
    """Word thresholds W[n] = thr[n] * 2**11 for n = 0 .. top, where
    thr[n] = max(ceil(p[n] * 2**53) - 1, 0) and p[n] = click_probability(n,
    eta).

    A word w clicks for n photons iff w < W[n].  This is exactly the float
    test u < p[n] with u = ((w >> 11) + 1) / 2**53 from _uniforms: scaling
    by 2**53 is exact, so u < p <=> (w >> 11) + 1 < p * 2**53, and for an
    integer a, a + 1 < P <=> a < ceil(P) - 1.  Then (w >> 11) < T <=> w <
    T * 2**11, which stays below 2**64 because T <= 2**53 - 1.
    """
    p = click_probability(np.arange(top + 1), eta)
    thr = np.maximum(np.ceil(p * _TWO53) - 1.0, 0.0).astype(np.uint64)
    return thr << np.uint64(11)


def _clicks(
    words: np.ndarray,
    thr: np.ndarray,
    n: np.ndarray,
    gathered: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Click mask (into out) of a detector reached by n photons, one word
    each; thr is from _click_thresholds and gathered is uint64 scratch.

    The gather clips instead of raising: with mode "raise" numpy buffers
    out, which allocates, so the caller bounds n against the table.
    """
    np.take(thr, n, out=gathered, mode="clip")
    return np.less(words, gathered, out=out)


_COL = {name: i for i, name in enumerate(_TALLY_FIELDS)}


class _ChunkKernel:
    """The tables of one simulate call and the chunk loop that reads them.

    Tables: the event draw, the click thresholds of each detector for every
    n up to worst, and n, n**2, n**3 for the emission moments.
    """

    def __init__(self, config: SimConfig, worst: int):
        self.seed = config.seed
        self.mode = config.mode
        self.stride = _STRIDE[config.mode]
        self.worst = worst
        self.draw = _event_photon_sampler(config)
        self.thr = [
            _click_thresholds(eta, worst) for eta in _detector_etas(config)
        ]
        k = np.arange(worst + 1, dtype=np.int64)
        self.powers = np.stack((k, k * k, k * k * k))

    def run_stripe(self, jobs: list[tuple[int, int]], size: int) -> np.ndarray:
        """Summed tallies of the chunks (start, m) in jobs, m <= size.

        One set of scratch arrays serves every chunk: a (uint64: uniforms,
        bucket indices, gathered thresholds), n and k (int64: pair numbers,
        the split's k3 and n - k3) and three click masks.
        """
        a = np.empty(size, dtype=np.uint64)
        n = np.empty(size, dtype=np.int64)
        k = np.empty(size, dtype=np.int64)
        masks = np.empty((3, size), dtype=bool)
        row = np.zeros(len(_TALLY_FIELDS), dtype=np.int64)
        # a new Philox(key=...) first draws OS entropy for a seed sequence it
        # never uses (~17 us), so one generator is reset for every chunk
        bit = np.random.Philox(key=self.seed)
        origin = bit.state
        for start, m in jobs:
            bit.state = origin
            bit.advance((self.stride * start) // 4)
            self._run_chunk(bit, a[:m], n[:m], k[:m], masks[:, :m], row)
        return row

    def _run_chunk(self, bit, a, n, k, masks, row):
        """Add the tallies of the next len(n) events of bit to row."""
        m = n.size
        words = bit.random_raw(self.stride * m).reshape(m, self.stride)
        c1, c2, c3 = masks
        thr = self.thr
        top = self.draw(words[:, 0], a, n, c1)
        if top > self.worst:
            raise IndexError(
                f"photon number {top} is past the click tables "
                f"(0 .. {self.worst})"
            )

        if self.mode == "saturation":
            _clicks(words[:, 1], thr[0], n, a, c1)
            row[_COL["clicks1"]] += np.count_nonzero(c1)
            row[_COL["clicked_photons"]] += np.multiply(n, c1, out=k).sum()
        elif self.mode == "two_arm":
            _clicks(words[:, 1], thr[0], n, a, c1)
            _clicks(words[:, 2], thr[1], n, a, c2)
            row[_COL["clicks1"]] += np.count_nonzero(c1)
            row[_COL["clicks2"]] += np.count_nonzero(c2)
            c12 = np.bitwise_and(c1, c2, out=c2)
            row[_COL["pair12"]] += np.count_nonzero(c12)
        else:
            k3 = _binomial_half(n, words[:, 1], top, k)
            _clicks(words[:, 2], thr[0], n, a, c1)
            _clicks(words[:, 4], thr[2], k3, a, c3)
            np.subtract(n, k3, out=k)
            _clicks(words[:, 3], thr[1], k, a, c2)
            row[_COL["clicks1"]] += np.count_nonzero(c1)
            row[_COL["clicks2"]] += np.count_nonzero(c2)
            row[_COL["clicks3"]] += np.count_nonzero(c3)
            c12 = np.bitwise_and(c1, c2, out=c2)
            c13 = np.bitwise_and(c1, c3, out=c3)
            row[_COL["pair12"]] += np.count_nonzero(c12)
            row[_COL["pair13"]] += np.count_nonzero(c13)
            c123 = np.bitwise_and(c12, c13, out=c13)
            row[_COL["triple123"]] += np.count_nonzero(c123)

        # emission moments from the histogram of n, exact in int64 under the
        # overflow guard of simulate
        e = _COL["emitted"]
        row[e : e + 3] += self.powers[:, : top + 1] @ np.bincount(n)
        row[_COL["pulses_with_emission"]] += m


def _max_draw(config: SimConfig) -> int:
    """Largest photon number a single pulse can produce."""
    if _emission_probability(config) == 0.0:
        return 0
    x = _geometric_parameter(config)
    if x is None:
        return len(_truncated_poisson_cdf(config.mean))
    return 1 + int(math.floor(53.0 * math.log(2.0) / -math.log(x)))


def resolve_threads(threads: int | None = None) -> int:
    """Worker count, capped by the SPDC_STATS_THREADS environment variable."""
    env = os.environ.get("SPDC_STATS_THREADS")
    cap = None
    if env is not None:
        cap = int(env)
        if cap < 1:
            raise ValueError("SPDC_STATS_THREADS must be >= 1")
    t = threads if threads is not None else (os.cpu_count() or 1)
    if cap is not None:
        t = min(t, cap)
    return max(1, int(t))


def simulate(
    config: SimConfig,
    threads: int | None = None,
    chunk_pulses: int = DEFAULT_CHUNK_PULSES,
) -> SimCounts:
    """Run the simulation described by config and return exact tallies.

    threads and chunk_pulses affect speed only, never the result.
    chunk_pulses counts emitting pulses per work chunk and must be a
    positive multiple of 4 (stream-seek alignment).  Worker w of T runs
    the chunks w, w + T, w + 2T, ... through its own scratch arrays, sized
    to one chunk, and returns one tally row; the rows are summed.  The
    default chunk, 2**15, holds a heralded_split chunk's random words to
    1.3 MB; larger chunks save little per chunk and raise the peak memory.
    The click thresholds and the guide table of the module docstring are
    built here, once per call.
    """
    if chunk_pulses < 4 or chunk_pulses % 4 != 0:
        raise ValueError("chunk_pulses must be a positive multiple of 4")
    worst = _max_draw(config)
    if config.pulses * max(worst, 1) ** 3 >= 2**63:
        raise ResourceLimitError(
            f"{config.pulses} pulses with draws up to {worst} photons "
            "would overflow 64-bit tallies"
        )
    events = _event_count(config)
    jobs = [
        (start, min(chunk_pulses, events - start))
        for start in range(0, events, chunk_pulses)
    ]
    total = np.zeros(len(_TALLY_FIELDS), dtype=np.int64)
    if jobs:
        kernel = _ChunkKernel(config, worst)
        size = jobs[0][1]
        workers = min(resolve_threads(threads), len(jobs))
        if workers == 1:
            total = kernel.run_stripe(jobs, size)
        else:
            stripes = [jobs[w::workers] for w in range(workers)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = pool.map(lambda s: kernel.run_stripe(s, size), stripes)
                total = np.sum(list(rows), axis=0)
    return SimCounts(
        pulses=config.pulses, **dict(zip(_TALLY_FIELDS, total.tolist()))
    )


def _g2_stderr(s: float, a: float, b: float, t: float, pulses: int) -> float:
    """Delta-method standard error of the counting estimator
    2 s t / (a + b)**2 over pulses pulses, at per-pulse probabilities s, a,
    b, t of click1, pair12, pair13, triple123.

    The covariance of the per-pulse indicator vector uses the nesting
    triple <= pair <= click, so the error is exact to O(1/pulses) without
    resampling.
    """
    ab = a + b
    grad = np.array(
        [
            2.0 * t / ab**2,
            -4.0 * s * t / ab**3,
            -4.0 * s * t / ab**3,
            2.0 * s / ab**2,
        ]
    )
    cov = np.array(
        [
            [s * (1 - s), a * (1 - s), b * (1 - s), t * (1 - s)],
            [a * (1 - s), a * (1 - a), t - a * b, t * (1 - a)],
            [b * (1 - s), t - a * b, b * (1 - b), t * (1 - b)],
            [t * (1 - s), t * (1 - a), t * (1 - b), t * (1 - t)],
        ]
    )
    var = float(grad @ cov @ grad) / pulses
    return math.sqrt(max(var, 0.0))


def g2_with_stderr(counts: SimCounts) -> tuple[float, float] | None:
    """Counting-estimator g2 from split-mode tallies, with its delta-method
    standard error taken at the observed rates.

    Returns None when no pair coincidences were seen.
    """
    p = counts.pulses
    s = counts.clicks1 / p
    a = counts.pair12 / p
    b = counts.pair13 / p
    t = counts.triple123 / p
    if a + b == 0:
        return None
    return 2.0 * s * t / (a + b) ** 2, _g2_stderr(s, a, b, t, p)


def _raw_moment(kind: str, mean_param: float, k: int) -> float:
    """E[n^k] for the geometric (kind="thermal", param x) or Poisson
    (kind="coherent", param nu) distribution, k <= 6."""
    coeffs = _STIRLING[k]
    if kind == "thermal":
        mu = mean_param / (1.0 - mean_param)  # param is x
        return sum(
            s * math.factorial(j + 1) * mu ** (j + 1)
            for j, s in enumerate(coeffs)
        )
    return sum(s * mean_param ** (j + 1) for j, s in enumerate(coeffs))


def _expected_y2(config: SimConfig) -> float:
    """E[(n * click)^2] = E[n^2] - E[n^2 (1-eta)^n] for saturation mode."""
    eta = config.chain.eta1
    z = 1.0 - eta
    if config.source_kind == "thermal":
        x = config.mean / (1.0 + config.mean)
        m2 = _raw_moment("thermal", x, 2)
        # E[n^2 z^n] for geometric: (1-x) x z (1 + x z) / (1 - x z)^3
        xz = x * z
        damped = (1.0 - x) * xz * (1.0 + xz) / (1.0 - xz) ** 3
        return m2 - damped
    nu = config.mean
    m2 = _raw_moment("coherent", nu, 2)
    damped = math.exp(nu * (z - 1.0)) * (nu * z + (nu * z) ** 2)
    return m2 - damped


def analytic_expectations(config: SimConfig) -> dict[str, float]:
    """Per-pulse expected values of every tally the mode produces, plus
    'g2' in heralded_split mode; keys match SimCounts field names."""
    out: dict[str, float] = {}
    if config.mode == "saturation":
        kind, mean, eta = config.source_kind, config.mean, config.chain.eta1
        out["clicks1"] = detected_vs_incident(kind, mean, eta, "click")
        out["clicked_photons"] = detected_vs_incident(kind, mean, eta, "literal")
        param = mean / (1.0 + mean) if kind == "thermal" else mean
        if mean > 0:
            for k, name in ((1, "emitted"), (2, "emitted_sq"), (3, "emitted_cu")):
                out[name] = _raw_moment(kind, param, k)
            out["pulses_with_emission"] = (
                param if kind == "thermal" else -math.expm1(-mean)
            )
        else:
            out.update(
                emitted=0.0, emitted_sq=0.0, emitted_cu=0.0, pulses_with_emission=0.0
            )
        return out

    x, chain = config.x, config.chain
    for k, name in ((1, "emitted"), (2, "emitted_sq"), (3, "emitted_cu")):
        out[name] = _raw_moment("thermal", x, k) if x > 0 else 0.0
    out["pulses_with_emission"] = x
    out["clicks1"] = singles_rate(1.0, x, chain.eta1)
    if config.mode == "two_arm":
        out["clicks2"] = singles_rate(1.0, x, chain.eta2)
        out["pair12"] = coincidence_rate(1.0, x, chain.eta1, chain.eta2)
        return out
    # a photon reaches a branch detector with probability eta_branch / 2,
    # so branch singles compose into plain singles at half efficiency
    out["clicks2"] = singles_rate(1.0, x, chain.eta2 / 2.0)
    out["clicks3"] = singles_rate(1.0, x, chain.eta3 / 2.0)
    rates = split_coincidences(1.0, x, chain.eta1, chain.eta2, chain.eta3)
    out["pair12"] = rates.cc12
    out["pair13"] = rates.cc13
    out["triple123"] = rates.cc123
    if x > 0:
        out["g2"] = g2_from_counts(rates.sc1h, rates.cc12, rates.cc13, rates.cc123)
    return out


def _variance_per_pulse(config: SimConfig, name: str, expected: dict) -> float:
    """Per-pulse variance of each tallied statistic, from analytic moments."""
    if name in ("clicks1", "clicks2", "clicks3", "pair12", "pair13",
                "triple123", "pulses_with_emission"):
        p = expected[name]
        return p * (1.0 - p)
    if name == "clicked_photons":
        y2 = _expected_y2(config)
        return y2 - expected[name] ** 2
    order = {"emitted": 1, "emitted_sq": 2, "emitted_cu": 3}[name]
    if config.mode == "saturation":
        kind = config.source_kind
        param = (
            config.mean / (1.0 + config.mean) if kind == "thermal" else config.mean
        )
    else:
        kind, param = "thermal", config.x
    if param == 0.0:
        return 0.0
    return _raw_moment(kind, param, 2 * order) - expected[name] ** 2


def compare_with_analytic(
    config: SimConfig, counts: SimCounts
) -> dict[str, dict[str, float]]:
    """Side-by-side MC estimates vs analytic expectations with sigma distances.

    Each entry maps a quantity name to {mc, analytic, stderr, sigma}.
    sigma is 0 when the standard error vanishes and the values agree
    exactly, inf when they differ with zero standard error.
    """
    expected = analytic_expectations(config)
    report: dict[str, dict[str, float]] = {}
    for name, target in expected.items():
        if name == "g2":
            if counts.pair12 + counts.pair13 == 0:
                # no pair coincidences to form the ratio estimator; the raw
                # tallies still constrain the run
                continue
            mc = g2_from_counts(
                counts.clicks1, counts.pair12, counts.pair13, counts.triple123
            )
            # the error at the analytic rates: taken at the observed ones, a
            # run that sees few triples gets too small an error
            se = _g2_stderr(
                expected["clicks1"], expected["pair12"], expected["pair13"],
                expected["triple123"], counts.pulses,
            )
        else:
            mc = counts.fraction(name)
            se = math.sqrt(
                max(_variance_per_pulse(config, name, expected), 0.0)
                / counts.pulses
            )
        if se == 0.0:
            sigma = 0.0 if mc == target else math.inf
        else:
            sigma = abs(mc - target) / se
        report[name] = {
            "mc": mc,
            "analytic": target,
            "stderr": se,
            "sigma": sigma,
        }
    return report
