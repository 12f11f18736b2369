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
regardless of chunk size or thread count.  With D the mode's detectors,
the window is 1 + split + D words: the draw word, in heralded_split the
splitter's coin word, then one click word per detector in the bit order
of ``SimConfig.etas``.  Chunk boundaries are kept at multiples of four
events because the generator seeks in four-word blocks.

The chunk kernel reads the raw 64-bit words w through tables built once per
simulate call, and reproduces exactly the float computations on the uniform
u = ((w >> 11) + 1) / 2**53 that defined it.  Two identities carry it:

- Clicks.  A detector reached by n photons clicks when u < p[n] =
  1 - (1 - eta)**n.  Scaling by 2**53 is exact, so that is (w >> 11) <
  thr[n] with thr[n] = max(ceil(p[n] 2**53) - 1, 0); and (w >> 11) < T <=>
  w < T 2**11, so the test is w < (thr << 11)[n] with no shift of the word.
- Cdf inversions.  searchsorted(cdf, u, "left") counts the entries cdf_j <
  u, and cdf_j < u <=> w >= floor(cdf_j 2**53) 2**11, so it counts integer
  word thresholds (``_word_thresholds``): through a 4096-bucket guide table
  indexed by w >> 52 in the zero-truncated Poisson draw, and by binary
  search in the splitter's rare n >= 64 path.

The geometric draw keeps the float steps of u, log and division in their
order.  Each draw comes with the largest n it can give, which sizes the
click tables and the overflow guard.  The emission moments are the sums
of n, n**2 and n**3 over the chunk.  Every click tally is the count of
the AND of the click masks of its ``CLICK_MASKS`` entry, for the entries
below 2**D.

With T workers, all pull chunks from one shared queue until it is empty:
worker 0 on the calling thread, the others on plain ``threading.Thread``s,
all joined before the rows are summed.  A chunk's tallies depend only on
its start and length, so which worker runs it changes nothing, and a
worker on a faster CPU simply takes more chunks; the workers finish within
about one chunk of each other.  Once a worker raises, the others take no
new chunk, and the exception is raised again, unchanged, in the caller.
The calling thread page-faults no more per chunk than a started thread (``getrusage`` ru_minflt, ~5 per 2**15-event
coherent chunk on either).  Each worker runs its chunks through one set
of scratch arrays sized to a chunk: three 8-byte arrays and D + 1 bool
masks, four in heralded_split.  Every ufunc and gather writes into them
through out=, so a chunk allocates no array but its random words.
Chunks default to 2**15 events, so a heralded_split chunk's words take
1.3 MB.  2**16 ran 2-7 % faster at 1e7 pulses with two threads, but raised
the peak RSS of ten such runs from 45-48 to 51 MB.  numpy's Philox words
take 45-61 % of a 2**15-event chunk in every mode (2 vCPUs, numpy 2.4.6),
and the contract fixes their layout, so the kernel is at its floor.  A
call's wall time is also that of its slowest worker, which the shared
queue keeps within about one chunk of the others.

This module samples and tallies; ``expectations`` judges a run against
the analytic model.  Both read the source through ``SimConfig.law``, whose
closed forms live in ``photon_statistics``.  This is the one module of the
package that imports numpy.  The package loads it on first use of a
sampler name, and the CLI only for ``simulate``, so the analytic paths
start without numpy.  The click thresholds are built per n from the
scalar law ``detector_model.click_probability``.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, NamedTuple

import numpy as np

from .detector_model import CLICK_MASKS, DetectorChain, click_probability
from .errors import ResourceLimitError
from .photon_statistics import SourceLaw, emission_probability

# each mode and the number of detectors it reads
_DETECTORS = {"two_arm": 2, "heralded_split": 3, "saturation": 1}

DEFAULT_CHUNK_PULSES = 1 << 15

# buckets of the guide table over the truncated Poisson cdf
_GUIDE_BUCKETS = 4096

_TWO53 = float(1 << 53)


class _ConfigFields(NamedTuple):
    mode: str
    pulses: int
    seed: int
    x: float | None = None
    chain: DetectorChain | None = None
    source_kind: str | None = None
    mean: float | None = None


class SimConfig(_ConfigFields):
    """Complete description of one simulation; equal configs give equal output.

    mode "two_arm" uses x and chain (eta1, eta2); "heralded_split" uses x
    and chain (eta1, eta2, eta3) where eta2/eta3 are post-splitter branch
    efficiencies; "saturation" uses source_kind ("thermal" or "coherent"),
    mean, and chain.eta1 as the single detector efficiency.  A field the
    mode does not use must be None.  The checks run on every construction,
    ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in _DETECTORS:
            raise ValueError(f"unknown mode {self.mode!r}")
        # exactly int: a bool is an int, but True is no pulse count or seed
        if type(self.pulses) is not int or self.pulses < 1:
            raise ValueError(f"pulses must be a positive integer, got {self.pulses!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if self.mode != "saturation" and self.x is None:
            raise ValueError(f"mode {self.mode} requires x")
        self.law  # SourceLaw checks x, or source_kind and mean
        if self.chain is None:
            raise ValueError(f"mode {self.mode} requires chain")
        for i, eta in enumerate(self.etas, start=1):
            if eta is None:
                raise ValueError(f"mode {self.mode} requires chain.eta{i}")
        # a field the mode never reads would be recorded as if it applied
        ignored = ("x",) if self.mode == "saturation" else ("source_kind", "mean")
        foreign = [name for name in ignored if getattr(self, name) is not None]
        foreign += [f"chain.eta{i}" for i, eta in enumerate(self.chain, start=1)
                    if i > len(self.etas) and eta is not None]
        if foreign:
            raise ValueError(f"mode {self.mode} does not use {', '.join(foreign)}")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through here
        return cls(*iterable)

    @property
    def law(self) -> SourceLaw:
        """The pair-number law: the geometric law of x in the pair modes,
        and in saturation mode the thermal or coherent law of the mean."""
        if self.mode != "saturation":
            return SourceLaw.geometric(self.x)
        return SourceLaw.of_mean(self.source_kind, self.mean)

    @property
    def etas(self) -> tuple[float, ...]:
        """Efficiencies of the mode's detectors in bit order (detector i is
        bit 2**(i - 1) of ``detector_model.pair_outcomes``): (eta1,) for
        saturation, (eta1, eta2) for two_arm, (eta1, eta2, eta3) for
        heralded_split."""
        return self.chain[: _DETECTORS[self.mode]]


class SimCounts(NamedTuple):
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


# the tallies of a kernel row, in SimCounts order, and their columns
_TALLY_FIELDS = SimCounts._fields[1:]
_COL = {name: i for i, name in enumerate(_TALLY_FIELDS)}


# _LOW_BITS[n] keeps the low n bits of a word, n = 0 .. 63
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


def _binomial_half(
    n: np.ndarray, words: np.ndarray, top: int, out: np.ndarray
) -> np.ndarray:
    """k ~ Binomial(n, 1/2) for each n into the int64 array out, driven by
    one word per draw; top is n.max().

    For n <= 63 the k value is the popcount of the low n bits, which is an
    exact fair-coin count per photon; that path works in out alone.  Larger
    n (rare) fall back to inverting the Binomial(n, 1/2) cdf on the same
    word through its ``_word_thresholds``, so the result stays a pure
    function of (n, word).
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
    ws, ns = words[slow], n[slow]
    # log(k!) for k = 0 .. ns.max(), and log(C(nv, k) / 2**nv) from them
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(int(ns.max()) + 1)])
    for nv in np.unique(ns).tolist():
        sel = ns == nv
        head = log_fact[: nv + 1]
        cdf = np.cumsum(np.exp(head[nv] - head - head[::-1] - nv * math.log(2.0)))
        cdf[-1] = 1.0
        out[slow[sel]] = np.searchsorted(_word_thresholds(cdf), ws[sel], side="right")
    return out


def _word_thresholds(cdf: np.ndarray) -> np.ndarray:
    """The word thresholds floor(cdf_j 2**53) 2**11 of a sorted cdf, less
    those from 2**64 up, which no word reaches: searchsorted(thresholds, w,
    "right") is searchsorted(cdf, u, "left"), as the module docstring shows."""
    c = np.floor(cdf * _TWO53)
    return c[c < _TWO53].astype(np.uint64) << np.uint64(11)


def _truncated_poisson_cdf(mean: float) -> np.ndarray:
    """Cumulative Poisson table conditioned on n >= 1: entry i is
    Pr(n <= i + 1 | n >= 1), long enough that the tail is below 2**-53;
    mean must be > 0.

    Pr(m) at the mode m is evaluated in log space, and every other entry
    follows from it by Pr(n + 1) = Pr(n) mean / (n + 1), run outward.
    """
    n_max = int(mean + 12.0 * math.sqrt(mean) + 40.0)
    if n_max > 200_000:
        raise ResourceLimitError(f"Poisson mean {mean} too large to tabulate")
    m = max(int(mean), 1)
    up = np.cumprod(mean / np.arange(m + 1, n_max + 1, dtype=np.float64))
    down = np.cumprod(np.arange(m, 1, -1, dtype=np.float64) / mean)
    anchor = math.exp(m * math.log(mean) - mean - math.lgamma(m + 1.0))
    cdf = np.cumsum(anchor * np.concatenate((down[::-1], [1.0], up)))
    return cdf / cdf[-1]


# A draw maps one word per event to its pair number n >= 1.  draw(w, a, n,
# mask) writes n for the words w and returns n.max(); a (uint64) and mask
# (bool) are scratch of the same length that it may overwrite.
_Draw = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]


def _geometric_draw(x: float) -> tuple[_Draw, int]:
    """n = 1 + floor(log(u) / log(x)) with u = ((w >> 11) + 1) * 2**-53,
    and the largest n it can give, at the least u, 2**-53.

    This inverts the cdf of the geometric law Pr(n) = (1 - x) x**(n - 1),
    n >= 1, which is the pair number conditioned on n >= 1.  Every n equals
    that float formula: (w >> 11) + 1 <= 2**53 converts exactly, the
    scaling by a power of two is exact, log, then a true division by log(x)
    (a multiply by 1 / log(x) would round differently), then a truncating
    cast, which is floor because the ratio is >= 0 or -0.0.  u lives in a's
    buffer.  x rounds to 1.0 only from a thermal mean of 2**53 or more;
    there the draws have no bound: ResourceLimitError.
    """
    log_x = math.log(x)
    if log_x == 0.0:
        raise ResourceLimitError(
            f"thermal draws at x = {x} (a mean of 2**53 or more) have no bound")

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

    return draw, 1 + math.floor(53.0 * math.log(2.0) / -log_x)


def _poisson_draw(cdf: np.ndarray) -> tuple[_Draw, int]:
    """n = 1 + searchsorted(cdf, u, side="left") on raw words, through an
    integer guide table, and the largest n it can give, cdf.size.

    The draw counts the ``_word_thresholds`` of the cdf at or below w.
    Bucket b = w >> 52 holds the words b * 2**52 .. (b + 1) * 2**52 - 1, and
    hi[b] is the count at its last word.  With at most one threshold inside
    the bucket the count is hi[b] - (w < edge[b]), edge[b] being the largest
    threshold at or below that last word (0 when there is none).  Crowded
    buckets, where the cdf piles up near 1, carry a count past the table;
    the words that land there are recounted by binary search.
    """
    thresholds = _word_thresholds(cdf)
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

    return draw, n_max


def _event_photon_sampler(law: SourceLaw) -> tuple[_Draw, int]:
    """The draw of pair numbers of emitting pulses (n >= 1) under law, and
    the largest n it can give; law must emit."""
    if law.kind == "thermal":
        return _geometric_draw(law.p)
    return _poisson_draw(_truncated_poisson_cdf(law.p))


def _event_count(config: SimConfig) -> int:
    """K ~ Binomial(pulses, P(n >= 1)) from the seed's second stream, which
    shares the seed but not the key word of the event stream.

    The key is built as uint64: from a list, numpy would make seeds >= 2**63
    float64 and round them to 53 bits.
    """
    key = np.array([config.seed, 1], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return int(rng.binomial(config.pulses, emission_probability(config.law)))


def _click_thresholds(eta: float, top: int) -> np.ndarray:
    """Word thresholds W[n] = thr[n] * 2**11 for n = 0 .. top, where
    thr[n] = max(ceil(p[n] * 2**53) - 1, 0) and p[n] = click_probability(n,
    eta).

    A word w clicks for n photons iff w < W[n].  This is exactly the float
    test u < p[n] with u = ((w >> 11) + 1) / 2**53: scaling by 2**53 is
    exact, so u < p <=> (w >> 11) + 1 < p * 2**53, and for an integer a,
    a + 1 < P <=> a < ceil(P) - 1.  Then (w >> 11) < T <=> w <
    T * 2**11, which stays below 2**64 because T <= 2**53 - 1.
    """
    p = np.array([click_probability(n, eta) for n in range(top + 1)])
    thr = np.maximum(np.ceil(p * _TWO53) - 1.0, 0.0).astype(np.uint64)
    return thr << np.uint64(11)


class _ChunkKernel:
    """The tables of one simulate call and the chunk loop that reads them.

    Tables: the event draw, the click thresholds of each detector for every
    n up to worst, the largest n the draw gives, and the columns of the
    ``CLICK_MASKS`` tallies its detectors form.
    """

    def __init__(self, config: SimConfig, draw: _Draw, worst: int):
        etas = config.etas
        self.seed = config.seed
        self.mode = config.mode
        self.split = config.mode == "heralded_split"
        self.stride = 1 + self.split + len(etas)
        self.worst = worst
        self.draw = draw
        self.thr = [_click_thresholds(eta, worst) for eta in etas]
        # each click tally's column and the detectors that must all click
        self.tallies = [
            (_COL[name], [i for i in range(len(etas)) if mask >> i & 1])
            for name, mask in CLICK_MASKS.items() if mask < 1 << len(etas)
        ]

    def run_chunks(self, jobs, size: int) -> np.ndarray:
        """Summed tallies of the chunks (start, m) that the iterable jobs
        yields, m <= size.

        One set of scratch arrays serves every chunk: a (uint64: uniforms,
        bucket indices, gathered thresholds), n and k (int64: pair numbers,
        the split's k3 and n - k3), one click mask per detector and one
        more bool row for the draw and the coincidences: four masks in
        heralded_split.
        """
        a = np.empty(size, dtype=np.uint64)
        n = np.empty(size, dtype=np.int64)
        k = np.empty(size, dtype=np.int64)
        masks = np.empty((len(self.thr) + 1, size), dtype=bool)
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
        *clicked, both = masks
        top = self.draw(words[:, 0], a, n, both)
        if top > self.worst:
            raise IndexError(
                f"photon number {top} is past the click tables "
                f"(0 .. {self.worst})"
            )
        if self.split:
            _binomial_half(n, words[:, 1], top, k)  # k3, sent to detector 3

        first = self.stride - len(self.thr)
        for i, (thr, mask) in enumerate(zip(self.thr, clicked)):
            seen = n
            if self.split and i:
                # detector 2 takes n - k3, then detector 3 n - (n - k3) = k3
                seen = np.subtract(n, k, out=k)
            # a word clicks below its threshold for seen photons; the gather
            # clips instead of raising: with mode "raise" numpy buffers out,
            # which allocates, so top is bounded against the tables above
            np.take(thr, seen, out=a, mode="clip")
            np.less(words[:, first + i], a, out=mask)
        for col, detectors in self.tallies:
            hit = clicked[detectors[0]]
            for i in detectors[1:]:
                hit = np.logical_and(hit, clicked[i], out=both)
            row[col] += np.count_nonzero(hit)
        if self.mode == "saturation":
            row[_COL["clicked_photons"]] += np.multiply(n, clicked[0], out=k).sum()

        # emission moments, exact in int64 under the overflow guard of simulate
        square = np.multiply(n, n, out=k)
        e = _COL["emitted"]
        row[e : e + 3] += (n.sum(), square.sum(), np.dot(square, n))
        row[_COL["pulses_with_emission"]] += m


def simulate(
    config: SimConfig,
    threads: int | None = None,
    chunk_pulses: int = DEFAULT_CHUNK_PULSES,
) -> SimCounts:
    """Run the simulation described by config and return exact tallies.

    threads, by default the CPU count, and chunk_pulses affect speed
    only, never the result.
    chunk_pulses counts emitting pulses per work chunk and must be a
    positive multiple of 4 (stream-seek alignment).  The T workers pull
    chunks in order from one shared queue until it is empty, run each
    through their own scratch arrays, sized to one chunk, and return one
    tally row each; worker 0 runs here, the others on threads started
    here.  The rows are summed once every thread is joined.  A worker that
    raises stops the others from taking a new chunk, and its exception is
    raised here as it was raised there.  The default chunk, 2**15, holds
    a heralded_split chunk's random words to 1.3 MB; larger chunks save
    little per chunk and raise the peak memory.  The click thresholds and
    the guide table of the module docstring are built here, once per call.
    """
    # exactly int, as for SimConfig.pulses: True is no count
    if type(chunk_pulses) is not int or chunk_pulses < 4 or chunk_pulses % 4:
        raise ValueError("chunk_pulses must be a positive multiple of 4")
    if threads is None:
        threads = os.cpu_count() or 1
    elif type(threads) is not int or threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    law = config.law
    draw, worst = None, 0
    if emission_probability(law) > 0.0:
        draw, worst = _event_photon_sampler(law)
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
        kernel = _ChunkKernel(config, draw, worst)
        size = jobs[0][1]
        workers = min(threads, len(jobs))
        # each worker's row, or the exception that ended it
        rows = [None] * workers
        queue = iter(jobs)
        lock = threading.Lock()
        failed = threading.Event()

        def pull():
            """The jobs this worker takes from the shared queue: the next
            one each time, until the queue is empty or a worker failed."""
            while not failed.is_set():
                # one pull is one step under the lock, whatever the
                # interpreter makes atomic, so no job is run twice or lost
                with lock:
                    job = next(queue, None)
                if job is None:
                    return
                yield job

        def work(w):
            try:
                rows[w] = kernel.run_chunks(pull(), size)
            except BaseException as exc:  # raised below, once all are joined
                failed.set()
                rows[w] = exc

        pool = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
        for thread in pool:
            thread.start()
        work(0)
        for thread in pool:
            thread.join()
        for row in rows:
            if isinstance(row, BaseException):
                raise row
        total = np.sum(rows, axis=0)
    return SimCounts(
        pulses=config.pulses, **dict(zip(_TALLY_FIELDS, total.tolist()))
    )
