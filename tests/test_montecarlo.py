import math
import sys
import threading
import time

import numpy as np
import pytest

from spdc_stats import (
    DetectorChain,
    DivergenceError,
    ResourceLimitError,
    SimConfig,
    SimCounts,
    compare_with_analytic,
    g2_from_counts,
    g2_heralded_predicted,
    simulate,
)
from spdc_stats.detector_model import click_probability, g2_stderr
from spdc_stats.expectations import _judge
from spdc_stats.montecarlo import (
    _GUIDE_BUCKETS,
    _ChunkKernel,
    _binomial_half,
    _click_thresholds,
    _event_photon_sampler,
    _geometric_draw,
    _poisson_draw,
    _truncated_poisson_cdf,
)
from checks import _uniforms, g2_cells, geometric_counts, simulate_chunked

CHAIN10 = DetectorChain(eta1=0.215, eta2=0.198, eta3=0.163)

BINOMIAL_HALF_PINNED = [
    35, 34, 37, 37, 34, 37, 35, 34, 31, 38, 35, 41, 41, 39, 36, 37, 32, 40,
    45, 46, 35, 36, 49, 39, 46, 40, 50, 39, 45, 52, 43, 49, 52, 44, 49, 40,
    47, 48, 47, 58, 63, 60, 58, 62, 54, 54, 50, 51, 48, 54, 51, 57, 63, 65,
    62, 51, 53, 57, 70, 64, 64, 72, 60, 74, 58, 69, 62, 72, 61, 69, 69, 50,
    71, 66, 71, 78, 69, 69, 79, 80, 73, 70, 64, 59, 71, 75, 82, 76, 90, 69,
    80, 76, 72, 70, 74, 81, 77, 83, 80, 84, 78, 89, 85, 82, 93, 77, 76, 83,
    87, 80, 89, 82, 89, 89, 82, 93, 83, 94, 95, 85, 90, 99, 102, 100, 89, 88,
    97, 96, 107, 101, 110, 82, 91, 94, 97, 99, 99,
]


def two_arm(x, pulses, seed=12345):
    return SimConfig(
        mode="two_arm", pulses=pulses, seed=seed, x=x,
        chain=DetectorChain(eta1=0.215, eta2=0.198),
    )


def heralded(x, pulses, seed=12345, chain=CHAIN10):
    return SimConfig(
        mode="heralded_split", pulses=pulses, seed=seed, x=x, chain=chain
    )


def saturation(kind, mean, pulses, seed=12345, eta=0.6):
    return SimConfig(
        mode="saturation", pulses=pulses, seed=seed, source_kind=kind,
        mean=mean, chain=DetectorChain(eta1=eta),
    )


# one config per mode and source, with P(n >= 1) per pulse
SAMPLER_CASES = [
    pytest.param(two_arm(0.392, 10_000, seed=3), 0.392, id="two_arm"),
    pytest.param(heralded(0.392, 10_000, seed=3), 0.392, id="heralded_split"),
    pytest.param(saturation("thermal", 2.0, 10_000, seed=3), 2.0 / 3.0,
                 id="thermal"),
    pytest.param(saturation("coherent", 2.0, 10_000, seed=3),
                 -math.expm1(-2.0), id="coherent"),
]


def draw_words(draw, words):
    """Pair numbers a kernel draw gives for the words, on fresh scratch."""
    n = np.empty(words.size, dtype=np.int64)
    mask = np.empty(words.size, dtype=bool)
    top = draw(words, np.empty_like(words), n, mask)
    assert top == n.max()
    return n


def binomial_half(ns, words):
    return _binomial_half(ns, words, ns.max(), np.empty_like(ns))


def float_inversion(ns, words, pmf):
    """k = searchsorted(cdf, u, "left") for each n and word, on the float
    uniform u of the word and the cdf of pmf(n) with its last entry 1."""
    u = _uniforms(words)
    expected = np.empty_like(ns)
    for nv in np.unique(ns).tolist():
        cdf = np.cumsum(pmf(nv))
        cdf[-1] = 1.0
        sel = ns == nv
        expected[sel] = np.searchsorted(cdf, u[sel], side="left")
    return expected


class TestGeometricSampler:
    """Distribution checks of the kernel's geometric draw on Philox words;
    the draw gives 1 + n for a pair number n with Pr(n) = (1 - x) x**n."""

    def test_frequency_at_half(self):
        size = 10_000_000
        counts = geometric_counts(0.5, 99, size)
        p = 0.25
        freq = counts[1] / size
        se = np.sqrt(p * (1 - p) / size)
        assert abs(freq - p) <= 5 * se

    def test_mean_at_low_x(self):
        x, size = 0.0135, 10_000_000
        counts = geometric_counts(x, 7, size)
        mean = float(np.arange(counts.size) @ counts) / size
        mu = x / (1 - x)
        se = np.sqrt(x) / (1 - x) / np.sqrt(size)
        assert abs(mean - mu) <= 5 * se
        assert abs(mean - 0.013685) <= 5 * se + 1e-6

    def test_integer_nonnegative(self):
        words = np.random.Philox(3).random_raw(10_000)
        n = draw_words(_geometric_draw(0.7)[0], words)
        assert np.issubdtype(n.dtype, np.integer)
        assert n.min() >= 1


class TestSimConfigValidation:
    def test_rejects_nonpositive_pulses(self):
        with pytest.raises(ValueError, match="pulses"):
            two_arm(0.1, 0)

    def test_rejects_noninteger_pulses(self):
        with pytest.raises(ValueError, match="pulses"):
            SimConfig(
                mode="two_arm", pulses=10.5, seed=1, x=0.1,
                chain=DetectorChain(eta1=0.2, eta2=0.2),
            )
        # a bool is an int, but True would run one pulse
        for flag in (True, False):
            with pytest.raises(ValueError) as info:
                two_arm(0.1, flag)
            assert str(info.value) == f"pulses must be a positive integer, got {flag}"

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="seed"):
            two_arm(0.1, 100, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            two_arm(0.1, 100, seed=2**64)
        for flag in (True, False):
            with pytest.raises(ValueError) as info:
                two_arm(0.1, 100, seed=flag)
            assert str(info.value) == "seed must be an integer in [0, 2**64)"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SimConfig(mode="three_arm", pulses=100, seed=1)

    def test_two_arm_needs_both_detectors(self):
        with pytest.raises(ValueError, match="eta2"):
            SimConfig(
                mode="two_arm", pulses=100, seed=1, x=0.1,
                chain=DetectorChain(eta1=0.2),
            )

    def test_heralded_needs_third_detector(self):
        with pytest.raises(ValueError, match="eta3"):
            SimConfig(
                mode="heralded_split", pulses=100, seed=1, x=0.1,
                chain=DetectorChain(eta1=0.2, eta2=0.2),
            )

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), -1.0, None,
                                      True, False])
    def test_rejects_nonfinite_mean(self, mean):
        with pytest.raises(ValueError, match="mean"):
            saturation("coherent", mean, 100)

    @pytest.mark.parametrize("x", [True, False])
    def test_rejects_bool_x(self, x):
        # float(False) is 0.0, but a config records x as given
        with pytest.raises(ValueError) as info:
            two_arm(x, 100)
        assert str(info.value) == f"emission parameter x must lie in [0, 1), got {x}"

    def test_saturation_needs_source(self):
        with pytest.raises(ValueError, match="source_kind"):
            SimConfig(
                mode="saturation", pulses=100, seed=1, mean=1.0,
                chain=DetectorChain(eta1=0.5),
            )

    @pytest.mark.parametrize("mode, field, value", [
        ("two_arm", "source_kind", "coherent"),
        ("two_arm", "mean", 5.0),
        ("two_arm", "chain.eta3", 0.9),
        ("heralded_split", "source_kind", "thermal"),
        ("heralded_split", "mean", 5.0),
        ("saturation", "x", 0.3),
        ("saturation", "chain.eta2", 0.4),
        ("saturation", "chain.eta3", 0.4),
    ])
    def test_rejects_a_field_the_mode_ignores(self, mode, field, value):
        # a config records every field, so one its run never read would
        # read as if it applied
        used = {"two_arm": dict(x=0.1, chain=dict(eta1=0.2, eta2=0.2)),
                "heralded_split": dict(x=0.1, chain=dict(eta1=0.2, eta2=0.2,
                                                         eta3=0.2)),
                "saturation": dict(source_kind="coherent", mean=1.0,
                                   chain=dict(eta1=0.5))}[mode]
        if field.startswith("chain."):
            used["chain"][field.removeprefix("chain.")] = value
        else:
            used[field] = value
        used["chain"] = DetectorChain(**used["chain"])
        with pytest.raises(ValueError, match=f"mode {mode} does not use {field}$"):
            SimConfig(mode=mode, pulses=100, seed=1, **used)


class TestDeterminism:
    def test_identical_configs_identical_counts(self):
        config = heralded(0.392, 200_000, seed=424242)
        assert simulate(config) == simulate(config)

    def test_chunk_size_invariance(self):
        config = heralded(0.392, 200_000, seed=11)
        a = simulate_chunked(config, 4096)
        b = simulate_chunked(config, 1 << 21)
        assert a == b

    def test_thread_count_invariance(self):
        config = heralded(0.392, 200_000, seed=11)
        a = simulate_chunked(config, 8192, threads=1)
        b = simulate_chunked(config, 8192, threads=3)
        assert a == b

    def test_seed_changes_counts(self):
        a = simulate(heralded(0.392, 200_000, seed=1))
        b = simulate(heralded(0.392, 200_000, seed=2))
        assert a != b


def wrap_jobs(monkeypatch, each):
    """Patch the chunk loop so that each(start) runs before each chunk it
    takes, on the thread that takes it."""
    run_chunks = _ChunkKernel.run_chunks

    def wrapped(kernel, jobs, size):
        def checked():
            for job in jobs:
                each(job[0])
                yield job

        return run_chunks(kernel, checked(), size)

    monkeypatch.setattr(_ChunkKernel, "run_chunks", wrapped)


class TestWorkerErrors:
    def test_error_in_a_later_chunk_reaches_the_caller(self, monkeypatch):
        class ChunkError(Exception):
            pass

        raised = []

        def fail_at_1024(start):
            if start == 1024:
                raised.append(ChunkError(f"chunk from event {start}"))
                raise raised[-1]

        wrap_jobs(monkeypatch, fail_at_1024)
        config = two_arm(0.392, 10_000, seed=3)
        before = threading.active_count()
        with pytest.raises(ChunkError) as info:
            simulate_chunked(config, 1024, threads=2)
        assert info.value is raised[0]
        assert str(info.value) == "chunk from event 1024"
        assert threading.active_count() == before

    def test_no_new_chunk_after_a_failure(self, monkeypatch):
        # 16 chunks; once the first fails, each other worker finishes the
        # chunk it holds and may have pulled one more before the failure
        # was flagged, but takes none after
        started = []

        def fail_first(start):
            started.append(start)
            if start == 0:
                raise RuntimeError("first chunk")
            time.sleep(0.002)

        wrap_jobs(monkeypatch, fail_first)
        config = two_arm(0.392, 40_000, seed=3)
        with pytest.raises(RuntimeError, match="first chunk"):
            simulate_chunked(config, 1024, threads=2)
        assert 0 in started
        assert len(started) - 1 <= 2


class TestDispatch:
    """Workers pull chunks from one queue, so a slow worker takes fewer."""

    def test_slow_caller_takes_fewer_chunks(self, monkeypatch):
        caller = threading.get_ident()
        ran = []  # per chunk, whether the calling thread ran it

        def slow_caller(start):
            here = threading.get_ident() == caller
            ran.append(here)
            if here:
                time.sleep(0.005)

        config = two_arm(0.392, 40_000, seed=3)
        expected = simulate(config, threads=1)
        wrap_jobs(monkeypatch, slow_caller)
        assert simulate_chunked(config, 1024, threads=2) == expected
        assert len(ran) == 16
        assert len(ran) - sum(ran) > sum(ran)

    def test_every_chunk_runs_once_under_contention(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the
        # interpreter allows: a chunk pulled twice or lost changes a tally
        starts = []
        config = heralded(0.392, 50_000, seed=29)
        expected = simulate(config, threads=1)
        wrap_jobs(monkeypatch, starts.append)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_chunked(config, 64, threads=8)
        finally:
            sys.setswitchinterval(interval)
        events = expected.pulses_with_emission
        assert sorted(starts) == list(range(0, events, 64))
        assert got == expected


class TestEventCountKey:
    """K's Philox stream is keyed by the exact uint64 pair (seed, 1)."""

    @pytest.mark.parametrize("seed", [2**63 + 1, 2**64 - 1])
    def test_key_is_the_exact_seed(self, seed):
        config = two_arm(0.392, 1_000_000, seed=seed)
        bit = np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))
        assert bit.state["state"]["key"].tolist() == [seed, 1]
        k = np.random.Generator(bit).binomial(config.pulses, config.x)
        assert simulate(config).pulses_with_emission == k

    def test_neighbouring_high_seeds_differ(self):
        # rounded to 53 bits, as a float64 key, both seeds read 2**63
        counts = [
            simulate(two_arm(0.392, 1_000_000, seed=seed)).pulses_with_emission
            for seed in (2**63 + 1, 2**63 + 2)
        ]
        assert counts == [391464, 392430]


class TestEventSampler:
    @pytest.mark.parametrize("config,p_emit", SAMPLER_CASES)
    def test_chunk_size_invariance(self, config, p_emit):
        assert simulate_chunked(config, 4) == simulate(config)

    @pytest.mark.parametrize("config,p_emit", SAMPLER_CASES)
    def test_thread_count_invariance(self, config, p_emit):
        a = simulate_chunked(config, 256, threads=1)
        b = simulate_chunked(config, 256, threads=3)
        assert a == b

    @pytest.mark.parametrize("config,p_emit", SAMPLER_CASES)
    def test_emitting_pulses_binomial(self, config, p_emit):
        n = config.pulses
        counts = simulate(config)
        se = math.sqrt(n * p_emit * (1.0 - p_emit))
        assert abs(counts.pulses_with_emission - n * p_emit) < 5.0 * se

    @pytest.mark.parametrize("config,p_emit", SAMPLER_CASES)
    def test_judge_covers_the_tallies(self, config, p_emit):
        # every tally the sampler counts has an expectation, and every
        # expectation but g2 names a tally
        counts = simulate(config)._asdict()
        expected, _ = _judge(config)
        tallied = {name for name, v in counts.items() if v and name != "pulses"}
        assert tallied <= set(expected)
        assert set(expected) - {"g2"} <= set(counts)

    @pytest.mark.parametrize("mean", [0.1, 10.0])
    def test_zero_truncated_poisson_law(self, mean):
        draw, _ = _event_photon_sampler(saturation("coherent", mean, 1).law)
        n = draw_words(draw, np.random.Philox(key=8).random_raw(1_000_000))
        assert n.min() >= 1
        scale = math.exp(-mean) / -math.expm1(-mean)
        for k in (1, 2):
            p = scale * mean**k / math.factorial(k)
            freq = np.count_nonzero(n == k) / n.size
            assert abs(freq - p) < 5.0 * math.sqrt(p * (1.0 - p) / n.size)

    def test_binomial_half_slow_path_pinned(self):
        # k for n = 64 .. 200, one word each from Philox key 2024, as the
        # scipy.special.gammaln implementation of the slow path gave them
        ns = np.arange(64, 201, dtype=np.int64)
        words = np.random.Philox(key=2024).random_raw(ns.size)
        assert binomial_half(ns, words).tolist() == BINOMIAL_HALF_PINNED

    def test_binomial_half_slow_path_matches_gammaln(self):
        special = pytest.importorskip("scipy.special")

        def pmf(nv):
            kk = np.arange(nv + 1, dtype=np.float64)
            return np.exp(special.gammaln(nv + 1.0) - special.gammaln(kk + 1.0)
                          - special.gammaln(nv - kk + 1.0) - nv * math.log(2.0))

        ns = np.repeat(np.arange(64, 201, dtype=np.int64), 50)
        words = np.random.Philox(key=7).random_raw(ns.size)
        assert np.array_equal(binomial_half(ns, words), float_inversion(ns, words, pmf))

    def test_binomial_half_slow_path_edge_words(self):
        # each word threshold of the n = 100 table, the words 1 and 2**11
        # either side of it, and the first, second, middle and last word;
        # those four also at every n = 64 .. 200.  The words at a threshold
        # tell the cdf's float steps apart, so this pmf takes the sampler's:
        # lgamma in that order, where scipy's gammaln differs by ~1e-14
        def pmf(nv):
            head = np.array([math.lgamma(k + 1.0) for k in range(nv + 1)])
            return np.exp(head[nv] - head - head[::-1] - nv * math.log(2.0))

        cdf = np.cumsum(pmf(100))
        c = np.floor(cdf[:-1] * 2.0**53)  # the last entry is set to 1
        near = {(int(t) << 11) + d for t in c for d in (-(2**11), -1, 0, 1, 2**11)}
        extremes = {0, 1, 2**63, 2**64 - 1}
        words = np.array(sorted({w for w in near if 0 <= w < 2**64} | extremes),
                         dtype=np.uint64)
        ns = np.full(words.size, 100, dtype=np.int64)
        assert np.array_equal(binomial_half(ns, words), float_inversion(ns, words, pmf))
        ns = np.repeat(np.arange(64, 201, dtype=np.int64), len(extremes))
        words = np.tile(np.array(sorted(extremes), dtype=np.uint64), 137)
        assert np.array_equal(binomial_half(ns, words), float_inversion(ns, words, pmf))

    @pytest.mark.parametrize(
        "config",
        [heralded(0.0, 10_000), saturation("thermal", 0.0, 10_000),
         saturation("coherent", 0.0, 10_000)],
        ids=["x=0", "thermal mean=0", "coherent mean=0"],
    )
    def test_no_emission_all_zero(self, config):
        assert simulate(config) == SimCounts(pulses=10_000)


# coherent mean 300 lands words in crowded guide buckets, and x = 0.99 sends
# the split through the n >= 64 path of _binomial_half
CROWDED_GUIDE = saturation("coherent", 300.0, 20_000, seed=17)
SLOW_SPLIT = heralded(0.99, 10_000, seed=17)


class TestScratchReuse:
    """Per-worker scratch arrays carry nothing between chunks or calls."""

    def test_no_state_between_calls(self):
        first = simulate(CROWDED_GUIDE)
        simulate(SLOW_SPLIT)
        assert simulate(CROWDED_GUIDE) == first

    @pytest.mark.parametrize(
        "config", [CROWDED_GUIDE, SLOW_SPLIT], ids=["crowded", "slow_split"]
    )
    def test_thread_count_invariance(self, config):
        a = simulate_chunked(config, 256, threads=1)
        b = simulate_chunked(config, 256, threads=3)
        assert a == b


class TestKernelTables:
    """The word-domain kernel against the float computations it replaces."""

    TOP = _geometric_draw(0.99)[1]

    @pytest.mark.parametrize("eta", [0.0, 1e-12, 0.125, 0.6, 1.0])
    def test_integer_threshold_is_float_compare(self, eta):
        # w < (thr << 11)[n] against u < p[n] on the words around every
        # threshold, with the discarded low bits all clear and all set
        thr = _click_thresholds(eta, self.TOP)
        n = np.repeat(np.arange(self.TOP + 1), 6)
        a = (thr >> np.uint64(11)).astype(np.int64)[n]
        a = a + np.tile([-1, -1, 0, 0, 1, 1], self.TOP + 1)
        a = np.clip(a, 0, 2**53 - 1).astype(np.uint64)
        low = np.array([0, 0x7FF] * 3 * (self.TOP + 1), dtype=np.uint64)
        words = (a << np.uint64(11)) | low
        clicks = words < thr[n]
        p = np.array([click_probability(k, eta) for k in range(self.TOP + 1)])
        assert np.array_equal(clicks, _uniforms(words) < p[n])

    def test_threshold_limits(self):
        top = (2**53 - 1) << 11
        assert _click_thresholds(0.0, 5).tolist() == [0] * 6
        assert _click_thresholds(1.0, 5).tolist() == [0] + [top] * 5
        assert _click_thresholds(0.6, 5)[0] == 0

    @staticmethod
    def _bucket_words():
        """The first and last word of every w >> 52 bucket."""
        first = np.arange(_GUIDE_BUCKETS, dtype=np.uint64) << np.uint64(52)
        return np.concatenate((first, first | np.uint64((1 << 52) - 1)))

    @staticmethod
    def _threshold_words(cdf):
        """The words C_j * 2**11 (C_j = floor(cdf_j * 2**53) < 2**53) and
        their neighbours +-1, plus C_j * 2**11 + 0x7FF and (C_j - 1) * 2**11,
        the last word with w >> 11 = C_j and the first with C_j - 1."""
        c = np.floor(cdf * 2.0**53)
        w = c[c < 2.0**53].astype(np.uint64) << np.uint64(11)
        w = w[w >= np.uint64(1 << 11)]
        one = np.uint64(1)
        return np.concatenate(
            (w - one, w, w + one, w + np.uint64(0x7FF), w - np.uint64(1 << 11))
        )

    @pytest.mark.parametrize("mean", [0.1, 10.0, 100.0, 1000.0])
    def test_guide_table_is_searchsorted(self, mean):
        cdf = _truncated_poisson_cdf(mean)
        draw, _ = _poisson_draw(cdf)
        philox = np.random.Philox(key=int(mean * 10)).random_raw(1_000_000)
        ends = self._bucket_words()
        for words in (ends, philox, self._threshold_words(cdf)):
            expected = 1 + np.searchsorted(cdf, _uniforms(words), side="left")
            assert np.array_equal(draw_words(draw, words), expected)

    @pytest.mark.parametrize("x", [1e-6, 0.0135, 0.392, 0.5, 0.99])
    def test_geometric_draw_is_float_formula(self, x):
        edges = np.array(
            [0, 0x7FF, 0x800, 2**63, 2**64 - 0x800, 2**64 - 1], dtype=np.uint64
        )
        philox = np.random.Philox(key=5).random_raw(1_000_000)
        for words in (edges, philox):
            u = _uniforms(words)
            expected = 1 + np.floor(np.log(u) / math.log(x)).astype(np.int64)
            n = draw_words(_geometric_draw(x)[0], words)
            assert np.array_equal(n, expected)

    @pytest.mark.parametrize("x", [1e-6, 0.0135, 0.392, 0.5, 0.99])
    def test_geometric_bound_is_the_draw_of_word_zero(self, x):
        # word 0 gives the least u, 2**-53, and so the largest n
        draw, bound = _geometric_draw(x)
        assert draw_words(draw, np.zeros(1, dtype=np.uint64)).tolist() == [bound]

    @pytest.mark.parametrize("mean", [0.1, 10.0, 300.0])
    def test_poisson_bound_covers_the_last_word(self, mean):
        # word 2**64 - 1 gives u = 1, and so the largest n
        draw, bound = _poisson_draw(_truncated_poisson_cdf(mean))
        last = np.array([2**64 - 1], dtype=np.uint64)
        assert draw_words(draw, last)[0] <= bound

    def test_one_poisson_table_per_simulate(self, monkeypatch):
        calls = []

        def counted(mean):
            calls.append(mean)
            return _truncated_poisson_cdf(mean)

        monkeypatch.setattr(
            "spdc_stats.montecarlo._truncated_poisson_cdf", counted
        )
        simulate(saturation("coherent", 10.0, 10_000))
        assert calls == [10.0]

    def test_photon_number_past_tables_raises(self):
        # the clipped gathers never see an n beyond the tables
        config = saturation("thermal", 10.0, 1_000, seed=1)
        draw, _ = _event_photon_sampler(config.law)
        with pytest.raises(IndexError, match="past the click tables"):
            _ChunkKernel(config, draw, 3).run_chunks([(0, 512)], 512)

    def test_binomial_half_fast_path_is_popcount(self):
        ns = np.random.default_rng(4).integers(0, 64, 5000)
        words = np.random.Philox(key=9).random_raw(ns.size)
        expected = [
            bin(int(w) & ((1 << int(k)) - 1)).count("1")
            for w, k in zip(words, ns)
        ]
        assert binomial_half(ns, words).tolist() == expected


class TestTallies:
    def test_zero_x_all_zero(self):
        counts = simulate(two_arm(0.0, 10_000))
        assert counts.clicks1 == 0
        assert counts.clicks2 == 0
        assert counts.pair12 == 0
        assert counts.emitted == 0
        assert counts.pulses_with_emission == 0

    def test_counting_invariants(self):
        counts = simulate(heralded(0.392, 100_000))
        assert counts.triple123 <= min(counts.pair12, counts.pair13)
        assert counts.pair12 <= min(counts.clicks1, counts.clicks2)
        assert counts.pair13 <= min(counts.clicks1, counts.clicks3)
        assert max(counts.clicks1, counts.clicks2, counts.clicks3) <= counts.pulses
        assert counts.pulses_with_emission <= counts.pulses
        assert counts.emitted >= counts.pulses_with_emission
        assert counts.emitted_sq >= counts.emitted
        assert counts.emitted_cu >= counts.emitted_sq


class TestAgainstAnalytic:
    @pytest.mark.parametrize("x", [0.0135, 0.128, 0.392])
    def test_two_arm_within_five_sigma(self, x):
        config = two_arm(x, 2_000_000, seed=821)
        result = compare_with_analytic(config, simulate(config))
        assert set(result) >= {"clicks1", "clicks2", "pair12", "emitted"}
        for name, entry in result.items():
            assert abs(entry["sigma"]) < 5.0, (name, entry)

    @pytest.mark.parametrize(
        "x,pulses", [(0.0135, 20_000_000), (0.128, 2_000_000), (0.392, 2_000_000)]
    )
    def test_heralded_within_five_sigma(self, x, pulses):
        # the low-x case needs more pulses before enough triple
        # coincidences accumulate to form the g2 estimator at all
        config = heralded(x, pulses, seed=9)
        result = compare_with_analytic(config, simulate(config))
        assert "g2" in result
        for name, entry in result.items():
            assert abs(entry["sigma"]) < 5.0, (name, entry)

    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_saturation_within_five_sigma(self, kind):
        config = SimConfig(
            mode="saturation", pulses=1_000_000, seed=5, source_kind=kind,
            mean=2.0, chain=DetectorChain(eta1=0.8),
        )
        result = compare_with_analytic(config, simulate(config))
        assert "clicked_photons" in result
        for name, entry in result.items():
            assert abs(entry["sigma"]) < 5.0, (name, entry)

    @staticmethod
    def _coherent_clicks1(mean, eta):
        """The judge's clicks1 entry for a coherent saturation run of 1e6
        pulses that all clicked."""
        config = SimConfig(mode="saturation", pulses=10**6, seed=0,
                           source_kind="coherent", mean=mean,
                           chain=DetectorChain(eta1=eta))
        counts = SimCounts(pulses=10**6, clicks1=10**6, pulses_with_emission=10**6)
        return compare_with_analytic(config, counts)["clicks1"]

    def test_saturation_click_band_keeps_the_miss(self):
        # p = 1 - exp(-30) rounds near 1, so 1 - p would lose the miss's
        # digits; the band carries the miss exp(-w) itself
        entry = self._coherent_clicks1(30.0, 1.0)
        want = math.sqrt(entry["analytic"] * math.exp(-30.0) / 10**6)
        assert math.isclose(entry["stderr"], want, rel_tol=1e-15, abs_tol=0.0)

    def test_saturation_click_band_never_vanishes(self):
        # p = 1 - exp(-111) rounds to 1.0, where 1 - p reads 0
        assert self._coherent_clicks1(300.0, 0.37)["stderr"] > 0.0

    def test_perfect_detectors_high_gain(self):
        # x = 0.93 pushes pulses past 64 photons, exercising the wide
        # binomial-split path
        chain = DetectorChain(eta1=1.0, eta2=1.0, eta3=1.0)
        config = heralded(0.93, 200_000, seed=77, chain=chain)
        counts = simulate(config)
        assert counts.emitted / counts.pulses > 12.0
        result = compare_with_analytic(config, counts)
        for name, entry in result.items():
            assert abs(entry["sigma"]) < 5.0, (name, entry)

    @staticmethod
    def _observed_g2(counts):
        """Counting-estimator g2 with its error at the observed rates."""
        tallies = (counts.clicks1, counts.pair12, counts.pair13,
                   counts.triple123)
        cells = g2_cells(*tallies)
        se = g2_stderr(*(n / counts.pulses for n in cells), counts.pulses)
        return g2_from_counts(*tallies), se

    def test_heralded_g2_matches_prediction(self):
        x = 0.0135
        config = heralded(x, 4_000_000, seed=2024)
        counts = simulate(config)
        got, se = self._observed_g2(counts)
        predicted = g2_heralded_predicted(x, 0.215, 0.198, 0.163)
        assert abs(got - predicted) < 5 * se

    @staticmethod
    def _split_lo_counts(triples_scale=None, triples=None):
        """Tallies at their expected values for x = 0.0135 and 1e7 pulses,
        except for the three-fold coincidences."""
        config = heralded(0.0135, 10_000_000)
        expected, _ = _judge(config)
        tally = {
            name: round(expected[name] * config.pulses)
            for name in ("clicks1", "pair12", "pair13", "triple123")
        }
        if triples is None:
            triples = round(triples_scale * expected["triple123"] * config.pulses)
        tally["triple123"] = triples
        return config, expected, SimCounts(pulses=config.pulses, **tally)

    def test_g2_error_from_analytic_rates(self):
        # about 11.7 triples are expected; seeing 2 is a 2.8-sigma Poisson
        # fluctuation, but the error taken at the observed rates shrinks
        # with the count and puts the run beyond 5 sigma
        config, expected, counts = self._split_lo_counts(triples=2)
        assert 11.0 < expected["triple123"] * config.pulses < 12.5
        observed, observed_se = self._observed_g2(counts)
        assert abs(observed - expected["g2"]) / observed_se > 5.0
        assert compare_with_analytic(config, counts)["g2"]["sigma"] < 5.0

    def test_g2_gate_trips_on_excess_triples(self):
        config, _, counts = self._split_lo_counts(triples_scale=3.0)
        assert compare_with_analytic(config, counts)["g2"]["sigma"] >= 5.0

    def test_g2_none_without_pairs(self):
        # the analytic side has a g2, but the run saw no pair to form it
        config = heralded(0.0135, 1000)
        counts = SimCounts(pulses=1000, clicks1=3)
        assert "g2" in _judge(config)[0]
        assert "g2" not in compare_with_analytic(config, counts)
        with pytest.raises(DivergenceError):
            self._observed_g2(counts)

    def test_no_g2_where_its_square_underflows(self):
        # branch efficiencies below ~1e-162: (pair12 + pair13)**2 underflows
        # in the model as well, so g2 is left out and the tallies judged
        config = SimConfig(
            mode="heralded_split", pulses=100_000, seed=1, x=0.5,
            chain=DetectorChain(eta1=0.9, eta2=1e-170, eta3=1e-170),
        )
        assert "g2" not in _judge(config)[0]
        report = compare_with_analytic(config, simulate(config))
        assert "g2" not in report
        assert {"clicks1", "pair12", "triple123"} <= set(report)


class TestResourceGuards:
    def test_tally_overflow_rejected(self):
        config = SimConfig(
            mode="two_arm", pulses=10**15, seed=1, x=0.99,
            chain=DetectorChain(eta1=0.2, eta2=0.2),
        )
        with pytest.raises(ResourceLimitError, match="overflow"):
            simulate(config)

    def test_thermal_mean_past_two53_rejected(self):
        # mean / (1 + mean) rounds to x = 1.0, where log(x) = 0 and the
        # geometric draw has no bound
        config = SimConfig(
            mode="saturation", pulses=10, seed=1, source_kind="thermal",
            mean=1e16, chain=DetectorChain(eta1=0.5),
        )
        assert config.law.p == 1.0
        with pytest.raises(ResourceLimitError, match="no bound"):
            simulate(config)

    def test_poisson_table_cap(self):
        config = SimConfig(
            mode="saturation", pulses=1000, seed=1, source_kind="coherent",
            mean=2.5e5, chain=DetectorChain(eta1=0.5),
        )
        with pytest.raises(ResourceLimitError):
            simulate(config)


class TestResolveThreads:
    """simulate's worker count: the CPU count unless threads= is given."""

    # and a count that is no int: a float would run one chunk and break
    # the slicing of several, and True would run one thread
    @pytest.mark.parametrize("threads", [0, -4, 2.5, 2.0, True])
    def test_simulate_rejects_nonpositive_count(self, threads):
        config = SimConfig(mode="two_arm", pulses=1000, seed=1, x=0.1,
                           chain=DetectorChain(eta1=0.2, eta2=0.2))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            simulate(config, threads=threads)
