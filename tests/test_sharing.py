"""Tests for sharing classification (the Fig. 4 / Fig. 5 machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sharing import (
    PRIVATE,
    RO_SHARED,
    RW_SHARED,
    SharingProfile,
    profile_sharing,
)
from repro.config import LINE_BYTES, SCHEDULE_CONTIGUOUS, SCHEDULE_ROUND_ROBIN
from repro.gpu.scheduler import assign_ctas
from tests.conftest import make_kernel, make_trace, small_config


def profile_of(lines, writes, cta_ids, n_ctas=4, n_gpus=4):
    """Profile a single-kernel trace; CTA i -> GPU i (4 CTAs, 4 GPUs)."""
    cfg = small_config(n_gpus=n_gpus)
    k = make_kernel(lines, writes=writes, cta_ids=cta_ids, n_ctas=n_ctas)
    return profile_sharing(make_trace([k]), cfg), cfg


class TestClassification:
    def test_private_page(self):
        # All accesses from CTA 0 (GPU 0).
        p, _ = profile_of([0, 1, 2], [0, 0, 0], [0, 0, 0])
        assert p.classify_page(0) == PRIVATE

    def test_ro_shared_page(self):
        # Line 0 read by GPU 0 and GPU 3 (page 0 is lines 0..15).
        p, _ = profile_of([0, 0], [0, 0], [0, 3])
        assert p.classify_page(0) == RO_SHARED

    def test_rw_shared_page(self):
        p, _ = profile_of([0, 0], [0, 1], [0, 3])
        assert p.classify_page(0) == RW_SHARED

    def test_private_with_writes_stays_private(self):
        p, _ = profile_of([0, 0], [1, 1], [0, 0])
        assert p.classify_page(0) == PRIVATE

    def test_false_sharing_page_vs_line(self):
        """One written line makes the page RW; other lines stay RO."""
        # GPU 0 writes line 0; GPUs 0 and 1 read lines 0..3 (all page 0).
        lines = [0, 1, 2, 3, 0, 1, 2, 3, 0]
        writes = [0] * 8 + [1]
        ctas = [0, 0, 0, 0, 1, 1, 1, 1, 0]
        p, _ = profile_of(lines, writes, ctas)
        assert p.classify_page(0) == RW_SHARED
        assert p.classify_line(0) == RW_SHARED
        assert p.classify_line(1) == RO_SHARED
        assert p.classify_line(2) == RO_SHARED

    def test_unknown_unit_is_private(self):
        p, _ = profile_of([0], [0], [0])
        assert p.classify_page(999) == PRIVATE
        assert p.classify_line(999) == PRIVATE


class TestAccessDistribution:
    def test_fractions_sum_to_one(self):
        p, _ = profile_of([0, 0, 16, 32], [0, 1, 0, 0], [0, 1, 2, 2])
        for gran in ("page", "line"):
            d = p.access_distribution(gran)
            total = d.private + d.ro_shared + d.rw_shared
            assert total == pytest.approx(1.0)

    def test_page_rw_exceeds_line_rw_under_false_sharing(self):
        lines = [0, 1, 2, 3] * 6 + [0]
        writes = [0] * 24 + [1]
        ctas = ([0] * 4 + [1] * 4 + [2] * 4) * 2 + [0]
        p, _ = profile_of(lines, writes, ctas)
        page_d = p.access_distribution("page")
        line_d = p.access_distribution("line")
        assert page_d.rw_shared > line_d.rw_shared

    def test_empty_distribution(self):
        p = SharingProfile("x", 4, 16, 2048)
        d = p.access_distribution("page")
        assert d.private == d.ro_shared == d.rw_shared == 0.0

    def test_unknown_granularity(self):
        p = SharingProfile("x", 4, 16, 2048)
        with pytest.raises(ValueError):
            p.access_distribution("byte")

    def test_shared_property(self):
        p, _ = profile_of([0, 0], [0, 0], [0, 1])
        d = p.access_distribution("page")
        assert d.shared == pytest.approx(1.0)


class TestFootprints:
    def test_shared_footprint_counts_accessors_minus_one(self):
        # Page 0 accessed by 3 GPUs -> cover cost 2 pages.
        p, cfg = profile_of([0, 0, 0], [0, 0, 0], [0, 1, 2])
        assert p.shared_footprint_bytes() == 2 * cfg.page_bytes

    def test_private_pages_cost_nothing(self):
        p, cfg = profile_of([0, 16], [0, 0], [0, 0])
        assert p.shared_footprint_bytes() == 0

    def test_footprint_bytes(self):
        p, cfg = profile_of([0, 16, 32], [0, 0, 0], [0, 0, 0])
        assert p.footprint_bytes() == 3 * cfg.page_bytes

    def test_sorted_access_counts_descending(self):
        p, _ = profile_of([0, 0, 0, 16], [0, 0, 0, 0], [0, 0, 0, 0])
        assert p.sorted_page_access_counts() == [3, 1]


class TestPolicyInputs:
    def test_ro_shared_pages(self):
        p, _ = profile_of([0, 0, 16, 16], [0, 0, 0, 1], [0, 1, 0, 1])
        assert p.ro_shared_pages() == {0}
        assert p.shared_pages() == {0, 1}

    def test_accessors_of_page(self):
        p, _ = profile_of([0, 0], [0, 0], [1, 3])
        assert p.accessors_of_page(0) == [1, 3]
        assert p.accessors_of_page(42) == []


class TestMultiKernel:
    def test_sharing_accumulates_across_kernels(self):
        cfg = small_config()
        k0 = make_kernel([0], writes=[0], cta_ids=[0], kernel_id=0)
        k1 = make_kernel([0], writes=[0], cta_ids=[3], kernel_id=1)
        p = profile_sharing(make_trace([k0, k1]), cfg)
        assert p.classify_page(0) == RO_SHARED

    def test_access_counts_accumulate(self):
        cfg = small_config()
        k0 = make_kernel([0, 0], writes=[0, 0], cta_ids=[0, 0])
        k1 = make_kernel([0], writes=[0], cta_ids=[0], kernel_id=1)
        p = profile_sharing(make_trace([k0, k1]), cfg)
        assert p.page_access_counts[0] == 3


# -- equivalence with a per-access reference ---------------------------------

PROFILE_FIELDS = (
    "page_accessors", "page_writers", "line_accessors", "line_writers",
    "page_access_counts", "line_access_counts",
)


def reference_profile(trace, cfg):
    """The profile's six dicts, built one access at a time in plain Python."""
    lpp = cfg.lines_per_page
    pa, pw, la, lw, pc, lc = ({} for _ in PROFILE_FIELDS)
    for kernel in trace.kernels:
        gpu_of = assign_ctas(kernel, cfg.n_gpus, cfg.scheduling).tolist()
        for line, cta, write in zip(kernel.lines.tolist(),
                                    kernel.cta_ids.tolist(),
                                    kernel.is_write.tolist()):
            bit = 1 << gpu_of[cta]
            for unit, accessors, writers, counts in (
                    (line // lpp, pa, pw, pc), (line, la, lw, lc)):
                accessors[unit] = accessors.get(unit, 0) | bit
                counts[unit] = counts.get(unit, 0) + 1
                if write:
                    writers[unit] = writers.get(unit, 0) | bit
    return dict(zip(PROFILE_FIELDS, (pa, pw, la, lw, pc, lc)))


def config_for(n_gpus, scheduling, lines_per_page):
    cfg = small_config(n_gpus=n_gpus, scheduling=scheduling)
    return cfg.replace(page_bytes=lines_per_page * LINE_BYTES * cfg.scale)


#: Line-id spaces: dense suite-like ids, ids spanning far more than the
#: access count, and ids below zero (the latter two take the compaction
#: path).
LINE_SPACES = {
    "dense": st.integers(0, 300),
    "huge": st.integers(0, 2**40),
    "negative": st.integers(-400, 400),
}


@st.composite
def kernels(draw, space):
    n = draw(st.integers(1, 40))
    n_ctas = draw(st.integers(1, 12))
    lines = draw(st.lists(space, min_size=n, max_size=n))
    no_writes = draw(st.booleans())
    writes = [False] * n if no_writes else draw(
        st.lists(st.booleans(), min_size=n, max_size=n))
    ctas = draw(st.lists(st.integers(0, n_ctas - 1), min_size=n, max_size=n))
    return lines, writes, ctas, n_ctas


@st.composite
def traces(draw):
    space = LINE_SPACES[draw(st.sampled_from(sorted(LINE_SPACES)))]
    specs = draw(st.lists(kernels(space), min_size=1, max_size=3))
    return make_trace([
        make_kernel(lines, writes=writes, cta_ids=ctas, n_ctas=n_ctas,
                    kernel_id=i)
        for i, (lines, writes, ctas, n_ctas) in enumerate(specs)
    ])


class TestReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        trace=traces(),
        n_gpus=st.integers(1, 8),
        scheduling=st.sampled_from([SCHEDULE_CONTIGUOUS, SCHEDULE_ROUND_ROBIN]),
        lines_per_page=st.sampled_from([1, 2, 16, 64]),
    )
    def test_matches_reference(self, trace, n_gpus, scheduling, lines_per_page):
        cfg = config_for(n_gpus, scheduling, lines_per_page)
        assert cfg.lines_per_page == lines_per_page
        profile = profile_sharing(trace, cfg)
        expected = reference_profile(trace, cfg)
        for name in PROFILE_FIELDS:
            assert getattr(profile, name) == expected[name], name

    @pytest.mark.parametrize("lines", [
        [0],                              # single access
        [5, 2**40, 5, 3 * 2**40 + 1],     # huge ids
        [-17, -1, 0, 16, -17],            # negative ids
        list(range(0, 64, 2)) * 3,        # dense
    ])
    def test_matches_reference_on_edge_traces(self, lines):
        cfg = config_for(4, SCHEDULE_ROUND_ROBIN, 16)
        writes = [i % 3 == 0 for i in range(len(lines))]
        trace = make_trace([make_kernel(lines, writes=writes)])
        profile = profile_sharing(trace, cfg)
        expected = reference_profile(trace, cfg)
        for name in PROFILE_FIELDS:
            assert getattr(profile, name) == expected[name], name
