"""Allocation guards on the depth-16 kernels.

Each guard bounds the peak of the bytes a call allocates, traced by
``tracemalloc`` (numpy reports its array buffers to it), against the bytes
of its result or input.  Unlike a timing, the peak repeats exactly, so a
kernel that starts allocating temporaries again fails here.
"""

import tracemalloc
from functools import partial

import numpy as np

import cantorscale as cs
from cantorscale.dimension import _solve_delta


def _peak_bytes(fn):
    """``(peak traced bytes during fn(), fn())``."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_partition_levels_allocates_only_its_levels():
    peak, levels = _peak_bytes(lambda: cs.partition_levels(cs.Quadratic(), 0.3, 14))
    level_bytes = sum(level.los.nbytes + level.his.nbytes for level in levels)
    assert peak <= 1.05 * level_bytes
    # the quartic root needs one temporary of a half level for its denominator
    for family, eps in [(cs.Figure6(-0.03), 0.0), (cs.AsymQuadratic(0.3), 0.1)]:
        peak, levels = _peak_bytes(partial(cs.partition_levels, family, eps, 14))
        level_bytes = sum(level.los.nbytes + level.his.nbytes for level in levels)
        assert peak <= 1.2 * level_bytes, family


#: the endpoint bytes of the depth-19 partition, 2 x 2^20 float64
DEPTH_19_BYTES = 2 * 2**20 * 8


def test_partition_holds_only_the_last_level_and_its_parent():
    peak, part = _peak_bytes(lambda: cs.partition(cs.Quadratic(), 0.2, 19))
    assert part.los.nbytes + part.his.nbytes == DEPTH_19_BYTES
    # the last level and the one it is refined from
    assert peak <= 1.6 * DEPTH_19_BYTES


def test_hd_estimate_drops_the_parent_before_the_last_root():
    peak, _ = _peak_bytes(lambda: cs.hd_estimate(cs.Quadratic(), 0.2, 19))
    assert peak <= 1.85 * DEPTH_19_BYTES


def test_scaling_graph_drops_each_level_once_its_lengths_are_read():
    peak, s = _peak_bytes(lambda: cs.scaling_graph(cs.Quadratic(), 0.2, 19))
    assert s.nbytes == DEPTH_19_BYTES // 2
    assert peak <= 1.85 * DEPTH_19_BYTES


def test_gap_geometry_drops_each_pair_before_the_next_level_is_refined():
    # the last level with its parent's lengths and two ratio arrays
    peak, _ = _peak_bytes(lambda: cs.gap_geometry(cs.Quadratic(), 0.2, 19))
    assert peak <= 1.85 * DEPTH_19_BYTES


def test_pressure_root_works_in_one_buffer_over_half_a_mirrored_level():
    level = cs.partition(cs.Quadratic(), 0.3, 14)
    peak, _ = _peak_bytes(lambda: _solve_delta(level))
    assert peak <= 2.6 * level.los.nbytes


def test_pressure_root_copies_the_positive_lengths_of_an_unmirrored_level():
    # the full lengths array is dropped before the Newton buffer is made
    level = cs.partition(cs.AsymQuadratic(0.3), 0.1, 14)
    assert not level.mirrored
    peak, _ = _peak_bytes(lambda: _solve_delta(level))
    assert peak <= 2.2 * level.los.nbytes


def test_arcsin_h_allocates_only_its_output():
    x = np.random.default_rng(4).uniform(-1.0, 1.0, 2**15)
    m = cs.MetricChange(2.0, 0.0)
    peak, _ = _peak_bytes(lambda: m.h(x))
    assert peak <= 1.05 * x.nbytes
