"""Chord coarse-graining: geometry of the chords and the flux comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import directed_hausdorff

from prbm import lsa
from prbm.errors import DegenerateGeometry, InvalidParam, PerimeterTooSmall


def _dist_to_segments(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest segment of the polyline."""
    a, b = poly[:-1], poly[1:]
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(pts[:, None, :] - proj, axis=2).min(axis=1)


def _resample(poly: np.ndarray, n: int) -> np.ndarray:
    arc = np.concatenate(
        ([0.0], np.cumsum(np.linalg.norm(np.diff(poly, axis=0), axis=1)))
    )
    t = np.linspace(0.0, arc[-1], n)
    return np.column_stack((np.interp(t, arc, poly[:, 0]), np.interp(t, arc, poly[:, 1])))


@pytest.mark.parametrize("generation", [0, 1, 2, 3])
def test_koch_generator_counts(generation):
    pts = lsa.koch_polyline(generation)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert len(seg) == 8**generation
    assert np.allclose(seg, 4.0**-generation, rtol=1e-12, atol=0.0)
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[-1], [1.0, 0.0])
    assert abs(seg.sum() - 2.0**generation) < 1e-12 * 2.0**generation


def test_koch_first_bump_turns_left():
    pts = lsa.koch_polyline(1)
    assert np.allclose(pts[1], [0.25, 0.0])
    assert np.allclose(pts[2], [0.25, 0.25])
    assert pts[:, 1].min() == pytest.approx(-0.25)
    assert pts[:, 1].max() == pytest.approx(0.25)


def test_koch_rejects_negative_generation():
    with pytest.raises(InvalidParam):
        lsa.koch_polyline(-1)


def test_straight_segment_is_unchanged():
    chords = lsa.coarse_grain([(0.0, 0.0), (10.0, 0.0)], 1.0)
    expected = np.column_stack((np.arange(11.0), np.zeros(11)))
    assert chords.shape == (11, 2)
    assert np.allclose(chords, expected, atol=1e-12)


def test_square_splits_into_eight_half_sides():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    chords = lsa.coarse_grain(square, 0.5)
    expected = np.array(
        [
            [0.0, 0.0],
            [0.5, 0.0],
            [1.0, 0.0],
            [1.0, 0.5],
            [1.0, 1.0],
            [0.5, 1.0],
            [0.0, 1.0],
            [0.0, 0.5],
            [0.0, 0.0],
        ]
    )
    assert np.allclose(chords, expected, atol=1e-12)
    lengths = np.linalg.norm(np.diff(chords, axis=0), axis=1)
    assert np.allclose(lengths, 0.5, atol=1e-12)


def test_aligned_cuts_reproduce_the_prefractal():
    """Cut spacing 1/8 divides the generation-1 segment length 1/4 evenly,
    so every chord lies on its own segment and no length is lost."""
    chords = lsa.coarse_grain(lsa.koch_polyline(1), 0.125)
    lengths = np.linalg.norm(np.diff(chords, axis=0), axis=1)
    assert len(lengths) == 16
    assert np.ptp(lengths) < 1e-12
    assert abs(lengths.sum() - 2.0) < 1e-12


def test_fine_chords_stay_close_in_hausdorff_distance():
    # the cut spacing does not divide the triangle's side lengths, so some
    # chords straddle corners and the distance is genuinely nonzero
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    perimeter = 2.0 + math.sqrt(2.0)
    chords = lsa.coarse_grain(triangle, perimeter / 1000.0)
    pa, pb = _resample(triangle, 16384), _resample(chords, 16384)
    dist = max(directed_hausdorff(pa, pb)[0], directed_hausdorff(pb, pa)[0])
    assert 0.0 < dist < perimeter / 1000.0


@settings(max_examples=40, deadline=None)
@given(
    ys=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=8),
    frac=st.floats(0.05, 0.9),
)
def test_chords_sit_on_the_curve_and_shorten_it(ys, frac):
    poly = np.column_stack((np.arange(len(ys), dtype=float), ys))
    perimeter = float(np.linalg.norm(np.diff(poly, axis=0), axis=1).sum())
    lam = frac * perimeter
    chords = lsa.coarse_grain(poly, lam)
    assert np.allclose(chords[0], poly[0])
    assert np.allclose(chords[-1], poly[-1])
    assert _dist_to_segments(chords, poly).max() < 1e-9
    lengths = np.linalg.norm(np.diff(chords, axis=0), axis=1)
    assert lengths.sum() <= perimeter * (1.0 + 1e-12)
    assert lengths.max() <= lam * (1.0 + 1e-9)
    n = len(chords) - 1
    assert math.ceil(perimeter / lam) - 1 <= n <= math.ceil(perimeter / lam) + 1


def test_coarse_grain_rejects_short_curves_and_bad_lambda():
    seg = [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(PerimeterTooSmall):
        lsa.coarse_grain(seg, 1.0)
    with pytest.raises(PerimeterTooSmall):
        lsa.coarse_grain(seg, 2.5)
    with pytest.raises(InvalidParam):
        lsa.coarse_grain(seg, 0.0)
    with pytest.raises(InvalidParam):
        lsa.coarse_grain(seg, -0.5)


def test_compare_flux_wants_a_resolving_mesh():
    flat = [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(InvalidParam):
        lsa.compare_flux(flat, 1.0, 0.5, 0.051)
    with pytest.raises(InvalidParam):
        lsa.compare_flux(flat, 1.0, 0.5, 0.0)


def test_compare_flux_wants_the_source_above_the_curve():
    flat = [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(InvalidParam):
        lsa.compare_flux(flat, 0.0, 0.5, 0.05)
    with pytest.raises(InvalidParam):
        lsa.compare_flux([(1.0, 0.0), (0.0, 0.0)], 1.0, 0.5, 0.05)


def test_report_fields_are_consistent_and_deterministic():
    flat = [(0.0, 0.0), (1.0, 0.0)]
    rep = lsa.compare_flux(flat, 1.0, 0.5, 0.05)
    assert rep.Lambda == 0.5
    assert rep.n_chords == 2
    assert rep.original_flux > 0.0
    # dropping the interface resistance can only raise the total flux
    assert rep.coarse_flux > rep.original_flux
    rederived = abs(rep.coarse_flux - rep.original_flux) / rep.original_flux
    assert rep.relative_error == rederived
    assert "origin" in rep.note
    assert lsa.compare_flux(flat, 1.0, 0.5, 0.05) == rep


def test_chord_refinement_tightens_the_flux_match():
    """Halving the chord scale on the generation-1 prefractal roughly halves
    the flux mismatch, and lands under the refinement-limit budget."""
    curve = lsa.koch_polyline(1)
    coarse = lsa.compare_flux(curve, 4.0, 0.25, 1.0 / 40.0)
    fine = lsa.compare_flux(curve, 4.0, 0.125, 1.0 / 80.0)
    assert fine.relative_error < coarse.relative_error
    assert fine.relative_error < 0.05


@pytest.mark.parametrize("lam", [0.4229, 0.4267, 0.4402, 0.4485, 0.4492, 0.4906, 0.5244])
def test_compare_flux_drops_pockets_cut_off_from_the_source(lam):
    """At these Lambdas the chorded generation-3 strip at mesh 1/128 seals
    off a lone bulk site below the chords. It touches working faces but no
    source face, so it carries no flux and the strip builder drops it."""
    rep = lsa.compare_flux(lsa.koch_polyline(3), 1.0, lam, 1.0 / 128.0)
    assert 0.0 < rep.original_flux < rep.coarse_flux


def test_channel_domain_keeps_only_the_source_component():
    chords = lsa.coarse_grain(lsa.koch_polyline(3), 0.4229)
    dom = lsa._channel_domain(chords, 1.0, 1.0 / 128.0)
    dom.validate()
    assert dom.source_mask().any()
    # a cave under an overhang whose mouth is narrower than a cell: every
    # bulk site is sealed off from the source row
    cave = np.array([[0.0, 0.97], [0.26, 0.97], [0.26, 0.2], [0.8, 0.2],
                     [0.8, 0.7], [0.34, 0.7], [0.34, 0.97], [1.0, 0.97]])
    with pytest.raises(DegenerateGeometry, match="touches the source"):
        lsa._channel_domain(cave, 1.0, 0.1)
