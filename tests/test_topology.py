"""Cover orders, dimension estimators, and the periodic-set smallness
check."""

import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree

import delayrecon as dr
from delayrecon import topology
from delayrecon.systems import MAX_ODOMETER_DIGITS
from delayrecon.topology import (
    MAX_GRID_SEEDS,
    UncoveredSampleError,
    _fit_slope,
    _grid_index,
    _kuhn_attempt,
    _row_ids,
    box_counting,
    cover_order,
    covering_dimension_estimate,
    grid_seeds,
    hypothesis_check,
    kuhn_vertex_keys,
    linkage_components,
    mesh_cover,
    nn_spacing,
    refine_order,
    sample_resolution,
)

from conftest import cantor_cube, cantor_left_endpoints, peak_memory

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)  # 0.6309...


# --- reference implementation: the element-class refinement that the
# --- sample-membership matrices replaced, over parent membership columns

def pairs(cover):
    """A cover as ``(sample, element)`` index pairs, from a dense or sparse
    membership matrix."""
    return np.nonzero(cover.toarray() if sparse.issparse(cover) else np.asarray(cover))


def dense(cover, n):
    """A cover of ``n`` samples as a dense bool membership matrix."""
    mask = np.zeros((n, cover[1].max() + 1), dtype=bool)
    mask[cover] = True
    return mask


def reference_kuhn_vertex_keys(pts, scale, origin):
    u = (pts - origin) / scale
    base = np.floor(u).astype(int)
    frac = u - base
    keys = []
    for i in range(pts.shape[0]):
        order = np.argsort(-frac[i], kind="stable")
        v = base[i].copy()
        chain = [tuple(v)]
        for ax in order:
            v = v.copy()
            v[ax] += 1
            chain.append(tuple(v))
        keys.append(chain)
    return keys


@dataclass(frozen=True)
class RefBlob:
    points: tuple
    pad: float

    def contains(self, pts):
        dist, _ = cKDTree(np.asarray(self.points)).query(pts, k=1)
        return dist <= self.pad


@dataclass(frozen=True)
class RefKuhnStar:
    vertex: tuple
    scale: float
    origin: tuple


@dataclass(frozen=True)
class RefIntersection:
    """The samples of ``star`` that lie in parent column ``column``."""

    star: RefKuhnStar
    column: int


def _ref_split_attempt(parent_mask, pts, threshold):
    labels = linkage_components(pts, threshold)
    if not np.all(parent_mask.any(axis=1)):
        raise UncoveredSampleError("cover does not cover the samples")
    pad = threshold / 2.0
    elements = []
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if not parent_mask[idx].all(axis=0).any():
            return None
        elements.append(RefBlob(points=tuple(map(tuple, pts[idx])), pad=pad))
    cross = cKDTree(pts).query_pairs(r=pad, output_type="ndarray")
    if len(cross) and np.any(labels[cross[:, 0]] != labels[cross[:, 1]]):
        return elements, cover_order(pairs(np.stack([el.contains(pts) for el in elements], 1)),
                                     len(pts))
    return elements, 0


def _ref_prune_members(members):
    sets = {v: frozenset(idx) for v, idx in members.items()}
    keep, seen = {}, set()
    for v, s in sorted(sets.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if s in seen or any(s < other for other in seen):
            continue
        seen.add(s)
        keep[v] = members[v]
    return keep


def _ref_kuhn_attempt(parent_mask, pts, star_scale):
    origin = pts.min(axis=0)
    members = {}
    for i, chain in enumerate(reference_kuhn_vertex_keys(pts, star_scale, origin)):
        for v in chain:
            members.setdefault(v, []).append(i)
    members = _ref_prune_members(members)
    counts = np.zeros(pts.shape[0], dtype=int)
    elements = []
    for v, idx in members.items():
        idx = np.asarray(idx)
        star = RefKuhnStar(vertex=v, scale=star_scale, origin=tuple(origin))
        if parent_mask[idx].all(axis=0).any():
            counts[idx] += 1
            elements.append(star)
        else:
            for j in range(parent_mask.shape[1]):
                sub = idx[parent_mask[idx, j]]
                if sub.size:
                    counts[sub] += 1
                    elements.append(RefIntersection(star, j))
    return elements, int(counts.max()) - 1


def reference_refine_order(parents, scale, samples):
    pts = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    parent_mask = dense(parents, len(pts))
    g0 = max(4.0 * nn_spacing(pts), 1e-12)
    best = _ref_split_attempt(parent_mask, pts, g0)
    if best is not None and best[1] == 0:
        return best
    dim = pts.shape[1]
    for attempt in range(3):
        star_scale = scale / (4.0 * math.sqrt(dim) * (1 + attempt))
        if star_scale < g0 / 2.0 and attempt > 0:
            break
        res = _ref_kuhn_attempt(parent_mask, pts, star_scale)
        if best is None or res[1] < best[1]:
            best = res
        if best[1] <= dim:
            break
    return best


def reference_sample_sets(elements, parents, pts):
    """The sample-index set of each reference element.  A star holds the
    samples whose Kuhn chain contains its vertex, read from one vertex table
    per star grid; an intersection holds the star's samples that are in its
    parent column."""
    parent_mask = dense(parents, len(pts))
    tables = {}

    def members(el):
        if isinstance(el, RefIntersection):
            column = np.nonzero(parent_mask[:, el.column])[0].tolist()
            return members(el.star) & frozenset(column)
        if not isinstance(el, RefKuhnStar):
            return frozenset(np.nonzero(el.contains(pts))[0].tolist())
        grid = (el.scale, el.origin)
        if grid not in tables:
            tables[grid] = {}
            keys = reference_kuhn_vertex_keys(pts, el.scale, np.asarray(el.origin))
            for i, chain in enumerate(keys):
                for v in chain:
                    tables[grid].setdefault(v, set()).add(i)
        return frozenset(tables[grid][el.vertex])

    return {members(el) for el in elements}


def column_sets(cover):
    """The sample-index set of each element of a cover."""
    sample, element = cover
    return {frozenset(sample[element == j].tolist()) for j in np.unique(element)}


class TestCoverBasics:
    def test_order_counts_overlaps(self):
        # Intervals [-1, 1], [-0.5, 1.5] and [4, 6] on the samples 0.2 and 5.
        membership = np.array([[1, 1, 0], [0, 0, 1]])
        assert cover_order(pairs(membership), 2) == 1
        assert cover_order(pairs(sparse.csr_matrix(membership)), 2) == 1

    def test_disjoint_cover_order_zero(self):
        assert cover_order(pairs(np.array([[1, 0], [0, 1]])), 2) == 0

    def test_uncovered_sample_raises(self):
        with pytest.raises(UncoveredSampleError):
            cover_order(pairs(np.array([[1], [0]])), 2)


def reference_mesh_membership(pts, scale, origin):
    """The element-class mesh cover's rule: one column per distinct grid
    cell, in lexicographic order, holding the samples whose grid index
    equals that cell."""
    cells = sorted(set(map(tuple, _grid_index(pts, origin, scale).tolist())))
    return np.stack([np.all(_grid_index(pts, origin, scale) == cell, axis=1)
                     for cell in cells], axis=1)


class TestMeshCover:
    @pytest.mark.parametrize("width", [3, 2 ** 40, 2 ** 53])
    def test_row_ids_are_lexicographic_ranks(self, width):
        # Columns up to 2**53 wide, past where a key of (rows) x (column
        # range) fits an int64: the key and the column are ranked first.
        rng = np.random.default_rng(width)
        rows = rng.integers(-width // 2, width // 2, (3000, 3))
        rows = np.concatenate([rows, rows[:500, :], rows[:7] + [0, 0, 1]])
        ref = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(_row_ids(rows.T), ref)

    def test_covers_and_partitions(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (200, 2))
        cov = mesh_cover(pts, 0.25)
        assert np.array_equal(cov[0], np.arange(len(pts)))  # one row per sample
        assert np.all(np.bincount(cov[1]) > 0)  # no empty cell
        assert cover_order(cov, len(pts)) == 0  # half-open cells partition

    def test_boundary_points_single_cell(self):
        # samples exactly on a cell edge must not occupy two cells
        pts = np.array([[0.0], [0.25], [0.5]])
        assert mesh_cover(pts, 0.25)[1].max() + 1 == 3

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           scale=st.sampled_from([0.25, 0.1, 1.0 / 3.0, 2.0]))
    def test_one_hot_and_equal_to_cell_rule(self, data, dim, scale):
        # Some coordinates sit exactly on multiples of the scale, so also
        # relative to pts.min: on cell boundaries of the grid.
        coord = st.one_of(st.integers(-8, 8).map(lambda k: k * scale),
                          st.floats(-2.0, 2.0))
        pts = np.array(data.draw(st.lists(st.tuples(*[coord] * dim),
                                          min_size=1, max_size=40)), dtype=float)
        cov = mesh_cover(pts, scale)
        assert all(x.dtype == np.int64 for x in cov)
        assert np.array_equal(np.bincount(cov[0], minlength=len(pts)), np.ones(len(pts)))
        ref = reference_mesh_membership(pts, scale, pts.min(axis=0))
        assert np.array_equal(dense(cov, len(pts)), ref)


class TestResolutionHelpers:
    def test_nn_spacing_regular_grid(self):
        pts = np.linspace(0, 1, 11)[:, None]
        assert nn_spacing(pts) == pytest.approx(0.1)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4),
           threshold=st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    def test_linkage_labels_equal_csgraph(self, data, dim, threshold):
        # Lattice points, so pairs sit exactly at the threshold, with some
        # rows repeated and some far away on their own; 1-3 axes send the
        # pair query to the grid, 4 to the KD-tree.
        pts = np.array(data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                                          min_size=1, max_size=50)), float) * 0.1
        repeats = data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=6))
        far = 100.0 * np.arange(1, data.draw(st.integers(0, 3)) + 1)[:, None]
        pts = np.concatenate([pts, pts[repeats], np.broadcast_to(far, (len(far), dim))])
        pts = pts[np.random.default_rng(len(pts)).permutation(len(pts))]
        i, j = np.nonzero(np.triu(np.linalg.norm(pts[:, None] - pts[None], axis=2)
                                  <= threshold, k=1))
        graph = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(len(pts),) * 2)
        _, ref = sparse.csgraph.connected_components(graph, directed=False)
        assert np.array_equal(linkage_components(pts, threshold), ref)

    def test_sample_resolution_peak_memory(self):
        # The dimension bench's 2e4 Lorenz states.  Pairing each distinct
        # point once, folding in blocks of at most `_CHUNK` candidates and
        # building a self-query's forward rows only keeps the tracemalloc
        # peak near 3.7 MB; one neighbour offset's pairs at a time read
        # 5.8 MB.  Joining each query's pairs before folding them, with all
        # 27 rows of int64 tables, took it to 9.8 MB; a first round that
        # paired all points with all points, with every offset's keys held
        # at once, above 15 MB.
        sys_ = dr.SampledFlow(field="lorenz", dt=0.02, substep=0.01)
        pts = dr.iterate(sys_, np.array([1.0, 1.0, 20.0]), 20_500).states[500:]
        assert peak_memory(sample_resolution, pts)[1] < 4.1e6

    def test_sample_resolution_peak_memory_in_blocks(self):
        # 2e5 uniform points in the unit cube: at the linkage radius each
        # self-query offset holds 1.9e6 to 2.3e6 candidates, 116 to 139
        # blocks of `_CHUNK`.  Blocks of candidates and a linkage fold that
        # touches only each block's ends keep the tracemalloc peak near
        # 49.6 MB; with one chunk per offset it read 113 MB.
        pts = np.random.default_rng(0).uniform(0, 1, (200_000, 3))
        assert peak_memory(sample_resolution, pts)[1] < 55e6

    def test_linkage_components_split_at_gap(self):
        pts = np.concatenate([np.linspace(0, 1, 20),
                              np.linspace(5, 6, 20)])[:, None]
        labels = linkage_components(pts, 0.2)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]


def labels_of(pts):
    """The component labels `refine_order` takes."""
    return sample_resolution(pts)[1]


class TestRefineOrder:
    def test_two_separated_points_get_disjoint_blobs(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        _, order = refine_order(pts, 2.0, labels_of(pts))
        assert order == 0

    def test_interval_refines_to_order_one(self):
        pts = np.linspace(0, 1, 400)[:, None]
        membership, order = refine_order(pts, 0.5, labels_of(pts))
        assert order == 1
        assert np.all(np.bincount(membership[0], minlength=len(pts)) > 0)
        assert np.all(np.bincount(membership[1]) > 0)

    def test_square_refines_to_order_two(self):
        g = np.linspace(0, 1, 40)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        _, order = refine_order(pts, 0.5, labels_of(pts))
        assert order == 2

    def test_parent_rows_must_match_and_cover_samples(self):
        # The parent is the samples' own mesh, so only the labels can
        # mismatch them.
        pts = np.linspace(0, 1, 10)[:, None]
        with pytest.raises(ValueError, match="one row per sample"):
            refine_order(pts, 0.5, linkage_components(pts[:5], 0.1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
           dim=st.integers(1, 3), scale=st.floats(0.05, 1.0))
    def test_refinement_properties(self, seed, n, dim, scale):
        pts = np.random.default_rng(seed).uniform(0, 1, (n, dim))
        membership, order = refine_order(pts, scale, labels_of(pts))
        rows = dense(membership, n)
        assert rows.any(axis=1).all()  # every sample is covered
        assert rows.any(axis=0).all()  # no element is empty
        cell = mesh_cover(pts, scale)[1]
        for col in rows.T:  # every element lies inside one mesh cell
            assert len(set(cell[col])) == 1
        assert order == rows.sum(axis=1).max() - 1
        assert order <= dim


class TestReferenceRefinement:
    """The sample-membership refinement against the element-class one on
    mesh parents: equal orders, and equal element sample sets.  The
    reference still tries up to three star scales, so equality also shows
    that the first is never improved on."""

    @staticmethod
    def same_refinement(pts, scale):
        membership, order = refine_order(pts, scale, labels_of(pts))
        parents = mesh_cover(pts, scale)
        elements, ref_order = reference_refine_order(parents, scale, pts)
        assert order == ref_order
        assert column_sets(membership) == reference_sample_sets(elements, parents, pts)
        return order

    @staticmethod
    def point_sets():
        rng = np.random.default_rng(11)
        g = np.linspace(0, 1, 30)
        cube = cantor_cube(4)
        return {
            "interval": (np.linspace(0, 1, 400)[:, None], [0.5, 0.25]),
            "square": (np.stack(np.meshgrid(g, g), -1).reshape(-1, 2), [0.5, 0.25]),
            "cube": (rng.uniform(0, 1, (600, 3)), [0.5, 0.25]),
            "disk": (rng.normal(0, 1, (600, 2)), [1.0, 0.5]),
            "clusters": (np.concatenate([rng.normal(0, 0.01, (50, 2)),
                                         rng.normal(3, 0.01, (50, 2))]), [1.0, 0.5]),
            "cantor": (cube[rng.choice(len(cube), 800, replace=False)],
                       [1.0 / 3.0, 1.0 / 9.0]),
        }

    @pytest.mark.parametrize("name", ["interval", "square", "cube", "disk",
                                      "clusters", "cantor"])
    def test_mesh_parents(self, name):
        pts, scales = self.point_sets()[name]
        for s in scales:
            self.same_refinement(pts, s)

    def test_attractor_states(self):
        flow = dr.SampledFlow("lorenz", dt=0.02, substep=0.01)
        pts = dr.iterate(flow, np.array([1.0, 1.0, 20.0]), 1500).states[500:]
        assert [self.same_refinement(pts, s) for s in (16.0, 8.0)] == [3, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_overlapping_ball_and_box_parents(self, seed):
        # A uniform box cloud or a normal ball cloud, whose overlapping
        # Kuhn stars straddle the mesh cells at a random scale; the star
        # attempt is compared on its own too, whatever the components do.
        rng = np.random.default_rng(seed)
        pts = (rng.uniform(0, 1, (300, 2)) if seed % 2 else
               rng.normal(0, 1, (300, 3)))
        scale = float(np.ptp(pts, axis=0).max()) * rng.uniform(0.1, 0.5)
        parents = mesh_cover(pts, scale)
        star_scale = scale / (4.0 * math.sqrt(pts.shape[1]))
        cover = _kuhn_attempt(pts, parents[1], star_scale)
        elements, ref_order = _ref_kuhn_attempt(dense(parents, len(pts)), pts, star_scale)
        assert cover_order(cover, len(pts)) == ref_order
        assert column_sets(cover) == reference_sample_sets(elements, parents, pts)
        self.same_refinement(pts, scale)


class TestKuhnVertexKeys:
    @pytest.mark.parametrize("pts", [
        np.random.default_rng(2).uniform(-3, 3, (300, 3)),
        np.array([[0.0, 0.0], [1.0, 2.0], [0.5, 0.5], [1.5, 2.5], [0.25, 1.25]]),
        np.array([[0.3, 0.3, 0.3], [0.3, 0.7, 0.3], [2.0, 0.5, 0.5], [0.0, 0.0, 0.0]]),
        np.linspace(0, 2, 9)[:, None],
        np.random.default_rng(3).uniform(0, 2, (40, 64)),
    ], ids=["random", "faces-and-ties-2d", "ties-3d", "interval", "keys-past-2**62"])
    def test_equal_to_row_loop(self, pts):
        for scale, origin in ((0.5, np.zeros(pts.shape[1])), (1.0, pts.min(axis=0))):
            # The ids of each point's vertices: the ranks of the reference
            # vertex coordinates among all of them, in lexicographic order.
            got = kuhn_vertex_keys(pts, scale, origin)
            ref = np.array(reference_kuhn_vertex_keys(pts, scale, origin))
            ref = _row_ids(ref.reshape(-1, pts.shape[1]).T).reshape(len(pts), -1)
            assert got.shape == (len(pts), pts.shape[1] + 1)
            assert np.array_equal(got, ref)


class TestCoveringEstimate:
    def test_interval(self):
        pts = np.linspace(0, 1, 500)[:, None]
        est = covering_dimension_estimate(pts, [0.5, 0.25])
        assert est.value == 1
        assert est.heuristic

    def test_square(self):
        g = np.linspace(0, 1, 100)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        assert covering_dimension_estimate(pts, [0.4, 0.2]).value == 2

    def test_single_cluster_is_zero_dimensional(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(0, 0.01, (50, 2)),
                              rng.normal(3, 0.01, (50, 2))])
        assert covering_dimension_estimate(pts, [1.0, 0.5]).value == 0

    def test_cantor_cube_is_zero_dimensional(self):
        rng = np.random.default_rng(0)
        cube = cantor_cube(5)
        sub = cube[rng.choice(cube.shape[0], size=3000, replace=False)]
        est = covering_dimension_estimate(sub, [1.0 / 3.0, 1.0 / 9.0])
        assert est.value == 0

    def test_subresolution_scales_dropped(self):
        pts = np.linspace(0, 1, 20)[:, None]
        est = covering_dimension_estimate(pts, [0.5, 1e-4])
        assert est.scales == [0.5]
        assert est.notes

    def test_all_scales_too_fine_rejected(self, monkeypatch):
        # The scales are checked before the linkage, which is never built.
        calls = []
        monkeypatch.setattr(topology, "linkage_components",
                            lambda *args: calls.append(args))
        pts = np.linspace(0, 1, 20)[:, None]
        with pytest.raises(ValueError, match="all scales below sampling resolution"):
            covering_dimension_estimate(pts, [1e-3, 1e-4])
        assert calls == []

    @pytest.mark.parametrize("scales", [[16.0, -8.0], [1.0, 0.0], [-1.0, -2.0]])
    def test_nonpositive_scale_rejected(self, scales):
        with pytest.raises(ValueError, match="covering scales must be positive"):
            covering_dimension_estimate(np.linspace(0, 1, 20)[:, None], scales)


class TestBoxCounting:
    def test_scale_past_exact_cells_rejected(self):
        # 2000 distinct Henon states over an extent near 2.5: at 1e-20 the
        # cell coordinates pass 2**52, where they stop being exact and the
        # int64 cast is undefined; this read counts [180, 39, 5] once.
        pts = dr.iterate(dr.Henon(), [0.1, 0.1], 2000).states
        with pytest.raises(ValueError, match="scale 1e-20 puts more than 2\\*\\*52"):
            box_counting(pts, [1e-20, 1e-21, 1e-22])
        with pytest.raises(ValueError, match="scale 1e-20 puts"):
            _grid_index(pts, pts.min(axis=0), 1e-20)
        extent = (pts.max(axis=0) - pts.min(axis=0)).max()
        assert _grid_index(pts, pts.min(axis=0), extent / 2 ** 52).max() <= 2 ** 52
        assert _grid_index(pts[:0], np.zeros(2), 1e-300).shape == (0, 2)

    @pytest.mark.parametrize("scales", [[1.0, 0.1, 0.0], [1.0, 0.1, -0.01], [0.0, 0.0, 0.0]])
    def test_nonpositive_scale_rejected(self, scales):
        with pytest.raises(ValueError, match="scales must be positive"):
            box_counting(np.zeros((5, 2)), scales)

    def test_interval_slope_one(self):
        pts = np.linspace(0, 1, 500)[:, None]
        est = box_counting(pts, [2.0 ** -j for j in range(2, 8)])
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_square_slope_two(self):
        g = np.linspace(0, 1, 200)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        est = box_counting(pts, [2.0 ** -j for j in range(2, 8)])
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_cantor_exact_counts(self):
        # at scale 3^-j the level-8 endpoint set occupies exactly 2^j cells
        pts = cantor_left_endpoints(8)[:, None]
        est = box_counting(pts, [3.0 ** -j for j in range(1, 7)])
        assert est.counts == [2, 4, 8, 16, 32, 64]
        assert est.value == pytest.approx(LOG2_OVER_LOG3, abs=1e-9)

    def test_single_point_degenerate(self):
        pts = np.repeat([[0.3, 0.4]], 10, axis=0)
        est = box_counting(pts, [0.1, 0.01, 0.001])
        assert est.value == 0.0
        assert est.residual is None
        assert est.notes == ["degenerate fit: all occupancy counts equal"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 10**7), min_size=3, max_size=8),
           st.floats(1.1, 10.0))
    def test_fit_matches_lapack_least_squares(self, counts, ratio):
        # The closed-form line against `np.polyfit`'s LAPACK solve, up to
        # rounding: log counts stay below 17, so sums lose far less than 1e-9.
        scales = [ratio ** -j for j in range(len(counts))]
        slope, residual = _fit_slope(scales, counts)
        if len(set(counts)) == 1:
            assert (slope, residual) == (0.0, None)
            return
        x, y = -np.log(scales), np.log(counts)
        coef, res = np.polyfit(x, y, 1, full=True)[:2]
        assert slope == pytest.approx(coef[0], abs=1e-9)
        assert residual == pytest.approx(res[0], abs=1e-9)

    def test_scale_span_enforced(self):
        pts = np.linspace(0, 1, 50)[:, None]
        with pytest.raises(ValueError):
            box_counting(pts, [0.5, 0.4, 0.3])

    def test_asdict_round_trips_fields(self):
        pts = np.linspace(0, 1, 100)[:, None]
        d = asdict(box_counting(pts, [2.0 ** -j for j in range(2, 8)]))
        assert d["method"] == "box-counting"
        assert len(d["scales"]) == len(d["counts"])


class TestHypothesisCheck:
    def test_torus_automorphism_passes(self):
        report = hypothesis_check(dr.CatMap(), 2, n_seeds=400)
        assert report.ok
        counts = [e["detected_count"] for e in report.per_n]
        assert counts == [1, 5, 20, 60]
        assert all(e["detected_dim"] == 0 for e in report.per_n)

    def test_identity_fails_at_n_equals_one(self):
        report = hypothesis_check(dr.CircleRotation(0.0), 1, n_seeds=200)
        assert not report.ok
        first = report.per_n[0]
        assert first["n"] == 1
        assert first["detected_dim"] == 1
        assert not first["ok"]

    def test_irrational_rotation_vacuously_passes(self):
        report = hypothesis_check(dr.CircleRotation(math.sqrt(2) - 1.0), 1,
                                  n_seeds=100)
        assert report.ok
        assert all(e["detected_count"] == 0 for e in report.per_n)
        assert all(e["detected_dim"] == -1 for e in report.per_n)

    def test_d_zero_trivially_passes(self):
        report = hypothesis_check(dr.CircleRotation(0.0), 0, n_seeds=50)
        assert report.ok and report.per_n == []

    def test_low_seed_count_flagged(self):
        report = hypothesis_check(dr.CatMap(), 1, n_seeds=36)
        assert report.low_confidence


class TestGridSeeds:
    def test_seeds_inside_domain(self):
        for sys_ in (dr.Henon(), dr.CatMap(), dr.SampledFlow("harmonic", dt=0.5)):
            seeds = grid_seeds(sys_, 100)
            box = sys_.domain
            assert np.all(seeds >= box[:, 0]) and np.all(seeds <= box[:, 1])

    def test_deterministic(self):
        assert np.array_equal(grid_seeds(dr.CatMap(), 123),
                              grid_seeds(dr.CatMap(), 123))

    def test_grid_above_cap_rejected(self):
        # At least two seeds per axis: 16 odometer digits give the largest
        # grid allowed, 17 one twice that, whatever n_seeds asks for.
        assert grid_seeds(dr.Odometer(digits=16), 100).shape == (MAX_GRID_SEEDS, 16)
        for digits in (17, 30, MAX_ODOMETER_DIGITS):
            with pytest.raises(ValueError, match=f"grid of 2\\*\\*{digits} states"):
                grid_seeds(dr.Odometer(digits=digits), 100)
        with pytest.raises(ValueError, match="grid of 41\\*\\*3 states"):
            grid_seeds(dr.SampledFlow("lorenz", dt=0.02), 70_000)

    def test_huge_seed_count_rejected_before_the_root(self):
        # 2**k * MAX_GRID_SEEDS is the largest count compared with the cap
        # after its root; above it the count is rejected as an integer, so
        # one too large for a float raises no OverflowError.
        for sys_ in (dr.CatMap(), dr.CircleRotation(0.1), dr.SampledFlow("lorenz", dt=0.02)):
            k = sys_.ambient_dim
            with pytest.raises(ValueError, match="grid of .* exceeds MAX_GRID_SEEDS"):
                grid_seeds(sys_, 2 ** k * MAX_GRID_SEEDS)
            for n_seeds in (2 ** k * MAX_GRID_SEEDS + 1, 10 ** 400):
                with pytest.raises(ValueError, match=f"n_seeds above 2\\*\\*{k} \\* MAX"):
                    grid_seeds(sys_, n_seeds)
        # The largest grids under the cap are still built.
        assert grid_seeds(dr.CatMap(), 256 ** 2).shape == (MAX_GRID_SEEDS, 2)
        assert grid_seeds(dr.CircleRotation(0.1), MAX_GRID_SEEDS).shape == (MAX_GRID_SEEDS, 1)
