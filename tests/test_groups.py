import itertools

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from levymult import groups as groupsmod
from levymult import rng as rngmod
from levymult.groups import (
    GroupLevyMeasure,
    PeterWeylCoeffs,
    casimir_eigenvalue,
    dual_enumerate,
    get_irrep,
    group_dim,
    haar_sample,
    heat_coeffs,
    identity_element,
    irrep_stack_batch,
    plancherel_pairing,
    pw_forward,
    pw_inverse,
    quadrature_grid,
    random_band_limited,
    su2_exp,
    su2_irrep_batch,
    su2_matrix,
    su2_renormalise,
)


# -- duals ---------------------------------------------------------------------


@pytest.mark.parametrize("group, cutoff", [("t1", 0.7), ("t2", 0.99), ("t2", -1), ("su2", 0.2), ("t3", 2)])
def test_dual_enumerate_refuses_a_cutoff_below_the_first_nontrivial_irrep(group, cutoff):
    with pytest.raises(ValueError):
        dual_enumerate(group, cutoff)


def test_t2_dual_count_and_casimir():
    dual = dual_enumerate("t2", 1)
    assert len(dual) == 9
    by_label = {pi.label: pi for pi in dual}
    assert by_label[(1, 1)].casimir == 2.0
    assert by_label[(0, 0)].casimir == 0.0


def test_t1_dual_generators():
    dual = dual_enumerate("t1", 3)
    assert [pi.label for pi in dual] == list(range(-3, 4))
    for pi in dual:
        assert pi.generators[0][0, 0] == 1j * pi.label


def test_su2_dual_dimensions():
    dual = dual_enumerate("su2", 2.0)
    assert [pi.label for pi in dual] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert [pi.dim for pi in dual] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("cutoff, top", [(0.8, 0.5), (1.2, 1.0), (1.49, 1.0), (1.5, 1.5), (2.99, 2.5)])
def test_su2_dual_floors_twice_the_cutoff_as_the_tori_floor_theirs(cutoff, top):
    assert dual_enumerate("su2", cutoff)[-1].label == top
    assert dual_enumerate("t1", 2 * cutoff)[-1].label == int(2 * top)


@pytest.mark.parametrize("group, label", [("t1", 1.5), ("t1", "1"), ("t1", (1,)), ("t2", (1,)), ("t2", (1, 2, 3)), ("t2", (1, 0.5)), ("t2", 1)])
def test_torus_irrep_refuses_a_label_that_is_not_dim_integers(group, label):
    with pytest.raises((ValueError, TypeError)):
        get_irrep(group, label)


def test_torus_irrep_takes_integral_labels_of_any_number_type():
    assert get_irrep("t1", 2.0).label == 2 and get_irrep("t1", np.int64(-3)).label == -3
    assert get_irrep("t2", [1.0, -2]).label == (1, -2)


def test_torus_irreps_are_built_once_with_read_only_generators():
    # on every group: one label in two spellings and the dual's entry are one object
    for group, label, spelling, cutoff, index in (("t2", [1, 2], (1, 2), 2, 19), ("t1", -1, -1.0, 2, 1), ("su2", 1, 1.0, 1, 2)):
        pi = get_irrep(group, label)
        assert pi is get_irrep(group, spelling) and pi is dual_enumerate(group, cutoff)[index], group
        for gen in pi.generators:
            with pytest.raises(ValueError, match="read-only"):
                gen[0, 0] = 0.0


def test_irreps_compare_and_hash_by_group_and_label_after_cache_eviction():
    # the cache holds 4,096 irreps, and the T^2 dual at cutoff 46 takes 8,649 labels: the first irrep is evicted
    pi = get_irrep("t2", (0, 1))
    dual_enumerate("t2", 46)
    again = get_irrep("t2", (0, 1))
    assert again is not pi
    assert again == pi and hash(again) == hash(pi) and len({pi, again}) == 1
    assert pi != get_irrep("t2", (1, 0)) and pi != get_irrep("t1", 1) and pi != ("t2", (0, 1))
    assert groupsmod._irrep.__wrapped__("su2", 2) == get_irrep("su2", 1.0)  # the uncached builder


@pytest.mark.parametrize("build", [identity_element, lambda group: quadrature_grid(group, 2)], ids=["identity_element", "quadrature_grid"])
def test_an_unknown_group_is_refused(build):
    # as dual_enumerate refuses "t3" above
    with pytest.raises(ValueError, match="unknown group"):
        build("t3")


@pytest.mark.parametrize(
    "group, blocks",
    [("t1", {1: np.ones((1, 2))}), ("t2", {(1, 0): np.ones(1)}), ("su2", {0.5: np.eye(2, 3)}), ("su2", {1.0: np.eye(2)})],
)
def test_coefficient_table_refuses_a_block_that_is_not_d_by_d(group, blocks):
    with pytest.raises(ValueError, match="not"):
        PeterWeylCoeffs(group, 1, blocks)


@pytest.mark.parametrize("group, blocks", [("t2", {1: [[1.0]]}), ("t1", {0.5: [[1.0]]}), ("su2", {(1, 0): [[1.0]]})])
def test_coefficient_table_refuses_a_label_of_another_group(group, blocks):
    # refused when the table is built, as get_irrep refuses the label, not at its first use
    with pytest.raises((ValueError, TypeError)):
        PeterWeylCoeffs(group, 1, blocks)


def test_su2_fundamental_casimir_by_matrix_arithmetic():
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    total = sum((0.5j * s) @ (0.5j * s) for s in sigma)
    assert np.allclose(total, -0.75 * np.eye(2))
    assert casimir_eigenvalue(get_irrep("su2", 0.5)) == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 8.0])
def test_casimir_scalarity(j):
    pi = get_irrep("su2", j)
    total = sum(g @ g for g in pi.generators)
    assert np.max(np.abs(total + j * (j + 1) * np.eye(pi.dim))) < 1e-10
    for g in pi.generators:
        assert np.max(np.abs(g + g.conj().T)) < 1e-12


def test_casimir_zero_only_for_trivial():
    assert casimir_eigenvalue(get_irrep("su2", 0.0)) == 0.0
    assert casimir_eigenvalue(get_irrep("t1", 0)) == 0.0
    assert casimir_eigenvalue(get_irrep("t1", 2)) == 4.0


def test_casimir_detects_broken_generators():
    pi = get_irrep("su2", 1.0)
    broken = pi.__class__(pi.group, pi.label, pi.dim, pi.casimir, (pi.generators[0],) * 3)
    with pytest.raises(ValueError, match="metric normalization"):
        casimir_eigenvalue(broken)


# -- representation evaluation ---------------------------------------------------


def test_torus_evaluation():
    pi = get_irrep("t1", 2)
    assert irrep_stack_batch([pi], [[np.pi]])[0, 0, 0, 0] == pytest.approx(np.exp(2j * np.pi))
    assert irrep_stack_batch([pi], [[0.0]])[0, 0, 0, 0] == 1.0


_BOX = [(k1, k2) for k1 in range(-3, 4) for k2 in range(-3, 4)]


@pytest.mark.parametrize(
    "labels",
    [
        _BOX,
        [_BOX[i] for i in np.random.default_rng(1).permutation(len(_BOX))],
        [(0, 0), (7, -3), (-5, 11)],
        [(2, -1)],
        [(0, 1), (0, -2), (0, 1)],  # one value on the first axis, a repeated label
    ],
    ids=["box", "shuffled-box", "sparse", "one-label", "repeats"],
)
def test_t2_characters_match_the_exponential_of_the_phase(labels):
    theta = haar_sample("t2", rngmod.stream(8, 1), 400)
    chars = irrep_stack_batch([get_irrep("t2", k) for k in labels], theta)
    assert chars.shape == (400, len(labels), 1, 1)
    assert np.max(np.abs(chars[:, :, 0, 0] - np.exp(1j * theta @ np.array(labels, dtype=float).T))) <= 1e-14


def test_t2_characters_do_not_depend_on_the_stack():
    theta = haar_sample("t2", rngmod.stream(8, 3), 500)
    dual = dual_enumerate("t2", 3)
    whole = irrep_stack_batch(dual, theta)
    for i, pi in enumerate(dual):
        assert irrep_stack_batch([pi], theta).tobytes() == whole[:, [i]].tobytes()
    sparse = [5, 40, 12, 5, 27]
    assert irrep_stack_batch([dual[i] for i in sparse], theta).tobytes() == whole[:, sparse].tobytes()


# angles where a mirrored character could differ from the exp: a signed zero, a tiny phase, pi, a large phase
_EDGE_ANGLES = np.array([0.0, -0.0, 1e-300, -1e-300, np.pi, -np.pi, 1e6, -1e6])


@pytest.mark.parametrize(
    "labels",
    [[-3, 5, -1, 0, 2], [4, -4, 4, 0, -7, 0], list(range(-3, 4)), list(range(3, -4, -1)), [-1, 1], [-3, -1, 0, 1, 3]],
    ids=["distinct", "repeats", "box", "reversed-box", "pair", "odd-symmetric"],
)
def test_t1_characters_are_exactly_the_exponential(labels):
    theta = np.concatenate([haar_sample("t1", rngmod.stream(8, 2), 300), _EDGE_ANGLES[:, None]])
    chars = irrep_stack_batch([get_irrep("t1", k) for k in labels], theta)
    assert chars[:, :, 0, 0].tobytes() == np.exp(1j * (theta * np.array(labels, dtype=float))).tobytes()


def _direct_characters(labels, gs):
    """Every character from its own exps: per distinct axis value through the row-major product of the axes
    (F-ordered, as the fancy index gs[:, axis] leaves it) where the labels have fewer values than labels,
    else per label (C-ordered)."""
    k = np.array(labels, dtype=float).reshape(len(labels), -1)
    values, where = zip(*(np.unique(col, return_inverse=True) for col in k.T))
    sizes = [len(v) for v in values]
    if sum(sizes) >= len(labels) and k.shape[1] == 2:
        factors = np.exp(1j * (gs[:, None, :] * k))
        return factors[:, :, 0] * factors[:, :, 1]
    if sum(sizes) >= len(labels):
        return np.exp(1j * (gs @ k.T))
    chars = np.exp(1j * (gs[:, np.repeat(np.arange(len(sizes)), sizes)] * np.concatenate(values)))
    if len(sizes) == 2:
        chars = (chars[:, : sizes[0], None] * chars[:, None, sizes[0] :]).reshape(len(gs), sizes[0] * sizes[1])
    cols = np.ravel_multi_index(where, sizes)
    return chars if np.array_equal(cols, np.arange(len(labels))) else chars[:, cols]


_BOX4 = [(k1, k2) for k1 in range(-4, 5) for k2 in range(-4, 5)]


@pytest.mark.parametrize(
    "labels",
    [
        list(range(-3, 4)),
        list(range(3, -4, -1)),
        [int(k) for k in np.random.default_rng(4).permutation(np.arange(-3, 4))],
        [-1, 1],
        [-3, -1, 0, 1, 3],
        [-3, 5, -1, 0, 2],
        [4, -4, 4, 0, -7, 0],
        [2, -2, 2, 0],  # repeats on a sign-symmetric axis: the per-axis table, mirrored
        _BOX,
        _BOX4,
        _BOX4[::-1],
        [_BOX4[i] for i in np.random.default_rng(5).permutation(len(_BOX4))],
        [(k1, k2) for k1 in (-1, 1) for k2 in (-3, -1, 0, 1, 3)],
        [(k1, k2) for k1 in (-1, 1) for k2 in (0, 1, 2)],  # one sign-symmetric axis, one not
        [(1, 0), (-1, 2), (0, -3), (2, 1), (-2, -1)],
        [(0, 0), (7, -3), (-5, 11)],
        [(0, 1), (0, -2), (0, 1)],
    ],
    ids=[
        "t1-box", "t1-reversed", "t1-shuffled", "t1-pair", "t1-odd-symmetric", "t1-distinct", "t1-repeats",
        "t1-symmetric-repeats", "t2-box3", "t2-box4", "t2-reversed-box4", "t2-shuffled-box4", "t2-symmetric-product",
        "t2-half-symmetric", "t2-scattered", "t2-sparse", "t2-repeats",
    ],
)
def test_torus_characters_keep_the_bits_and_layout_of_the_direct_exps(labels, monkeypatch):
    # mirrored columns must carry the exp's bits, the +0 imaginary part at theta = +-0 included, and each
    # route its layout: pw_forward and pw_inverse round in an order that depends on the strides
    group = "t1" if np.ndim(labels[0]) == 0 else "t2"
    edges = np.array(list(itertools.product(_EDGE_ANGLES, repeat=group_dim(group))))
    theta = np.concatenate([edges, haar_sample(group, rngmod.stream(8, 4), 200)])
    stack = [get_irrep(group, k) for k in labels]
    mirrored, axis_characters = [], groupsmod._axis_characters

    def spy(out, theta, values, half):
        mirrored.extend([len(theta)] if half else [])
        axis_characters(out, theta, values, half)

    monkeypatch.setattr(groupsmod, "_axis_characters", spy)
    least = groupsmod.MIRROR_MIN_POINTS  # below it, every exp is taken directly
    for pts in (theta, theta[:0], theta[:1], theta[:2], theta[-7:], theta[: least - 1], theta[:least]):
        chars, expected = irrep_stack_batch(stack, pts), _direct_characters(labels, pts)[:, :, None, None]
        assert chars.tobytes() == expected.tobytes()
        assert chars.strides == expected.strides
        assert (chars.flags.c_contiguous, chars.flags.f_contiguous) == (expected.flags.c_contiguous, expected.flags.f_contiguous)
    tables = groupsmod._torus_labels(tuple(labels))[1]
    assert min(mirrored, default=least) >= least
    assert bool(mirrored) == (tables is not None and any(tables[-1]))  # the route under test ran where it should


def test_cached_label_data_is_read_only():
    # with the sign-symmetric axes that take mirrored characters: h positive values, None on other axes
    for labels, halves in (
        (tuple(_BOX), (3, 3)),
        (tuple(_BOX[::-1]), (3, 3)),
        (((0, 0), (7, -3), (-5, 11)), None),
        ((3, -1, 3), (None,)),
        (tuple(range(3, -4, -1)), (3,)),
        ((-1, 1), (1,)),
        ((-3, -1, 0, 1, 3), (2,)),
        ((-3, 5, -1, 0, 2), None),
        (tuple((k1, k2) for k1 in (-1, 1) for k2 in (0, 1, 2)), (1, None)),
    ):
        k, tables = groupsmod._torus_labels(labels)
        arrays = [k] + [a for a in tables or () if isinstance(a, np.ndarray)]
        assert not any(a.flags.writeable for a in arrays)
        assert (tables and tables[-1]) == halves


def test_su2_exp_pi_x3():
    rep = irrep_stack_batch([get_irrep("su2", 0.5)], [su2_exp([0.0, 0.0, np.pi])])[0, 0]
    assert np.allclose(rep, np.diag([np.exp(0.5j * np.pi), np.exp(-0.5j * np.pi)]), atol=1e-12)


def test_identity_evaluates_to_identity():
    for pi in (get_irrep("t2", (1, -2)), get_irrep("su2", 1.5)):
        g = np.zeros(2) if pi.group == "t2" else np.eye(2, dtype=complex)
        assert np.allclose(irrep_stack_batch([pi], [g])[0, 0], np.eye(pi.dim), atol=1e-14)


def _rep_by_expm(pi, v):
    return scipy_expm(sum(vi * gi for vi, gi in zip(v, pi.generators)))


SPINS = [0.5, 1.0, 1.5, 2.0, 4.0]


@pytest.mark.parametrize("j", SPINS)
def test_su2_evaluation_matches_matrix_exponential(j):
    pi = get_irrep("su2", j)
    rng = np.random.default_rng(17)
    for _ in range(8):
        v = rng.standard_normal(3) * rng.uniform(0.1, 2.5)
        lhs = irrep_stack_batch([pi], [su2_exp(v)])[0, 0]
        rhs = _rep_by_expm(pi, v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("j", SPINS)
def test_su2_evaluation_at_singular_euler_angles(j):
    # beta = 0 (diagonal elements, e^{t X3}), beta = pi (zero diagonal,
    # rotations by pi about an axis in the X1-X2 plane) and exactly +-I,
    # where one Euler phase is undefined and must drop out.
    pi = get_irrep("su2", j)
    ts = np.array([-4.0 * np.pi, -3.0, -1e-9, 0.0, 1e-9, 0.7, np.pi, 2.0 * np.pi, 5.5, 4.0 * np.pi])
    phis = np.array([0.0, 0.3, 0.5 * np.pi, 2.0, np.pi, -2.5])
    vs = np.concatenate([
        np.outer(ts, [0.0, 0.0, 1.0]),
        np.pi * np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1),
    ])
    gs = np.array([su2_exp(v) for v in vs])
    assert np.all(gs[: len(ts), [0, 1], [1, 0]] == 0.0)
    gs[len(ts):, [0, 1], [0, 1]] = 0.0  # cos(pi / 2) rounds to 6e-17
    expect = np.array([_rep_by_expm(pi, v) for v in vs])
    assert np.max(np.abs(su2_irrep_batch(pi, gs) - expect)) <= 1e-12
    parity = (-1.0) ** round(2 * j)
    center = su2_irrep_batch(pi, np.array([np.eye(2), -np.eye(2)], dtype=complex))
    assert np.max(np.abs(center[0] - np.eye(pi.dim))) <= 1e-12
    assert np.max(np.abs(center[1] - parity * np.eye(pi.dim))) <= 1e-12


@pytest.mark.parametrize("j", SPINS)
def test_su2_evaluation_accurate_near_center(j):
    # g = +-exp(v) at distance |v|/2 = 1e-12 ... 1e-1 from +-I; pi(-g) is
    # (-1)^{2j} pi(g).  Taking sin(theta/2) as sqrt(1 - cos^2) lost up to
    # 2e-3 on these elements.
    pi = get_irrep("su2", j)
    rng = np.random.default_rng(23)
    dists = 10.0 ** -np.arange(12, 0, -1)
    axes = rng.standard_normal((len(dists), 3))
    vs = 2.0 * dists[:, None] * axes / np.linalg.norm(axes, axis=1)[:, None]
    expect = np.array([_rep_by_expm(pi, v) for v in vs])
    for sign in (1.0, -1.0):
        reps = su2_irrep_batch(pi, sign * np.array([su2_exp(v) for v in vs]))
        parity = sign ** round(2 * j)
        assert np.max(np.abs(reps - parity * expect)) <= 1e-12


def test_su2_batch_homomorphism_and_unitarity():
    g = haar_sample("su2", rngmod.stream(4, 0), 6)
    for j in (1.5, 4.0):
        pi = get_irrep("su2", j)
        reps = su2_irrep_batch(pi, g)
        for i in range(3):
            prod = su2_irrep_batch(pi, g[2 * i] @ g[2 * i + 1])
            assert np.max(np.abs(prod - reps[2 * i] @ reps[2 * i + 1])) < 1e-12
            u = reps[i]
            assert np.max(np.abs(u @ u.conj().T - np.eye(pi.dim))) < 1e-10


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
def test_a_lone_su2_element_evaluates_as_in_a_batch(j):
    # a one-row matrix product would take BLAS's matrix-vector path, which rounds differently
    pi = get_irrep("su2", j)
    gs = haar_sample("su2", rngmod.stream(4, 1), 9)
    batch = su2_irrep_batch(pi, gs)
    for i in range(len(gs)):
        assert np.array_equal(su2_irrep_batch(pi, gs[i : i + 1])[0], batch[i]), i
        assert np.array_equal(su2_irrep_batch(pi, gs[i]), batch[i]), i


def test_su2_center_evaluation():
    # -I maps to (-1)^{2j} I in spin j
    for j, sign in ((0.5, -1.0), (1.0, 1.0), (1.5, -1.0)):
        rep = irrep_stack_batch([get_irrep("su2", j)], [-np.eye(2)])[0, 0]
        assert np.allclose(rep, sign * np.eye(int(2 * j + 1)), atol=1e-12)


def test_su2_renormalise_projects():
    g = haar_sample("su2", rngmod.stream(4, 1), 4)
    noisy = g[:, 0].T + 1e-8 * (np.ones((2, 4)) + 0.5j)  # first rows
    out, resid = su2_renormalise(noisy)
    assert resid < 1e-7
    for u in su2_matrix(*out):
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


# -- Peter-Weyl transforms ---------------------------------------------------------


def test_t1_character_delta_coefficients():
    grid = quadrature_grid("t1", 8)
    coeffs = pw_forward(lambda pts: np.exp(3j * pts[:, 0]), "t1", 4, grid=grid)
    for label, block in coeffs.blocks.items():
        expect = 1.0 if label == 3 else 0.0
        assert abs(block[0, 0] - expect) < 1e-12


def test_constant_function_hits_trivial_block_only():
    co = pw_forward(lambda pts: np.full(len(pts), 2.5 + 0.0j), "su2", 1.0)
    for label, block in co.blocks.items():
        expect = 2.5 if label == 0.0 else 0.0
        assert np.max(np.abs(block - expect * np.eye(block.shape[0]))) < 1e-12


def test_su2_matrix_coefficient_orthogonality():
    pi_half = get_irrep("su2", 0.5)

    def f(pts):
        return np.sqrt(2.0) * su2_irrep_batch(pi_half, pts)[:, 0, 0]

    co = pw_forward(f, "su2", 1.0)
    # only the (0,0) entry of the spin-1/2 block survives, with value
    # sqrt(2) * <pi_00, pi_00> = sqrt(2)/d
    for label, block in co.blocks.items():
        expect = np.zeros_like(block)
        if label == 0.5:
            expect[0, 0] = np.sqrt(2.0) / 2.0
        assert np.max(np.abs(block - expect)) < 1e-12


@pytest.mark.parametrize("group,cutoff", [("t1", 5), ("t2", 3), ("su2", 1.5)])
def test_round_trip_random_coeffs(group, cutoff):
    coeffs = random_band_limited(group, cutoff, rngmod.stream(5, 1))
    grid = quadrature_grid(group, 2 * cutoff)
    values = pw_inverse(coeffs, grid=grid)
    back = pw_forward(values, group, cutoff, grid=grid)
    worst = max(np.max(np.abs(coeffs.blocks[lb] - back.blocks[lb])) for lb in coeffs.labels())
    assert worst < 1e-9


def test_inverse_of_delta_table_reproduces_matrix_entries():
    pi = get_irrep("su2", 1.0)
    block = np.zeros((3, 3), dtype=complex)
    block[2, 1] = 1.0 / 3.0  # d_pi tr(e_{21}/d pi(g)) = pi(g)_{12}
    co = PeterWeylCoeffs("su2", 1.0, {1.0: block})
    pts = haar_sample("su2", rngmod.stream(5, 2), 5)
    vals = pw_inverse(co, pts)
    reps = su2_irrep_batch(pi, pts)
    assert np.max(np.abs(vals - reps[:, 1, 2])) < 1e-12


def test_zero_coeffs_synthesise_zero():
    co = PeterWeylCoeffs("t2", 1, {(0, 0): np.zeros((1, 1))})
    assert np.max(np.abs(pw_inverse(co, np.zeros((3, 2))))) == 0.0


@pytest.mark.parametrize("group, shape", [("t2", (2, 3)), ("su2", (4, 3, 3)), ("t1", (3,)), ("t2", (2, 2, 1)), ("su2", (2,))])
def test_points_of_another_shape_are_refused(group, shape):
    # a full T^2 box once read the first two of three coordinates, SU(2) four 3 x 3 arrays as nine elements
    coeffs = random_band_limited(group, 2.0 if group == "su2" else 2, rngmod.stream(5, 3))
    with pytest.raises(ValueError, match="points"):
        pw_inverse(coeffs, points=np.zeros(shape))
    with pytest.raises(ValueError, match="points"):
        irrep_stack_batch(dual_enumerate(group, 1)[-1:], np.zeros(shape))


@pytest.mark.parametrize("group", ["t1", "t2", "su2"])
def test_a_single_element_evaluates_to_one_value(group):
    coeffs = random_band_limited(group, 1.5 if group == "su2" else 2, rngmod.stream(5, 4))
    gs = haar_sample(group, rngmod.stream(5, 5), 3)
    batch = pw_inverse(coeffs, points=gs)
    for i, g in enumerate(gs):
        assert pw_inverse(coeffs, points=g).tobytes() == batch[i : i + 1].tobytes()
    assert irrep_stack_batch(dual_enumerate(group, 1)[-1:], gs[0]).shape[0] == 1
    # and no element to none: a T^2 box, read from per-axis tables, once failed to reshape its empty product
    assert pw_inverse(coeffs, points=gs[:0]).shape == (0,)
    for stack, _ in coeffs.stacks():
        assert irrep_stack_batch(stack, gs[:0]).shape == (0, len(stack), stack[0].dim, stack[0].dim)


def test_aliasing_guard():
    grid = quadrature_grid("t1", 4)
    with pytest.raises(ValueError, match="aliasing"):
        pw_forward(lambda pts: np.exp(1j * pts[:, 0]), "t1", 4, grid=grid)
    grid = quadrature_grid("su2", 3.5)
    with pytest.raises(ValueError, match="aliasing"):
        pw_forward(np.ones(len(grid.weights)), "su2", 2.0, grid=grid)


def _su2_tables():
    """A full spin-4 table, a sparse one, and one with spins beyond the bands 2 and 8."""
    full = random_band_limited("su2", 4.0, rngmod.stream(7, 1))
    sparse_half = np.where(np.abs(full.blocks[1.5]) > 0.3, full.blocks[1.5], 0.0)
    sparse = PeterWeylCoeffs("su2", 3.0, {1.5: sparse_half, 3.0: full.blocks[3.0]})
    high = random_band_limited("su2", 8.5, rngmod.stream(7, 2))
    high = PeterWeylCoeffs("su2", 8.5, {lb: high.blocks[lb] for lb in (0.0, 2.5, 4.5, 8.5)})
    return full, sparse, high


@pytest.mark.parametrize("band", [2.0, 8.0])
def test_su2_grid_synthesis_equals_point_evaluation(band):
    grid = quadrature_grid("su2", band)
    every = np.arange(0, len(grid.weights), 7)
    for coeffs in _su2_tables():
        on_grid = pw_inverse(coeffs, grid=grid)[every]
        at_points = pw_inverse(coeffs, points=grid.points[every])
        assert np.max(np.abs(on_grid - at_points)) <= 1e-12 * np.max(np.abs(at_points))


@pytest.mark.parametrize("band,cutoff", [(2.0, 1.0), (8.0, 4.0)])
def test_su2_grid_analysis_equals_direct_quadrature(band, cutoff):
    grid = quadrature_grid("su2", band)
    values = haar_sample("su2", rngmod.stream(7, 3), len(grid.weights))[:, 0, 1]
    coeffs = pw_forward(values, "su2", cutoff, grid=grid)
    for pi in dual_enumerate("su2", cutoff):
        direct = np.einsum("q,qba->ab", grid.weights * values, su2_irrep_batch(pi, grid.points).conj())
        assert np.max(np.abs(coeffs.blocks[pi.label] - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_su2_round_trip_at_spin_four_on_band_eight_grid():
    coeffs = random_band_limited("su2", 4.0, rngmod.stream(7, 4))
    grid = quadrature_grid("su2", 8.0)
    back = pw_forward(pw_inverse(coeffs, grid=grid), "su2", 4.0, grid=grid)
    assert set(back.blocks) == set(coeffs.blocks)
    diff = coeffs.map_blocks(lambda label, block: back.blocks[label] - block)
    assert diff.l2_norm() <= 1e-12 * coeffs.l2_norm()


def test_su2_callable_below_cutoff_transforms_exactly():
    # band 1 < cutoff 2: the default grid resolves 4, and only the spin-1 entry survives
    pi = get_irrep("su2", 1.0)
    co = pw_forward(lambda pts: su2_irrep_batch(pi, pts)[:, 2, 0], "su2", 2.0)
    assert sorted(co.blocks) == [0.0, 0.5, 1.0, 1.5, 2.0]
    for label, block in co.blocks.items():
        expect = np.zeros_like(block)
        if label == 1.0:
            expect[0, 2] = 1.0 / 3.0
        assert np.max(np.abs(block - expect)) < 1e-12


def test_plancherel_pairing_matches_quadrature():
    for group, cutoff in (("t1", 6), ("t2", 3), ("su2", 1.5)):
        f = random_band_limited(group, cutoff, rngmod.stream(6, 1))
        g = random_band_limited(group, cutoff, rngmod.stream(6, 2))
        grid = quadrature_grid(group, 2 * cutoff)
        fv = pw_inverse(f, grid=grid)
        gv = pw_inverse(g, grid=grid)
        space = np.sum(grid.weights * fv * np.conj(gv))
        assert abs(space - plancherel_pairing(f, g)) < 1e-6 * f.l2_norm() * g.l2_norm()


def test_parseval_norm():
    f = random_band_limited("su2", 1.0, rngmod.stream(6, 3))
    grid = quadrature_grid("su2", 2.0)
    fv = pw_inverse(f, grid=grid)
    assert np.sum(grid.weights * np.abs(fv) ** 2) == pytest.approx(f.l2_norm() ** 2, rel=1e-10)


def test_heat_semigroup_law_and_fixed_points():
    co = random_band_limited("t1", 4, rngmod.stream(6, 4))
    one_step = heat_coeffs(co, 0.8)
    two_step = heat_coeffs(heat_coeffs(co, 0.5), 0.3)
    for lb in co.labels():
        assert np.max(np.abs(one_step.blocks[lb] - two_step.blocks[lb])) <= 1e-12 * (
            1.0 + np.max(np.abs(one_step.blocks[lb]))
        )
    assert np.allclose(heat_coeffs(co, 0.0).blocks[2], co.blocks[2])
    assert heat_coeffs(co, 0.5).blocks[2][0, 0] == pytest.approx(
        np.exp(-2.0) * co.blocks[2][0, 0]
    )
    const = PeterWeylCoeffs("t1", 0, {0: np.array([[3.0 + 0j]])})
    assert heat_coeffs(const, 5.0).blocks[0][0, 0] == 3.0


def test_real_synthesis_of_real_tables():
    co = random_band_limited("t2", 2, rngmod.stream(6, 5), real=True)
    pts = haar_sample("t2", rngmod.stream(6, 6), 40)
    vals = pw_inverse(co, pts)
    assert np.max(np.abs(vals.imag)) < 1e-10


# -- group jump measures ------------------------------------------------------------


def test_group_measure_validation():
    with pytest.raises(ValueError, match="identity"):
        GroupLevyMeasure("t1", ((np.zeros(1), 1.0),))
    with pytest.raises(ValueError, match="identity"):
        GroupLevyMeasure("su2", ((np.eye(2), 1.0),))
    for not_su2 in (np.diag([1.0, -1.0]), 2.0 * su2_exp([0.3, 0.1, 0.2]), np.ones(3)):
        with pytest.raises(ValueError, match="SU\\(2\\) atom"):
            GroupLevyMeasure("su2", ((not_su2, 1.0),))
    with pytest.raises(ValueError, match="mass"):
        GroupLevyMeasure("t1", ((np.array([1.0]), -1.0),))
    # an atom is exactly one element, as a start point is: no bare T^1 number, 0-d array or batch of one
    for group, not_one_angle in (("t1", 2.0), ("t1", np.array(2.0)), ("t2", np.ones((1, 2)))):
        with pytest.raises(ValueError, match="one angle vector"):
            GroupLevyMeasure(group, ((not_one_angle, 1.0),))
    nu = GroupLevyMeasure("t1", ((np.array([2 * np.pi + 0.3]), 1.5),))
    assert nu.total_mass == 1.5


def test_centrality_flag():
    assert GroupLevyMeasure("t2", ((np.array([1.0, 2.0]), 1.0),)).is_central()
    assert GroupLevyMeasure("su2", ((-np.eye(2), 0.5),)).is_central()
    tau = su2_exp([0.3, 0.0, 1.0])
    assert not GroupLevyMeasure("su2", ((tau, 0.5),)).is_central()
