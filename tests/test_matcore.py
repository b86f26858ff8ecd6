"""Kernel tests: damped inverses, projectors, gauge sampling, SVD, text IO."""

import math
import tracemalloc

import numpy as np
import pytest

import kernel_reference as ref
from altlora import matcore as mc
from matrix_text import format_matrix, load_matrix, parse_matrix, save_matrix


def test_damped_inverse_zero_matrix_is_identity_over_lambda():
    out = mc.damped_gram_inverse(np.zeros((2, 1)), "left", 1.0)
    np.testing.assert_array_equal(out, [[1.0]])


def test_damped_inverse_orthonormal_column_no_damping():
    out = mc.damped_gram_inverse(np.array([[1.0], [0.0]]), "left", 0.0)
    np.testing.assert_allclose(out, [[1.0]], rtol=0, atol=1e-15)


def test_damped_inverse_right_side_matches_direct_2x2_inversion():
    m = np.array([[2.0, 0.0], [0.0, 0.5]])
    # direct 2x2 inversion oracle: adjugate over determinant
    gram = m @ m.T + 0.1 * np.eye(2)
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    want = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    got = mc.damped_gram_inverse(m, "right", 0.1)
    np.testing.assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("lam", [-1e-6, -math.inf, math.nan, math.inf])
def test_damped_inverse_rejects_a_damping_that_is_not_finite_and_nonnegative(lam):
    # NaN would factor the undamped Gram (no comparison holds for it) and inf
    # would give an all-zero "inverse"; a stack goes through the same check.
    m = mc.RandomStream(2).normal(6, 2)
    for got in (m, np.stack([m, m])):
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="^damping must be nonnegative and finite"):
                mc.damped_gram_inverse(got, side, lam)


@pytest.mark.parametrize("side", ["left", "right"])
def test_damped_inverse_identity_property(side):
    stream = mc.RandomStream(42)
    worst = 0.0
    for _ in range(50):
        k = 2 + int(stream.uniform() * 30)
        r = 1 + int(stream.uniform() * 8)
        m = stream.normal(k, r) if side == "left" else stream.normal(r, k)
        lam = float(np.exp(stream.normal() - 2.0))
        inv = mc.damped_gram_inverse(m, side, lam)
        gram = (m.T @ m if side == "left" else m @ m.T) + lam * np.eye(inv.shape[0])
        worst = max(worst, mc.rel_error(inv @ gram, np.eye(inv.shape[0])))
        assert np.max(np.abs(inv - inv.T)) <= 1e-12
    assert worst <= 1e-9


def test_singular_gram_raises_without_damping():
    with pytest.raises(mc.SingularGram):
        mc.damped_gram_inverse(np.zeros((3, 2)), "left", 0.0)
    rank_deficient = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(mc.SingularGram):
        mc.damped_gram_inverse(rank_deficient, "left", 0.0)
    # damping rescues the same input
    mc.damped_gram_inverse(rank_deficient, "left", 1e-6)


def test_pivot_below_threshold_raises_although_lapack_factors():
    m = np.diag([1.0, 1e-7])  # left Gram diag(1, 1e-14): pivots 1 and 1e-14 < 1e-12 * trace
    np.linalg.cholesky(m.T @ m)  # LAPACK alone accepts it
    with pytest.raises(mc.SingularGram):
        mc.damped_gram_inverse(m, "left", 0.0)
    # damping rescues the same input
    out = mc.damped_gram_inverse(m, "left", 1e-6)
    np.testing.assert_allclose(out, np.diag([1.0 / (1.0 + 1e-6), 1.0 / (1e-14 + 1e-6)]), rtol=1e-12)


def test_nan_gram_raises_instead_of_returning_nan():
    with pytest.raises(mc.SingularGram):
        mc.cholesky_factor(np.full((2, 2), np.nan))
    with pytest.raises(mc.SingularGram):
        mc.damped_gram_inverse(np.array([[np.nan, 1.0], [0.0, 1.0]]), "left", 1e-6)


def test_cholesky_factor_is_lower_and_reconstructs_gram():
    m = mc.RandomStream(12).normal(9, 4)
    gram = m.T @ m
    lo = mc.cholesky_factor(gram)
    assert np.all(np.triu(lo, 1) == 0.0)
    assert np.all(np.diag(lo) > 0.0)
    assert mc.rel_error(lo @ lo.T, gram) < 1e-14


def test_projector_unit_direction():
    p = mc.projector(np.array([[1.0], [1.0]]), "column")
    np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)


def test_projector_axis_aligned_row_space():
    p = mc.projector(np.array([[1.0, 0.0]]), "row")
    np.testing.assert_allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("column", [0, 1])
def test_projector_of_a_factor_with_a_zero_column_raises_in_both_spaces(column):
    b = mc.RandomStream(9).normal(6, 2)
    b[:, column] = 0.0
    with pytest.raises(mc.SingularGram, match="column space"):
        mc.projector(b, "column")
    with pytest.raises(mc.SingularGram, match="row space"):
        mc.projector(b.T, "row")


def test_cholesky_and_projector_share_one_pivot_verdict():
    m = mc.RandomStream(21).normal(8, 3)
    m[:, 2] = 2.0 * m[:, 0]  # short of rank at lam = 0: column 2 is a multiple of column 0
    stack = mc.RandomStream(22).normal_stack(3, 8, 3)
    stack[1] = m
    for got, where in ((m, ""), (stack, "slice 1: ")):
        with pytest.raises(mc.SingularGram, match=f"^{where}"):
            mc.damped_gram_inverse(got, "left", 0.0)
        with pytest.raises(mc.SingularGram, match=rf"^{where}column space: pivot \S+ below threshold \S+ at column 2$"):
            mc.projector(got, "column")
    # a wide factor's R has no pivot past its rows: the first missing one fails
    with pytest.raises(mc.SingularGram, match=r"^column space: pivot 0\.000e\+00 below threshold \S+ at column 2$"):
        mc.projector(mc.RandomStream(23).normal(2, 3), "column")


def test_projector_idempotent_and_rank_trace():
    b = mc.RandomStream(8).normal(8, 2)
    p = mc.projector(b, "column")
    assert mc.rel_error(p @ p, p) < 1e-10
    assert abs(np.trace(p) - 2.0) < 1e-8
    assert mc.rel_error(p @ b, b) < 1e-9
    np.testing.assert_allclose(p, p.T, atol=1e-12)


def test_gauge_sample_rank_one_is_sign():
    for seed in (0, 1, 2, 3):
        g = mc.gauge_sample(1, 1.0, seed)
        assert abs(abs(g[0, 0]) - 1.0) < 1e-12


def test_gauge_sample_condition_bound_via_jacobi_oracle():
    g = mc.gauge_sample(3, 4.0, 7)
    sing = mc.jacobi_svd(g)[1]
    assert sing[-1] > 0.0
    assert sing[0] / sing[-1] <= 4.0 + 1e-9


def test_gauge_sample_deterministic():
    a = mc.gauge_sample(5, 10.0, 99)
    b = mc.gauge_sample(5, 10.0, 99)
    assert np.array_equal(a, b)


def test_gauge_sample_always_invertible():
    stream = mc.RandomStream(0)
    for i in range(25):
        r = 1 + int(stream.uniform() * 8)
        cond = 1.0 + float(stream.uniform()) * 99.0
        sing = mc.jacobi_svd(mc.gauge_sample(r, cond, 1000 + i))[1]
        assert sing[-1] > 0.0


@pytest.mark.parametrize("cond_max", [0.5, -math.inf, math.nan, math.inf])
def test_gauge_sample_rejects_a_bound_that_is_not_finite_and_at_least_one(cond_max):
    # NaN would slip past a plain cond_max < 1 test and return a NaN matrix
    with pytest.raises(ValueError, match="^cond_max must be finite and >= 1"):
        mc.gauge_sample(3, cond_max, 7)


def test_jacobi_svd_against_lapack():
    stream = mc.RandomStream(3)
    for shape in ((6, 4), (4, 6), (5, 5), (12, 3)):
        a = stream.normal(*shape)
        u, s, vt = mc.jacobi_svd(a)
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(vt.shape[0]), atol=1e-12)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-12)


def test_orthonormal_columns():
    q = mc.orthonormal_columns(20, 5, mc.RandomStream(4))
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)
    with pytest.raises(mc.ShapeMismatch):
        mc.orthonormal_columns(3, 5, mc.RandomStream(4))


@pytest.mark.parametrize("r", range(1, 9))
def test_square_orthonormal_columns_is_the_unique_qr_factor(r):
    # Q with R's diagonal positive is unique, so MGS and LAPACK's QR must agree
    # on the same Gaussian draw; gauge_sample relies on this.
    got = mc.orthonormal_columns(r, r, mc.RandomStream(40 + r))
    q, upper = np.linalg.qr(mc.RandomStream(40 + r).normal(r, r))
    np.testing.assert_allclose(got, q * np.sign(np.diag(upper)), rtol=0, atol=1e-12)


def test_random_stream_deterministic_and_gaussian():
    a = mc.RandomStream(17).normal(100, 7)
    b = mc.RandomStream(17).normal(100, 7)
    assert np.array_equal(a, b)
    big = mc.RandomStream(17).normal(200000)
    assert abs(float(np.mean(big))) < 0.02
    assert abs(float(np.std(big)) - 1.0) < 0.02


def _gram_inputs(side, stream):
    # (rows, cols) of m with r = cols (left) or rows (right), r = k included;
    # each drawn both as a stored array and as a transposed view
    for k, r in ((32, 4), (128, 4), (24, 6), (6, 6), (1, 1), (9, 1), (64, 16)):
        rows, cols = (k, r) if side == "left" else (r, k)
        yield stream.normal(rows, cols)
        yield stream.normal(cols, rows).T


@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.3])
@pytest.mark.parametrize("side", ["left", "right"])
def test_damped_inverse_is_bitwise_the_reference_formula_and_exactly_symmetric(side, lam):
    stream = mc.RandomStream(31)
    inputs = list(_gram_inputs(side, stream))
    if lam > 0.0:
        inputs.append(np.zeros((5, 3)) if side == "left" else np.zeros((3, 5)))
    for m in inputs:
        got = mc.damped_gram_inverse(m, side, lam)
        assert np.array_equal(got, ref.damped_gram_inverse(m, side, lam)), (m.shape, m.flags.f_contiguous)
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize(
    "gram",
    [
        np.zeros((3, 3)),  # LAPACK rejects it
        np.diag([1.0, 1e-14]),  # LAPACK factors it; the pivot threshold rejects column 1
        np.diag([1.0, 1.0, 1e-15, 1e-14]),  # first of two small pivots: column 2
        np.diag([1e-30, 1.0]),  # column 0
        np.full((2, 2), np.nan),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
    ],
)
def test_cholesky_verdict_and_message_match_the_reference(gram):
    with pytest.raises(mc.SingularGram) as want:
        ref.cholesky_factor(gram)
    with pytest.raises(mc.SingularGram) as got:
        mc.cholesky_factor(gram)
    assert str(got.value) == str(want.value)


def test_frobenius_is_bitwise_the_reference_formula():
    stream = mc.RandomStream(32)
    wide = stream.normal(4, 32)
    cases = [
        wide,
        wide.T,
        stream.normal(33, 7).T,
        stream.normal(33, 7),  # here and at 1024 x 16 a BLAS dot product sums in another order
        stream.normal(1024, 16),
        stream.normal(300, 700),  # past one chunk of sum_of_squares
        stream.normal(1000),
        stream.normal(3, 4, 5),
        np.arange(12).reshape(3, 4),
        np.arange(-6, 6, dtype=np.int32).reshape(4, 3).T,
        [[1.0, 2.0], [3.0, 4.5]],
        [3, -4],
        np.zeros((2, 2)),
        np.array([[np.nan, 1.0]]),
        2.5,
    ]
    for m in cases:
        got = mc.frobenius(m)
        if np.ndim(m) > 2:  # a stack: each trailing 2-D slice's value
            assert got.tobytes() == np.array([ref.frobenius(one) for one in m]).tobytes()
            continue
        want = ref.frobenius(m)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want)), m


@pytest.mark.parametrize("lead", [(6,), (2, 3)], ids=["S", "GxS"])
def test_norms_of_a_stack_are_each_slice_alone(lead):
    stream = mc.RandomStream(35)
    want = stream.normal(*lead, 4, 5)
    got = want + 1e-3 * stream.normal(*lead, 4, 5)
    flat_got, flat_want = got.reshape(6, 4, 5), want.reshape(6, 4, 5)  # views: slice i of the flattened lead
    flat_got[1] = flat_want[1] = 0.0  # both zero: 0
    flat_want[2] = 0.0  # only the difference is nonzero: inf
    flat_got[3, 2, 1] = np.nan  # a NaN slice: NaN
    errs, norms = mc.rel_error(got, want), mc.frobenius(got)
    assert errs.shape == norms.shape == lead and errs.dtype == norms.dtype == np.float64
    errs, norms = errs.reshape(6), norms.reshape(6)
    assert errs[1] == 0.0 and errs[2] == math.inf and np.isnan(errs[3])
    for i in range(6):
        one_err, one_norm = mc.rel_error(flat_got[i], flat_want[i]), mc.frobenius(flat_got[i])
        assert type(one_err) is float and type(one_norm) is float
        if i == 3:
            assert np.isnan(one_err) and np.isnan(one_norm) and np.isnan(norms[i])
            continue
        assert errs[i].tobytes() == np.float64(one_err).tobytes(), i
        assert norms[i].tobytes() == np.float64(one_norm).tobytes(), i


CHUNK = mc.SQUARE_CHUNK
# Shapes at which sum_of_squares must keep np.add.reduce(np.square(a))'s bits:
# the pass's residuals at desk and wide scale, sizes one short of, at and
# past a chunk, primes, and sizes that are not a multiple of 8.
_SQUARED = [
    (32, 128), (1024, 4096), (1000, 4000), (1023, 4093), (128, 128), (16, 48), (7, 13),
    (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (2 * CHUNK + 3,), (1, 999_983), (263, 257),
]


def _squared_cases(shape):
    """Gaussian entries at three magnitudes, then with -0.0, inf and NaN spread over every chunk."""
    base = mc.RandomStream(33).normal(*shape)
    for scale in (1e-5, 1.0, 1e4):
        yield base * scale
    for special in ([-0.0], [np.inf], [np.nan], [np.inf, np.nan, -0.0]):
        case = base.copy()
        for i, value in enumerate(special):
            case.reshape(-1)[(2 * i + 1) * base.size // 7 :: 997] = value
        yield case
    yield -np.zeros(shape)


@pytest.mark.parametrize("shape", _SQUARED, ids=lambda shape: "x".join(map(str, shape)))
def test_sum_of_squares_is_bitwise_numpys_pairwise_sum(shape):
    for case in _squared_cases(shape):
        want = np.add.reduce(np.square(case), axis=None)
        got = mc.sum_of_squares(case)
        assert type(got) is np.float64 and got.tobytes() == want.tobytes(), (shape, want, got)


def test_sum_of_squares_makes_no_array_of_the_inputs_size():
    a = mc.RandomStream(34).normal(512, 1024)
    tracemalloc.start()
    try:
        mc.sum_of_squares(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK * 8 + 4096  # the chunk buffer and scalars; np.square(a) would take a.nbytes


@pytest.mark.parametrize("seed", [0, 1, 1789])
def test_random_stream_is_bitwise_the_two_draw_reference(seed):
    # u1 and u2 are the two halves of one draw of 2 ceil(n/2) doubles, the
    # same stream order as two draws of ceil(n/2) each. The shapes past 2
    # chunks of pairs end a chunk short of, on, and past a chunk boundary; a
    # wrong uniform count shows in the next uniforms, an unfilled slot in the
    # draw.
    got, want = mc.RandomStream(seed), ref.RandomStream(seed)
    pairs = mc.NORMAL_CHUNK
    chunked = [(2 * pairs - 1,), (2 * pairs,), (2 * pairs + 1,), (4 * pairs + 3,), (97, 388), (1023, 4093)]
    for shape in [(), (1,), (3,), (4, 32), (5, 7), (2, 3, 5), (0,), (), (128,), (17, 3), *chunked]:
        a, b = got.normal(*shape), want.normal(*shape)
        assert type(a) is type(b)
        assert np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), shape
        assert type(a) is float or a.base is None, shape  # owns its memory, at an even and an odd count
        assert got.uniform() == want.uniform()
        assert np.array_equal(got.uniform(3), want.uniform(3))
    assert type(mc.RandomStream(seed).normal()) is float


def test_normal_holds_only_its_draw_and_its_output():
    # The uniforms are drawn into the output, and Box-Muller turns them into
    # cos and sin there, a chunk of pairs at a time; a separate uniform draw
    # would add a temporary the size of the output.
    count = 1024 * 1024
    stream = mc.RandomStream(36)
    tracemalloc.start()
    try:
        stream.normal(1024, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (count + mc.NORMAL_CHUNK) * 8 + 4096  # z and the chunk's cos buffer
    got, want = mc.RandomStream(37).normal(1023, 5), ref.RandomStream(37).normal(1023, 5)
    assert got.tobytes() == want.tobytes()  # an odd count: z's last entry is dropped


# Shapes of the stacked draw: a probe, an odd count, one and three entries,
# and one draw whose pairs cross NORMAL_CHUNK; 300 blocks of the small shapes
# cross it too, a chunk of whole blocks at a time.
_STACKED_DRAWS = [(300, (4, 32)), (300, (5, 7)), (300, (1,)), (300, (3,)), (3, (2 * mc.NORMAL_CHUNK + 3,))]


@pytest.mark.parametrize("n, shape", _STACKED_DRAWS, ids=[f"{n}x{shape}" for n, shape in _STACKED_DRAWS])
def test_normal_stack_is_bitwise_consecutive_normal_draws(n, shape):
    got, want = mc.RandomStream(38), mc.RandomStream(38)
    stack = got.normal_stack(n, *shape)
    draws = np.stack([want.normal(*shape) for _ in range(n)])
    assert stack.shape == (n, *shape) and stack.tobytes() == draws.tobytes()
    assert stack.base is None  # owns its memory, at an even and an odd count
    assert got.uniform() == want.uniform()


@pytest.mark.parametrize("shape", [(64, 64), (5, 7)])
def test_normal_stack_holds_what_normal_holds_per_draw(shape):
    # As test_normal_holds_only_its_draw_and_its_output: the draw, one chunk's
    # cos buffer, and at an odd count the copy of the output.
    n, count = 256, math.prod(shape)
    drawn = n * 2 * ((count + 1) // 2)
    stream = mc.RandomStream(39)
    tracemalloc.start()
    try:
        stream.normal_stack(n, *shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copy = 0 if drawn == n * count else n * count
    assert peak <= (drawn + copy + mc.NORMAL_CHUNK) * 8 + 4096


def test_matrix_text_round_trip_is_exact():
    stream = mc.RandomStream(21)
    for _ in range(5):
        m = stream.normal(4, 7) * 10.0 ** int(stream.uniform() * 8 - 4)
        again = parse_matrix(format_matrix(m))
        assert np.array_equal(m, again)


def test_matrix_text_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n3\n")
    with pytest.raises(ValueError):
        parse_matrix("1 nan\n2 3\n")


def test_save_load_matrix(tmp_path):
    m = mc.RandomStream(5).normal(3, 3)
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        mc.as_matrix([[1.0, np.inf]])
    with pytest.raises(mc.ShapeMismatch):
        mc.as_matrix([1.0, 2.0])
