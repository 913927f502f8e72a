import numpy as np
import pytest

from finegrid import (
    FeatureSpace,
    ParseError,
    PcaModel,
    PointTable,
    UsageError,
    pca_fit,
    pca_transform,
    read_pca_sidecar,
    write_pca_sidecar,
)


def make_table(covs):
    n = covs.shape[0]
    return PointTable(np.linspace(0, 1, n), np.linspace(40, 41, n),
                      np.full(n, np.nan), covs)


def standardize(covs):
    """Covariates standardized by the feature space PCA fits on them."""
    table = make_table(covs)
    return FeatureSpace.fit("covariates", table).features(table)


class TestStandardize:
    def test_two_point_example(self):
        table = make_table(np.array([[0.0], [2.0]]))
        stats = FeatureSpace.fit("covariates", table)
        assert stats.means[0] == 1.0
        assert stats.stdevs[0] == 1.0  # population std of {0, 2}
        out = stats.features(table)
        np.testing.assert_array_equal(out[:, 0], [-1.0, 1.0])

    def test_output_moments(self, rng):
        z = standardize(rng.normal(3.0, 2.5, (200, 4)))
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_idempotent_on_standardized_data(self, rng):
        z = standardize(rng.normal(0, 1, (100, 3)))
        np.testing.assert_allclose(standardize(z), z, atol=1e-12)

    def test_constant_column_zeroed(self):
        table = make_table(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        stats = FeatureSpace.fit("covariates", table)
        assert stats.stdevs[1] == 1.0
        np.testing.assert_array_equal(stats.features(table)[:, 1], 0.0)

    def test_empty_rows_rejected(self):
        with pytest.raises(UsageError):
            FeatureSpace.fit("covariates", make_table(np.zeros((0, 2))))


class TestPcaFit:
    def test_invariants_on_random_tables(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 200))
            p = int(rng.integers(2, 8))
            table = make_table(rng.normal(0, 1, (n, p)) @ rng.normal(0, 1, (p, p)))
            model = pca_fit(table)
            assert model.eigenvalues.shape == (p,)
            assert np.all(np.diff(model.eigenvalues) <= 1e-12)
            assert np.all(model.eigenvalues >= -1e-10)
            assert float(np.sum(model.eigenvalues)) == pytest.approx(p, abs=1e-8)
            assert 1 <= model.retained <= p
            assert model.components.shape == (model.retained, p)
            # rows of the loading matrix are orthonormal
            gram = model.components @ model.components.T
            np.testing.assert_allclose(gram, np.eye(model.retained), atol=1e-8)

    def test_two_identical_columns(self, rng):
        base = rng.normal(0, 1, 300)
        model = pca_fit(make_table(np.column_stack([base, base])))
        np.testing.assert_allclose(model.eigenvalues, [2.0, 0.0], atol=1e-10)
        assert model.retained == 1

    def test_independent_columns_retain_near_half(self, rng):
        # iid columns: correlation matrix ~ identity, eigenvalues near 1
        x = rng.normal(0, 1, (10000, 6))
        model = pca_fit(make_table(x))
        np.testing.assert_allclose(model.eigenvalues, 1.0, atol=0.2)
        assert float(np.sum(model.eigenvalues)) == pytest.approx(6.0, abs=1e-8)

    def test_score_variances_match_eigenvalues(self, rng):
        covs = rng.normal(0, 1, (500, 4)) @ rng.normal(0, 1, (4, 4))
        table = make_table(covs)
        model = pca_fit(table)
        scores = pca_transform(model, table)
        var = scores.covariates.var(axis=0)
        np.testing.assert_allclose(var, model.eigenvalues[: model.retained],
                                   atol=1e-8)

    def test_matches_numpy_eigh_oracle(self, rng):
        covs = rng.normal(0, 1, (200, 5)) @ rng.normal(0, 1, (5, 5))
        model = pca_fit(make_table(covs))
        z = standardize(covs)
        corr = (z.T @ z) / z.shape[0]
        expected = np.linalg.eigvalsh(corr)[::-1]
        np.testing.assert_allclose(model.eigenvalues, expected, atol=1e-8)

    def test_matches_jacobi_reference_values(self, rng):
        # the inputs of test_matches_numpy_eigh_oracle; the values a cyclic
        # Jacobi eigensolver gave on them, sign convention included
        covs = rng.normal(0, 1, (200, 5)) @ rng.normal(0, 1, (5, 5))
        model = pca_fit(make_table(covs))
        eigenvalues = [2.596349271988061, 1.3499553462650165, 0.8587633791798523,
                       0.19446947564803482, 0.00046252691903002097]
        components = [
            [0.563286038892753, 0.284704380638113, -0.533590302310693,
             -0.5209682567637142, 0.21336756726020945],
            [0.24110097014846837, -0.42614975544216427, -0.026005062805344936,
             0.37638163966696386, 0.7860835236539101],
        ]
        np.testing.assert_allclose(model.eigenvalues, eigenvalues, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-9)

    def test_sign_ties_go_to_the_first_entry(self, rng):
        # a 2-column correlation matrix has eigenvectors +-(1, +-1)/sqrt(2),
        # whose two magnitudes differ only by rounding
        for _ in range(500):
            covs = rng.normal(0, 1, (50, 2)) @ rng.normal(0, 1, (2, 2))
            model = pca_fit(make_table(covs))
            assert (model.components[:, 0] > 0).all()

    def test_sign_convention(self, rng):
        covs = rng.normal(0, 1, (100, 3)) @ rng.normal(0, 1, (3, 3))
        model = pca_fit(make_table(covs))
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_single_covariate(self, rng):
        model = pca_fit(make_table(rng.normal(0, 1, (50, 1))))
        assert model.retained == 1
        np.testing.assert_allclose(model.eigenvalues, [1.0], atol=1e-12)

    def test_no_covariates_rejected(self, rng):
        with pytest.raises(UsageError):
            pca_fit(make_table(np.zeros((10, 0))))


class TestPcaTransform:
    def test_mean_record_maps_to_zero(self, rng):
        covs = rng.normal(2.0, 3.0, (80, 4))
        model = pca_fit(make_table(covs))
        mean_table = make_table(covs.mean(axis=0, keepdims=True))
        scores = pca_transform(model, mean_table)
        np.testing.assert_allclose(scores.covariates, 0.0, atol=1e-10)

    def test_names_and_geometry_preserved(self, rng):
        table = make_table(rng.normal(0, 1, (30, 5)))
        model = pca_fit(table)
        out = pca_transform(model, table)
        np.testing.assert_array_equal(out.lon, table.lon)
        np.testing.assert_array_equal(out.lat, table.lat)
        np.testing.assert_array_equal(out.target, table.target)

    def test_full_rank_preserves_distances(self, rng):
        # retained == p: scores are a rotation of standardized data
        base = rng.normal(0, 1, (60, 3))
        covs = base + 0.01 * rng.normal(0, 1, (60, 3))
        table = make_table(covs)
        model = pca_fit(table)
        if model.retained < 3:
            model = PcaModel(model.stats, _full_components(table, model),
                             model.eigenvalues, 3)
        scores = pca_transform(model, table).covariates
        z = model.stats.features(table)
        d_scores = np.linalg.norm(scores[:1] - scores, axis=1)
        d_z = np.linalg.norm(z[:1] - z, axis=1)
        np.testing.assert_allclose(d_scores, d_z, atol=1e-8)

    def test_record_order_invariance(self, rng):
        covs = rng.normal(0, 1, (40, 4))
        model = pca_fit(make_table(covs))
        perm = rng.permutation(40)
        direct = pca_transform(model, make_table(covs)).covariates
        shuffled = pca_transform(model, make_table(covs[perm])).covariates
        np.testing.assert_allclose(shuffled, direct[perm], atol=1e-12)

    def test_scores_independent_of_the_table_bitwise(self, rng):
        # two correlated pairs keep two components; a record's scores must
        # not move with the other records of its table, alone or in a few
        a, b = rng.normal(0, 1, (2, 500))
        covs = np.column_stack([a, a + 0.3 * rng.normal(0, 1, 500),
                                b, b - 0.3 * rng.normal(0, 1, 500)])
        table = make_table(covs)
        model = pca_fit(table)
        assert model.retained == 2
        full = pca_transform(model, table).covariates
        for i in range(len(table)):
            assert pca_transform(model, table.subset([i])).covariates.tobytes() == \
                full[i].tobytes()
        few = rng.choice(len(table), 7, replace=False)
        assert pca_transform(model, table.subset(few)).covariates.tobytes() == \
            full[few].tobytes()

    def test_affine_invariance_of_scores(self, rng):
        # per-column shift and positive scale leaves correlation (and scores)
        # unchanged
        covs = rng.normal(0, 1, (120, 3)) @ rng.normal(0, 1, (3, 3))
        scaled = covs * np.array([2.0, 0.5, 7.0]) + np.array([10.0, -3.0, 0.2])
        m1 = pca_fit(make_table(covs))
        m2 = pca_fit(make_table(scaled))
        np.testing.assert_allclose(m1.eigenvalues, m2.eigenvalues, atol=1e-8)
        s1 = pca_transform(m1, make_table(covs)).covariates
        s2 = pca_transform(m2, make_table(scaled)).covariates
        np.testing.assert_allclose(s1, s2, atol=1e-8)

    def test_column_count_mismatch_rejected(self, rng):
        model = pca_fit(make_table(rng.normal(0, 1, (30, 3))))
        with pytest.raises(UsageError):
            pca_transform(model, make_table(rng.normal(0, 1, (5, 2))))


def _full_components(table, model):
    z = model.stats.features(table)
    corr = (z.T @ z) / z.shape[0]
    vals, vecs = np.linalg.eigh(corr)
    vecs = vecs[:, ::-1].T
    for i, row in enumerate(vecs):
        if row[np.argmax(np.abs(row))] < 0:
            vecs[i] = -row
    return vecs


class TestSidecar:
    def test_round_trip(self, rng, tmp_path):
        covs = rng.normal(0, 1, (90, 5)) @ rng.normal(0, 1, (5, 5))
        table = make_table(covs)
        model = pca_fit(table)
        path = tmp_path / "pca_model.csv"
        write_pca_sidecar(model, path)
        back = read_pca_sidecar(path)
        assert back.retained == model.retained
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        np.testing.assert_array_equal(back.components, model.components)
        np.testing.assert_array_equal(back.stats.means, model.stats.means)
        np.testing.assert_array_equal(back.stats.stdevs, model.stats.stdevs)

    def test_round_trip_transform_identical(self, rng, tmp_path):
        covs = rng.normal(0, 1, (40, 3))
        table = make_table(covs)
        model = pca_fit(table)
        path = tmp_path / "m.csv"
        write_pca_sidecar(model, path)
        back = read_pca_sidecar(path)
        a = pca_transform(model, table).covariates
        b = pca_transform(back, table).covariates
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("row, value", [
        ("retained", ""), ("retained", "1.5"), ("retained", "0"), ("retained", "1,1"),
        ("stdevs", "1.0,0.0"), ("stdevs", "1.0,inf"), ("stdevs", "1.0"), ("means", "nan,0.0"),
        ("means", "0.0,0.0,0.0"), ("eigenvalues", "1.0"),
        # non-finite numbers the writer never produces, which would give NaN scores
        ("eigenvalues", "nan,1.0"), ("eigenvalues", "1.5,-inf"),
        ("component1", "nan,0.5"), ("component1", "0.5,inf"),
    ], ids=["retained-empty", "retained-fraction", "retained-zero", "retained-two",
            "stdev-zero", "stdev-inf", "stdevs-short", "means-nan", "means-long",
            "eigenvalues-short", "eigenvalue-nan", "eigenvalue-inf", "component-nan",
            "component-inf"])
    def test_malformed_row_rejected(self, rng, tmp_path, row, value):
        model = pca_fit(make_table(rng.normal(0, 1, (40, 2))))
        path = tmp_path / "m.csv"
        write_pca_sidecar(model, path)
        lines = [f"{row},{value}" if line.split(",")[0] == row else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_pca_sidecar(path)
