"""Covariate reduction: correlation-matrix PCA.

PCA is fit on covariates standardized by ``FeatureSpace`` (zero mean, unit
population variance), so the retained-component rule "eigenvalue at least
one" carries its usual meaning. The symmetric correlation matrix is
decomposed by ``np.linalg.eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError
from .grid import PointTable
from .models.features import FeatureSpace

# entries within this relative distance of a vector's largest magnitude count
# as tied for fixing its sign, so rounding cannot flip a component
SIGN_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PcaModel:
    """Correlation-matrix PCA: standardization, eigenpairs, retained count.

    ``stats`` is the :class:`FeatureSpace` of mode ``covariates`` fitted on
    the training table; ``components`` holds the retained eigenvectors as
    rows (q x p); ``eigenvalues`` holds all p eigenvalues in descending order.
    """

    stats: FeatureSpace
    components: np.ndarray
    eigenvalues: np.ndarray
    retained: int

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        eigs = np.asarray(self.eigenvalues, dtype=float)
        if comps.shape != (self.retained, self.p):
            raise UsageError("components must be a retained x p matrix")
        if len(eigs) != self.p:
            raise UsageError("need one eigenvalue per covariate column")
        if not 1 <= self.retained <= self.p:
            raise UsageError("retained must lie in [1, p]")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def p(self) -> int:
        return self.stats.nvars


def pca_fit(table: PointTable) -> PcaModel:
    """Fit correlation-matrix PCA; retain components with eigenvalue >= 1.

    At least one component is always retained. Eigenvector signs are fixed by
    making each vector's leading entry positive: the first entry whose
    magnitude is within ``SIGN_TIE_RTOL`` of the largest. A p = 2 correlation
    matrix has eigenvectors proportional to (1, +-1), whose magnitudes differ
    only by rounding, so a plain argmax would let rounding pick the sign.
    """
    p = table.p
    if len(table) < p + 1:
        raise UsageError(f"pca_fit needs at least p + 1 = {p + 1} records, got {len(table)}")
    stats = FeatureSpace.fit("covariates", table)
    z = stats.features(table)
    corr = (z.T @ z) / len(table)
    eigenvalues, vectors = np.linalg.eigh(corr)
    # eigh returns the eigenvalues in ascending order
    eigenvalues = eigenvalues[::-1]
    vectors = vectors[:, ::-1]
    magnitude = np.abs(vectors)
    lead = np.argmax(magnitude >= (1.0 - SIGN_TIE_RTOL) * magnitude.max(axis=0), axis=0)
    vectors = vectors * np.where(vectors[lead, np.arange(p)] < 0, -1.0, 1.0)
    retained = max(1, int(np.count_nonzero(eigenvalues >= 1.0)))
    return PcaModel(stats, vectors[:, :retained].T.copy(), eigenvalues, retained)


def pca_transform(model: PcaModel, table: PointTable) -> PointTable:
    """Replace covariates with the retained principal-component scores.

    The same fitted model must be applied to the training and prediction
    tables so both live in one feature space.
    """
    scores = model.stats.features(table) @ model.components.T
    return PointTable(table.lon, table.lat, table.target, scores)


def write_pca_sidecar(model: PcaModel, path) -> None:
    """Audit file for a fitted PCA: one labeled CSV row per vector, then the
    retained components as q rows."""
    lines = [
        "means," + ",".join(repr(float(v)) for v in model.stats.means),
        "stdevs," + ",".join(repr(float(v)) for v in model.stats.stdevs),
        "eigenvalues," + ",".join(repr(float(v)) for v in model.eigenvalues),
        f"retained,{model.retained}",
    ]
    for i in range(model.retained):
        lines.append(
            f"component{i + 1}," + ",".join(repr(float(v)) for v in model.components[i])
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_pca_sidecar(path) -> PcaModel:
    """Read a sidecar written by :func:`write_pca_sidecar`; a malformed file
    raises :class:`ParseError`."""
    path = Path(path)
    rows = {}
    components = []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        label, _, rest = line.partition(",")
        try:
            values = [float(v) for v in rest.split(",")] if rest else []
        except ValueError as exc:
            raise ParseError("non-numeric field", path=path, line=i) from exc
        if label.startswith("component"):
            components.append(values)
        else:
            rows[label] = values
    for key in ("means", "stdevs", "eigenvalues", "retained"):
        if key not in rows:
            raise ParseError(f"missing row '{key}'", path=path)
    retained = rows["retained"]
    if len(retained) != 1 or not retained[0].is_integer() or retained[0] < 1:
        raise ParseError("row 'retained' must hold one positive integer", path=path)
    retained = int(retained[0])
    if len(components) != retained:
        raise ParseError(f"expected {retained} component rows, found {len(components)}", path=path)
    means, stdevs = np.array(rows["means"]), np.array(rows["stdevs"])
    if len(stdevs) != len(means) or any(len(row) != len(means) for row in components):
        raise ParseError("rows 'stdevs' and 'component*' need one value per mean", path=path)
    if not (np.isfinite(means).all() and np.isfinite(stdevs).all() and (stdevs > 0).all()):
        raise ParseError("means must be finite and stdevs finite and positive", path=path)
    try:
        return PcaModel(FeatureSpace("covariates", means, stdevs), np.array(components),
                        np.array(rows["eigenvalues"]), retained)
    except UsageError as exc:
        raise ParseError(str(exc), path=path) from exc
