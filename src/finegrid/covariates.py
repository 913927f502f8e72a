"""Covariate preparation: standardization and correlation-matrix PCA.

PCA is fit on standardized covariates (zero mean, unit population variance),
so the retained-component rule "eigenvalue at least one" carries its usual
meaning. The symmetric correlation matrix is decomposed by
``np.linalg.eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError
from .grid import PointTable

# entries within this relative distance of a vector's largest magnitude count
# as tied for fixing its sign, so rounding cannot flip a component
SIGN_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column means and population standard deviations of the covariates.

    Columns with zero variance get stdev 1 (the standardized column is then
    identically zero) and are listed in ``constant_columns``.
    """

    means: np.ndarray
    stdevs: np.ndarray
    constant_columns: tuple = ()

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stdevs = np.asarray(self.stdevs, dtype=float)
        if means.shape != stdevs.shape or means.ndim != 1:
            raise UsageError("means and stdevs must be 1-D arrays of equal length")
        if not (stdevs > 0).all():
            raise UsageError("stdevs must all be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stdevs", stdevs)
        object.__setattr__(self, "constant_columns", tuple(self.constant_columns))

    @property
    def p(self) -> int:
        return len(self.means)

    def apply(self, covariates: np.ndarray) -> np.ndarray:
        covariates = np.asarray(covariates, dtype=float)
        if covariates.shape[1] != self.p:
            raise UsageError(
                f"covariate width {covariates.shape[1]} does not match fitted width {self.p}"
            )
        return (covariates - self.means) / self.stdevs


@dataclass(frozen=True)
class PcaModel:
    """Correlation-matrix PCA: standardization stats, eigenpairs, retained count.

    ``components`` holds the retained eigenvectors as rows (q x p);
    ``eigenvalues`` holds all p eigenvalues in descending order.
    """

    stats: StandardizationStats
    components: np.ndarray
    eigenvalues: np.ndarray
    retained: int

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        eigs = np.asarray(self.eigenvalues, dtype=float)
        if comps.shape != (self.retained, self.stats.p):
            raise UsageError("components must be a retained x p matrix")
        if len(eigs) != self.stats.p:
            raise UsageError("need one eigenvalue per covariate column")
        if not 1 <= self.retained <= self.stats.p:
            raise UsageError("retained must lie in [1, p]")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def p(self) -> int:
        return self.stats.p


def standardize_fit(table: PointTable) -> StandardizationStats:
    """Per-column mean and population standard deviation of the covariates."""
    if table.p == 0:
        raise UsageError("standardize_fit needs at least one covariate column")
    if len(table) < 2:
        raise UsageError("standardize_fit needs at least 2 records")
    means = table.covariates.mean(axis=0)
    stdevs = table.covariates.std(axis=0)
    constant = tuple(int(j) for j in np.nonzero(stdevs == 0)[0])
    if constant:
        stdevs = stdevs.copy()
        stdevs[list(constant)] = 1.0
    return StandardizationStats(means, stdevs, constant)


def pca_fit(table: PointTable) -> PcaModel:
    """Fit correlation-matrix PCA; retain components with eigenvalue >= 1.

    At least one component is always retained. Eigenvector signs are fixed by
    making each vector's leading entry positive: the first entry whose
    magnitude is within ``SIGN_TIE_RTOL`` of the largest. A p = 2 correlation
    matrix has eigenvectors proportional to (1, +-1), whose magnitudes differ
    only by rounding, so a plain argmax would let rounding pick the sign.
    """
    p = table.p
    if p == 0:
        raise UsageError("pca_fit needs at least one covariate column")
    if len(table) < p + 1:
        raise UsageError(f"pca_fit needs at least p + 1 = {p + 1} records, got {len(table)}")
    stats = standardize_fit(table)
    z = stats.apply(table.covariates)
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
    if table.p != model.p:
        raise UsageError(f"covariate width {table.p} does not match model width {model.p}")
    scores = model.stats.apply(table.covariates) @ model.components.T
    names = tuple(f"pc{i + 1}" for i in range(model.retained))
    return PointTable(table.lon, table.lat, table.target, scores, names)


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
    """Read a sidecar written by :func:`write_pca_sidecar`."""
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
    retained = int(rows["retained"][0])
    if len(components) != retained:
        raise ParseError(f"expected {retained} component rows, found {len(components)}", path=path)
    stats = StandardizationStats(np.array(rows["means"]), np.array(rows["stdevs"]))
    return PcaModel(stats, np.array(components), np.array(rows["eigenvalues"]), retained)
