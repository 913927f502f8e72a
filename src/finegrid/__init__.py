"""Spatial inference engine: downscaling and gap-filling of coarse gridded
observation fields with kNN, local polynomial (HYPPO), and random forest
regression, region masking, PCA covariate reduction, and residual analysis.
"""

from .analysis import (
    ResidualReport,
    aggregate_fine_to_coarse,
    format_metrics,
    pearson_r2,
    residual_report,
    scatter_export,
)
from .covariates import (
    PcaModel,
    pca_fit,
    pca_transform,
    read_pca_sidecar,
    write_pca_sidecar,
)
from .errors import EngineError, ParseError, UsageError
from .grid import (
    Grid,
    PointTable,
    grid_centroids,
    grid_to_points,
    monthly_mean,
    read_ascii_grid,
    sample_covariates,
    write_ascii_grid,
)
from .models.features import FeatureSpace, neighbor_search
from .models.forest import (
    Forest,
    RfConfig,
    Tree,
    default_mtry_grid,
    read_forest,
    rf_fit,
    rf_predict,
    serialize_forest,
    tune_mtry,
    write_forest,
)
from .models.hyppo import (
    HyppoConfig,
    fit_polynomial,
    hyppo_predict,
    hyppo_predict_with_degrees,
    hyppo_select_degree,
)
from .models.knn import KnnConfig, knn_predict
from .pipeline import PipelineConfig, RunResult, load_config, run_pipeline, validate_config
from .region import (
    Region,
    boundary_distance_km,
    clip_points,
    contains,
    read_region,
    within_buffer,
    write_region,
)
from .render import read_ppm, render_heatmap
from .synth import Scenario, SynthEval, holdout_eval, make_scenario

__version__ = "0.1.0"
