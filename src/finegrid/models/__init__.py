"""The three regressors (knn, HYPPO, random forest) and the feature space they share."""
