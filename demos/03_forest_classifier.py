"""Train the from-scratch random forest on oracle-labeled synthetic fruit.

Builds a labeled benchmark, fits the forest, reports the headline metrics
including the fraction of IK calls the classifier would eliminate, and
shows that retraining with the same seed reproduces the model exactly.
"""

import numpy as np

from reach_al.config import default_config
from reach_al.dataset import SceneConfig, generate_scene, label_with_oracle
from reach_al.features import features_matrix, labels_array
from reach_al.forest import TrainConfig, fit_arrays, predict_proba_matrix
from reach_al.metrics import evaluate

cfg = default_config()

print("generating and labeling a synthetic benchmark ...")
detections = generate_scene(SceneConfig(n_images=150, seed=2), cfg.cam)
result = label_with_oracle(detections, cfg.cam, cfg.ext, cfg.arm)
X = features_matrix(result.samples)
y = labels_array(result.samples)
print(f"  {len(y)} samples, {y.mean():.0%} reachable")

rng = np.random.default_rng(0)
order = rng.permutation(len(y))
n_test = len(y) // 5
test_idx, train_idx = order[:n_test], order[n_test:]

model = fit_arrays(X[train_idx], y[train_idx], TrainConfig(seed=0))
scores = predict_proba_matrix(model, X[test_idx])[:, 1]
m = evaluate(scores, y[test_idx])

print(f"trained {model.config.n_trees} trees on {len(train_idx)} samples")
print(f"  accuracy  {m.accuracy:.4f}")
print(f"  precision {m.precision:.4f}")
print(f"  recall    {m.recall:.4f}")
print(f"  f1        {m.f1:.4f}")
print(f"  auc       {m.auc:.4f}")
print(f"  IK calls filtered: {m.ik_reduction:.1%} of test candidates")

retrained = fit_arrays(X[train_idx], y[train_idx], TrainConfig(seed=0))
same = np.array_equal(
    predict_proba_matrix(retrained, X[test_idx]), predict_proba_matrix(model, X[test_idx])
)
print(f"retrained model reproduces probabilities exactly: {same}")
