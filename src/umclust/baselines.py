"""Training-free baselines that a trained model has to beat on the same data.

`structure_matched_kmeans` clusters every view's raw features on its own
and takes each sample's common label from `match_views`, the
cluster-structure matching the trainer applies to latents, applied here
to raw features. Matching centroid-distance matrices across raw feature
spaces only makes sense when the views see the classes with similar
relative geometry (for instance views that are rotations, scalings or
shifts of one another); for views of unrelated modalities it gives no
guarantee, which is what the learned latent space is for.
"""

from __future__ import annotations

import numpy as np

from .cluster import Assignment, kmeans, match_views


def structure_matched_kmeans(
    features: list[np.ndarray], n_clusters: int, seed: int = 0, restarts: int = 10
) -> Assignment:
    """Per-view K-means on raw features, views joined by structure matching.

    Returns the common label of every sample (views in order); the
    inertia is the sum of the per-view inertias.
    """
    labels = []
    inertia = 0.0
    for v, x in enumerate(features):
        view_seed = int(np.random.SeedSequence([int(seed), v]).generate_state(1)[0])
        a_v, _ = kmeans(x, n_clusters, seed=view_seed, restarts=restarts)
        labels.append(a_v.labels)
        inertia += a_v.inertia
    common = match_views(features, {n_clusters: labels}, n_clusters)[n_clusters]
    return Assignment(labels=common, k=n_clusters, inertia=inertia)
