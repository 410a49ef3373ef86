"""Unpaired multi-view clustering with multi-level reliable guidance.

Per-view autoencoders embed disjoint sample sets into a shared-size
latent space; a schedule of coarse-to-fine clustering levels drives
contrastive losses inside each view and against the concatenated
common representation. Every view is guided toward the common view:
its heavy-tailed cluster assignments are pulled, by cross-entropy,
toward the centroid of each sample's common cluster, weighted
(V-1)/V^2. Final assignments come from K-means on the concatenated latents.
"""

__version__ = "0.1.0"
