"""Pool-based active learning for segmentation at desk scale.

The package trains a small segmentation network together with an accuracy
predictor that estimates per-class DSC on unlabeled images; queries combine
the predicted-accuracy weights with feature clustering (weighted polling)
and fire only after validation performance stalls. Baseline uncertainty and
diversity strategies share the same harness for comparison.
"""

__version__ = "0.1.0"
