"""Pool-based active learning for segmentation at desk scale.

The package trains a small segmentation network together with an accuracy
predictor that estimates per-class DSC on unlabeled images; queries combine
the predicted-accuracy weights with feature clustering (weighted polling)
and fire only after validation performance stalls. Baseline uncertainty and
diversity strategies share the same harness for comparison.
"""

from .data import (ClassProfile, ClassSpec, Dataset, default_profile,
                   generate, read_dataset, split_folds, write_dataset)
from .kmeans import ClusterModel, kmeans_fit
from .metrics import (UNCERTAINTY_KINDS, dice_ce_loss, dsc_per_class_batch,
                      mse_loss, pearson_r, uncertainty_scores)
from .models import (ap_forward, build_ap_model, build_seg_model,
                     concat_channels, normalize_images, seg_forward)
from .nn import (adamw_step, cosine_lr, Network, NumericalError, Param,
                 ShapeError)
from .orchestrator import (PoolState, RunReport, TrainConfig, evaluate,
                           init_pool, iq_update, query_step,
                           run_active_learning, train_epoch)
from .strategies import (STRATEGIES, QueryContext, Strategy, cluster_count,
                         coreset_select, query_weights, select,
                         weighted_polling)

__version__ = "0.1.0"
