"""Trajectory forecasting straight from detections.

Instead of committing to tracked trajectories, the model scores soft
frame-to-frame affinities between detections, folds the matching uncertainty
into a recurrent motion encoding (affinity-aware state update), aggregates
the states of multiple plausible predecessors (multiple state aggregation),
and decodes future waypoints from the final motion state.

Subpackages/modules: ``numerics`` (tape autodiff, layers, Adam),
``world`` (synthetic multi-agent worlds + detector noise), ``detections``,
``affinity``, ``encoder``, ``forecaster``, ``evaluation``.
"""

from .errors import ConfigError
from .model import (ModelConfig, ModelParams, VARIANTS, init_model,
                    load_model, save_model, variant_config)
from .numerics import NumericsError

__version__ = "0.1.0"

__all__ = ["ConfigError", "NumericsError", "ModelConfig", "ModelParams",
           "VARIANTS", "init_model", "load_model", "save_model",
           "variant_config", "__version__"]
