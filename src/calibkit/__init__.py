"""calibkit: post-hoc uncertainty calibration with accuracy-preserving scaling
calibrators (TS, ETS, and a neural-network parameterized temperature), the
standard binning baselines, calibration metrics, and synthetic oracles."""

from .core import Dataset, Predictions, softmax, sorted_topk_matrix
from .metrics import (
    BinStats,
    accuracy,
    ece,
    ece_equal_mass,
    ece_kde,
    nll,
    reliability_data,
)
from .scaling import (
    EtsModel,
    PtsModel,
    PtsTrainConfig,
    TsModel,
    apply_pts,
    apply_temperature,
    fit_ets,
    fit_pts,
    fit_ts,
)
from .binning import (
    HistBinModel,
    IrmModel,
    IrovaModel,
    IrovaTsModel,
    PbmcModel,
    StepFunction,
    fit_hist_binning,
    fit_irm,
    fit_irova,
    fit_irova_ts,
    fit_pbmc,
    pav,
)
from .synth import SynthConfig, generate, split
from .io_files import load_model, read_logits, save_model, write_logits
from .errors import DataFormatError, NumericalError

__version__ = "0.1.0"
