"""Quantization, PTQ and pruning flows used by the AIM software experiments."""

from .observer import MinMaxObserver, PercentileObserver, quantize_activations
from .pruning import PruningConfig, PruningResult, gradual_magnitude_prune, model_sparsity
from .ptq import PTQConfig, PTQResult, ptq_brecq_like, ptq_omniquant_like
from .qat import QATConfig, QATResult, evaluate_task_metric, hr_summary, run_qat, train_qat
from .quantizer import (
    QuantizedLayer,
    dequantize,
    fake_quantize,
    model_scales,
    model_weight_codes,
    quantization_error,
    quantize,
    quantize_model,
    symmetric_scale,
)

__all__ = [
    "symmetric_scale", "quantize", "dequantize", "fake_quantize", "quantization_error",
    "QuantizedLayer", "quantize_model", "model_weight_codes", "model_scales",
    "MinMaxObserver", "PercentileObserver", "quantize_activations",
    "QATConfig", "QATResult", "run_qat", "train_qat", "evaluate_task_metric", "hr_summary",
    "PTQConfig", "PTQResult", "ptq_omniquant_like", "ptq_brecq_like",
    "PruningConfig", "PruningResult", "gradual_magnitude_prune", "model_sparsity",
]
