"""Quantization-aware training (QAT) with optional LHR regularization.

This is the reproduction of the paper's baseline quantizer [64] and of the
"+LHR" rows of Table 2 / Fig. 13.  The implementation uses the classic
shadow-weight / straight-through-estimator recipe:

1. keep full-precision *shadow* weights as the trainable parameters;
2. before every forward pass, fake-quantize the shadow weights in place
   (round-to-nearest on the symmetric grid) and remember the float values;
3. run forward/backward on the quantized weights — with the straight-through
   estimator the gradient w.r.t. the shadow weight equals the gradient w.r.t.
   the quantized weight (zeroed outside the clipping range);
4. restore the shadow weights and let the optimizer update them.

When LHR is enabled the loss gains the ``lambda * sum_i HR_mean(layer_i)^2``
term of Eq. 6, computed on the *shadow* weights with the interpolated hamming
rate of Eq. 5, so gradients push weights toward low-HR codes (Fig. 7-(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.lhr import LHRRegularizer
from ..core.metrics import hamming_rate
from ..models.registry import (
    TASK_CLASSIFICATION,
    TASK_DETECTION,
    TASK_LANGUAGE_MODELING,
    ModelSpec,
)
from ..nn import functional as F
from ..nn.data import Dataset
from ..nn.layers import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..nn.training import (
    evaluate_accuracy,
    evaluate_perplexity,
    evaluate_regression_error,
)
from .quantizer import (
    QuantizedLayer,
    fake_quantize,
    model_scales,
    quantize,
    quantize_model,
    symmetric_scale,
)

__all__ = ["QATConfig", "QATResult", "run_qat", "train_qat", "evaluate_task_metric",
           "hr_summary"]


@dataclass
class QATConfig:
    """Hyper-parameters of a QAT run."""

    bits: int = 8
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-3
    lhr_lambda: float = 0.0          #: 0 disables LHR (the baseline [64] configuration)
    weight_decay: float = 0.0
    grad_clip: Optional[float] = None
    seed: int = 0
    scale_quantile: float = 1.0       #: quantile used for the symmetric scale

    @property
    def uses_lhr(self) -> bool:
        return self.lhr_lambda > 0.0


@dataclass
class QATResult:
    """Outcome of a QAT run: trained model, integer codes, HR and task metric."""

    model: Module
    config: QATConfig
    scales: Dict[str, float]
    quantized: Dict[str, QuantizedLayer]
    metric: float
    metric_name: str
    loss_history: List[float] = field(default_factory=list)

    @property
    def layer_hr(self) -> Dict[str, float]:
        return {name: hamming_rate(q.codes, q.bits) for name, q in self.quantized.items()}

    @property
    def hr_average(self) -> float:
        values = list(self.layer_hr.values())
        return float(np.mean(values)) if values else 0.0

    @property
    def hr_max(self) -> float:
        values = list(self.layer_hr.values())
        return float(np.max(values)) if values else 0.0

    def weight_codes(self) -> Dict[str, np.ndarray]:
        return {name: q.codes for name, q in self.quantized.items()}


# --------------------------------------------------------------------------- #
# task plumbing
# --------------------------------------------------------------------------- #
def _batch_loss(task: str, model: Module, inputs: np.ndarray, targets: np.ndarray) -> Tensor:
    if task == TASK_CLASSIFICATION:
        return F.cross_entropy(model(Tensor(inputs)), targets)
    if task == TASK_DETECTION:
        return F.mse_loss(model(Tensor(inputs)), targets)
    if task == TASK_LANGUAGE_MODELING:
        return F.cross_entropy(model(inputs), targets)
    raise ValueError(f"unknown task {task!r}")


def evaluate_task_metric(task: str, model: Module, dataset: Dataset,
                         batch_size: int = 64) -> float:
    """Accuracy (%), detection MSE, or perplexity depending on the task."""
    if task == TASK_CLASSIFICATION:
        return evaluate_accuracy(model, dataset, batch_size)
    if task == TASK_DETECTION:
        return evaluate_regression_error(model, dataset, batch_size)
    if task == TASK_LANGUAGE_MODELING:
        return evaluate_perplexity(model, dataset, batch_size)
    raise ValueError(f"unknown task {task!r}")


def hr_summary(codes: Dict[str, np.ndarray], bits: int) -> Tuple[float, float]:
    """(HR_average, HR_max) over a per-layer code dictionary."""
    rates = [hamming_rate(c, bits) for c in codes.values()]
    if not rates:
        return 0.0, 0.0
    return float(np.mean(rates)), float(np.max(rates))


# --------------------------------------------------------------------------- #
# the QAT loop
# --------------------------------------------------------------------------- #
class _ShadowQuantizer:
    """Swap shadow float weights for fake-quantized ones around each step."""

    def __init__(self, model: Module, bits: int, quantile: float) -> None:
        self.model = model
        self.bits = bits
        self.quantile = quantile
        self._saved: Dict[str, np.ndarray] = {}
        self._masks: Dict[str, np.ndarray] = {}
        self.scales: Dict[str, float] = {}

    def quantize_in_place(self) -> None:
        qmax = (1 << (self.bits - 1)) - 1
        for name, layer in self.model.weight_layers():
            weight = layer.weight
            self._saved[name] = weight.data.copy()
            scale = symmetric_scale(weight.data, self.bits, self.quantile)
            self.scales[name] = scale
            # STE clipping mask: gradients are zeroed where the float weight
            # saturates the integer range.
            self._masks[name] = (np.abs(weight.data / scale) <= qmax).astype(np.float64)
            weight.data = fake_quantize(weight.data, scale, self.bits)

    def restore_and_mask_grads(self) -> None:
        for name, layer in self.model.weight_layers():
            weight = layer.weight
            weight.data = self._saved[name]
            if weight.grad is not None:
                weight.grad = weight.grad * self._masks[name]
        self._saved.clear()
        self._masks.clear()


def run_qat(spec: ModelSpec, config: QATConfig,
            model: Optional[Module] = None,
            dataset: Optional[Dataset] = None) -> QATResult:
    """Run quantization-aware training for one workload and evaluate it.

    ``spec`` supplies the model factory, dataset and task; ``model``/``dataset``
    override them (used when chaining: e.g. LHR fine-tuning of an already
    float-trained network, or pruning + LHR combinations).  This is
    :func:`train_qat` followed by deployment of the integer codes into the
    model and one evaluation of the task metric on ``dataset``.
    """
    dataset = dataset if dataset is not None else spec.dataset()
    result = train_qat(spec, config, model=model, dataset=dataset)
    _deploy_quantized(result.model, result.quantized)
    result.metric = evaluate_task_metric(spec.task, result.model, dataset,
                                         config.batch_size)
    return result


def train_qat(spec: ModelSpec, config: QATConfig,
              model: Optional[Module] = None,
              dataset: Optional[Dataset] = None) -> QATResult:
    """The training half of :func:`run_qat`: QAT steps plus final quantization.

    Returns the trained integer codes and scales without evaluating the task
    metric, for callers that need only the codes (the sweep model builder).
    The returned ``metric`` is NaN and ``model`` still holds the trained float
    shadow weights, not the deployed codes.
    """
    model = model if model is not None else spec.build()
    dataset = dataset if dataset is not None else spec.dataset()
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    shadow = _ShadowQuantizer(model, config.bits, config.scale_quantile)

    regularizer: Optional[LHRRegularizer] = None
    if config.uses_lhr:
        regularizer = LHRRegularizer(
            scales=model_scales(model, config.bits, config.scale_quantile),
            bits=config.bits, lam=config.lhr_lambda)

    loss_history: List[float] = []
    for _ in range(config.epochs):
        model.train()
        epoch_losses = []
        for batch in dataset.batches(config.batch_size, shuffle=True, rng=rng):
            shadow.quantize_in_place()
            loss = _batch_loss(spec.task, model, batch.inputs, batch.targets)
            # The LHR term is computed on the shadow (float) weights, but at this
            # point the parameters hold the fake-quantized values; restore first,
            # then add the regularizer so its gradient targets the float weights.
            optimizer.zero_grad()
            loss.backward()
            shadow.restore_and_mask_grads()
            if regularizer is not None:
                regularizer.scales = shadow.scales or regularizer.scales
                reg_loss = regularizer(model)
                reg_loss.backward()
                loss_value = loss.item() + reg_loss.item()
            else:
                loss_value = loss.item()
            if config.grad_clip is not None:
                _clip_gradients(model, config.grad_clip)
            optimizer.step()
            epoch_losses.append(loss_value)
        loss_history.append(float(np.mean(epoch_losses)))

    # Final snapshot: quantize the trained shadow weights to integer codes.
    scales = model_scales(model, config.bits, config.scale_quantile)
    quantized = quantize_model(model, config.bits, scales=scales)
    return QATResult(model=model, config=config, scales=scales, quantized=quantized,
                     metric=float("nan"), metric_name=spec.metric_name,
                     loss_history=loss_history)


def _deploy_quantized(model: Module, quantized: Dict[str, QuantizedLayer]) -> None:
    """Overwrite layer weights with their dequantized integer codes (deployment)."""
    for name, layer in model.weight_layers():
        if name in quantized:
            layer.weight.data = quantized[name].dequantized


def _clip_gradients(model: Module, max_norm: float) -> None:
    total = 0.0
    params = [p for p in model.parameters() if p.grad is not None]
    for p in params:
        total += float((p.grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for p in params:
            p.grad = p.grad * factor
