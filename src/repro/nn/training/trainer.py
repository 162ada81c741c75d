"""Epoch-based training loop used for pretraining and weight-pool fine-tuning."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.data.dataloader import DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim.sgd import SGD
from repro.nn.training.metrics import accuracy


@dataclass
class TrainConfig:
    """Hyper-parameters for :class:`Trainer.fit`."""

    epochs: int = 10
    log_every: int = 0  # 0 disables intra-epoch logging
    clip_grad_norm: Optional[float] = None


@dataclass
class EpochStats:
    """Per-epoch statistics recorded in the training history."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: Optional[float] = None
    lr: Optional[float] = None


class Trainer:
    """Runs SGD training of a :class:`Module` with an explicit backward pass.

    The trainer also supports an ``after_forward`` hook used by the weight-pool
    fine-tuning pipeline (the paper reassigns indices to the nearest pool vector
    during the forward pass and updates the latent weights in the backward pass).
    """

    def __init__(
        self,
        model: Module,
        optimizer: SGD,
        loss_fn: Optional[CrossEntropyLoss] = None,
        scheduler=None,
        after_forward: Optional[Callable[[Module], None]] = None,
        after_step: Optional[Callable[[Module], None]] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn or CrossEntropyLoss()
        self.scheduler = scheduler
        self.after_forward = after_forward
        self.after_step = after_step
        self.history: List[EpochStats] = []

    # -- single steps -------------------------------------------------------
    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> Dict[str, float]:
        """One optimization step; returns loss and batch accuracy."""
        self.model.train()
        self.optimizer.zero_grad()
        logits = self.model(inputs)
        if self.after_forward is not None:
            self.after_forward(self.model)
        loss = self.loss_fn(logits, targets)
        grad = self.loss_fn.backward()
        self.model.backward(grad)
        self._clip_gradients()
        self.optimizer.step()
        if self.after_step is not None:
            self.after_step(self.model)
        return {"loss": loss, "accuracy": accuracy(logits, targets)}

    def _clip_gradients(self) -> None:
        max_norm = getattr(self, "_clip_grad_norm", None)
        if not max_norm:
            return
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in self.optimizer.parameters))
        if total > max_norm and total > 0:
            scale = max_norm / total
            for p in self.optimizer.parameters:
                p.grad *= scale

    # -- full loops ----------------------------------------------------------
    def fit(
        self,
        train_loader: DataLoader,
        config: Optional[TrainConfig] = None,
        val_loader: Optional[DataLoader] = None,
    ) -> List[EpochStats]:
        """Train for ``config.epochs`` epochs; returns the per-epoch history."""
        config = config or TrainConfig()
        self._clip_grad_norm = config.clip_grad_norm
        for epoch in range(1, config.epochs + 1):
            losses, accs = [], []
            for inputs, targets in train_loader:
                stats = self.train_step(inputs, targets)
                losses.append(stats["loss"])
                accs.append(stats["accuracy"])
            val_acc = self.evaluate(val_loader) if val_loader is not None else None
            lr = self.optimizer.lr
            if self.scheduler is not None:
                lr = self.scheduler.step()
            self.history.append(
                EpochStats(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)) if losses else float("nan"),
                    train_accuracy=float(np.mean(accs)) if accs else float("nan"),
                    val_accuracy=val_acc,
                    lr=lr,
                )
            )
        return self.history

    def evaluate(self, loader: DataLoader) -> float:
        """Top-1 accuracy of the model over a loader, in eval mode."""
        return evaluate_model(self.model, loader)


def predict_accuracy(predict: Callable[[np.ndarray], np.ndarray], loader) -> float:
    """Top-1 accuracy of ``predict(inputs) -> logits`` over a loader."""
    correct = 0
    total = 0
    for inputs, targets in loader:
        logits = predict(inputs)
        correct += int((logits.argmax(axis=1) == targets).sum())
        total += len(targets)
    if total == 0:
        raise ValueError("evaluation loader produced no samples")
    return correct / total


def evaluate_model(model: Module, loader: DataLoader) -> float:
    """Convenience wrapper: accuracy of ``model`` over ``loader`` in eval mode."""
    model.eval()
    return predict_accuracy(model, loader)
