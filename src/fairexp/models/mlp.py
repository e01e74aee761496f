"""Small multilayer perceptron classifier with backpropagation.

Exposes input gradients so it can serve as a "gradient access" model in the
explanation taxonomy, alongside :class:`fairexp.models.LogisticRegression`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..utils import check_random_state, one_hot, softmax
from .base import BaseClassifier

__all__ = ["MLPClassifier"]


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _relu_grad(z: np.ndarray) -> np.ndarray:
    return (z > 0).astype(float)


class MLPClassifier(BaseClassifier):
    """Feed-forward network with ReLU hidden layers and a softmax output.

    Parameters
    ----------
    hidden_sizes:
        Sizes of the hidden layers, e.g. ``(16, 8)``.
    learning_rate:
        Step size for mini-batch gradient descent.
    n_epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    l2:
        L2 weight decay.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (16,),
        learning_rate: float = 0.05,
        n_epochs: int = 200,
        batch_size: int = 32,
        l2: float = 1e-4,
        random_state: int | None = 0,
    ) -> None:
        super().__init__()
        self.hidden_sizes = tuple(hidden_sizes)
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.random_state = random_state
        self.weights_: list[np.ndarray] = []
        self.biases_: list[np.ndarray] = []
        self.loss_curve_: list[float] = []

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, sample_weight=None) -> "MLPClassifier":
        """Train the network on ``X``/``y``; returns ``self``."""
        X, y = self._validate_fit_input(X, y)
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        n_classes = self.classes_.shape[0]
        if n_classes < 2:
            raise ValidationError("need at least two classes")
        class_index = {c: i for i, c in enumerate(self.classes_)}
        y_idx = np.array([class_index[label] for label in y])
        targets = one_hot(y_idx, n_classes)
        # Standardize inputs internally so training is robust to feature scales.
        self._mean = X.mean(axis=0)
        self._scale = X.std(axis=0)
        self._scale[self._scale == 0] = 1.0
        X = (X - self._mean) / self._scale
        sample_weight = self._validate_sample_weight(sample_weight, n_samples)
        sample_weight = sample_weight / sample_weight.mean()

        sizes = [n_features, *self.hidden_sizes, n_classes]
        self.weights_ = [
            rng.normal(scale=np.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self.biases_ = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        self.loss_curve_ = []

        for _epoch in range(self.n_epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, self.batch_size):
                batch = order[start : start + self.batch_size]
                loss = self._train_batch(X[batch], targets[batch], sample_weight[batch])
                epoch_loss += loss * batch.shape[0]
            self.loss_curve_.append(epoch_loss / n_samples)

        self._fitted = True
        return self

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        activations = [X]
        pre_activations = []
        hidden = X
        for layer, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            z = hidden @ W + b
            pre_activations.append(z)
            if layer < len(self.weights_) - 1:
                hidden = _relu(z)
            else:
                hidden = softmax(z, axis=1)
            activations.append(hidden)
        return activations, pre_activations

    def _train_batch(self, X, targets, weights) -> float:
        activations, pre_activations = self._forward(X)
        output = activations[-1]
        eps = 1e-12
        loss = float(-np.mean(weights * np.sum(targets * np.log(output + eps), axis=1)))

        delta = (output - targets) * weights[:, None] / X.shape[0]
        for layer in reversed(range(len(self.weights_))):
            grad_W = activations[layer].T @ delta + self.l2 * self.weights_[layer]
            grad_b = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights_[layer].T) * _relu_grad(pre_activations[layer - 1])
            self.weights_[layer] -= self.learning_rate * grad_W
            self.biases_[layer] -= self.learning_rate * grad_b
        return loss

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities for each row of ``X``."""
        X = self._validate_predict_input(X)
        X = (X - self._mean) / self._scale
        activations, _ = self._forward(X)
        return activations[-1]

    # ------------------------------------------------------------ gradients
    def gradient_input(self, X, class_index: int = 1) -> np.ndarray:
        """Gradient of ``P(class=class_index)`` with respect to the input features.

        Computed by finite differences over the forward pass, which keeps the
        implementation simple while remaining exact enough for explanation
        methods (the forward pass is piecewise linear).
        """
        X = self._validate_predict_input(X)
        base = self.predict_proba(X)[:, class_index]
        grads = np.zeros_like(X)
        step = 1e-4
        for j in range(X.shape[1]):
            perturbed = X.copy()
            perturbed[:, j] += step
            grads[:, j] = (self.predict_proba(perturbed)[:, class_index] - base) / step
        return grads
