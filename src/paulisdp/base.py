"""Estimator plumbing: scikit-learn-compatible parameter handling.

Solvers follow the familiar estimator contract: hyperparameters are
keyword arguments of ``__init__`` stored verbatim on the instance,
``fit`` computes and sets trailing-underscore attributes, and
``get_params``/``set_params`` expose the hyperparameters so the solvers
compose with model-selection tooling without a scikit-learn dependency.
"""

from __future__ import annotations

import inspect


class BaseSolver:
    """Mixin providing get_params/set_params introspected from __init__."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseSolver":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({parts})"
