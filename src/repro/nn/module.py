"""Module/parameter plumbing for the neural-network library.

:class:`Module` mirrors the familiar PyTorch interface at a much smaller
scale: automatic parameter registration through attribute assignment, recursive
traversal, train/eval flags and state-dict (de)serialization to plain NumPy
arrays for on-disk model checkpoints.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module.

    Parameters are stored in float32: the surrogates train in float32, as
    neural-operator frameworks do, while the Maxwell solver and the design
    parametrization stay in float64.  The initializers in :mod:`repro.nn.init`
    draw float64 values from the RNG stream and are cast here, so a seed
    draws the same weights, rounded.  Optimizer state follows the parameter
    dtype.
    """

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad, dtype=np.float32)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # -- attribute-based registration -----------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal --------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules, depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- train / eval -------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- forward -------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def as_input(self, x) -> Tensor:
        """``x`` as a tensor in the dtype of this module's parameters.

        The one input cast of a model: the cast is differentiable, so the
        gradient with respect to a float64 input comes back float64.
        """
        return Tensor.ensure(x).astype(next(self.parameters()).dtype)

    # -- serialization ----------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape}, model {param.data.shape}"
                )
            param.data[...] = value

    def save(self, path: str) -> None:
        """Save the state dict to ``path`` as a compressed ``.npz`` archive."""
        np.savez_compressed(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Load a state dict saved by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name] for name in archive.files})


class Sequential(Module):
    """Run submodules in order, feeding each output into the next module."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class ModuleList(Module):
    """Hold an ordered list of submodules (without an implicit forward)."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        setattr(self, f"item{index}", module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
