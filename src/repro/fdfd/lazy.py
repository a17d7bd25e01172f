"""Fields known in part until a caller reads them in full.

A port-reduced solve (see :class:`~repro.fdfd.engine.RecycledEngine` and
:class:`~repro.fdfd.engine.DirectEngine`) computes a field only on the design region and on the port rows, the cells
that port measurements, objectives and adjoint sources read.  The rest of the
field costs one back-substitution through the exterior, so it is deferred
until someone reads it.  :class:`Deferred` holds both parts; a
:class:`LazyField` makes a dataclass attribute resolve it on first read, so
public arrays (``SimulationResult.ez``, ``SpecEvaluation.adjoint_field``,
...) are always exact.  Internal readers that need only the port rows read
:func:`known` and never trigger the recovery.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Deferred", "LazyField", "known"]


class Deferred:
    """An array computed in part; the full array is computed on first request.

    ``partial`` is exact on the rows the solve computed and NaN elsewhere, so
    a read nobody planned for fails loudly instead of returning zeros.
    :meth:`resolve` runs ``compute`` at most once; ``np.asarray`` of a
    deferred value is its resolved array.
    """

    __slots__ = ("partial", "_compute", "_value")

    def __init__(self, partial: np.ndarray, compute):
        self.partial = partial
        self._compute = compute
        self._value = None

    def resolve(self) -> np.ndarray:
        if self._compute is not None:
            self._value = self._compute()
            self._compute = None
        return self._value

    def rows(self) -> list["Deferred"]:
        """One deferred row per leading index of a deferred stack; resolving any resolves all."""
        return [
            Deferred(row, lambda index=index: self.resolve()[index])
            for index, row in enumerate(self.partial)
        ]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.resolve(), dtype=dtype)


class LazyField:
    """Dataclass field descriptor whose :class:`Deferred` value resolves on first read.

    Declared as the field's default (``ez: np.ndarray = LazyField()``); the
    field stays required unless ``default`` is given.  Reading the attribute
    replaces a deferred value with its resolved array.
    """

    _REQUIRED = object()

    def __init__(self, default=_REQUIRED):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.default is self._REQUIRED:
                raise AttributeError(self.name)
            return self.default
        value = obj.__dict__[self.name]
        if isinstance(value, Deferred):
            value = obj.__dict__[self.name] = value.resolve()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def known(value, name: str | None = None):
    """The computed part of a value, without recovering the rest.

    ``known(obj, "ez")`` reads the lazy field ``ez`` of ``obj`` as stored;
    ``known(value)`` takes the value itself.  A :class:`Deferred` gives its
    partial array, anything else is returned as is.
    """
    if name is not None:
        value = vars(value)[name]
    return value.partial if isinstance(value, Deferred) else value
