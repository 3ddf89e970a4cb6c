"""First-order dual numbers with sparse exact gradients.

A :class:`Dual` carries a value together with a dict of partial
derivatives keyed by parameter index.  Feeding duals with ``Fraction``
values through the series and model forward maps yields exact Jacobian
entries without any symbolic machinery.  Only the operations those maps
actually use are implemented.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _as_value(x):
    if type(x) is int:
        return Fraction(x)
    return x


class Dual:
    __slots__ = ("value", "grad")

    def __init__(self, value, grad=None):
        self.value = _as_value(value)
        self.grad = grad if grad is not None else {}

    @classmethod
    def variable(cls, value, index):
        """A seed parameter: unit derivative with respect to ``index``."""
        return cls(value, {index: Fraction(1)})

    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            g = dict(self.grad)
            for i, x in other.grad.items():
                s = g.get(i, _ZERO) + x
                if s:
                    g[i] = s
                elif i in g:
                    del g[i]
            return Dual(self.value + other.value, g)
        return Dual(self.value + _as_value(other), dict(self.grad))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, {i: -x for i, x in self.grad.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -_as_value(other))

    def __rsub__(self, other):
        return (-self) + _as_value(other)

    def __mul__(self, other):
        if isinstance(other, Dual):
            g = {}
            if other.value:
                for i, x in self.grad.items():
                    g[i] = x * other.value
            if self.value:
                for i, x in other.grad.items():
                    s = g.get(i, _ZERO) + self.value * x
                    if s:
                        g[i] = s
                    elif i in g:
                        del g[i]
            return Dual(self.value * other.value, g)
        other = _as_value(other)
        if not other:
            return Dual(_ZERO)
        return Dual(self.value * other,
                    {i: x * other for i, x in self.grad.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if not other.value:
                raise ZeroDivisionError("dual division by zero value")
            inv = 1 / other.value
            g = {}
            for i, x in self.grad.items():
                g[i] = x * inv
            scale = self.value * inv * inv
            for i, x in other.grad.items():
                s = g.get(i, _ZERO) - scale * x
                if s:
                    g[i] = s
                elif i in g:
                    del g[i]
            return Dual(self.value * inv, g)
        other = _as_value(other)
        return Dual(self.value / other,
                    {i: x / other for i, x in self.grad.items()})

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.value == other.value and self.grad == other.grad
        return self.value == other and not self.grad

    def __bool__(self):
        return bool(self.value) or bool(self.grad)

    def __repr__(self):
        return f"Dual({self.value}, {self.grad})"
