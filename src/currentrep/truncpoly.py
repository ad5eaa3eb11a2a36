"""Arithmetic in the truncated polynomial ring R_m = F_p[t]/(t^{m+1})."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInvertible


@dataclass(frozen=True)
class TruncPoly:
    """Element of F_p[t]/(t^{m+1}): exactly m+1 coefficients, entries in [0, p)."""

    coeffs: tuple
    p: int
    m: int

    def __post_init__(self):
        if len(self.coeffs) != self.m + 1:
            raise ValueError("need exactly m+1 coefficients")
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))

    @classmethod
    def zero(cls, p: int, m: int) -> "TruncPoly":
        return cls((0,) * (m + 1), p, m)

    @classmethod
    def one(cls, p: int, m: int) -> "TruncPoly":
        return cls((1,) + (0,) * m, p, m)

    @classmethod
    def t_power(cls, k: int, p: int, m: int, c: int = 1) -> "TruncPoly":
        coeffs = [0] * (m + 1)
        if k <= m:
            coeffs[k] = c % p
        return cls(tuple(coeffs), p, m)

    def _check(self, other: "TruncPoly"):
        if self.p != other.p or self.m != other.m:
            raise ValueError("mismatched ring parameters")

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly(tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)), self.p, self.m)

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly(tuple((a - b) % self.p for a, b in zip(self.coeffs, other.coeffs)), self.p, self.m)

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(tuple(-a % self.p for a in self.coeffs), self.p, self.m)

    def __mul__(self, other) -> "TruncPoly":
        if isinstance(other, int):
            return TruncPoly(tuple(a * other % self.p for a in self.coeffs), self.p, self.m)
        self._check(other)
        out = [0] * (self.m + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.m:
                    break
                out[i + j] = (out[i + j] + a * b) % self.p
        return TruncPoly(tuple(out), self.p, self.m)

    __rmul__ = __mul__

    def invert(self) -> "TruncPoly":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise NotInvertible("constant term is zero")
        # Neumann series: (c0(1 + n))^{-1} = c0^{-1} sum (-n)^k, n nilpotent.
        inv0 = pow(c0, self.p - 2, self.p)
        n = TruncPoly((0,) + self.coeffs[1:], self.p, self.m) * inv0
        acc = TruncPoly.one(self.p, self.m)
        term = TruncPoly.one(self.p, self.m)
        for _ in range(self.m):
            term = -(term * n)
            acc = acc + term
        return acc * inv0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __pow__(self, k: int) -> "TruncPoly":
        out = TruncPoly.one(self.p, self.m)
        base = self
        while k > 0:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

