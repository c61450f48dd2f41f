"""Cusp-form data: ingestion, validation, normalized coefficients.

Coefficient files are plain text so LMFDB-style exports convert with a
one-liner: header lines `level=`, `weight=`, `char_kronecker=` or
`char_table=`, then one `a <n> <re> [<im>]` line for each n = 1, ..., M.

Forms of level N0 with 4 not dividing N0 are accepted by lifting to
lcm(4, N0) with coefficients unchanged and the character, given by
Kronecker symbol or by its N0 values, read on the units mod lcm(4, N0); the
divisibility-sensitive residual-constant checks all use the lifted level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..arith import (
    DirichletCharacter,
    char_from_kronecker,
    char_from_table,
    primes_upto,
    trivial_character,
    unit_mask,
)


@dataclass(frozen=True)
class CuspForm:
    level: int
    weight: int
    character: DirichletCharacter
    coeffs: np.ndarray = field(repr=False)  # coeffs[n-1] = a(n)
    label: str = ""
    notes: tuple = ()
    # (h, J) -> a(j^2 + h) for j = 0..J, serving `a_squares` to j^2 + h <= squares_max
    squares: Callable[[int, int], np.ndarray] | None = field(default=None, repr=False)
    squares_max: int = 0

    def __post_init__(self):
        if self.level % 4 != 0:
            raise ValueError(f"level must be divisible by 4 (lift first), got {self.level}")
        if self.weight < 3:
            raise ValueError(f"weight must be >= 3, got {self.weight}")
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient list")
        notes = list(self.notes)
        if self.a(1) != 1:
            notes.append("a(1) != 1: not arithmetically normalized (non-newform input)")
        notes.extend(deligne_warnings(self))
        object.__setattr__(self, "notes", tuple(notes))

    @property
    def n_coeffs(self) -> int:
        """The largest n that `a_squares` reaches."""
        return self.squares_max if self.squares else len(self.coeffs)

    def a(self, n):
        """a(n) at an int n, or at each n of an int array."""
        n = np.asarray(n)
        if n.size and (n.min() < 1 or n.max() > len(self.coeffs)):
            bad = int(n.min()) if n.min() < 1 else int(n.max())
            raise IndexError(
                f"a({bad}) unavailable: coefficients stored up to M={len(self.coeffs)}")
        return self.coeffs[n - 1]

    def a_squares(self, h: int, J: int) -> np.ndarray:
        """a(j^2 + h) for j = 0..J, with a(0) = 0: the one read of the shifted sums and
        the symmetric square, from `squares` when the form has it, else from the table."""
        if self.squares:
            return self.squares(h, J)
        n = np.arange(J + 1) ** 2 + h
        return self.a(n) if h else np.concatenate(([0], self.a(n[1:])))

    def A(self, n):
        """Normalized coefficient a(n) / n^((k-1)/2), at an int or an int array."""
        e = (self.weight - 1) / 2.0
        # an int n keeps Python's pow: numpy's can differ in the last bit when e is not 1
        return self.a(n) / (float(n) ** e if np.ndim(n) == 0 else np.asarray(n, np.float64) ** e)


def deligne_warnings(f: CuspForm) -> list:
    """Warn-level Deligne sanity |a(p)| <= 2 p^((k-1)/2) at primes p <= 20000."""
    primes = primes_upto(min(len(f.coeffs), 20000))
    if len(primes) == 0:
        return []
    vals = np.abs(f.a(primes))
    bound = 2.0 * primes.astype(np.float64) ** ((f.weight - 1) / 2.0)
    bad = primes[vals > bound * (1 + 1e-12)]
    return [f"Deligne bound violated at p={p} (non-newform input?)" for p in bad[:5]]


def r1(n: int) -> int:
    """Representations of n as one square: 1 at 0, 2 at positive squares."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    r = math.isqrt(n)
    return 2 if r * r == n else 0


def load_form(path) -> CuspForm:
    """Read a coefficient file; lifts the level into 4Z if needed."""
    header = {}
    pairs = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("a "):
                parts = line.split()
                if len(parts) not in (3, 4):
                    raise ValueError(f"{path}:{line_no}: malformed coefficient line")
                n = int(parts[1])
                if n < 1:
                    raise ValueError(f"{path}:{line_no}: coefficient index must be >= 1, "
                                     f"got a({n})")
                if n in pairs:
                    raise ValueError(f"{path}:{line_no}: duplicate coefficient a({n})")
                re = float(parts[2])
                im = float(parts[3]) if len(parts) == 4 else 0.0
                pairs[n] = complex(re, im) if im else re
            elif "=" in line:
                key, val = line.split("=", 1)
                header[key.strip()] = val.strip()
            else:
                raise ValueError(f"{path}:{line_no}: unparseable line {line!r}")
    for key in ("level", "weight"):
        if key not in header:
            raise ValueError(f"{path}: missing header {key}=")
    level0 = int(header["level"])
    weight = int(header["weight"])
    level = math.lcm(4, level0)
    notes = []
    if level != level0:
        notes.append(f"level lifted {level0} -> {level}")
    if "char_kronecker" in header:
        chi = char_from_kronecker(int(header["char_kronecker"]), level)
    elif "char_table" in header:
        table = np.array([complex(v) for v in header["char_table"].split(",")])
        if len(table) != level0:
            raise ValueError(f"{path}: char_table needs {level0} values, got {len(table)}")
        # lifted like the Kronecker path: chi(d) = table[d mod level0] on units mod level
        d = np.arange(level)
        chi = char_from_table(level, np.where(unit_mask(level), table[d % level0], 0))
    else:
        chi = trivial_character(level)
    if not pairs:
        raise ValueError(f"{path}: no coefficients")
    M = max(pairs)
    if len(pairs) < M:   # the indices are distinct and >= 1, so one is missing
        gap = next(n for n in range(1, M + 1) if n not in pairs)
        raise ValueError(f"{path}: coefficient gaps starting at a({gap})")
    any_complex = any(isinstance(v, complex) for v in pairs.values())
    dtype = np.complex128 if any_complex else np.float64
    coeffs = np.array([pairs[n] for n in range(1, M + 1)], dtype=dtype)
    return CuspForm(level=level, weight=weight, character=chi, coeffs=coeffs,
                    label=header.get("label", str(path)), notes=tuple(notes))


def save_form(path, f: CuspForm) -> None:
    with open(path, "w") as fh:
        fh.write(f"level={f.level}\nweight={f.weight}\n")
        label = f.character.label
        if label.startswith("(") and "/.) mod" in label:   # Kronecker form when labeled as one
            fh.write(f"char_kronecker={int(label[1:label.index('/')])}\n")
        else:
            fh.write("char_table=" + ",".join(repr(v) if v.imag else repr(v.real)
                                              for v in map(complex, f.character.values)) + "\n")
        if f.label:
            fh.write(f"label={f.label}\n")
        vals = f.a(np.arange(1, len(f.coeffs) + 1))
        complex_coeffs = np.iscomplexobj(vals)
        for n, v in enumerate(vals, start=1):
            if complex_coeffs and v.imag:
                fh.write(f"a {n} {v.real!r} {v.imag!r}\n")
            else:
                fh.write(f"a {n} {int(v.real) if float(v.real).is_integer() else v.real!r}\n")
