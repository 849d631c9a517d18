"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A polynomial is a dictionary mapping exponent vectors to nonzero Fractions.
Exponent vectors are dense tuples of ints, one slot per variable of a fixed
Alphabet, so structural equality of two polynomials is equality of values:

    3/2 * z11^2 * zeta1^-1   ->   {(0, 2, 0, 0, 0, 0, 0, -1, 0, 0): Fraction(3, 2)}

Negative exponents are only legal for variables the alphabet declares
invertible (the zeta/rho chart variables); everything else rejects them at
construction time.  All values are immutable after construction and every
operation is a pure function, so callers may share and parallelize freely.

Rational scalars are `fractions.Fraction` throughout: always in lowest terms,
positive denominator, arbitrary precision.  No floating point anywhere.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterable, Iterator, Mapping, Sequence


class AlphabetMismatch(ValueError):
    """Raised when operands live over different variable alphabets."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


class InternalCheckError(RuntimeError):
    """Raised when a computation falsifies an invariant the theory guarantees."""


Exponents = tuple  # tuple[int, ...], one entry per alphabet variable
Scalar = int | Fraction


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of `parts` ints >= 0 summing to `total`, in lexicographic order: gaps of sorted bars."""
    for bars in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, bars + (total,), (0,) + bars))


class Record:
    """An immutable value whose fields, named by ``__slots__``, are given by position or keyword.

    Equality (within one class) and hash are those of the field tuple, the repr is
    ``Name(field=value, ...)``, and subclasses validate their fields in ``_check``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or set(values) != set(names):
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete field {name!r} of an immutable record")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return type(self), self._fields()


class Alphabet:
    """An ordered, fixed set of variable names with an invertibility mask."""

    __slots__ = ("names", "negatives", "index")

    def __init__(self, names: Iterable[str], negatives: Iterable[str] = ()):
        self.names = tuple(names)
        self.negatives = frozenset(negatives)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        unknown = self.negatives - set(self.names)
        if unknown:
            raise ValueError(f"invertible variables not in alphabet: {sorted(unknown)}")
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Alphabet)
            and self.names == other.names
            and self.negatives == other.negatives
        )

    def __hash__(self) -> int:
        return hash((self.names, self.negatives))

    def __repr__(self) -> str:
        return f"Alphabet({self.names!r})"

    def zero_exponents(self) -> Exponents:
        return (0,) * len(self.names)

    def check_exponents(self, exps: Exponents) -> None:
        if len(exps) != len(self.names):
            raise ValueError(f"exponent vector of length {len(exps)}, expected {len(self.names)}")
        for name, e in zip(self.names, exps):
            if e < 0 and name not in self.negatives:
                raise PreconditionError(f"negative exponent on non-invertible variable {name!r}")


def accumulate(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, Fraction) pairs into `out` in place, dropping zero sums; return `out`."""
    for key, c in pairs:
        old = out.get(key)
        s = c if old is None else old + c  # a new key costs no Fraction arithmetic
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def number_text(value: Scalar) -> str:
    """Decimal text of an int or Fraction; PreconditionError past the int-string limit."""
    try:
        return str(value)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"cannot print a number of more than {limit} digits") from None


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed alphabet.

    `terms` never stores zero coefficients, so two equal polynomials are
    structurally equal dictionaries (canonical form).
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Exponents, Scalar]):
        """The canonical polynomial of `terms`: exponents checked, zero coefficients dropped."""
        pairs = [(tuple(exps), Fraction(coeff)) for exps, coeff in terms.items()]
        for exps, _ in pairs:
            alphabet.check_exponents(exps)
        self.alphabet = alphabet
        self.terms = accumulate({}, pairs)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, terms: dict[Exponents, Fraction]) -> "LaurentPoly":
        # For this module only: `terms` is a fresh dict that is already canonical.
        poly = object.__new__(cls)
        poly.alphabet = alphabet
        poly.terms = terms
        return poly

    # ------------------------------------------------------------------ build
    @classmethod
    def sum(cls, alphabet: Alphabet, polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The sum of many polynomials over `alphabet`, merged into one dict."""
        out: dict[Exponents, Fraction] = {}
        for p in polys:
            if p.alphabet != alphabet:
                raise AlphabetMismatch(f"operands over {alphabet.names} vs {p.alphabet.names}")
            accumulate(out, p.terms.items())
        return cls._trusted(alphabet, out)

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "LaurentPoly":
        return cls._trusted(alphabet, {})

    @classmethod
    def constant(cls, alphabet: Alphabet, value: Scalar) -> "LaurentPoly":
        c = Fraction(value)
        return cls._trusted(alphabet, {alphabet.zero_exponents(): c} if c else {})

    @classmethod
    def variable(cls, alphabet: Alphabet, name: str, power: int = 1) -> "LaurentPoly":
        return cls.monomial(alphabet, {name: power})

    @classmethod
    def monomial(cls, alphabet: Alphabet, powers: Mapping[str, int], coeff: Scalar = 1) -> "LaurentPoly":
        exps = [0] * len(alphabet)
        for name, e in powers.items():
            if name not in alphabet.index:
                raise ValueError(f"unknown variable {name!r}")
            exps[alphabet.index[name]] += e
        return cls(alphabet, {tuple(exps): coeff})

    # ------------------------------------------------------------------ query
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sole_term(self) -> tuple[Exponents, Fraction]:
        if len(self.terms) != 1:
            raise PreconditionError(f"expected a monomial, got {len(self.terms)} terms")
        return next(iter(self.terms.items()))

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def degree_in(self, name: str) -> int:
        """Largest exponent of `name` over all terms (0 for the zero poly)."""
        i = self.alphabet.index[name]
        return max((e[i] for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # ------------------------------------------------------------- arithmetic
    def _require_same(self, other: "LaurentPoly") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"operands over {self.alphabet.names} vs {other.alphabet.names}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._require_same(other)
        terms = accumulate(dict(self.terms), other.terms.items())
        return LaurentPoly._trusted(self.alphabet, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.alphabet, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._require_same(other)
        products = (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return LaurentPoly._trusted(self.alphabet, accumulate({}, products))

    def scale(self, scalar: Scalar) -> "LaurentPoly":
        c = Fraction(scalar)
        if not c:
            return LaurentPoly.zero(self.alphabet)
        return LaurentPoly._trusted(self.alphabet, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("polynomial powers must be non-negative integers")
        result = LaurentPoly.constant(self.alphabet, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse_monomial(self) -> "LaurentPoly":
        """Exact inverse of a single-term polynomial (exponents negated)."""
        exps, coeff = self.sole_term()
        inv = tuple(-e for e in exps)
        self.alphabet.check_exponents(inv)
        return LaurentPoly._trusted(self.alphabet, {inv: Fraction(1) / coeff})

    # ------------------------------------------------------------- operations
    def substitute(self, bindings: Mapping[str, "LaurentPoly"], target: Alphabet) -> "LaurentPoly":
        """Compose with `bindings` over `target`; unbound variables pass through to it.

        A variable appearing with a negative exponent must be bound to an
        invertible monomial (general denominators are out of scope).
        """
        for name, value in bindings.items():
            if name not in self.alphabet.index:
                raise ValueError(f"binding for unknown variable {name!r}")
            if value.alphabet != target:
                raise AlphabetMismatch(f"binding for {name!r} is not over the target alphabet")

        for name in self.alphabet.names:
            if name not in bindings and name not in target.index:
                # Only an error if the variable actually occurs.
                for exps in self.terms:
                    if exps[self.alphabet.index[name]]:
                        raise PreconditionError(
                            f"variable {name!r} is unbound and missing from the target alphabet"
                        )

        power_cache: dict[tuple[str, int], LaurentPoly] = {}
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            passthrough = [0] * len(target)
            term = None
            for name, e in zip(self.alphabet.names, exps):
                if e == 0:
                    continue
                if name in bindings:
                    value = bindings[name]
                    if e < 0 and not value.is_monomial():
                        raise PreconditionError(
                            f"negative exponent on {name!r} needs an invertible monomial binding"
                        )
                    if (name, e) not in power_cache:
                        power_cache[name, e] = value ** e if e > 0 else value.inverse_monomial() ** -e
                    factor = power_cache[name, e]
                    term = factor if term is None else term * factor
                else:
                    passthrough[target.index[name]] += e
            passthrough = tuple(passthrough)
            target.check_exponents(passthrough)
            products = term.terms.items() if term is not None else [(target.zero_exponents(), 1)]
            accumulate(out, (
                (tuple(a + b for a, b in zip(passthrough, e)), coeff * c) for e, c in products
            ))
        return LaurentPoly._trusted(target, out)

    def coefficient_of(self, names: Iterable[str], exponents: Iterable[int]) -> "LaurentPoly":
        """Coefficient polynomial of the given monomial in the given variables.

        The extracted variables come back with exponent zero; an absent
        coefficient is the zero polynomial.  No terms merge: the kept terms
        agree on the zeroed slots.
        """
        names = tuple(names)
        exponents = tuple(exponents)
        if len(set(names)) != len(names) or len(exponents) != len(names):
            raise PreconditionError("extraction needs distinct variables, one exponent each")
        fixed = {self.alphabet.index[n]: e for n, e in zip(names, exponents)}
        return LaurentPoly._trusted(self.alphabet, {
            tuple(0 if i in fixed else e for i, e in enumerate(exps)): coeff
            for exps, coeff in self.terms.items()
            if all(exps[p] == e for p, e in fixed.items())
        })

    def derivative(self, name: str) -> "LaurentPoly":
        """Formal partial derivative; negative exponents follow the power rule."""
        i = self.alphabet.index[name]
        # Lowering one slot is injective and e != 0, so nothing merges or cancels.
        return LaurentPoly._trusted(self.alphabet, {
            exps[:i] + (exps[i] - 1,) + exps[i + 1:]: coeff * exps[i]
            for exps, coeff in self.terms.items()
            if exps[i]
        })

    def project(self, target: Alphabet) -> "LaurentPoly":
        """Re-express over `target`; variables dropped must have exponent 0."""
        mapping = []
        for i, name in enumerate(self.alphabet.names):
            mapping.append(target.index.get(name))
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(target)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                j = mapping[i]
                if j is None:
                    raise PreconditionError(
                        f"variable {self.alphabet.names[i]!r} occurs but is not in the target"
                    )
                new[j] = e
            out[tuple(new)] = coeff
        return LaurentPoly._trusted(target, out)

    # ------------------------------------------------------------------ print
    def to_string(self) -> str:
        """Canonical text form, e.g. ``3/2 * z11^2 * zeta1^-1 - z0``.

        Signs go into the ``+ ``/``- `` separators; a unit magnitude is omitted
        unless the term is constant.
        """
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{name}^{number_text(e)}" if e != 1 else name
                for name, e in zip(self.alphabet.names, exps) if e
            ]
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, number_text(mag))
            body = " * ".join(factors)
            if pieces:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
            else:
                pieces.append(body if coeff > 0 else f"-{body}")
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_string()})"


# ------------------------------------------------------------- exact nullspace
Row = Sequence[Scalar] | dict[int, Scalar]  # dense, or sparse {column in range(n_cols): value}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    content = math.gcd(*row.values())
    return {c: v // content for c, v in row.items()} if content > 1 else row


def _integer_row(row: Row) -> dict[int, int]:
    """The nonzero entries of a dense or rational row as {column: int}, times their denominators' lcm."""
    entries = {c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}
    lcm = math.lcm(*[v.denominator for v in entries.values()])
    return {c: v.numerator * (lcm // v.denominator) for c, v in entries.items()}


def _echelon(rows: Iterable[Row]) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer row echelon form on primitive rows; returns (rows, pivot columns).

    Rows wait in one bucket per leading column, and the buckets are taken in
    column order from a heap.  The sparsest row of a bucket becomes its pivot;
    each other row r of the bucket, with leading entries piv and e and
    g = gcd(piv, e), becomes (piv/g)*r - (e/g)*pivot, made primitive, and
    moves to the bucket of its new leading column.  No other row is touched.
    Both multipliers change sign when piv/g < 0, which negates the new row
    and keeps its zeros, and r is only copied when piv/g is then 1.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if type(row) is not dict or not all(type(v) is int and v for v in row.values()):
            row = _integer_row(row)
        row = _primitive(row)
        if row:
            buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapq.heapify(heap)
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    while heap:
        c = heapq.heappop(heap)
        bucket = buckets.pop(c)
        pivot = bucket[0] if len(bucket) == 1 else min(bucket, key=len)
        piv = pivot[c]
        for row in bucket:
            if row is pivot:
                continue
            g = math.gcd(piv, row[c])
            a, b = piv // g, row[c] // g
            if a < 0:
                a, b = -a, -b
            row = row.copy() if a == 1 else {k: a * v for k, v in row.items()}  # never the caller's row
            for k, v in pivot.items():
                s = row.get(k, 0) - b * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            if row:
                row = _primitive(row)
                lead = min(row)
                if lead not in buckets:
                    heapq.heappush(heap, lead)
                buckets.setdefault(lead, []).append(row)
        echelon.append(pivot)
        pivots.append(c)
    return echelon, pivots


def matrix_rank(rows: list[Row]) -> int:
    """Exact rank of a rational matrix via `_echelon`."""
    return len(_echelon(rows)[1])


def rref(rows: list[Row]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form over the rationals: (nonzero {column: Fraction} rows, pivot columns).

    The echelon form is back-reduced from its last pivot up: each row is
    divided by its pivot and cleared at the later pivot columns it touches,
    against rows that are already zero at every other pivot column.
    """
    echelon, pivots = _echelon(rows)
    reduced: dict[int, dict[int, Fraction]] = {}
    for row, c in zip(reversed(echelon), reversed(pivots)):
        head = row[c]
        row = {k: Fraction(v, head) for k, v in row.items()}
        for p in [k for k in row if k in reduced]:
            factor = row[p]
            accumulate(row, ((k, -factor * v) for k, v in reduced[p].items()))
        reduced[c] = row
    return [reduced[c] for c in pivots], pivots


def exact_nullspace(rows: list[Row], n_cols: int) -> list[list[Fraction]]:
    """Basis of the exact right nullspace of a rational matrix with `n_cols` columns, as dense vectors.

    Returns one vector per free column f of the reduced row echelon form R:
    v[f] = 1, v[pivot_r] = -R[r][f] and zero at the other free columns.  The
    basis is therefore canonical and its length is the exact nullity.  An
    empty `rows` list means the map is zero and the whole space comes back.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    zero = Fraction(0)
    basis: list[list[Fraction]] = []
    for f in range(n_cols):
        if f in pivot_set:
            continue
        v = [zero] * n_cols
        v[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row.get(f, zero)
        basis.append(v)
    return basis
