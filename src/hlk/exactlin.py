"""Exact linear algebra over the Gaussian rationals Q(i).

Every higher layer (Lefschetz operators, Lie-algebra closures, relative
Lie algebra cohomology) reduces to the routines here, so everything is
exact rational arithmetic: no floats, no tolerances.  Subspaces are kept
in reduced row echelon form, which makes every derived basis canonical
and independent of enumeration order.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "i_power",
    "DenseMatrix",
    "entry_product",
    "muladd",
    "Subspace",
    "SpanBuilder",
    "rref",
    "rank",
    "solve",
    "inverse",
    "kernel",
    "kernel_image",
    "quotient_cohomology",
    "symmetric_signature",
    "hermitian_definiteness",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "vec_conj",
    "vec_is_zero",
    "zero_vector",
    "unit_vector",
]

_new = object.__new__


def _mk(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d from reduced ints, skipping ``__init__``."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _red(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d for any ints with d > 0."""
    g = gcd(a, b, d)
    return _mk(a, b, d) if g == 1 else _mk(a // g, b // g, d // g)


def muladd(s: "Scalar", f: "Scalar", x: "Scalar") -> "Scalar":
    """s + f*x as one int computation on the slots with one reduction.

    The loops that subtract multiples of a row pass -f, formed once.
    """
    c, e, q = f._a, f._b, f._d
    h, k, m = x._a, x._b, x._d
    if e or k:
        re, im = c * h - e * k, c * k + e * h
    else:
        re, im = c * h, 0
    q *= m
    a, b, d = s._a, s._b, s._d
    if d == q:
        if d == 1:
            return _mk(a + re, b + im, 1)
        return _red(a + re, b + im, d)
    return _red(a * q + re * d, b * q + im * d, d * q)


def _part_str(n: int, d: int) -> str:
    """n/d in lowest terms, formatted as ``str`` of the Fraction."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


class Scalar:
    """An exact element (a + b*i)/d of Q(i).

    The slots hold ints with d > 0 and gcd(a, b, d) = 1, so equal values
    have equal slots.  Instances are immutable by convention: nothing
    writes to the slots after construction, so the operators may return
    an operand unchanged.  ``re`` and ``im`` give the parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        d = lcm(q, s)     # over the lcm of lowest-terms parts: reduced
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @classmethod
    def of(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return cls(x)

    triple = staticmethod(_red)     # (a + b*i)/d for any ints, d > 0

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = other if isinstance(other, Scalar) else Scalar(other)
        c, e, f = o._a, o._b, o._d
        if not c and not e:
            return self
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            return o
        if d == f:
            if d == 1:
                return _mk(a + c, b + e, 1)
            return _red(a + c, b + e, d)
        return _red(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Scalar) else Scalar(other)
        c, e, f = o._a, o._b, o._d
        if not c and not e:
            return self
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            return _mk(-c, -e, f)
        if d == f:
            if d == 1:
                return _mk(a - c, b - e, 1)
            return _red(a - c, b - e, d)
        return _red(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return Scalar(other) - self

    def __mul__(self, other):
        o = other if isinstance(other, Scalar) else Scalar(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = o._a, o._b, o._d
        if d == 1 and f == 1:
            if not b and not e:
                return _mk(a * c, 0, 1)
            return _mk(a * c - b * e, a * e + b * c, 1)
        if not b and not e:
            return _red(a * c, 0, d * f)
        return _red(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, Scalar) else Scalar(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = o._a, o._b, o._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            if c < 0:
                a, b, c = -a, -b, -c
            return _red(a * f, b * f, d * c)
        # (a + bi)/d * f/(c + ei) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        return _red(f * (a * c + b * e), f * (b * c - a * e),
                    d * (c * c + e * e))

    def __rtruediv__(self, other):
        return Scalar(other) / self

    def __neg__(self):
        return _mk(-self._a, -self._b, self._d)

    def conjugate(self) -> "Scalar":
        return _mk(self._a, -self._b, self._d) if self._b else self

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._a == other._a and self._b == other._b \
                and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator \
                and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self.re, self.im))
        return hash(self._a) if self._d == 1 else hash(self.re)

    def __repr__(self):
        re = _part_str(self._a, self._d)
        if not self._b:
            return f"Scalar({re})"
        return f"Scalar({re}, {_part_str(self._b, self._d)})"

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return str(a) if d == 1 else _part_str(a, d)
        im = _part_str(abs(b), d)
        if not a:
            return f"-{im}i" if b < 0 else f"{im}i"
        return f"{_part_str(a, d)}{'+' if b > 0 else '-'}{im}i"


ZERO = Scalar(0)
ONE = Scalar(1)

_I_POWERS = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))


def i_power(k: int) -> Scalar:
    """i**k for any integer k."""
    return _I_POWERS[k % 4]


def zero_vector(n: int) -> tuple:
    return (ZERO,) * n


def unit_vector(n: int, j: int) -> tuple:
    return tuple(ONE if k == j else ZERO for k in range(n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Scalar, a):
    if c.is_zero():
        return zero_vector(len(a))
    return tuple(c * x for x in a)


def vec_conj(a):
    return tuple(x.conjugate() for x in a)


def vec_is_zero(a) -> bool:
    for x in a:
        if x._a or x._b:
            return False
    return True


class DenseMatrix:
    """Immutable dense matrix over Q(i), entries row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data) -> "DenseMatrix":
        rows_data = [list(r) for r in rows_data]
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        flat = []
        for row in rows_data:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(Scalar.of(x) for x in row)
        return cls(r, c, flat)

    @classmethod
    def from_columns(cls, cols_data, rows: int | None = None) -> "DenseMatrix":
        cols_data = [list(col) for col in cols_data]
        if cols_data:
            rows = len(cols_data[0])
        elif rows is None:
            rows = 0
        flat = [x if type(x) is Scalar else Scalar(x)
                for row in zip(*cols_data) for x in row]
        return cls(rows, len(cols_data), flat)

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(n, n, [ONE if i == j else ZERO
                          for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "DenseMatrix":
        diag = [Scalar.of(d) for d in diag]
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else ZERO
                          for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [ZERO] * self.rows
        e = self.entries
        c = self.cols
        for j, x in enumerate(vec):
            if not (x._a or x._b):
                continue
            for i in range(self.rows):
                a = e[i * c + j]
                if a._a or a._b:
                    out[i] = muladd(out[i], a, x)
        return tuple(out)

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return DenseMatrix(self.rows, other.cols, entry_product(
            self.entries, other.entries, self.rows, self.cols, other.cols))

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._same_shape(other)
        return DenseMatrix(self.rows, self.cols,
                           [x + y for x, y in zip(self.entries, other.entries)])

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        self._same_shape(other)
        return DenseMatrix(self.rows, self.cols,
                           [x - y for x, y in zip(self.entries, other.entries)])

    def scale(self, c) -> "DenseMatrix":
        c = Scalar.of(c)
        return DenseMatrix(self.rows, self.cols,
                           [c * x if x._a or x._b else ZERO
                            for x in self.entries])

    def transpose(self) -> "DenseMatrix":
        e, c = self.entries, self.cols
        return DenseMatrix(c, self.rows,
                           [x for j in range(c) for x in e[j::c]])

    def conj(self) -> "DenseMatrix":
        return DenseMatrix(self.rows, self.cols,
                           [x.conjugate() for x in self.entries])

    def conj_transpose(self) -> "DenseMatrix":
        return self.transpose().conj()

    def commutator(self, other: "DenseMatrix") -> "DenseMatrix":
        """AB - BA, both products accumulated into one entry list."""
        n = self.rows
        if self.cols != n or other.rows != n or other.cols != n:
            raise ValueError("commutator needs square matrices of one size")
        return DenseMatrix(n, n, _commutator(
            _row_nonzeros(self.entries, n), _row_nonzeros(other.entries, n), n))

    def is_zero_matrix(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def submatrix(self, row_idx, col_idx) -> "DenseMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        e, c = self.entries, self.cols
        return DenseMatrix(len(row_idx), len(col_idx),
                           [e[i * c + j] for i in row_idx for j in col_idx])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
            (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def _row_nonzeros(entries, n: int) -> list:
    """Per row of an n x n entry list, the (column, entry) of its nonzeros."""
    rows = [[] for _ in range(n)]
    i = j = 0
    for x in entries:
        if x._a or x._b:
            rows[i].append((j, x))
        j += 1
        if j == n:
            i += 1
            j = 0
    return rows


def _commutator(a, b, n: int) -> list:
    """The entry list of AB - BA for n x n matrices A and B given by
    their ``_row_nonzeros`` lists ``a`` and ``b``, both products
    accumulated into one list."""
    out = [ZERO] * (n * n)
    for i in range(n):
        o = i * n
        for k, x in a[i]:
            for j, y in b[k]:
                out[o + j] = muladd(out[o + j], x, y)
        for k, y in b[i]:
            y = -y
            for j, x in a[k]:
                out[o + j] = muladd(out[o + j], y, x)
    return out


def entry_product(a, b, n: int, m: int, p: int) -> list:
    """The n x p product of row-major entry lists, a n x m and b m x p."""
    if len(a) == 1 and len(b) == 1:
        return [a[0] * b[0]]
    out = [ZERO] * (n * p)
    for i in range(n):
        orow = i * p
        for k in range(m):
            aik = a[i * m + k]
            if not (aik._a or aik._b):
                continue
            brow = k * p
            for j in range(p):
                bkj = b[brow + j]
                if bkj._a or bkj._b:
                    out[orow + j] = muladd(out[orow + j], aik, bkj)
    return out


# -- sparse vectors and structure-constant tables ---------------------------
# A sparse vector is {index: nonzero entry}.  A table of structure
# constants, cup product or Lie bracket, is {(i, j): {k: c}} with
# e_i e_j = sum_k c e_k, holding only nonzero c and nonzero products.


def _nonzero(vec) -> dict:
    """The sparse vector of the nonzero entries of a Scalar vector."""
    return {k: x for k, x in enumerate(vec) if x._a or x._b}


def _dense(x: dict, n: int) -> tuple:
    """The length-n vector of the sparse vector ``x``."""
    return tuple(x.get(k, ZERO) for k in range(n))


def _sparse_sum(terms) -> dict:
    """sum of c * v over (c, v) pairs of sparse vectors; zeros dropped."""
    out = {}
    get = out.get
    for c, vec in terms:
        for k, x in vec.items():
            out[k] = muladd(get(k, ZERO), c, x)
    return {k: x for k, x in out.items() if x._a or x._b}


def _table(pairs) -> dict:
    """The table of ``pairs`` {(i, j): {k: number}}, in their order, as
    Scalars with zero constants and empty pairs dropped."""
    out = {ij: {k: x for k, x in ((k, Scalar.of(c)) for k, c in col.items())
                if x} for ij, col in pairs.items()}
    return {ij: col for ij, col in out.items() if col}


def _left_index(table) -> dict:
    """{i: [(j, {k: c})]}: ``table`` by left factor, in (i, j) order."""
    out = {}
    for (i, j), col in sorted(table.items()):
        out.setdefault(i, []).append((j, col))
    return out


def _bilinear(index, x: dict, y: dict) -> dict:
    """The product of sparse vectors x and y under the structure
    constants ``index``, a table's ``_left_index``."""
    return _sparse_sum((xi * yj, col)
                       for i, xi in x.items()
                       for j, col in index.get(i, ())
                       if (yj := y.get(j)) is not None)


def rref(row_vectors):
    """Reduced row echelon form of a list of vectors.

    Returns (rows, pivot_columns); zero rows are dropped.  The result
    depends only on the span, not on the input order.
    """
    rows = list(row_vectors)
    if not rows:
        return [], []
    span = SpanBuilder(len(rows[0]))
    for row in rows:
        span.add(row)
        if span.dim == span.ambient:
            break
    return list(span.basis), span.pivots


def rank(m: DenseMatrix) -> int:
    """Rank of a matrix."""
    return len(rref(m.row_lists())[0])


def _support(vector) -> list:
    """The ascending columns where ``vector`` is nonzero."""
    return [j for j, x in enumerate(vector) if x._a or x._b]


def _echelon(rows) -> list:
    """(pivot column, row, support) of each reduced echelon row."""
    out = []
    for row in rows:
        support = _support(row)
        if not support:
            raise ValueError("zero row has no leading index")
        out.append((support[0], row, support))
    return out


def _reduce(vector, echelon):
    """Reduce ``vector`` against reduced echelon rows.

    ``echelon`` yields (pivot column, row, support) triples with
    ascending pivots, the support being the row's nonzero columns.
    Returns the residual as a list and the coefficient of each row.
    """
    v = list(vector)
    coeffs = []
    for p, row, support in echelon:
        f = v[p]
        coeffs.append(f)
        if f._a or f._b:
            v[p] = ZERO     # row[p] is ONE, so the pivot cancels exactly
            f = -f
            for j in support[1:]:
                v[j] = muladd(v[j], f, row[j])
    return v, coeffs


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^ambient, basis in canonical reduced echelon form."""

    ambient: int
    basis: tuple

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        rows, _ = rref(vectors)
        return cls(ambient, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _rows(self) -> list:
        return _echelon(self.basis)

    def contains(self, vector) -> bool:
        v, _ = _reduce(vector, self._rows)
        return vec_is_zero(v)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.from_vectors(self.ambient, list(self.basis) + list(other.basis))


class SpanBuilder:
    """Incrementally maintained reduced-echelon span of vectors."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        # (pivot_col, row-list, support), sorted by pivot; the support
        # lists the row's nonzero columns in ascending order
        self._rows = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, vector) -> bool:
        v, _ = _reduce(vector, self._rows)
        return vec_is_zero(v)

    def add(self, vector):
        """Insert a vector.

        Returns None when the vector is already in the span.  When the
        span grows it returns the new echelon row as inserted, a tuple:
        the vector's residual modulo the old span, scaled to pivot 1,
        which is zero at every old pivot.  (Later insertions go on
        reducing the stored row; the tuple keeps the residual.)
        """
        v, _ = _reduce(vector, self._rows)
        support = _support(v)
        if not support:
            return None
        pivot = support[0]
        x = v[pivot]
        if x._b or x._a != x._d:     # x != 1
            inv = ONE / x
            for j in support:
                v[j] = inv * v[j]
        for p, row, rsup in self._rows:
            f = row[pivot]
            if f._a or f._b:
                f = -f
                for j in support:
                    row[j] = muladd(row[j], f, v[j])
                cols = set(rsup)
                cols.update(support)
                rsup[:] = [j for j in sorted(cols) if row[j]._a or row[j]._b]
        insort(self._rows, (pivot, v, support))   # pivots are distinct
        return tuple(v)

    def coordinates(self, vector):
        """Coefficients of ``vector`` in the canonical basis, or None."""
        v, coeffs = _reduce(vector, self._rows)
        if not vec_is_zero(v):
            return None
        return tuple(coeffs)

    @property
    def basis(self) -> tuple:
        return tuple(tuple(row) for _, row, _ in self._rows)

    @property
    def pivots(self) -> list:
        return [p for p, _, _ in self._rows]


def solve(a: DenseMatrix, b):
    """Canonical solution of a x = b, or None when inconsistent.

    The solution is read off the reduced echelon form of the augmented
    matrix with all free variables set to zero.
    """
    b = tuple(Scalar.of(x) for x in b)
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} does not match {a.rows} rows")
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    rows, pivots = rref(aug)
    x = [ZERO] * a.cols
    for row, p in zip(rows, pivots):
        if p == a.cols:
            return None
        x[p] = row[a.cols]
    return tuple(x)


def inverse(m: DenseMatrix):
    """The inverse of a square matrix, or None when m is singular or not
    square."""
    n = m.rows
    if m.cols != n:
        return None
    aug = []
    for i in range(n):
        row = list(m.row(i)) + [ZERO] * n
        row[n + i] = ONE
        aug.append(row)
    rows, pivots = rref(aug)
    if len(rows) != n or pivots[:n] != list(range(n)):
        return None
    return DenseMatrix.from_rows([row[n:] for row in rows])


def _null_vectors(rows, pivots, cols: int) -> list:
    """The null space basis of reduced echelon ``rows`` with pivot
    columns ``pivots``: per free column f, ascending, the vector with 1
    at f and -row[f] at each row's pivot."""
    out = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [ZERO] * cols
        v[f] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        out.append(tuple(v))
    return out


def kernel(a: DenseMatrix) -> Subspace:
    """Kernel of a matrix as a canonical Subspace."""
    rows, pivots = rref(a.row_lists())
    return Subspace.from_vectors(a.cols, _null_vectors(rows, pivots, a.cols))


def kernel_image(a: DenseMatrix):
    """Kernel and image of a matrix, both as canonical Subspaces."""
    image = Subspace.from_vectors(a.rows,
                                  [a.column(j) for j in range(a.cols)])
    return kernel(a), image


def quotient_cohomology(d_in: DenseMatrix, d_out: DenseMatrix) -> Subspace:
    """Canonical complement of im(d_in) inside ker(d_out).

    Requires d_out . d_in = 0.  The representatives are the kernel basis
    reduced modulo the image and re-echelonized, so they only depend on
    the two subspaces.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions of the complex do not match")
    if d_in.cols and d_out.rows and not d_out.mul(d_in).is_zero_matrix():
        raise ValueError("composition d_out . d_in is nonzero")
    image_rows, _ = rref([d_in.column(j) for j in range(d_in.cols)])
    image = _echelon(image_rows)
    reduced = []
    for v in kernel(d_out).basis:
        w, _ = _reduce(v, image)
        if not vec_is_zero(w):
            reduced.append(tuple(w))
    return Subspace.from_vectors(d_in.rows, reduced)


def _inertia(g: DenseMatrix):
    """(plus, minus, zero) of a Hermitian matrix over Q(i).

    Exact congruence diagonalization with symmetric pivoting; the counts
    are Sylvester invariants.
    """
    n = g.rows
    m = [list(g.row(i)) for i in range(n)]
    plus = minus = zero = 0
    for k in range(n):
        if not m[k][k]:
            swap = next((j for j in range(k + 1, n) if m[j][j]), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                mate = next((j for j in range(k + 1, n) if m[k][j]), None)
                if mate is None:
                    zero += 1
                    continue
                # e_k + conj(x) e_mate, x = m[k][mate], has value 2|x|^2
                x = m[k][mate]
                c = x.conjugate()
                for row in m:
                    row[k] = row[k] + c * row[mate]
                m[k] = [a + x * b for a, b in zip(m[k], m[mate])]
        pivot = m[k][k]
        if pivot._a > 0:   # a real pivot's sign is its numerator's
            plus += 1
        else:
            minus += 1
        # the trailing block becomes the Hermitian Schur complement
        for r in range(k + 1, n):
            f = m[r][k] / pivot
            if f._a or f._b:
                f = -f
                rr, rk = m[r], m[k]
                for j in range(k + 1, n):
                    rr[j] = muladd(rr[j], f, rk[j])
    return plus, minus, zero


def symmetric_signature(g: DenseMatrix):
    """(p_plus, p_minus, p_zero) of a real symmetric matrix."""
    n = g.rows
    if g.cols != n:
        raise ValueError("signature of a non-square matrix")
    for x in g.entries:
        if not x.is_real():
            raise ValueError("signature requires real entries")
    for i in range(n):
        for j in range(i + 1, n):
            if g.at(i, j) != g.at(j, i):
                raise ValueError("signature requires a symmetric matrix")
    return _inertia(g)


def hermitian_definiteness(g: DenseMatrix) -> bool:
    """True iff a Hermitian matrix is positive definite."""
    n = g.rows
    if g.cols != n:
        raise ValueError("definiteness of a non-square matrix")
    for i in range(n):
        for j in range(n):
            if g.at(i, j) != g.at(j, i).conjugate():
                raise ValueError("matrix is not Hermitian")
    return _inertia(g)[0] == n
