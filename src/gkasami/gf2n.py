"""Arithmetic in E = GF(2^n) for even n, with the subfield F = GF(2^{n/2}).

Elements are plain Python ints whose binary digits are the coefficients in
the polynomial basis, so addition is XOR.  A :class:`FieldCtx` fixes one
primitive defining polynomial, takes alpha = the residue class of x as the
primitive element, and precomputes log/antilog and trace tables; everything
downstream (quadratic forms, sequence families, correlation engines) is a
pure function of the context.

The subfield F is never given its own bit width: it is the set of elements
of E fixed by the (n/2)-fold Frobenius, and beta = alpha^(2^{n/2}+1)
generates F*.

Default primitive polynomials, one per supported degree (primitivity is
re-verified whenever a context is built, so a corrupted table cannot go
unnoticed):

    n=4  : x^4 + x + 1                      -> 0x13
    n=6  : x^6 + x + 1                      -> 0x43
    n=8  : x^8 + x^4 + x^3 + x^2 + 1        -> 0x11d
    n=10 : x^10 + x^3 + 1                   -> 0x409
    n=12 : x^12 + x^6 + x^4 + x + 1         -> 0x1053
    n=14 : x^14 + x^10 + x^6 + x + 1        -> 0x4443
    n=16 : x^16 + x^12 + x^3 + x + 1        -> 0x1100b
    n=18 : x^18 + x^7 + 1                   -> 0x40081
    n=20 : x^20 + x^3 + 1                   -> 0x100009
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_POLYS: dict[int, int] = {
    4: 0x13,
    6: 0x43,
    8: 0x11D,
    10: 0x409,
    12: 0x1053,
    14: 0x4443,
    16: 0x1100B,
    18: 0x40081,
    20: 0x100009,
}

N_MIN = 4
N_MAX = 20
# powers of alpha computed one step at a time before the blocked build takes over
SCALAR_POWERS = 1 << 10


class UnsupportedN(ValueError):
    """Raised when n is odd or outside the supported desk-scale range."""


class NonPrimitivePolynomial(ValueError):
    """Raised when the defining polynomial fails the multiplicative-order check."""


class MalformedPolynomial(ValueError):
    """Raised when polynomial text does not parse as a hex bitmask."""


class NonDivisor(ValueError):
    """Raised when a trace is requested onto GF(2^m) with m not dividing n."""


class TooLarge(ValueError):
    """Raised when an exhaustive computation is requested beyond its size guard."""


def poly_to_hex(poly: int) -> str:
    """Serialize a polynomial bitmask (bit i = coefficient of x^i) as hex."""
    return hex(poly)


def poly_from_hex(text: str) -> int:
    """Parse a polynomial bitmask written in hex, e.g. '0x13'."""
    try:
        return int(text, 16)
    except ValueError:
        raise MalformedPolynomial(f"{text!r} is not a hex polynomial bitmask") from None


class FieldCtx:
    """Immutable GF(2^n) context.

    Public attributes (all read-only; the numpy tables have their write
    flag cleared so a context can be shared freely across workers):

    n, half      : extension degree and n/2
    poly         : defining primitive polynomial bitmask
    order        : 2^n
    group_order  : 2^n - 1
    alpha        : the residue class of x (always the int 2)
    beta         : alpha^(2^{n/2}+1), a generator of F*
    log          : int64 array, log[x] = discrete log of x base alpha (log[0] = -1)
    antilog      : int64 array, antilog[i] = alpha^i for 0 <= i < 2^n - 1
    tr1          : uint8 array, tr1[x] = absolute trace of x
    trh          : uint8 array, trh[y] = trace of y from F onto GF(2)
                   (meaningful only for y in F; 0 elsewhere)
    subfield_mask     : bool array, True exactly on F
    subfield_elements : int64 array, the 2^{n/2} elements of F in increasing order
    subfield_index    : int64 array, position of y within subfield_elements (-1 off F)
    walsh_perm        : int64 array, the dual-basis reindexing used by the fast
                        Walsh transform: sum_x (-1)^{tr(lam*x) + ...} is the
                        plain Hadamard transform evaluated at walsh_perm[lam]
    """

    def __init__(self, n: int, poly: int | None = None):
        if n % 2 != 0 or not (N_MIN <= n <= N_MAX):
            raise UnsupportedN(f"n must be even with {N_MIN} <= n <= {N_MAX}, got {n}")
        if poly is None:
            poly = DEFAULT_POLYS[n]
        if poly < 0 or poly.bit_length() - 1 != n:
            raise NonPrimitivePolynomial(
                f"defining polynomial must have degree {n}, got {hex(poly)}"
            )
        self.n = n
        self.half = n // 2
        self.poly = poly
        self.order = 1 << n
        self.group_order = self.order - 1
        self.alpha = 2
        self._build_log_tables()
        self.beta = int(self.antilog[((1 << self.half) + 1) % self.group_order])
        self._build_trace_tables()
        self._build_subfield_tables()
        self._build_walsh_perm()
        for arr in (
            self.log,
            self.antilog,
            self.tr1,
            self.trh,
            self.subfield_mask,
            self.subfield_elements,
            self.subfield_index,
            self.walsh_perm,
        ):
            arr.setflags(write=False)

    # -- construction -------------------------------------------------
    #
    # Every table is the table of a GF(2)-linear map (multiplication by
    # alpha^m, the absolute trace, the trace pairing, x -> x^(2^{n/2}) + x),
    # so each is filled by _linear_table from the images of the n basis
    # elements; only the first SCALAR_POWERS powers of alpha are scalar steps.

    def _times_alpha(self, x: int) -> int:
        x <<= 1
        return x ^ self.poly if x & self.order else x

    def _build_log_tables(self) -> None:
        order, group, poly = self.order, self.group_order, self.poly
        antilog = np.empty(group, dtype=np.int64)
        filled = min(group, SCALAR_POWERS)
        x = 1
        for i in range(filled):
            antilog[i] = x
            x = self._times_alpha(x)
        # x = alpha^filled; antilog[m:m+t] = alpha^m * antilog[:t]
        while filled < group:
            t = min(filled, group - filled)
            images = [x]
            for _ in range(self.n - 1):
                images.append(self._times_alpha(images[-1]))
            antilog[filled : filled + t] = _linear_table(images)[antilog[:t]]
            filled += t
            x = self._times_alpha(int(antilog[filled - 1]))
        log = np.full(order, -1, dtype=np.int64)
        log[antilog] = np.arange(group, dtype=np.int64)
        # alpha is primitive iff its 2^n - 1 powers cover every nonzero
        # element (so they are distinct) and alpha^(2^n - 1) = 1
        if np.any(log[1:] < 0) or x != 1:
            early = np.flatnonzero(antilog[1:] == 1)
            detail = f" (alpha has order {early[0] + 1})" if len(early) else ""
            raise NonPrimitivePolynomial(f"{hex(poly)} is not primitive{detail}")
        self.log = log
        self.antilog = antilog

    def _build_trace_tables(self) -> None:
        basis = self.antilog[: self.n]  # alpha^j is the basis element 1 << j
        tr1 = np.bitwise_xor.reduce([self.frob_vec(basis, i) for i in range(self.n)])
        if not np.all((tr1 == 0) | (tr1 == 1)):
            raise AssertionError("absolute trace must land in GF(2)")
        self.tr1 = _linear_table(tr1).astype(np.uint8)

    def _build_subfield_tables(self) -> None:
        # F is the kernel of x -> x^(2^{n/2}) + x
        basis = self.antilog[: self.n]
        kernel = gf2_kernel_basis((self.frob_vec(basis, self.half) ^ basis).tolist(), self.n)
        if len(kernel) != self.half:
            raise AssertionError("subfield must have 2^{n/2} elements")
        # kernel vector i has leading bit j_i with j_0 < j_1 < ..., so the
        # table of their combinations is already in increasing order
        self.subfield_elements = _linear_table(kernel)
        # trace from F onto GF(2), at the same combinations of the kernel basis
        kernel = np.array(kernel, dtype=np.int64)
        kernel_tr = np.bitwise_xor.reduce([self.frob_vec(kernel, i) for i in range(self.half)])
        if not np.all((kernel_tr == 0) | (kernel_tr == 1)):
            raise AssertionError("subfield trace must land in GF(2)")
        self.subfield_mask = np.zeros(self.order, dtype=bool)
        self.subfield_mask[self.subfield_elements] = True
        self.subfield_index = np.full(self.order, -1, dtype=np.int64)
        self.subfield_index[self.subfield_elements] = np.arange(1 << self.half)
        self.trh = np.zeros(self.order, dtype=np.uint8)
        self.trh[self.subfield_elements] = _linear_table(kernel_tr)
        # beta must generate F*: its order is (2^n-1)/gcd(2^n-1, 2^{n/2}+1) = 2^{n/2}-1
        half_group = (1 << self.half) - 1
        if self.pow(self.beta, half_group) != 1 or any(
            self.pow(self.beta, d) == 1
            for d in range(1, half_group)
            if half_group % d == 0
        ):
            raise AssertionError("beta must have order 2^{n/2} - 1")

    def _build_walsh_perm(self) -> None:
        masks = []
        for j in range(self.n):
            m = 0
            for i in range(self.n):
                if self.tr1[self.mul(1 << j, 1 << i)]:
                    m |= 1 << i
            masks.append(m)
        if gf2_kernel_basis(masks, self.n):
            raise AssertionError("trace pairing must be nondegenerate")
        self.walsh_perm = _linear_table(masks)

    # -- scalar operations --------------------------------------------

    def _element(self, x: int) -> int:  # so that no table index wraps
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not an element of GF(2^{self.n})")
        return x

    def mul(self, a: int, b: int) -> int:
        if self._element(a) == 0 or self._element(b) == 0:
            return 0
        return int(self.antilog[(self.log[a] + self.log[b]) % self.group_order])

    def inv(self, a: int) -> int:
        if self._element(a) == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.antilog[(-self.log[a]) % self.group_order])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e with the exponent reduced mod 2^n - 1; 0^0 = 1, 0^e = 0 for e > 0."""
        if self._element(a) == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return int(self.antilog[(self.log[a] * e) % self.group_order])

    def frobenius(self, x: int, i: int) -> int:
        """x^(2^i), the i-fold Frobenius (i may be any integer; period n)."""
        return self.pow(x, 1 << (i % self.n))

    def trace(self, x: int) -> int:
        """Absolute trace onto GF(2), as an int 0 or 1."""
        return int(self.tr1[self._element(x)])

    def trace_to_subfield(self, x: int, m: int) -> int:
        """Trace of x onto GF(2^m) embedded in E; m must divide n."""
        if m <= 0 or self.n % m != 0:
            raise NonDivisor(f"m = {m} does not divide n = {self.n}")
        acc = 0
        for i in range(self.n // m):
            acc ^= self.frobenius(x, i * m)
        return acc

    def in_subfield(self, x: int) -> bool:
        """True exactly for the elements of F; False for any x outside [0, 2^n)."""
        return 0 <= x < self.order and bool(self.subfield_mask[x])

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    @property
    def poly_hex(self) -> str:
        return poly_to_hex(self.poly)

    def element_label(self, x: int) -> str:
        """'0' for zero, 'a^j' for alpha^j otherwise."""
        if self._element(x) == 0:
            return "0"
        return f"a^{int(self.log[x])}"

    def element_from_label(self, text: str) -> int:
        if text == "0":
            return 0
        if not text.startswith("a^"):
            raise ValueError(f"bad element label {text!r}")
        return int(self.antilog[int(text[2:]) % self.group_order])

    # -- vector operations (numpy arrays of elements) ------------------

    def scale_vec(self, c: int, xs: np.ndarray) -> np.ndarray:
        """Elementwise c * xs."""
        out = np.zeros_like(xs)
        if c == 0:
            return out
        nz = xs != 0
        out[nz] = self.antilog[(self.log[c] + self.log[xs[nz]]) % self.group_order]
        return out

    def pow_vec(self, xs: np.ndarray, e: int) -> np.ndarray:
        """Elementwise xs^e (e >= 1)."""
        if e < 1:
            raise ValueError("pow_vec requires e >= 1")
        out = np.zeros_like(xs)
        nz = xs != 0
        out[nz] = self.antilog[(self.log[xs[nz]] * e) % self.group_order]
        return out

    def frob_vec(self, xs: np.ndarray, i: int) -> np.ndarray:
        return self.pow_vec(xs, 1 << (i % self.n))

    def scale_all(self, c: int) -> np.ndarray:
        """The array [c*x for x in E] indexed by x."""
        return self.scale_vec(c, np.arange(self.order, dtype=np.int64))


def make_field(n: int, poly: int | None = None) -> FieldCtx:
    """Build a GF(2^n) context, verifying the polynomial is primitive."""
    return FieldCtx(n, poly)


def _linear_table(images) -> np.ndarray:
    """Table of the GF(2)-linear map sending basis bit i to images[i].

    out[x] is the XOR of images[i] over the set bits i of x, for every x
    below 2^len(images); filled by doubling, out[2^i:2^{i+1}] = out[:2^i] ^ images[i].
    """
    out = np.zeros(1 << len(images), dtype=np.int64)
    for i, img in enumerate(images):
        h = 1 << i
        np.bitwise_xor(out[:h], int(img), out=out[h : 2 * h])
    return out


def gf2_kernel_basis(images: list[int], dim: int) -> list[int]:
    """Kernel basis of the GF(2)-linear map sending basis vector 1<<j to images[j].

    Vectors are int bitmasks of length dim.  The returned basis vectors are
    the coefficient masks of kernel elements, i.e. the kernel elements
    themselves when the basis is the polynomial basis of a field.  The
    vector found at column j has leading bit j, so the leading bits of the
    returned basis strictly increase.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, col in enumerate(images):
        combo = 1 << j
        while col:
            b = col.bit_length() - 1
            if b not in pivots:
                pivots[b] = (col, combo)
                break
            pc, pcombo = pivots[b]
            col ^= pc
            combo ^= pcombo
        else:
            kernel.append(combo)
    return kernel


def half_odd(n: int) -> bool:
    """True when n/2 is odd, the parity of n/2 that splits every closed form."""
    return (n // 2) % 2 == 1


def gcd_pow2_plus_one(n: int, k: int) -> int:
    """gcd(2^k + 1, 2^n - 1): 1 when n/gcd(n,k) is odd, else 2^gcd(n,k) + 1."""
    d = math.gcd(n, k)
    return 1 if (n // d) % 2 == 1 else (1 << d) + 1
