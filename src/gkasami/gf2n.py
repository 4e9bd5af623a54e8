"""Arithmetic in E = GF(2^n) for even n, with the subfield F = GF(2^{n/2}).

Elements are plain Python ints whose binary digits are the coefficients in
the polynomial basis, so addition is XOR.  A :class:`FieldCtx` fixes one
primitive defining polynomial and takes alpha = the residue class of x as
the primitive element; everything downstream (quadratic forms, sequence
families, correlation engines) is a pure function of the context.

Every GF(2)-linear map the context uses (the reduction of a product,
multiplication by a constant, the Frobenius x -> x^(2^i), the alpha-ladder
x -> (x alpha^j)_j) is a :class:`LinearMap`: one int and a few array
entries are mapped straight from the images of the basis, more through
one table of at most 256 rows per byte of the input, so no map table grows
with n.  A context is built in O(n^2) scalar work and builds no table: the
trace mask comes from Newton's identities on the defining polynomial, the
only Frobenius map built is x -> x^(2^{n/2}), composed from squaring in
about log2 n steps, and its scalar checks map straight from the images.
The other Frobenius maps, the list of F's elements and the 2^n-entry
log/antilog, trace-pairing and subfield-index tables are built on first
use.  Each trace has one route: tr(x) is the parity of x & a mask, over
arrays tr(a y) is the parity of walsh_perm[a] & y, and the trace of y
from F onto GF(2) is tr(delta y).

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
    n=22 : x^22 + x + 1                     -> 0x400003
    n=24 : x^24 + x^7 + x^2 + x + 1         -> 0x1000087
    n=26 : x^26 + x^6 + x^2 + x + 1         -> 0x4000047
    n=28 : x^28 + x^3 + 1                   -> 0x10000009
    n=30 : x^30 + x^23 + x^2 + x + 1        -> 0x40800007
    n=32 : x^32 + x^22 + x^2 + x + 1        -> 0x100400007

Past n = TABLE_MAX_N (20) a context builds no 2^n-entry table: reading one
raises TooLarge, naming it, and so do pow_vec and element_labels, which
read them.  Scalar arithmetic, the LinearMaps and the 2^{n/2}-entry tables
(subfield_elements, beta_powers) work up to N_MAX (32).
"""

from __future__ import annotations

import math
from functools import cached_property

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
    22: 0x400003,
    24: 0x1000087,
    26: 0x4000047,
    28: 0x10000009,
    30: 0x40800007,
    32: 0x100400007,
}

N_MIN = 4
N_MAX = 32
# the 2^n-entry tables (log, antilog, walsh_perm, subfield_index) are
# built only up to this n; past it reading one raises TooLarge
TABLE_MAX_N = 20
# powers FieldCtx.powers takes one step at a time, straight from the images
# of x -> g x, before it starts doubling
SCALAR_POWERS = 1 << 5
# LinearMap.vec maps an array straight from the images while it picks at
# most this many image entries (array entries times image entries); building
# and reading the byte tables gets cheaper from about 2^10.5 picks (n = 8,
# int images) to about 2^14 (n = 20, n-vector images) on
_DIRECT_PICKS = 1 << 13
# cyclotomic_classes walks the classes in Python ints up to this modulus,
# where a walk costs about as much as the fixed overhead of the numpy route
_WALKED_MODULUS = 1 << 7


class UnsupportedN(ValueError):
    """Raised when n is odd or outside the supported desk-scale range."""


class NonPrimitivePolynomial(ValueError):
    """Raised when the defining polynomial fails the multiplicative-order check."""


class MalformedPolynomial(ValueError):
    """Raised when polynomial text does not parse as a hex bitmask."""


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


class LinearMap:
    """A GF(2)-linear map on bit vectors, from the images of the basis bits.

    images[i] is the image of bit i: an int, or a vector (then images has
    shape (bits, m) and results gain an axis of length m).  Calling the map
    maps one int straight from the (int) images, the XOR of images[i] over
    the set bits i of x, so scalar arithmetic builds no table.  vec maps an
    integer array elementwise: a small array (up to _DIRECT_PICKS) straight
    from the images too, a larger one through one table per byte of the
    input, built on first use: tables[i] is the map on bits 8i .. 8i + 7,
    so no table has more than 256 rows whatever the width, and m(x) is the
    XOR over the bytes x_i of x of tables[i][x_i].  vec reads each int64
    entry as a bit pattern, so a map on 64 bits takes entries with bit 63
    set, which are negative.
    """

    def __init__(self, images):
        self.images = np.asarray(images, dtype=np.int64)

    @cached_property
    def tables(self) -> list[np.ndarray]:
        return [_linear_table(self.images[lo : lo + 8]) for lo in range(0, len(self.images), 8)]

    @cached_property
    def _image_list(self) -> list[int]:
        return self.images.tolist()

    def __call__(self, x: int) -> int:
        acc, images = 0, self._image_list
        while x:
            low = x & -x
            acc ^= images[low.bit_length() - 1]
            x ^= low
        return acc

    def vec(self, xs, out: np.ndarray | None = None) -> np.ndarray:
        """The map at every entry of xs; with out, the result is written
        there and the byte tables' gathers are XORed into it in place."""
        xs = np.asarray(xs)
        if xs.size * self.images.size <= _DIRECT_PICKS:
            bits = len(self.images)
            picked = (xs[..., None] >> np.arange(bits)) & 1
            if self.images.ndim > 1:
                picked = picked[..., None]
            return np.bitwise_xor.reduce(picked * self.images, axis=xs.ndim, out=out)
        first, *rest = self.tables
        # in range for entries below 2^bits; "wrap" spares take a buffered copy of out
        out = first.take(xs & 0xFF, axis=0, out=out, mode="wrap")
        for i, table in enumerate(rest, 1):
            out ^= table.take(xs >> 8 * i & 0xFF, axis=0)
        return out


class FieldCtx:
    """Immutable GF(2^n) context.

    Building one takes O(n^2) scalar work and builds no table.  It builds
    LinearMaps (whose byte tables of at most 256 rows are built on first
    use) for the reduction of a product and for squaring, from the powers
    alpha^m, m < 2n - 1, and composes x -> x^(2^{n/2}) from them
    (frobenius_map).  It checks that alpha has order 2^n - 1
    (alpha^(2^n) = alpha and the orders of beta and gamma, see
    _check_primitive), takes the absolute trace mask from Newton's
    identities (_power_sums) and checks tr(x^2) = tr(x) on the basis,
    checks that the trace pairing is nondegenerate (its inverse is the
    dual basis), that F has 2^{n/2} elements, and that
    delta + delta^(2^{n/2}) = 1 for the subfield trace's lift delta.
    Scalar arithmetic, these checks' included, needs no table: mul is a
    carry-less product reduced through a map, pow (pow(a, -1) is the
    inverse) squares through the Frobenius map, each map call XORs the images of its argument's set
    bits, trace is the parity of x & a mask, in_subfield tests
    x^(2^{n/2}) = x, and element_label takes the discrete log through
    F* x U (see _dlog).  The other Frobenius maps are composed on first
    use, subfield_elements is built on first read, and the 2^n-entry
    tables are built on first read, in O(2^n), for the engines that gather
    through them at small n, and only up to n = TABLE_MAX_N: past it
    reading one raises TooLarge.

    Public attributes (all read-only; the numpy tables have their write
    flag cleared so a context can be shared freely across workers):

    n, half      : extension degree and n/2
    poly         : defining primitive polynomial bitmask
    order        : 2^n
    group_order  : 2^n - 1
    alpha        : the residue class of x (always the int 2)
    beta         : alpha^(2^{n/2}+1), a generator of F*
    trh_lift     : an element delta with delta + delta^(2^{n/2}) = 1, so
                   the trace of y from F onto GF(2) is tr(delta * y)
    alpha_ladder      : LinearMap sending x to the n-vector (x alpha^j)_j
                        (built on first read)
    subfield_elements : int64 array, the 2^{n/2} elements of F in increasing
                        order (built on first read)
    dual_basis        : int64 array of n elements d_i with tr(alpha^j d_i) = 1
                        exactly when i = j (walsh_perm[d_i] = 1 << i); a table
                        indexed by y, of f at sum_i y_i d_i, has its Hadamard
                        transform indexed by lam directly

    Tables built on first read, of 2^{n/2} - 1 entries (beta_powers) and of
    2^n entries (the rest):

    beta_powers  : int64 array, beta_powers[j] = beta^j for 0 <= j < 2^{n/2} - 1

    log          : int64 array, log[x] = discrete log of x base alpha (log[0] = -1)
    antilog      : int64 array, antilog[i] = alpha^i for 0 <= i < 2^n - 1
    subfield_index    : int64 array, position of y within subfield_elements (-1 off F)
    walsh_perm        : int64 array, the trace pairing as bit masks:
                        tr(lam*x) is the parity of walsh_perm[lam] & x, so
                        sum_x (-1)^{f(x) + tr(lam*x)} is the plain Hadamard
                        transform of f's table evaluated at walsh_perm[lam]
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
        # alpha^m for m < 2n - 1: the basis, then x^n .. x^(2n-2) reduced
        powers = [1 << m for m in range(n)]
        x = poly ^ self.order
        for _ in range(n - 1):
            powers.append(x)
            x = self._times_alpha(x)
        self._alpha_powers = powers
        self._reduce = LinearMap(powers[n:])  # bits n .. 2n-2 of a product
        self._square = LinearMap(powers[::2])
        self._frobenius_maps: dict[int, LinearMap] = {1: self._square}
        self._half_frobenius = self.frobenius_map(self.half)
        self._check_primitive()
        self._build_dual_basis()
        self._build_subfield()
        self.dual_basis.setflags(write=False)

    # -- construction -------------------------------------------------
    #
    # Every map is GF(2)-linear (a product with a constant, the Frobenius,
    # the absolute trace, the trace pairing, x -> x^(2^{n/2}) + x), so each
    # is fixed by the images of the n basis elements alpha^j = 1 << j.

    def _times_alpha(self, x: int) -> int:
        x <<= 1
        return x ^ self.poly if x & self.order else x

    def _check_primitive(self) -> None:
        # the order test: alpha is primitive iff alpha^N = 1 and
        # alpha^(N/p) != 1 for each prime p dividing N = 2^n - 1 =
        # (q - 1)(q + 1), q = 2^{n/2}.  alpha^N = 1 exactly when alpha is a
        # unit (x does not divide the polynomial) and alpha^(2^n) = alpha,
        # two half Frobenius steps; then 1/alpha = (poly - 1)/x.  With
        # beta = alpha^(q+1) and gamma = alpha^(q-1), alpha^(N/p) is
        # beta^((q-1)/p) for p | q - 1 and gamma^((q+1)/p) for p | q + 1, and
        # as q - 1 and q + 1 are coprime, alpha has order ord(beta) ord(gamma):
        # N exactly when beta has order q - 1 (so generates F*) and gamma has
        # order q + 1
        frob, units = self._half_frobenius, (1 << self.half) - 1
        alpha_q = frob(self.alpha)
        if not self.poly & 1 or frob(alpha_q) != self.alpha:
            raise NonPrimitivePolynomial(f"{hex(self.poly)} is not primitive "
                                         f"(alpha^{self.group_order} != 1)")
        self.beta = self._times_alpha(alpha_q)
        gamma = self._mul(alpha_q, self.poly >> 1)
        if (1 in self._pows(self.beta, [units // p for p in _prime_factors(units)])
                or 1 in self._pows(gamma, [(units + 2) // p for p in _prime_factors(units + 2)])):
            order = self._order(self.beta, units) * self._order(gamma, units + 2)
            raise NonPrimitivePolynomial(f"{hex(self.poly)} is not primitive "
                                         f"(alpha has order {order})")

    def _order(self, x: int, group: int) -> int:
        """The multiplicative order of x, given x^group = 1."""
        order = group
        for p in _prime_factors(group):
            while order % p == 0 and self._raw_pow(x, order // p) == 1:
                order //= p
        return order

    def _build_dual_basis(self) -> None:
        traces = _power_sums(self.poly, self.n)  # bit m is tr(alpha^m)
        mask = self._trace_mask = traces & self.group_order
        # x -> parity(x & mask) is tr(a x) for one a, and tr(a x^2) =
        # tr(a^2 x^2), so it takes equal values at x and x^2, checked at the
        # basis and its squares (the squaring map's images), exactly when a
        # is 0 or 1; the pairing check below rules out 0
        if any((y & mask).bit_count() + (mask >> j) & 1
               for j, y in enumerate(self._square._image_list)):
            raise AssertionError("absolute trace must have tr(x^2) = tr(x)")
        # bit i of masks[j] is tr(alpha^j alpha^i) = tr(alpha^(i+j))
        self._trace_masks = [traces >> j & self.group_order for j in range(self.n)]
        dual = _unit_preimages(self._trace_masks)
        if dual is None:
            raise AssertionError("trace pairing must be nondegenerate")
        self.dual_basis = np.array(dual, dtype=np.int64)

    def _build_subfield(self) -> None:
        half = self.half
        # F is the kernel of x -> x^(2^{n/2}) + x
        half_images = [x ^ 1 << j for j, x in enumerate(self._half_frobenius._image_list)]
        self._subfield_basis = gf2_kernel_basis(half_images)
        if len(self._subfield_basis) != half:
            raise AssertionError("subfield must have 2^{n/2} elements")
        # a basis element off F has t = alpha^j + alpha^(j 2^{n/2}) in F*, so
        # 1/t = t^(2^{n/2} - 2), and delta = alpha^j / t has delta + delta^(2^{n/2}) = 1
        j = next(j for j, t in enumerate(half_images) if t)
        inverse = self._pows(half_images[j], [(1 << half) - 2])[0]
        self.trh_lift = self._mul(inverse, 1 << j)
        if self.trh_lift ^ self._half_frobenius(self.trh_lift) != 1:
            raise AssertionError("subfield trace lift must have delta + delta^(2^{n/2}) = 1")

    @cached_property
    def subfield_elements(self) -> np.ndarray:
        """int64 array, the 2^{n/2} elements of F in increasing order."""
        # kernel vector i has leading bit j_i with j_0 < j_1 < ..., so the
        # table of their combinations is already in increasing order
        return _read_only(_linear_table(self._subfield_basis))

    def frobenius_map(self, i: int) -> LinearMap:
        """x -> x^(2^i) as a LinearMap (i may be any integer; period n).

        Built once per i, on first use, as two cached maps composed by one
        vec call: x^(2^i) = (x^(2^j))^(2^(i-j)) for the largest power of two
        j < i, so a new i maps at most about 2 log2 n arrays of n images.
        """
        i %= self.n
        maps = self._frobenius_maps
        if i not in maps:
            if i == 0:
                maps[0] = LinearMap(self._alpha_powers[: self.n])
            else:
                j = 1 << (i - 1).bit_length() - 1
                maps[i] = LinearMap(self.frobenius_map(i - j).vec(self.frobenius_map(j).images))
        return maps[i]

    def times_map(self, c: int) -> LinearMap:
        """x -> c * x as a LinearMap; its images are the alpha-ladder of c."""
        images = [self._element(c)]
        for _ in range(self.n - 1):
            images.append(self._times_alpha(images[-1]))
        return LinearMap(images)

    def powers(self, g: int, count: int) -> np.ndarray:
        """int64 array [g^0, g^1, ..., g^(count - 1)].

        The first SCALAR_POWERS are single steps through the map x -> g x,
        each a scalar call straight from its images (for g = alpha, one
        shift and reduction), so its tables are never built.  Then each step
        doubles the array, out[m:m+t] = g^m * out[:t], through the map
        x -> g^m x.
        """
        out = np.empty(count, dtype=np.int64)
        filled = min(count, SCALAR_POWERS)
        step = self._times_alpha if g == self.alpha else self.times_map(g)
        head, x = [], 1
        for _ in range(filled):
            head.append(x)
            x = step(x)
        out[:filled] = head
        while filled < count:
            t = min(filled, count - filled)
            self.times_map(x).vec(out[:t], out=out[filled : filled + t])
            filled += t
            x = step(int(out[filled - 1]))
        return out

    @cached_property
    def alpha_ladder(self) -> LinearMap:
        """x -> (x alpha^j for j < n) as a LinearMap with n-vector images, so
        alpha_ladder.vec(xs) has a last axis of length n."""
        # the image of alpha^i is (alpha^(i+j))_j
        powers = np.array(self._alpha_powers, dtype=np.int64)
        return LinearMap(powers[np.add.outer(np.arange(self.n), np.arange(self.n))])

    # -- tables built on first read -------------------------------------

    def _require_table(self, name: str) -> None:
        if self.n > TABLE_MAX_N:
            raise TooLarge(f"the 2^n-entry table {name} is built only for n <= {TABLE_MAX_N} "
                           f"(TABLE_MAX_N), not n = {self.n}")

    @cached_property
    def antilog(self) -> np.ndarray:
        self._require_table("antilog")
        return _read_only(self.powers(self.alpha, self.group_order))

    @cached_property
    def log(self) -> np.ndarray:
        self._require_table("log")
        log = np.full(self.order, -1, dtype=np.int32)
        log[self.antilog] = np.arange(self.group_order, dtype=np.int32)
        return _read_only(log.astype(np.int64))

    @cached_property
    def walsh_perm(self) -> np.ndarray:
        self._require_table("walsh_perm")
        return _read_only(_linear_table(self._trace_masks))

    @cached_property
    def subfield_index(self) -> np.ndarray:
        self._require_table("subfield_index")
        index = np.full(self.order, -1, dtype=np.int64)
        index[self.subfield_elements] = np.arange(1 << self.half)
        return _read_only(index)

    # -- scalar operations --------------------------------------------

    def _element(self, x: int) -> int:  # so that no table index wraps
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not an element of GF(2^{self.n})")
        return x

    def _mul(self, a: int, b: int) -> int:
        """a * b for elements a, b: a carry-less product, one shift per set bit
        of b, with its bits n .. 2n-2 reduced through a map."""
        acc = 0
        while b:
            low = b & -b
            acc ^= a * low
            b ^= low
        return (acc & self.group_order) ^ self._reduce(acc >> self.n)

    def _pows(self, x: int, exps: list[int]) -> list[int]:
        """[x^e for e in exps] (e >= 0): each the product of the squares
        x^(2^i) over the set bits i of e, from one run of squarings through
        the Frobenius map for all of exps."""
        squares = [x]
        for _ in range(max(exps).bit_length() - 1):
            squares.append(self._square(squares[-1]))
        out = []
        for e in exps:
            acc = 1
            for i, y in enumerate(squares):
                if e >> i & 1:
                    acc = self._mul(y, acc)
            out.append(acc)
        return out

    def _raw_pow(self, a: int, e: int) -> int:
        """a^e for e >= 0 by square-and-multiply (_pows)."""
        return self._pows(a, [e])[0]

    def mul(self, a: int, b: int) -> int:
        self._element(a)
        return self._mul(a, self._element(b))

    def pow(self, a: int, e: int) -> int:
        """a^e with the exponent reduced mod 2^n - 1; 0^0 = 1, 0^e = 0 for e > 0."""
        if self._element(a) == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._raw_pow(a, e % self.group_order)

    def trace(self, x: int) -> int:
        """Absolute trace onto GF(2), as an int 0 or 1."""
        return (self._element(x) & self._trace_mask).bit_count() & 1

    def in_subfield(self, x: int) -> bool:
        """True exactly for the elements of F; False for any x outside [0, 2^n).
        One test maps x straight from the half Frobenius map's images."""
        return 0 <= x < self.order and self._half_frobenius(x) == x

    @property
    def poly_hex(self) -> str:
        return poly_to_hex(self.poly)

    def element_label(self, x: int) -> str:
        """'0' for zero, 'a^j' for alpha^j otherwise."""
        if self._element(x) == 0:
            return "0"
        return f"a^{self._dlog(x)}"

    def element_labels(self) -> list[str]:
        """[element_label(x) for x in E], indexed by x, from one read of log."""
        return ["0"] + [f"a^{j}" for j in self.log[1:].tolist()]

    @cached_property
    def beta_powers(self) -> np.ndarray:
        """int64 array [beta^0, ..., beta^(2^{n/2} - 2)]: every element of F*."""
        return _read_only(self.powers(self.beta, (1 << self.half) - 1))

    @cached_property
    def _half_logs(self) -> tuple[tuple[np.ndarray, np.ndarray],
                                  tuple[np.ndarray, np.ndarray], int, int]:
        """Logs on F* (base beta) and on U = {u : u^(2^{n/2}+1) = 1} (base
        gamma = alpha^(2^{n/2}-1)), each as its powers in increasing order
        and their exponents (_sorted_logs), and the CRT weights that join a
        residue mod 2^{n/2} - 1 and one mod 2^{n/2} + 1."""
        units = (1 << self.half) - 1
        gamma_powers = self.powers(self.pow(self.alpha, units), units + 2)
        return (_sorted_logs(self.beta_powers), _sorted_logs(gamma_powers),
                (units + 2) * pow(units + 2, -1, units),
                units * pow(units, -1, units + 2))

    def _dlog(self, x: int) -> int:
        """log_alpha x for x != 0: with L = log x and q = 2^{n/2}, the norm
        x^(q+1) = beta^L fixes L mod q - 1, and x^(q-1) = gamma^L fixes L mod q + 1.
        Each log is one binary search of the sorted powers."""
        (beta_keys, beta_logs), (gamma_keys, gamma_logs), w1, w2 = self._half_logs
        xq = self._half_frobenius(x)
        l1 = int(beta_logs[beta_keys.searchsorted(self._mul(xq, x))])
        # x^(q-1) = x^(2q) / x^(q+1), and 1 / x^(q+1) = beta^(-l1)
        inverse = int(self.beta_powers[-l1 % len(beta_keys)])
        l2 = int(gamma_logs[gamma_keys.searchsorted(self._mul(self._square(xq), inverse))])
        return (l1 * w1 + l2 * w2) % self.group_order

    # -- vector operations (numpy arrays of elements) ------------------

    def scale_vec(self, c: int, xs) -> np.ndarray:
        """Elementwise c * xs, through times_map(c)."""
        return self.times_map(c).vec(_field_elements(self, xs))

    def pow_vec(self, xs, e: int) -> np.ndarray:
        """Elementwise xs^e (e >= 1)."""
        if e < 1:
            raise ValueError("pow_vec requires e >= 1")
        xs = _field_elements(self, xs)
        return np.where(xs != 0, self.antilog[self.log[xs] * e % self.group_order], 0)

    def frob_vec(self, xs, i: int) -> np.ndarray:
        """Elementwise xs^(2^i), through frobenius_map."""
        return self.frobenius_map(i).vec(_field_elements(self, xs))


def make_field(n: int, poly: int | None = None) -> FieldCtx:
    """Build a GF(2^n) context, verifying the polynomial is primitive."""
    return FieldCtx(n, poly)


def _field_elements(ctx: FieldCtx, xs) -> np.ndarray:
    """xs as an int64 array; ValueError unless every entry lies in [0, 2^n)."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 0 or xs.max() >= ctx.order):
        bad = xs[(xs < 0) | (xs >= ctx.order)][0]
        raise ValueError(f"{bad} is not an element of GF(2^{ctx.n}): "
                         f"field elements must lie in [0, {ctx.order})")
    return xs


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sorted_logs(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """powers[j] = g^j for the j below g's order, as (the powers in
    increasing order, their exponents j): the log of g^j is at its position."""
    logs = np.argsort(powers)
    return powers[logs], logs


def _power_sums(poly: int, n: int) -> int:
    """The traces tr(alpha^m) for m < 2n - 1, as bit m of one int, for alpha
    a root of poly (degree n, even, irreducible).

    The roots of poly = x^n + sum_{i<n} c_i x^i are the n conjugates of
    alpha, so tr(alpha^m) is their m-th power sum s_m, and Newton's
    identities give s_m = sum_{1 <= i < m, i <= n} c_{n-i} s_{m-i} + m c_{n-m}
    mod 2 (the last term for m <= n only), with s_0 = n mod 2 = 0: 2n - 2
    steps of a few int operations, no field arithmetic.  Bit i of taps is
    c_{n-i} (1 <= i <= n), and bit i of window is s_{m-i}.
    """
    taps = int(bin(poly)[:1:-1], 2) & ~1
    sums = window = 0
    for m in range(1, 2 * n - 1):
        s = ((window & taps).bit_count() + (m & taps >> m & 1)) & 1
        sums |= s << m
        window = (window | s) << 1
    return sums


def _prime_factors(m: int) -> set[int]:
    """The primes dividing m >= 1, by trial division."""
    primes, p = set(), 2
    while p * p <= m:
        while m % p == 0:
            primes.add(p)
            m //= p
        p += 1
    if m > 1:
        primes.add(m)
    return primes


def _linear_table(images, dtype=np.int64) -> np.ndarray:
    """Table of the GF(2)-linear map sending basis bit i to images[i].

    out[x] is the XOR of images[i] over the set bits i of x, for every x
    below 2^len(images), as dtype; filled by doubling,
    out[2^i:2^{i+1}] = out[:2^i] ^ images[i].  Images may be vectors (an
    array of shape (bits, m)), and then out has shape (2^bits, m).
    """
    images = np.asarray(images, dtype=dtype)
    out = np.zeros((1 << len(images),) + images.shape[1:], dtype=dtype)
    for i, img in enumerate(images):
        h = 1 << i
        np.bitwise_xor(out[:h], img, out=out[h : 2 * h])
    return out


def _echelon(images: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Column reduction of the GF(2)-linear map sending 1<<j to images[j]:
    pivots[b] = (image, combo), one reduced image per leading bit b and the
    mask of the basis vectors whose images sum to it, and the kernel, the
    combos whose image reduced to 0.  The combo of column j has leading bit j.
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
    return pivots, kernel


def gf2_kernel_basis(images: list[int]) -> list[int]:
    """Kernel basis of the GF(2)-linear map sending basis vector 1<<j to
    images[j], as coefficient masks (the kernel elements themselves in a
    field's polynomial basis), with strictly increasing leading bits."""
    return _echelon(images)[1]


def _unit_preimages(images: list[int]) -> list[int] | None:
    """Preimage of each unit vector 1<<i under the GF(2)-linear map sending
    1<<j to the n-bit images[j], as a list indexed by i; None when the map is
    singular.  Otherwise there is a pivot at every bit i, and the preimage of
    1<<i is its combo plus the preimages of its image's bits below i."""
    pivots, kernel = _echelon(images)
    if kernel:
        return None
    preimages: list[int] = []
    for i in range(len(images)):
        col, combo = pivots[i]
        for b in range(i):
            if col >> b & 1:
                combo ^= preimages[b]
        preimages.append(combo)
    return preimages


def half_odd(n: int) -> bool:
    """True when n/2 is odd, the parity of n/2 that splits every closed form."""
    return (n // 2) % 2 == 1


def cyclotomic_classes(modulus: int, mult: int) -> tuple[np.ndarray, np.ndarray]:
    """The classes of l -> mult * l mod modulus on the residues 0..modulus-1.

    Returns (leaders, index): the least residue of each class as an int64
    array in increasing order, and index[l], the position in leaders of the
    class of l, so np.bincount(index) is the class sizes.  mult must be a
    unit mod modulus.  With modulus = 2^n - 1 and mult = 2 the class of l
    holds the logs of the Frobenius class {theta^(2^i)} of theta = alpha^l;
    mult = 4 gives the classes of theta -> theta^4.  Integer arithmetic
    only.  Up to _WALKED_MODULUS residues each class is walked in Python
    ints from its least residue, the least one not yet reached, so tiny
    moduli pay no numpy call.  Past it every residue takes the minimum over
    its images mult^i l, i below the order s of mult, by pointer jumping:
    with image the map l -> mult^m l, low = min(low, low[image]) doubles the
    m images each minimum covers and image[image] doubles m, so
    ceil(log2 s) rounds of gathers cover them all, with no % sweep.
    """
    if modulus < 1 or math.gcd(mult, modulus) != 1:
        raise ValueError(f"{mult} is not a unit mod {modulus}")
    mult %= modulus
    if modulus <= _WALKED_MODULUS:
        index, leaders = [-1] * modulus, []
        for l in range(modulus):
            if index[l] < 0:
                x = l
                while index[x] < 0:
                    index[x] = len(leaders)
                    x = x * mult % modulus
                leaders.append(l)
        return np.array(leaders, dtype=np.int64), np.array(index, dtype=np.int64)
    steps, unit = 1, mult
    while unit != 1:
        steps, unit = steps + 1, unit * mult % modulus
    # mult * l, less modulus once for each r * modulus it has passed
    image = np.arange(0, mult * modulus, mult, dtype=np.int64)
    for r in range(1, mult):
        image[-(-r * modulus // mult):] -= modulus
    low, rounds = np.arange(modulus, dtype=np.int64), (steps - 1).bit_length()
    for r in range(rounds):
        np.minimum(low, low.take(image), out=low)
        if r + 1 < rounds:
            image = image.take(image)
    leaders = np.flatnonzero(low == np.arange(modulus))
    place = np.empty(modulus, dtype=np.int64)  # read at the leaders only
    place[leaders] = np.arange(leaders.size)
    return leaders, place.take(low)
