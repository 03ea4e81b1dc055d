"""Spatial stress fields of deformation maps, and jump compatibility checks.

stress_field samples points of an annulus, pushes the whole stack of points
through a map's gradient and an energy's Cauchy stress, and summarizes how
homogeneous the resulting field is.  Point sampling uses a self-contained
64-bit linear congruential generator (Knuth's MMIX multiplier
6364136223846793005 and increment 1442695040888963407, top 53 bits as the
uniform draw), one draw per coordinate, so a fixed seed reproduces the
exact same bytes in the CSV output everywhere.  The sampler takes its draws
in blocks by jump-ahead, s_{i+m} = A_m s_i + C_m (mod 2^64), in uint64
arithmetic (F. Brown, "Random number generation with arbitrary strides",
Trans. ANS 1994); the blocks are the exact stream of Lcg64.next_uniform,
and the points are the first n accepted, in stream order.

jump_check measures rank-one compatibility of one pair of gradients
through the SVD of F1 - F2, which resolves a zero singular value to
rounding level (eigenvalues of (F1 - F2)^T (F1 - F2) would square it away).
The SVD is the LAPACK gufunc that np.linalg.svd(D, compute_uv=False) calls,
called directly: the same bits without the wrapper's checks, casts and
errstate context (a numpy without that private name gets the wrapper);
jump_check's docstring states its refusals and fast paths.
For planar conformal pairs it also reports det(F1 - F2) as the sum of two
squares, the reason two distinct conformal states can never form a laminate.

write_field_csv formats each distinct value once, with a numpy kernel
(_g17_texts) that gives the bytes of '%.17g' % v.  json_text, the one JSON
writer of the package (the CLI payloads and write_summary_json), gives the
text of json.dumps(obj, indent=2, allow_nan=False) with each distinct float
formatted once, and refuses a NaN, an infinity or a type JSON has no text for
with a one-line ConfmechError.

The records are immutable NamedTuples: AnnulusDomain refuses its bad
shells in __new__, and StressFieldSummary copies with _replace.
FieldSamples is a __slots__ class of five read-only stacks, since len,
indexing and iteration take it by points.  No record is a dataclass, whose
methods are compiled with exec when the module loads.
"""

import functools
import math
import warnings
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

try:  # the gufunc np.linalg.svd(D, compute_uv=False) calls for real input, without its wrapper
    from numpy.linalg._umath_linalg import svd as _lapack_svd
except ImportError:  # a numpy without that private name: the wrapper, the same bits, and NaN where it fails
    def _lapack_svd(D):
        try:
            return np.linalg.svd(D, compute_uv=False)
        except np.linalg.LinAlgError:
            return np.full(len(D), np.nan)

from .exceptions import ConfmechError, InadmissibleDomainWarning
from .energies import DEFAULT_C, CompositeEnergy, VolumetricTerm, _values
from .conformal import RADIUS_CEILING, fd_gradient
from .tensors import (
    as_square, det_of_entries, frobenius_norm, require_count, require_dim, require_gl_plus, require_seed,
    require_tolerance,
)

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1
# points drawn per block at most, whatever the acceptance rate
SAMPLER_BLOCK = 1 << 16
# expected bounding-box points of one sample at most
SAMPLER_BUDGET = 1 << 26


def _lcg_step(state):
    return (LCG_MULT * state + LCG_INC) & LCG_MASK


class Lcg64:
    """Deterministic 64-bit linear congruential generator (documented in module docstring)."""

    def __init__(self, seed):
        # one step past the seed decorrelates small seeds
        self.state = _lcg_step((int(seed) ^ 0x9E3779B97F4A7C15) & LCG_MASK)

    def next_uniform(self):
        self.state = _lcg_step(self.state)
        return (self.state >> 11) / float(1 << 53)

    def uniforms(self, k):
        """The next k >= 1 draws as an array, the values of k next_uniform calls.

        Block m of the states follows from the first m by s_{i+m} = A_m s_i
        + C_m, with (A_m, C_m) doubled to (A_m^2, A_m C_m + C_m) each step.
        """
        s = np.empty(k, dtype=np.uint64)
        s[0] = _lcg_step(self.state)
        a, c, m = LCG_MULT, LCG_INC, 1
        while m < k:
            j = min(m, k - m)
            s[m:m + j] = s[:j] * np.uint64(a) + np.uint64(c)
            a, c, m = a * a & LCG_MASK, (a * c + c) & LCG_MASK, 2 * m
        self.state = int(s[-1])
        return (s >> np.uint64(11)) / float(1 << 53)


class AnnulusDomain(namedtuple("AnnulusDomain", "dim r_min r_max")):
    """The shell r_min <= |x| <= r_max of dimension dim, the int 2 or 3; an immutable NamedTuple.

    Refused unless 0 < r_min < r_max, r_min >= 2^-511 and r_max sqrt(dim) <=
    RADIUS_CEILING: past them |x|^2 overflows or underflows to 0, and no draw is kept.
    _make and _replace go through the same refusals.
    """

    __slots__ = ()

    def __new__(cls, dim, r_min, r_max):
        require_dim(dim)
        if not (0.0 < r_min < r_max):
            raise ConfmechError("need 0 < r_min < r_max")
        if not (r_min >= 2.0**-511 and r_max * math.sqrt(dim) <= RADIUS_CEILING):
            raise ConfmechError(
                "annulus %r <= |x| <= %r needs r_min >= 2^-511 and r_max sqrt(dim) <= %r"
                % (r_min, r_max, RADIUS_CEILING)
            )
        return super().__new__(cls, dim, r_min, r_max)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def acceptance_rate(self):
        """Share of the bounding box [-r_max, r_max]^dim inside the annulus."""
        ball = np.pi / 4.0 if self.dim == 2 else np.pi / 6.0
        return ball * (1.0 - (self.r_min / self.r_max) ** self.dim)


def admissible_annulus(map_kind, c=DEFAULT_C):
    """Annulus on which det grad phi spans exactly [e, c] for the builtin maps.

    map_kind "phi2d" (det = |x|^{-4}) or "phi3d" (det = |x|^{-6}); endpoints
    included, r in [c^{-1/4}, e^{-1/4}] resp. [c^{-1/6}, e^{-1/6}].
    """
    c = VolumetricTerm(c).c  # which refuses a c that is not a real number, finite and above e
    dim = {"phi2d": 2, "phi3d": 3}.get(map_kind)
    if dim is None:
        raise ConfmechError("map_kind must be 'phi2d' or 'phi3d', got %r" % (map_kind,))
    p = -1.0 / (2 * dim)
    return AnnulusDomain(dim, c**p, float(np.e) ** p)


def sample_annulus(dom, n, seed=0):
    """n points uniform in the annulus by seeded rejection from the bounding box.

    Each block draws about the number of points the rest of n needs at the
    domain's acceptance rate, at most SAMPLER_BLOCK; |x|^2 comes from
    vecdot, the BLAS ddot of x @ x.  An n that is not an int of at least 1,
    a seed that is not an int, and a shell so thin that n points take more
    than SAMPLER_BUDGET expected draws, are refused with a ConfmechError
    before any draw.
    """
    n = require_count(n, "n")
    gen = Lcg64(require_seed(seed))
    rate = dom.acceptance_rate()
    if n > SAMPLER_BUDGET * rate:
        raise ConfmechError(
            "annulus %r <= |x| <= %r keeps a share %.3g of its bounding box: %d points need "
            "about %.3g draws, more than the budget of %d"
            % (dom.r_min, dom.r_max, rate, n, n / rate, SAMPLER_BUDGET)
        )
    blocks = []
    have = 0
    while have < n:
        size = min(SAMPLER_BLOCK, int(1.05 * (n - have) / rate) + 16)
        x = ((2.0 * gen.uniforms(size * dom.dim) - 1.0) * dom.r_max).reshape(size, dom.dim)
        r = np.sqrt(np.vecdot(x, x))
        x = x[(dom.r_min <= r) & (r <= dom.r_max)][: n - have]
        blocks.append(x)
        have += len(x)
    return np.concatenate(blocks)


class FieldSamples:
    """A sampled field as stacks: point i is x[i], F[i], det_F[i], sigma[i], energy[i].

    samples[i] is the FieldSamples row of point i, each stack indexed by i
    (a slice or an index array gives the FieldSamples of those points), and
    len and iteration go by points.  The five stacks are read-only attributes.
    """

    __slots__ = ("_stacks",)
    # of shapes (n, dim), (n, dim, dim), (n,), (n, dim, dim) and (n,)
    x, F, det_F, sigma, energy = (property(lambda self, i=i: self._stacks[i]) for i in range(5))

    def __init__(self, x, F, det_F, sigma, energy):
        self._stacks = (x, F, det_F, sigma, energy)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return FieldSamples(*(stack[i] for stack in self._stacks))


class StressFieldSummary(NamedTuple):
    n_samples: int
    mean_sigma: np.ndarray
    max_deviation: float  # max Frobenius distance of any sigma from the mean
    det_range: tuple
    admissible: bool | None  # det_range inside [e, c]; None for a non-composite energy
    homogeneous: bool  # max_deviation <= tol
    worst_point: FieldSamples  # the row of the first point at max_deviation


def _summarize(samples, tol, energy):
    # a stress near the float range gives an infinite or NaN summary, which the CLI refuses
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.sigma.mean(axis=0)
        deviations = frobenius_norm(samples.sigma - mean)
    worst = int(np.argmax(deviations))
    deviation = float(deviations[worst])
    lo, hi = float(np.min(samples.det_F)), float(np.max(samples.det_F))
    # only a composite energy has a determinant band, its constant-slope [e, c]
    admissible = (np.e <= lo and hi <= energy.vol.c) if isinstance(energy, CompositeEnergy) else None
    return StressFieldSummary(
        n_samples=len(samples),
        mean_sigma=mean,
        max_deviation=deviation,
        det_range=(lo, hi),
        admissible=admissible,
        homogeneous=deviation <= tol,
        worst_point=samples[worst],
    )


def stress_field(energy, mapping, dom, n, seed=0, tol=1e-10, use_fd=False):
    """Sample the Cauchy stress field sigma(x) of a deformation over an annulus.

    Returns (samples, summary), samples a FieldSamples of stacks.  With
    use_fd the deformation gradients come from central differences of the
    map (fd_gradient) instead of the analytic gradient (tolerances around
    1e-5 are then appropriate).  For composite energies an
    InadmissibleDomainWarning is emitted when the determinant range leaves
    [e, c]; other energies have no band, and their summary's admissible is
    None.  A tol that is not finite and at least 0, and an n that is not an
    int of at least 1, are refused with a ConfmechError before any draw.
    """
    require_tolerance(tol)
    if energy.dim != dom.dim:
        raise ConfmechError("energy dimension %d != domain dimension %d" % (energy.dim, dom.dim))
    x = sample_annulus(dom, n, seed)
    F = fd_gradient(mapping, x) if use_fd else mapping.gradient(x)
    det_F, value, sigma = require_gl_plus(F), _values(energy, F), energy.cauchy_stress(F)
    if np.shape(sigma) != F.shape:
        raise ConfmechError(
            "cauchy_stress must take a stack of n matrices: for n = %d, cauchy_stress has "
            "shape %s (want %s)" % (len(F), np.shape(sigma), F.shape)
        )
    samples = FieldSamples(x, F, det_F, sigma, value)
    summary = _summarize(samples, tol, energy)
    if summary.admissible is False:
        warnings.warn(
            "determinant range %r leaves the admissible interval [e, %r]"
            % (summary.det_range, energy.vol.c),
            InadmissibleDomainWarning,
        )
    return samples, summary


# |F1| + |F2| at most: det(F1 - F2) and the squared similarity terms stay finite
JUMP_NORM_MAX = 1e100
_F64, _SQUARE_SHAPES = np.dtype(float), ((2, 2), (3, 3))  # the arrays as_square returns as they are


class JumpReport(NamedTuple):
    difference_singular_values: np.ndarray
    rank: int
    det_difference: float
    rank_one_connected: bool
    det_square_terms: tuple | None  # ((a1-a2)^2, (b1-b2)^2) for planar conformal pairs


def jump_check(F1, F2, tol=1e-9):
    """Rank-one compatibility report for the jump F1 - F2.

    A singular value counts as nonzero above tol (1 + |F1| + |F2|); a tol
    that is not finite and at least 0 is refused with a ConfmechError.  When
    both matrices are planar similarities [[a, b], [-b, a]] (entries equal
    to 1e-8 max(1, |F|)), det(F1 - F2) decomposes as (a1-a2)^2 + (b1-b2)^2,
    reported in det_square_terms; it is positive whenever F1 != F2, so the
    jump has full rank and the two states are never rank-one connected.
    The report holds no copy of F1 and F2.  |F1| + |F2| above JUMP_NORM_MAX
    (or NaN) is refused with a ConfmechError before F1 - F2 is taken.  A float
    tol and float64 np.ndarrays of shape (2, 2) or (3, 3) skip the calls of
    require_tolerance and as_square.  One pass over LAPACK's singular values of
    F1 - F2 (np.linalg.svd's bits) refuses a NaN, its non-convergence, and
    counts the rank; the rest is Python-float arithmetic with numpy's bits.
    """
    if type(tol) is not float or not 0.0 <= tol < math.inf:
        require_tolerance(tol)
    if type(F1) is not np.ndarray or F1.dtype is not _F64 or F1.shape not in _SQUARE_SHAPES:
        F1 = as_square(F1)
    if type(F2) is not np.ndarray or F2.dtype is not _F64 or F2.shape not in _SQUARE_SHAPES:
        F2 = as_square(F2)
    e1, e2 = F1.ravel().tolist(), F2.ravel().tolist()
    if len(e1) != len(e2):  # both 2x2 or 3x3 by now
        raise ConfmechError("gradients must have the same shape")
    n1, n2 = math.hypot(*e1), math.hypot(*e2)
    if not n1 + n2 <= JUMP_NORM_MAX:
        raise ConfmechError("jump too large: |F1| + |F2| = %r, not at most %r" % (n1 + n2, JUMP_NORM_MAX))
    D = F1 - F2
    d = D.ravel().tolist()
    svals = _lapack_svd(D)
    thresh = tol * (1.0 + n1 + n2)
    rank = 0
    for v in svals.tolist():
        if v > thresh:
            rank += 1
        elif v != v:
            raise ConfmechError("the SVD of F1 - F2 did not converge")
    square_terms = None
    if len(d) == 4:
        # max(1.0, n) as an expression, which saves two builtin calls
        s1, s2 = 1e-8 * (n1 if n1 > 1.0 else 1.0), 1e-8 * (n2 if n2 > 1.0 else 1.0)
        if (abs(e1[0] - e1[3]) <= s1 and abs(e1[1] + e1[2]) <= s1
                and abs(e2[0] - e2[3]) <= s2 and abs(e2[1] + e2[2]) <= s2):
            square_terms = (d[0] ** 2, d[1] ** 2)
    # by position, in field order, which builds the NamedTuple faster than by keyword
    return JumpReport(svals, rank, np.float64(det_of_entries(d)), rank == 1, square_terms)


# decimal exponents the %.17g kernel formats; others take '%.17g' % v
G17_K_MAX = 280


@functools.cache
def _g17_tables():
    """(hi, lo, quads), built on first use: at k + G17_K_MAX, hi + lo is 10^(16 - k) to
    about 2^-106 for |k| <= G17_K_MAX; quads[d] is "%04d" % d as one uint32."""
    rows = []
    for k in range(-G17_K_MAX, G17_K_MAX + 1):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        hi = num / den  # the nearest double, and lo the nearest double to the rest
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b)))
    quads = np.array([b"%04d" % d for d in range(10000)]).view(np.uint32)
    return (*np.array(rows).T, quads)


def _veltkamp(a):
    """a = hi + lo with each half short enough that products of halves are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, k):
    """Floor and fraction of a 10^(16 - k): Dekker's exact product of a and hi, plus a lo."""
    hi, lo, _ = _g17_tables()
    h, l = hi[k + G17_K_MAX], lo[k + G17_K_MAX]
    p = a * h
    a1, a2 = _veltkamp(a)
    h1, h2 = _veltkamp(h)
    t = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * l
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _digit_codes(N):
    """The 17 ASCII digits of each N in [10^16, 10^17), as an (n, 17) uint8 view."""
    high = N // 10**8
    low = N - high * 10**8
    hh, lh = high // 10**4, low // 10**4
    lead = hh // 10**4
    groups = np.stack([lead, hh - lead * 10**4, high - hh * 10**4, lh, low - lh * 10**4], 1)
    return _g17_tables()[2][groups].view(np.uint8)[:, 3:]  # "000d" and four "dddd", less "000"


def _run_texts(codes, k, sign):
    """The '%.17g' texts of (n, 17) digit codes, all of decimal exponent k and sign "" or "-"."""
    head = max(k + 1, 0) if -4 <= k < 17 else 1  # digits before the point
    if 0 < head < 17:
        point = np.full((len(codes), 1), ord("."), dtype=np.uint8)
        codes = np.concatenate([codes[:, :head], point, codes[:, head:]], axis=1)
    texts = codes.view("S%d" % codes.shape[1])[:, 0]
    if head < 17:
        texts = np.strings.rstrip(np.strings.rstrip(texts, b"0"), b".")
    if -4 <= k < 0:
        sign += "0." + "0" * (-k - 1)
    texts = np.strings.add(sign.encode(), texts) if sign else texts
    return texts if -4 <= k < 17 else np.strings.add(texts, b"e%+03d" % k)


def _g17_texts(values):
    """The bytes of '%.17g' % v for each v of a float64 array, as an array of bytes.

    The digits are N = round(|v| 10^(16 - k)) from _scaled, with k = floor(log10 |v|).
    Texts are assembled per run of equal (k, sign): values sorted by their 64-bit
    patterns, as np.unique returns them, take one run per decade and sign.  Zeros,
    NaNs, infinities, |k| > G17_K_MAX, products within 2^-30 of a tie (such as
    1234567890123456.75) and N outside [10^16, 10^17), where log10 rounds across a
    power of ten or N rounds up to 10^17, are formatted by '%.17g' % v itself.
    """
    v = np.asarray(values, dtype=np.float64)
    texts = np.zeros(len(v), dtype="S24")  # '-1.2345678901234567e-100' at most
    a = np.abs(v)
    at = np.flatnonzero(np.isfinite(a) & (a > 0.0))
    k = np.floor(np.log10(a[at])).astype(np.int64)
    at, k = at[np.abs(k) <= G17_K_MAX], k[np.abs(k) <= G17_K_MAX]
    whole, frac = _scaled(a[at], k)
    N = whole + (frac > 0.5)
    kept = (np.abs(frac - 0.5) > 2.0**-30) & (whole >= 10**16) & (N < 10**17)
    at, N, k = at[kept], N[kept], k[kept]
    codes = _digit_codes(N)
    key = 2 * k + np.signbit(v[at])
    runs = np.flatnonzero(np.diff(key, prepend=key[:1] - 1)).tolist() + [len(at)]
    for s, e in zip(runs, runs[1:]):
        texts[at[s:e]] = _run_texts(codes[s:e], int(k[s]), "-" if key[s] & 1 else "")
    rest = np.flatnonzero(texts == b"")  # the values the kernel left
    texts[rest] = [b"%.17g" % x for x in v[rest].tolist()]
    return texts


def write_field_csv(path, samples):
    """Write samples as CSV: x1,x2[,x3],detF,s11,s12,...,energy with 17 significant digits.

    The table is formatted as one block, with the comma separators and the
    \\r\\n line ends of the csv module's default dialect, and the bytes of
    '%.17g' % v in every cell.  Cells are keyed by their 64-bit patterns, so
    -0.0 and 0.0, NaN payloads and subnormals keep their own texts, and
    each distinct value is formatted once by the numpy kernel _g17_texts.
    """
    n = len(samples)
    if n == 0:
        raise ConfmechError("no samples to write")
    dim = samples.x.shape[1]
    header = ["x%d" % (i + 1) for i in range(dim)]
    header += ["detF"]
    header += ["s%d%d" % (i + 1, j + 1) for i in range(dim) for j in range(dim)]
    header += ["energy"]
    table = np.column_stack(
        [samples.x, samples.det_F, samples.sigma.reshape(n, -1), samples.energy]
    )
    bits = np.ascontiguousarray(table, dtype=np.float64).view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    # one bytes object per distinct value, which every cell that holds it shares
    cells = tuple(_g17_texts(distinct.view(np.float64)).astype(object)[inverse].tolist())
    row = b",".join([b"%s"] * len(header)) + b"\r\n"
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        fh.write((row * n) % cells)


def _float_text(v, texts):
    """float.__repr__(v), kept in texts for a nonzero v; a NaN or an infinity is refused."""
    text = texts.get(v)
    if text is None:
        text = float.__repr__(v)
        if not -math.inf < v < math.inf:
            raise ConfmechError(
                "the result is not valid JSON: Out of range float values are not JSON compliant: " + text
            )
        # 0.0 and -0.0 are equal keys with different texts
        if v:
            texts[v] = text
    return text


def _json_pieces(o, newline, put, texts):
    """put each piece of the text of o, whose inner lines start with newline and two more spaces."""
    if isinstance(o, str):
        put(encode_basestring_ascii(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        put(_float_text(o, texts))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            # a float in a container, the bulk of a payload, takes one piece and no call
            if type(item) is float:
                put(sep + (texts.get(item) or _float_text(item, texts)))
            else:
                put(sep)
                _json_pieces(item, inner, put, texts)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in o.items():
            if not isinstance(key, str):
                raise ConfmechError(
                    "the result is not valid JSON: keys must be str, not %s" % type(key).__name__
                )
            head = sep + encode_basestring_ascii(key) + ": "
            if type(item) is float:
                put(head + (texts.get(item) or _float_text(item, texts)))
            else:
                put(head)
                _json_pieces(item, inner, put, texts)
            sep = "," + inner
        put(newline + "}")
    else:
        raise ConfmechError(
            "the result is not valid JSON: Object of type %s is not JSON serializable" % type(o).__name__
        )


def json_text(obj):
    """The text of json.dumps(obj, indent=2, allow_nan=False), from pieces in one list joined once.

    obj is made of dicts with str keys, lists, tuples, str (escaped by the
    json module's own encode_basestring_ascii), int, float (np.float64 too),
    bool and None.  Each distinct nonzero float is formatted by float.__repr__
    once per call; zeros are not memoized, as 0.0 and -0.0 are equal keys with
    different texts.  A NaN or an infinity, another type or a key that is not a
    str is refused with a one-line ConfmechError, "the result is not valid
    JSON: ...", with the json module's words for the float.
    """
    pieces = []
    _json_pieces(obj, "\n", pieces.append, {})
    return "".join(pieces)


def summary_to_dict(summary):
    worst = summary.worst_point
    return {
        "n_samples": summary.n_samples,
        "mean_sigma": summary.mean_sigma.tolist(),
        "max_deviation": summary.max_deviation,
        "det_range": list(summary.det_range),
        "admissible": summary.admissible,
        "homogeneous": summary.homogeneous,
        "worst_point": {
            "x": worst.x.tolist(),
            "F": worst.F.tolist(),
            "det_F": worst.det_F,
            "sigma": worst.sigma.tolist(),
            "deviation": summary.max_deviation,
        },
    }


def write_summary_json(path, summary):
    """Write the summary as indented JSON; one that is not finite is refused before the file is opened."""
    text = json_text(summary_to_dict(summary))
    with open(path, "w") as fh:
        fh.write(text + "\n")
