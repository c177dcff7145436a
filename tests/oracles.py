"""Independent reference math for the tests, each formula written once: product-form
kernel weights, binomial differences and term-by-term sums, never the library's
recurrence, scaling or packing.  Sums that start differently (from ``0.0`` or from
the first term) stay apart.  Standard library only (``test_layout.py`` checks it);
``bench/workloads.py`` keeps its own copy (``ReferenceWeights``, ``nabla_ref``, ``conv_ref``)."""

import math
from fractions import Fraction


def product_weight(nu, n):
    """``w_ν(n) = ∏_{j=1}^{n−1}(p+q(j−1)) / (q^{n−1}(n−1)!)`` for ν = p/q."""
    p, q = nu.numerator, nu.denominator
    num = 1
    for j in range(1, n):
        num *= p + q * (j - 1)
    return Fraction(num, q ** (n - 1) * math.factorial(n - 1))


def product_row(nu, n):
    """``w_ν(1..n)`` from the product form, one running product each."""
    p, q = nu.numerator, nu.denominator
    num, den, row = 1, 1, [Fraction(1)]
    for j in range(1, n):
        num, den = num * (p + q * (j - 1)), den * q * j
        row.append(Fraction(num, den))
    return row


def naive_sum(nu, values, k):
    """Exact ``Σ_{i=0}^{k} w_ν(k−i+1)·values[i]`` with product-form weights."""
    return sum((product_weight(nu, k - i + 1) * values[i] for i in range(k + 1)), Fraction(0))


def naive_grid(nu, values):
    """Every ``Σ_{i=0}^{k} w_ν(k−i+1)·values[i]``, term by term in ``Fraction``s
    (zero terms skipped)."""
    w = product_row(nu, len(values))
    nonzero = [i for i, x in enumerate(values) if x]
    return tuple(
        sum((w[k - i] * values[i] for i in nonzero if i <= k), Fraction(0)) for k in range(len(values))
    )


def lsum(terms, start=None):
    """Left-to-right sum from ``start`` (default: the first term)."""
    terms = list(terms)
    acc = terms.pop(0) if start is None else start
    for x in terms:
        acc += x
    return acc


def naive_nabla(f, s, k):
    return lsum((-1) ** j * math.comb(k, j) * f.at(s - j) for j in range(k + 1))


def float_difference(values, i, m):
    """``∇^m`` at index ``i`` on floats: ``0.0 + Σ_j (−1)^j C(m,j)·values[i−j]`` in ascending j."""
    acc = 0.0
    for j in range(m + 1):
        acc += (-1) ** j * math.comb(m, j) * values[i - j]
    return acc


def naive_caputo(f, lo, mu, hi):
    """``{τ: Σ_{s=lo}^{τ} w_{m−μ}(τ−s+1)·∇^m f(s)}`` term by term in Fractions."""
    m = math.ceil(mu)
    h = [naive_nabla(f, s, m) for s in range(lo, hi + 1)]
    return {lo + k: naive_sum(m - mu, h, k) for k in range(len(h))}


def raw_rising(n, alpha):
    """Independent raw rising power via log-gamma (float oracle)."""
    if n == 0:
        return 0.0
    return math.exp(math.lgamma(n + alpha) - math.lgamma(n))


def raw_caputo(f, a, mu, tau):
    """Caputo-like difference from the raw kernel with an explicit 1/gamma."""
    m = math.ceil(mu)
    nu = m - mu
    total = 0.0
    for s in range(a, tau + 1):
        dm = sum((-1) ** i * math.comb(m, i) * float(f.at(s - i)) for i in range(m + 1))
        total += raw_rising(tau - s + 1, nu - 1.0) * dm
    return total / math.gamma(nu)


def naive_ratio(p, q):
    """Γ(p)/Γ(q) for an integer p − q and no pole, multiplied factor by factor."""
    acc = Fraction(1)
    for i in range(int(abs(p - q))):
        acc *= min(p, q) + i
    return acc if p >= q else 1 / acc
