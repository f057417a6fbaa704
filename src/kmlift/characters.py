"""Dirichlet characters mod N with exact cyclotomic values.

A character is stored by its exponent table on the units of Z/N: u maps to
the k with chi(u) = zeta_L^k, L the exact multiplicative order of the
character (values are zero off units).  A character sum is one integer count
vector on the exponents, reduced to a CycloNum once.  The group (Z/N)* is
presented on fixed generators, one or two per prime power factor (factors in
ascending prime order); the external name of a character is the descriptor
string ``N:e1,e2,...`` listing exponents on those generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .exactalg import CycloNum, _pval


def factorize(n: int):
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _is_prime(p: int, odd=False) -> bool:
    """Whether p is a prime (an odd one when ``odd``)."""
    return factorize(p) == [(p, 1)] and not (odd and p == 2)


def require_prime(p: int, odd=False, name="p"):
    """ValueError unless ``_is_prime(p, odd)``; the message names the
    argument as ``name``."""
    if not _is_prime(p, odd):
        raise ValueError(f"{name} must be {'an odd' if odd else 'a'} prime, "
                         f"not {p}")


def primitive_root(q: int) -> int:
    """Smallest primitive root mod q = p^e, p odd (or q in {1, 2, 4})."""
    if q in (1, 2):
        return 1
    if q == 4:
        return 3
    phi = euler_phi_int(q)
    fac = [f for f, _ in factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // f, q) != 1 for f in fac):
            return g
    raise ValueError(f"no primitive root mod {q}")


def euler_phi_int(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def _crt_lift(a, q, N):
    """The residue mod N that is a mod q and 1 mod N/q (q | N, coprime cofactor)."""
    rest = N // q
    return (a + q * ((1 - a) * pow(q, -1, rest) % rest)) % N


@lru_cache(maxsize=None)
def unit_group_basis(N: int):
    """Generators of (Z/N)* with their orders, via CRT over prime powers.

    Returns a tuple of (generator mod N, order).  For 2^e with e >= 3 the
    factor contributes the pair (-1, 5); for e == 2 it contributes (-1).
    """
    gens = []
    for p, e in factorize(N):
        q = p ** e
        if p == 2:
            if e == 2:
                gens.append((_crt_lift(3, q, N), 2))
            elif e >= 3:
                gens.append((_crt_lift(q - 1, q, N), 2))
                gens.append((_crt_lift(5, q, N), 2 ** (e - 2)))
        else:
            gens.append((_crt_lift(primitive_root(q), q, N), (p - 1) * p ** (e - 1)))
    return tuple(gens)


@lru_cache(maxsize=None)
def _dlog_table(N: int):
    """unit -> exponent tuple on the generator basis."""
    gens = unit_group_basis(N)
    table = {}
    for ex in product(*(range(n) for _, n in gens)):
        u = 1 % N
        for (g, _), x in zip(gens, ex):
            u = u * pow(g, x, N) % N
        table[u] = ex
    return table


class DirichletChar:
    """Character mod N given by exponents on the fixed generator basis.

    ``logs`` maps each unit u mod N to the k with chi(u) = zeta_order^k.
    """

    __slots__ = ("modulus", "exponents", "order", "logs", "conductor")

    def __init__(self, modulus: int, exponents):
        self.modulus = int(modulus)
        gens = unit_group_basis(self.modulus)
        self.exponents = tuple(int(e) % gens[i][1] for i, e in enumerate(exponents))
        self.order = 1
        for (g, n), e in zip(gens, self.exponents):
            if e:
                self.order = lcm(self.order, n // gcd(n, e))
        L = self.order
        # chi(g_i) = zeta_{n_i}^{e_i} = zeta_L^{e_i L / n_i}
        steps = [e * L // n for (_, n), e in zip(gens, self.exponents)]
        self.logs = {u: sum(s * x for s, x in zip(steps, ex)) % L
                     for u, ex in _dlog_table(self.modulus).items()}
        self.conductor = self._conductor()

    def _conductor(self):
        N = self.modulus
        for f in divisors(N):
            if all(k == 0 for u, k in self.logs.items() if u % f == 1 % f):
                return f
        return N

    def __call__(self, a) -> CycloNum:
        k = self.logs.get(int(a) % self.modulus)
        if k is None:
            return CycloNum.zero()
        return CycloNum.zeta(self.order, k)

    def __mul__(self, other):
        if self.modulus != other.modulus:
            # lift both to the lcm modulus
            M = lcm(self.modulus, other.modulus)
            return self.extend(M) * other.extend(M)
        return DirichletChar(self.modulus,
                             [a + b for a, b in zip(self.exponents, other.exponents)])

    def __pow__(self, k):
        return DirichletChar(self.modulus, [e * k for e in self.exponents])

    def conjugate(self):
        return DirichletChar(self.modulus, [-e for e in self.exponents])

    def extend(self, M: int) -> "DirichletChar":
        """The character mod M (self.modulus | M) induced by this one."""
        if M % self.modulus:
            raise ValueError("can only extend to a multiple modulus")
        if M == self.modulus:
            return self
        N, L = self.modulus, self.order
        # chi(g) = zeta_L^k has order dividing that of g, so n k / L is whole
        cand = DirichletChar(M, [self.logs[g % N] * n // L
                                 for g, n in unit_group_basis(M)])
        for u, k in cand.logs.items():
            if k * L != self.logs[u % N] * cand.order:
                raise AssertionError("character extension failed")
        return cand

    def is_trivial(self):
        return self.order == 1

    def is_primitive(self):
        return self.conductor == self.modulus

    def descriptor(self) -> str:
        return f"{self.modulus}:" + ",".join(str(e) for e in self.exponents)

    def __eq__(self, other):
        return (self.modulus == other.modulus
                and self.exponents == other.exponents)

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletChar({self.descriptor()}, order={self.order})"


def divisors(n):
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def char_group(N: int) -> tuple:
    """All phi(N) Dirichlet characters mod N, the trivial one first."""
    return tuple(DirichletChar(N, ex) for ex in
                 product(*(range(n) for _, n in unit_group_basis(N))))


def parse_descriptor(desc: str) -> DirichletChar:
    try:
        mod_s, exp_s = desc.split(":")
        N = int(mod_s)
        exps = [int(x) for x in exp_s.split(",")] if exp_s else []
    except Exception as exc:
        raise ValueError(f"malformed character descriptor {desc!r}; "
                         f"expected 'N:e1,e2,...'") from exc
    gens = unit_group_basis(N)
    if len(exps) != len(gens):
        raise ValueError(f"descriptor {desc!r} needs {len(gens)} exponent(s) "
                         f"for modulus {N}")
    return DirichletChar(N, exps)


def local_component(chi: DirichletChar, p: int) -> DirichletChar:
    """chi^(p) mod p^e: evaluate chi at the CRT lift (n mod p^e, 1 mod N/p^e)."""
    N = chi.modulus
    fac = dict(factorize(N))
    if p not in fac:
        raise ValueError(f"{p} does not divide the modulus {N}")
    q = p ** fac[p]
    return DirichletChar(q, [chi.logs[_crt_lift(g, q, N)] * n // chi.order
                             for g, n in unit_group_basis(q)])


# ---------------------------------------------------------------------------
# quadratic symbols

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p (Euler criterion)."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd positive denominator")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), any integer n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and abs(a) % 8 in (3, 5):
            sign = -sign
    return sign * jacobi(a % n if n > 1 else 0, n) if n > 1 else sign


def hilbert_symbol(a, b, p) -> int:
    """Hilbert symbol (a,b)_p on Q_p; p = -1 or 0 means the real place."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if p in (-1, 0):  # real place
        return -1 if a < 0 and b < 0 else 1
    p = int(p)
    alpha, beta = _pval(a, p), _pval(b, p)
    u, v = a / Fraction(p) ** alpha, b / Fraction(p) ** beta
    if p != 2:
        # tame formula: (-1)^(alpha*beta*(p-1)/2) (u/p)^beta (v/p)^alpha
        res = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
        if beta % 2:
            res *= legendre(_as_unit_int(u, p), p)
        if alpha % 2:
            res *= legendre(_as_unit_int(v, p), p)
        return res
    uu = _as_unit_int(u, 2, mod=8)
    vv = _as_unit_int(v, 2, mod=8)
    eps_u, eps_v = (uu - 1) // 2 % 2, (vv - 1) // 2 % 2
    om_u, om_v = (uu * uu - 1) // 8 % 2, (vv * vv - 1) // 8 % 2
    s = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if s % 2 else 1


def _as_unit_int(u: Fraction, p: int, mod=None):
    m = mod or p
    return (u.numerator * pow(u.denominator, -1, m)) % m


# ---------------------------------------------------------------------------
# Gauss and Jacobi sums, primitive roots of unity mod p

def _root_sum(L: int, terms) -> CycloNum:
    """sum n * zeta_L^e over the (e, n) pairs: one count vector, reduced once."""
    counts = {}
    for e, n in terms:
        counts[e % L] = counts.get(e % L, 0) + n
    return CycloNum(L, counts)


def gauss_sum(chi: DirichletChar) -> CycloNum:
    """tau(chi) = sum_a chi(a) zeta_N^a, exact at level lcm(order, N)."""
    N = chi.modulus
    if N == 1:
        return CycloNum.one()
    L = lcm(chi.order, N)
    s = L // chi.order
    return _root_sum(L, ((s * k + a * (L // N), 1) for a, k in chi.logs.items()))


def jacobi_sum(chi, eta) -> CycloNum:
    """J(chi, eta) = sum_z chi(z) eta(1-z) over z mod N (moduli must agree)."""
    if chi.modulus != eta.modulus:
        raise ValueError("Jacobi sum needs characters to the same modulus")
    N = chi.modulus
    L = lcm(chi.order, eta.order)
    s, t = L // chi.order, L // eta.order
    return _root_sum(L, ((s * k + t * eta.logs[w], 1) for z, k in chi.logs.items()
                         if (w := (1 - z) % N) in eta.logs))


def find_primitive_root_of_unity_mod(p: int, l: int) -> int:
    """u_0 with multiplicative order exactly l mod p (l | p-1)."""
    if (p - 1) % l:
        raise ValueError(f"{l} does not divide p-1 = {p - 1}")
    if l == 1:
        return 1
    g = primitive_root(p)
    return pow(g, (p - 1) // l, p)
