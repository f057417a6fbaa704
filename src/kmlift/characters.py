"""Dirichlet characters mod N with exact cyclotomic values.

A character is stored by its full value table on Z/N (zero off units), with
values CycloNum at level = exact multiplicative order of the character.  The
group (Z/N)* is presented on fixed generators, one or two per prime power
factor (factors in ascending prime order); the external name of a character is
the descriptor string ``N:e1,e2,...`` listing exponents on those generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


@lru_cache(maxsize=None)
def unit_group_basis(N: int):
    """Generators of (Z/N)* with their orders, via CRT over prime powers.

    Returns a tuple of (generator mod N, order).  For 2^e with e >= 3 the
    factor contributes the pair (-1, 5); for e == 2 it contributes (-1).
    """
    if N == 1:
        return ()
    gens = []
    for p, e in factorize(N):
        q = p ** e
        rest = N // q
        def crt(a):
            # a mod q, 1 mod rest
            if rest == 1:
                return a % N
            inv = pow(q, -1, rest)
            return (a + q * ((1 - a) * inv % rest)) % N
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((crt(3), 2))
            else:
                gens.append((crt(2 ** e - 1), 2))
                gens.append((crt(5), 2 ** (e - 2)))
        else:
            g = primitive_root(q)
            gens.append((crt(g), (p - 1) * p ** (e - 1)))
    return tuple(gens)


@lru_cache(maxsize=None)
def _dlog_table(N: int):
    """unit -> exponent tuple on the generator basis."""
    gens = unit_group_basis(N)
    table = {1 % N: tuple(0 for _ in gens)}
    frontier = [1 % N]
    # BFS over the abelian group: multiply by each generator
    seen = dict(table)
    stack = [(1 % N, tuple(0 for _ in gens))]
    while stack:
        u, ex = stack.pop()
        for i, (g, order) in enumerate(gens):
            v = (u * g) % N
            ex2 = tuple((ex[j] + (1 if j == i else 0)) % gens[j][1]
                        for j in range(len(gens)))
            if v not in seen:
                seen[v] = ex2
                stack.append((v, ex2))
    return seen


class DirichletChar:
    """Character mod N given by exponents on the fixed generator basis."""

    __slots__ = ("modulus", "exponents", "order", "values", "conductor")

    def __init__(self, modulus: int, exponents):
        self.modulus = int(modulus)
        gens = unit_group_basis(self.modulus)
        self.exponents = tuple(int(e) % gens[i][1] for i, e in enumerate(exponents))
        self.order = 1
        for (g, n), e in zip(gens, self.exponents):
            if e:
                self.order = lcm(self.order, n // gcd(n, e))
        L = self.order
        dlog = _dlog_table(self.modulus)
        # chi(g_i) = zeta_{n_i}^{e_i} = zeta_L^{(e_i/g) * (L / (n_i/g))}, g = gcd(e_i, n_i)
        steps = []
        for (g, n), e in zip(gens, self.exponents):
            if e == 0:
                steps.append(0)
            else:
                d = gcd(e, n)
                steps.append((e // d) * (L // (n // d)) % L)
        vals = {}
        for u, ex in dlog.items():
            k = sum(s * x for s, x in zip(steps, ex)) % L
            vals[u] = CycloNum.zeta(L, k) if L > 1 else CycloNum.one()
        self.values = vals
        self.conductor = self._conductor()

    def _conductor(self):
        N = self.modulus
        for f in sorted(divisors(N)):
            ok = True
            for u in self.values:
                if u % f == 1 % f and gcd(u, N) == 1:
                    if not self(u) == CycloNum.one():
                        ok = False
                        break
            if ok:
                return f
        return N

    def __call__(self, a) -> CycloNum:
        a = int(a) % self.modulus
        v = self.values.get(a)
        if v is None:
            return CycloNum.zero()
        return v

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
        gens = unit_group_basis(M)
        dlog = _dlog_table(self.modulus)
        # solve exponents: match values on the generators of (Z/M)*
        exps = []
        for g, n in gens:
            val = self(g % self.modulus)
            e = _value_log(val, n)
            exps.append(e)
        cand = DirichletChar(M, exps)
        for u in cand.values:
            if not cand(u) == self(u % self.modulus):
                raise AssertionError("character extension failed")
        return cand

    def is_trivial(self):
        return self.order == 1

    def parity(self) -> int:
        """chi(-1) as +-1."""
        v = self(self.modulus - 1 if self.modulus > 1 else 0)
        return 1 if v == CycloNum.one() else -1

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


def _value_log(v: CycloNum, n: int) -> int:
    """e with v = zeta_n^e (v must be an n-th root of unity)."""
    for e in range(n):
        if v == CycloNum.zeta(n, e):
            return e
    raise ValueError("value is not a root of unity of the expected order")


def divisors(n):
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


class CharGroup:
    """All phi(N) Dirichlet characters mod N."""

    def __init__(self, N: int):
        self.modulus = int(N)
        gens = unit_group_basis(self.modulus)
        self.chars = []
        def rec(i, acc):
            if i == len(gens):
                self.chars.append(DirichletChar(self.modulus, acc))
                return
            for e in range(gens[i][1]):
                rec(i + 1, acc + [e])
        rec(0, [])

    def __iter__(self):
        return iter(self.chars)

    def __len__(self):
        return len(self.chars)

    def trivial(self):
        return DirichletChar(self.modulus, [0] * len(unit_group_basis(self.modulus)))


def char_group(N: int) -> CharGroup:
    return CharGroup(N)


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


def subgroup_Dm(G: CharGroup, m: int):
    """Characters mod N whose m-th power is trivial (the set D_{N,m})."""
    return [chi for chi in G if (chi ** m).is_trivial()]


def local_component(chi: DirichletChar, p: int) -> DirichletChar:
    """chi^(p) mod p^e: evaluate chi at the CRT lift (n mod p^e, 1 mod N/p^e)."""
    N = chi.modulus
    fac = dict(factorize(N))
    if p not in fac:
        raise ValueError(f"{p} does not divide the modulus {N}")
    q = p ** fac[p]
    rest = N // q
    gens = unit_group_basis(q)
    exps = []
    for g, n in gens:
        if rest == 1:
            lift = g % N
        else:
            inv = pow(q, -1, rest)
            lift = (g + q * ((1 - g) * inv % rest)) % N
        exps.append(_value_log(chi(lift), n))
    return DirichletChar(q, exps)


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

def gauss_sum(chi: DirichletChar) -> CycloNum:
    """tau(chi) = sum_a chi(a) zeta_N^a, exact at level lcm(order, N)."""
    N = chi.modulus
    if N == 1:
        return CycloNum.one()
    L = lcm(chi.order, N)
    total = CycloNum.zero(L)
    for a in range(1, N):
        if gcd(a, N) == 1:
            total = total + chi(a).raise_level(L) * CycloNum.zeta(N, a).raise_level(L)
    return total


def jacobi_sum(chi, eta) -> CycloNum:
    """J(chi, eta) = sum_z chi(z) eta(1-z) over z mod N (moduli must agree)."""
    if chi.modulus != eta.modulus:
        raise ValueError("Jacobi sum needs characters to the same modulus")
    N = chi.modulus
    L = lcm(chi.order, eta.order)
    total = CycloNum.zero(L)
    for z in range(N):
        a = chi(z)
        if a.is_zero():
            continue
        b = eta((1 - z) % N)
        if b.is_zero():
            continue
        total = total + a.raise_level(L) * b.raise_level(L)
    return total


def find_primitive_root_of_unity_mod(p: int, l: int) -> int:
    """u_0 with multiplicative order exactly l mod p (l | p-1)."""
    if (p - 1) % l:
        raise ValueError(f"{l} does not divide p-1 = {p - 1}")
    if l == 1:
        return 1
    g = primitive_root(p)
    return pow(g, (p - 1) // l, p)
