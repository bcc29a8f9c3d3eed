"""Integer 2x2 matrices acting on E x E and their descent to the quotient.

A matrix (a b; c d) acts on column vectors: (u, v) maps to (a*u + b*v,
c*u + d*v). It induces an endomorphism of the quotient by <(R1, R2)> exactly
when b, c = 0 and a = d = k mod p for some k; the finite shadow of that
criterion is kernel preservation at any good prime, and the two are checked
against each other in the test suite.
"""

from itertools import islice
from math import lcm
from typing import NamedTuple

from .arith import is_prime
from .quotient import QuotientContext, QuotientPoint, quotient_equal, quotient_scalar_mul
from .rational import RationalPoint, reduce_onto

KIND_WEAK_FOUND = "weak_relation_found"
KIND_WEAK_NOT_FOUND = "weak_relation_not_found"
KIND_MEDIUM_IMPOSSIBLE = "medium_relation_impossible"


class EndoMatrix(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    def rows(self) -> list:
        return [[self.a, self.b], [self.c, self.d]]


def _congruent(m: EndoMatrix, p: int) -> bool:
    """The descent congruences b, c = 0 and a = d (mod p), for a prime p."""
    return m.b % p == 0 and m.c % p == 0 and (m.a - m.d) % p == 0


def descends(m: EndoMatrix, p: int) -> bool:
    """Congruence criterion: b, c = 0 and a = d (mod p), for a prime p."""
    if not is_prime(p):
        raise ValueError(f"must be prime, got {p}")
    return _congruent(m, p)


def _act(m: EndoMatrix, ctx: QuotientContext, s: QuotientPoint) -> QuotientPoint:
    """The pair (a*u + b*v, c*u + d*v) for s = (u, v)."""
    curve = ctx.curve
    return QuotientPoint(
        curve.add(curve.scalar_mul(m.a, s.rep1), curve.scalar_mul(m.b, s.rep2)),
        curve.add(curve.scalar_mul(m.c, s.rep1), curve.scalar_mul(m.d, s.rep2)),
    )


def kernel_preserved(m: EndoMatrix, ctx: QuotientContext) -> bool:
    """Finite-level descent: the matrix maps (K1, K2) into its own cyclic span."""
    return _act(m, ctx, QuotientPoint(ctx.k1, ctx.k2)) in ctx.kernel()


def apply(m: EndoMatrix, s: QuotientPoint, ctx: QuotientContext) -> QuotientPoint:
    """Matrix action on a coset; requires descent so the action is well defined.

    ctx.p needs no primality test here: every QuotientContext has proved it.
    """
    if not _congruent(m, ctx.p):
        raise ValueError(f"matrix {m.rows()} does not descend mod {ctx.p}")
    return _act(m, ctx, s)


class RelationCertificate(NamedTuple):
    """Outcome of a relation search or an impossibility derivation."""

    kind: str
    p: int
    k: int | None = None
    f: EndoMatrix | None = None
    transposed_k: int | None = None
    transposed_f: EndoMatrix | None = None
    reason: str = ""
    residue_solutions: int | None = None
    residue_tuples: int | None = None
    searched_primes: tuple = ()
    verified_primes: tuple = ()

    def to_dict(self) -> dict:
        """The fields that are set: matrices as rows, prime tuples as lists."""
        out = {}
        for name, value in self._asdict().items():
            if value in (None, "", ()):
                continue
            if isinstance(value, EndoMatrix):
                value = value.rows()
            elif isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out


def _signed_values(bound: int):
    """0, 1, -1, 2, -2, ... up to +-bound; search order for matrix entries."""
    yield 0
    for v in range(1, bound + 1):
        yield from (v, -v)


def _first(bound: int, r: int, L: int, s: int = 0, p: int = 1) -> int | None:
    """First v in search order with v = r (mod L), v = s (mod p), |v| <= bound.

    p is prime or 1; a class's first value is its residue nearest 0, positive on a tie.
    """
    if L % p:
        r, L = r + L * ((s - r) * pow(L, -1, p) % p), L * p
    elif (r - s) % p:
        return None
    r %= L
    v = r if 2 * r <= L else r - L
    return v if abs(v) <= bound else None


def relation_holds(
    k: int, f: EndoMatrix, ctxs, R: RationalPoint, transposed: bool = False
) -> bool:
    """Check k*Q = f(P) (or k*P = f(Q) when transposed) at every context.

    Straight from the definition: f is applied to the cosets P = (r, 0) and
    Q = (r, r), and the image is compared with the k-th multiple of the other.
    """
    for ctx in ctxs:
        r = reduce_onto(R, ctx.curve)
        P, Q = QuotientPoint(r, None), QuotientPoint(r, r)
        src, dst = (Q, P) if transposed else (P, Q)
        if not quotient_equal(ctx, apply(f, src, ctx), quotient_scalar_mul(ctx, k, dst)):
            return False
    return True


def _first_relation(p: int, bound: int, L: int, transposed: bool):
    """First (k, f) in search order with f descending and L | both differences.

    The differences are (a-k, c-k), or (a+b-k, c+d) when transposed, so
    each entry is the first value of a class mod L and mod p (_first).
    Untransposed: a = k (L), b = 0, c = k (L) and 0 (p), d = a (p).
    Transposed: for each a in order, b = k - a (L) and 0 (p), then the first
    c = 0 (p) with a d = -c (L) and a (p), kept per a mod p. Existence is
    periodic in k mod L and in a, c mod lcm(L, p), so each loop stops after
    one period: O(min(B, L) * min(B, lcm(L, p))) steps, O(p) memory, at any B.
    """
    period, tails = lcm(L, p), {}
    for k in range(1, min(bound, L) + 1):
        if transposed:
            values = islice(_signed_values(bound), period)
            heads = ((a, _first(bound, k - a, L, 0, p)) for a in values)
        else:
            heads = [(_first(bound, k, L), 0)]
        for a, b in heads:
            if b is None:
                continue
            if not transposed:
                c = _first(bound, k, L, 0, p)
                tail = None if c is None else (c, _first(bound, a, p))
            else:
                if a % p not in tails:
                    cs = (c for c in islice(_signed_values(bound), period) if c % p == 0)
                    ds = ((c, _first(bound, -c, L, a, p)) for c in cs)
                    tails[a % p] = next(((c, d) for c, d in ds if d is not None), None)
                tail = tails[a % p]
            if tail is not None and _congruent(f := EndoMatrix(a, b, *tail), p):
                return k, f
    return None, None


def find_weak_relation(p: int, records, entry_bound: int) -> RelationCertificate:
    """Search the entry box for the smallest relation k*Q = f(P).

    Candidates run over k = 1 .. entry_bound and matrix entries ordered by
    absolute value (0, 1, -1, 2, -2, ...), nested (k, a, b, c, d); only
    matrices satisfying the descent congruences count, and a candidate
    must hold at the prime of every supplied PrimeRecord. The transposed
    orientation k*P = f(Q) is searched the same way and reported alongside.

    With r = R mod q, P = (r, 0) and Q = (r, r) give f(P) - k*Q =
    ((a-k)*r, (c-k)*r) and f(Q) - k*P = ((a+b-k)*r, (c+d)*r), so a
    candidate holds at q exactly when its pair (j1*r, j2*r) lies in the
    kernel. Every record comes from a QuotientContext (evaluate_prime),
    which has proved K1 and K2 independent. Lemma: under that premise the
    pair lies in the kernel exactly when ord(r) divides j1 and j2.
    If (j1*r, j2*r) = i*(K1, K2) with i != 0 mod p, then K1 and K2 would
    both lie in the cyclic group <r>, whose p-torsion is one cyclic group
    of order p, against their independence. And i = 0 means
    j1*r = j2*r = 0. So a candidate holds at every record's prime exactly
    when L = lcm of the records' ord_r divides both differences, and the
    first one is read off L entry by entry (_first_relation), in O(min(B, L)
    * min(B, lcm(L, p))) steps at any B = entry_bound; no curve is touched.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records to make the search meaningful")
    if entry_bound < 1:
        raise ValueError("entry_bound must be >= 1")
    L = lcm(*(r.ord_r for r in records))
    k, f = _first_relation(p, entry_bound, L, False)
    transposed_k, transposed_f = _first_relation(p, entry_bound, L, True)
    return RelationCertificate(
        kind=KIND_WEAK_NOT_FOUND if f is None else KIND_WEAK_FOUND,
        p=p,
        k=k,
        f=f,
        transposed_k=transposed_k,
        transposed_f=transposed_f,
        reason=(
            f"no relation with |entries| <= {entry_bound} holds at all contexts"
            if f is None and transposed_f is None
            else ""
        ),
        searched_primes=tuple(r.q for r in records),
    )


def verify_no_medium_relation(p: int) -> RelationCertificate:
    """Prove no k and integer matrix give P = (k + p*matrix) Q plus torsion.

    Such a relation forces the integer system k + p*c + p*d = 0 and
    p*a + p*b + k = 1; subtracting, 1 = p*(a + b - c - d), impossible for a
    prime p >= 2. A count of the residue tuples (k, a, b, c, d) mod p
    confirms there is no solution even mod p.
    """
    if not is_prime(p):
        raise ValueError(f"must be prime, got {p}")
    # Mod p both congruences constrain k alone (p * anything vanishes). The
    # first forces k = 0, so the count is p^4 if k = 0 meets the second
    # (0 = 1 mod p) and 0 otherwise.
    solutions, tuples = (p**4 if 1 % p == 0 else 0), p**5
    reason = (
        "second coordinate forces k + p*c + p*d = 0, hence k = 0 (mod p); "
        "first coordinate forces p*a + p*b + k = 1, hence k = 1 (mod p); "
        f"subtracting, 1 = p*(a + b - c - d), so p | 1: impossible for p = {p}. "
        f"Residue check: {solutions} of {tuples} tuples satisfy both congruences."
    )
    return RelationCertificate(
        kind=KIND_MEDIUM_IMPOSSIBLE,
        p=p,
        reason=reason,
        residue_solutions=solutions,
        residue_tuples=tuples,
    )

