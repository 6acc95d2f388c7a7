"""Linear storage codes: generator matrices and recovery-set enumeration.

A code stores k files across n servers; server j holds the linear combination
given by column j of a k x n generator matrix over GF(q). A recovery set for
file i is a set of at most two columns that combine, with nonzero
coefficients, to the i-th unit vector. Size-1 sets come from columns that are
nonzero scalar multiples of e_i; size-2 sets from pairs spanning e_i.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

__all__ = [
    "GeneratorMatrix",
    "RecoverySet",
    "RecoverySetCatalog",
    "parse_generator_matrix",
    "enumerate_recovery_sets",
    "simplex_code",
]

_MODULUS_CAP = 1 << 31


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


class GeneratorMatrix:
    """A k x n matrix over GF(q), q a prime below 2**31. Rows are files
    1..k, columns servers 1..n; entries are ints reduced into [0, q).

    Degenerate shapes are allowed (k > n, duplicate or zero columns); an
    all-zero row simply yields a file with no recovery sets.
    """

    __slots__ = ("q", "k", "n", "rows")

    def __init__(self, q: int, rows: Sequence[Sequence[int]]) -> None:
        # bool is an int subclass; reject it explicitly
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError(f"field modulus must be an integer, got {q!r}")
        if q >= _MODULUS_CAP:
            raise ValueError(f"field modulus {q} is at or above the 2**31 cap")
        if not _is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        n = len(rows[0])
        for r in rows:
            if len(r) != n:
                raise ValueError(f"ragged rows: expected {n} entries, got {len(r)}")
            for e in r:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"matrix entry {e!r} is not an integer")
        self.q = q
        self.k = len(rows)
        self.n = n
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(e % q for e in r) for r in rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Column for server j (1-based)."""
        return tuple(r[j - 1] for r in self.rows)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "matrix": [list(r) for r in self.rows]}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GeneratorMatrix)
            and other.q == self.q
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.q, self.rows))

    def __repr__(self) -> str:
        return f"GeneratorMatrix(k={self.k}, n={self.n}, q={self.q})"


def parse_generator_matrix(text: str) -> GeneratorMatrix:
    """Parse the JSON form {"q": <prime>, "matrix": [[row], ...]}."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past CPython's digit limit
        raise ValueError(f"invalid code JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("invalid code JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError('code JSON must be an object {"q": ..., "matrix": ...}')
    missing = {"q", "matrix"} - data.keys()
    if missing:
        raise ValueError(f"code JSON missing keys: {sorted(missing)}")
    matrix = data["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise ValueError('"matrix" must be a list of rows')
    return GeneratorMatrix(data["q"], matrix)


class RecoverySet(NamedTuple):
    """Servers whose columns combine to e_file with the given coefficients.

    `servers` is sorted and 1-based; `coefficients` aligns with it entrywise.
    """

    file: int
    servers: tuple[int, ...]
    coefficients: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.servers)


class RecoverySetCatalog(NamedTuple):
    """All recovery sets of size <= 2, per file, in a fixed deterministic order.

    Within each file: size-1 sets by column index, then size-2 sets in
    lexicographic order of their sorted index pairs.
    """

    matrix: GeneratorMatrix
    per_file: tuple[tuple[RecoverySet, ...], ...]

    @property
    def k(self) -> int:
        return self.matrix.k

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def counts(self) -> tuple[int, ...]:
        """t_i: number of recovery sets for each file."""
        return tuple(len(sets) for sets in self.per_file)

    @property
    def total_sets(self) -> int:
        return sum(self.counts)


def enumerate_recovery_sets(matrix: GeneratorMatrix) -> RecoverySetCatalog:
    """Enumerate every recovery set of size 1 or 2 for each file.

    Sets are keyed by (file, server set): if several coefficient choices work
    for the same pair, only the first found in a fixed scan order is kept.
    Zero columns never participate.
    """
    q = matrix.q
    k, n = matrix.k, matrix.n
    columns = {j: matrix.column(j) for j in range(1, n + 1)}
    nonzero = [j for j in range(1, n + 1) if any(columns[j])]
    # exact column-value lookup; q is prime so scalar scans stay tiny
    by_value: dict[tuple[int, ...], list[int]] = {}
    for j in nonzero:
        by_value.setdefault(columns[j], []).append(j)

    per_file: list[tuple[RecoverySet, ...]] = []
    for i in range(1, k + 1):
        target = tuple(int(r == i - 1) for r in range(k))
        singles: list[RecoverySet] = []
        for j in nonzero:
            col = columns[j]
            if col[i - 1] and all(not col[r] for r in range(k) if r != i - 1):
                singles.append(RecoverySet(i, (j,), (pow(col[i - 1], -1, q),)))
        pairs: dict[tuple[int, int], RecoverySet] = {}
        for a in nonzero:
            ga = columns[a]
            for alpha in range(1, q):
                w = tuple((t - alpha * g) % q for t, g in zip(target, ga))
                if not any(w):
                    continue
                for beta in range(1, q):
                    binv = pow(beta, -1, q)
                    want = tuple(binv * wr % q for wr in w)
                    for b in by_value.get(want, ()):
                        if b == a:
                            continue
                        key = (a, b) if a < b else (b, a)
                        if key in pairs:
                            continue
                        coeffs = (alpha, beta) if a < b else (beta, alpha)
                        pairs[key] = RecoverySet(i, key, coeffs)
        ordered = singles + [pairs[key] for key in sorted(pairs)]
        per_file.append(tuple(ordered))
    return RecoverySetCatalog(matrix, tuple(per_file))


def simplex_code(k: int) -> GeneratorMatrix:
    """Binary simplex code of dimension k: columns are all nonzero k-bit
    vectors ordered by integer value, row 1 being the least significant bit.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 2 <= k <= 10:
        raise ValueError(f"simplex dimension must be an integer in [2, 10], got {k!r}")
    n = 2**k - 1
    rows = [[(j >> r) & 1 for j in range(1, n + 1)] for r in range(k)]
    return GeneratorMatrix(2, rows)
