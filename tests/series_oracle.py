"""Test oracle for the interval series, independent of ``interval_series``.

Series are plain ``{(i, j): c}`` maps for c * q^i * t^j, cut above t^n.  The
oracle never splits the equation as the library does: it applies the whole
of it to F until F stops changing.
"""


def _times(a, b, n):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if j1 + j2 <= n:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _plus(*terms):
    out = {}
    for term in terms:
        for key, c in term.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _r(alphabet, s, n):
    """R(s): the sum of s^arity over the letters."""
    power, powers = {(0, 0): 1}, [{(0, 0): 1}]
    for _ in range(max((letter.arity for letter in alphabet), default=0)):
        power = _times(power, s, n)
        powers.append(power)
    return _plus(*(powers[letter.arity] for letter in alphabet))


def interval_series_by_iteration(alphabet, n):
    """F = 1 + t*R(F - q*t*R(F)) + q*t*R(F) mod t^(n+1), where R is the
    alphabet's counting polynomial, as a ``{(i, j): c}`` map; its q^0 row
    counts the trees of each degree."""
    f = {}
    for _ in range(n + 3):
        marked = {(i + 1, j + 1): c for (i, j), c in _r(alphabet, f, n).items() if j < n}
        minus = {key: -c for key, c in marked.items()}
        grown = _r(alphabet, _plus(f, minus), n)
        nxt = _plus({(0, 0): 1}, {(i, j + 1): c for (i, j), c in grown.items() if j < n}, marked)
        if nxt == f:
            return f
        f = nxt
    raise AssertionError(f"the iteration did not settle at t-order {n}")


def tree_series_by_iteration(alphabet, n):
    """S = 1 + t*R(S) mod t^(n+1) as a ``{(0, j): c}`` map, applied to S
    until S stops changing; its t^j coefficient counts the trees of degree j."""
    s = {}
    for _ in range(n + 3):
        nxt = _plus({(0, 0): 1}, {(i, j + 1): c for (i, j), c in _r(alphabet, s, n).items() if j < n})
        if nxt == s:
            return s
        s = nxt
    raise AssertionError(f"the iteration did not settle at t-order {n}")
