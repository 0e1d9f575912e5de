"""Test-only oracle: the Picard-Fuchs operator by undetermined coefficients.

This is the general mechanism ``find_pf`` used before it read the operator
off the Gauss-Manin closed form.  It searches the witness in the form
F = y N(x) / f(x)^2 with deg N <= 4, which turns exactness into a
7-equation K-linear system in (A, B, C, N), and row-reduces it over K.  The
tests compare the closed form against it, output and errors alike.

``witness_exact`` is the body ``verify_pf`` runs on an operator that was not
pulled back, applied to any operator: it solves the witness on the model it
is given, so on a cover it checks what ``verify_pf`` transports from the base.
"""

from maninmaps import CurveFunction, FieldElement, PFOperator, RatX, XPoly, verify_pf
from maninmaps import maninmap
from maninmaps.errors import ConsistencyError, InputError, NotFoundError


def witness_exact(E, L):
    """Whether L(dx/y) = dF on E, by ``_witness`` on E whatever L carries.

    Ignores the answer stored on L and the operator it was pulled back from.
    """
    if L.F.model != E:
        return False
    rx, ry = L.F.rx, L.F.ry
    if rx.den.degree or rx.num.degree > 0:
        return False
    N, ok = maninmap._witness(E, L.A, L.B, L.C)
    f = E.cubic()
    return ok and ry.num * (f * f) == ry.den * N


def find_pf(E, pole_bound=4):
    """Solve for a verified operator by undetermined coefficients.

    The kernel is one-dimensional for a non-isotrivial monic cubic.  The
    result is normalized to polynomial primitive (A, B, C); a normalized
    degree above pole_bound raises NotFoundError.
    """
    if pole_bound < 0:
        raise InputError("pole_bound must be nonnegative, got %d" % pole_bound)
    if E.field.char != 0:
        raise InputError("operators with exactness witnesses live in characteristic 0")
    if E.is_isotrivial():
        raise NotFoundError("isotrivial curve: the derivative terms degenerate")
    K = E.field
    f = E.cubic()
    df = f.map_coeffs(lambda c: c.derive())
    ddf = f.map_coeffs(lambda c: c.derive().derive())
    fprime = f.derivative()
    half = K.from_fraction(1, 2)
    # columns: A, B, C, n0..n4; rows: x^0..x^6 of
    #   A(-ddf f/2 + 3 df^2/4) + B(-df f/2) + C f^2 - (N' f - 3/2 N f') = 0
    colA = (-(ddf * f)).scale(half) + (df * df).scale(K.from_fraction(3, 4))
    colB = (-(df * f)).scale(half)
    colC = f * f
    cols = [colA, colB, colC]
    x = XPoly.x(K)
    for i in range(5):
        xi = x ** i
        dxi = xi.derivative()
        term = dxi * f - (xi * fprime).scale(K.from_fraction(3, 2))
        cols.append(-term)
    rows = 7
    matrix = [[cols[j][i] for j in range(8)] for i in range(rows)]
    kernel = _kernel(matrix, K)
    solution = None
    for vec in kernel:
        if not vec[0].is_zero():
            solution = vec
            break
    if solution is None:
        raise NotFoundError("no second-order exact operator in the search space")
    A, B, C = solution[0], solution[1], solution[2]
    # clear denominators and make (A, B, C) primitive with A's leading term positive
    denlcm = A.den
    for g in (B.den, C.den):
        denlcm = denlcm * (g // denlcm.gcd(g))
    scale = FieldElement(K, denlcm)
    A, B, C = A * scale, B * scale, C * scale
    content = A.num.gcd(B.num).gcd(C.num)
    if content.degree > 0:
        inv = FieldElement(K, content)
        A, B, C = A / inv, B / inv, C / inv
        scale = scale / inv
    if K.char == 0 and A.num.leading < 0:
        m = K.from_int(-1)
        A, B, C, scale = A * m, B * m, C * m, scale * m
    if max(A.num.degree, B.num.degree, C.num.degree) > pole_bound:
        raise NotFoundError(
            "operator degrees exceed pole bound %d; raise it" % pole_bound
        )
    ncoeffs = [v * scale for v in solution[3:]]
    N = XPoly(K, ncoeffs)
    F = CurveFunction(E, RatX(K, XPoly.zero(K)), RatX(K, N, f * f))
    L = PFOperator(A, B, C, F)
    if not verify_pf(E, L):
        raise ConsistencyError("solved operator failed verification on %s" % E)
    return L


def _kernel(matrix, K):
    """Kernel basis of a small matrix over the function field K."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = K.one / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [K.zero] * ncols
        vec[fc] = K.one
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis
