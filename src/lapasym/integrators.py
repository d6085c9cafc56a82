"""The numeric oracle's two integrators: DOP853 and QUADPACK's QAG.

Both are ports that give scipy's digits on the oracle's integrands, so
the oracle prints the same digits as when it called scipy, without
loading scipy.
This module is the one home of the oracle's numerical tolerances: the
constants ``T0``, ``RTOL`` and ``ATOL`` of every flow solve and
``EPSREL`` and ``LIMIT`` of every QUADPACK call.  A caller passes only
what varies: a flow's field and initial state, and an integral's
interval and absolute tolerance.

:class:`Dop853` is the forward, dense-output path of SciPy's
``solve_ivp(fun, (T0, t_bound), y0, method="DOP853", dense_output=True,
rtol=RTOL, atol=ATOL)``: the explicit Runge-Kutta pair of order 8(5,3)
of Dormand and Prince (Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, Sec. II.10), with SciPy's coefficient
tables, initial step selection, error norm, step-size control and
7th-degree dense output, and the same numpy expressions, so that every
BLAS call sees the arrays SciPy gives it.  One solve serves every end
time asked of it, sharing the steps that the end times share.  One
thing is added: the solve stops at the first trial step with a stage
that is not finite, where SciPy would shrink the step until it
underflows.

:func:`quad` is QUADPACK's adaptive bisection QAG (``dqage``;
Piessens, de Doncker-Kapenga, Uberhuber and Kahaner, *QUADPACK*,
Springer 1983) on a finite interval, with the 21-point Gauss-Kronrod
rule ``dqk21`` and ``dqagse``'s test of the first rule, and with no
roundoff exit: it ends at the error bound, at ``LIMIT`` intervals or at
an interval too small to split.  Its integrand is called once per rule,
on the rule's 21 abscissae.  Its ``(value, abserr)`` is bit for bit
that of ``scipy.integrate.quad(fn, a, b, epsabs=epsabs, epsrel=EPSREL,
limit=LIMIT)``, which is QAGS, whenever QAGS ends at its error bound
without extrapolating and without bisecting its larger intervals
first; the oracle's smooth radial peaks all end so.  QAGS's epsilon
algorithm ``dqelg`` and its roundoff bookkeeping, which serve endpoint
singularities, are left out.  Infinite intervals are not supported.

Credits.  The DOP853 port follows SciPy's ``scipy/integrate/_ivp``
(``rk.py``, ``common.py``, ``base.py``, ``ivp.py`` and
``dop853_coefficients.py``), Copyright (c) 2001-2002 Enthought, Inc.
and 2003 onwards SciPy Developers, distributed under the BSD 3-Clause
license; the method and its coefficients are those of Hairer and
Wanner's DOP853, whose terms SciPy reproduces in ``LICENSE_DOP``.
QUADPACK is in the public domain.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["Dop853", "OdeFlow", "quad"]

# every flow solve starts at T0 and keeps its local error within
# ATOL + RTOL * |y|; EPSREL and LIMIT are QUADPACK's relative tolerance
# and its most subintervals
T0 = 0.0
RTOL = 1e-13
ATOL = 1e-14
EPSREL = 2e-14
LIMIT = 400


# ------------------------------------------------------------------ DOP853

_N_STAGES = 12
_N_STAGES_EXTENDED = 16
_INTERPOLATOR_POWER = 7

_C_ALL = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

# the nonzero entries of each row of the extended Butcher matrix
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
# the dense-output coefficients of F[3:]; F[:3] are formed from the step
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


def _dense(rows: dict, shape: tuple) -> np.ndarray:
    table = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            table[i, j] = value
    return table


# The tables keep SciPy's layout: every row handed to np.dot is a slice
# of the same C-ordered arrays, so BLAS sums in SciPy's order.
_A_ALL = _dense(_A_ROWS, (_N_STAGES_EXTENDED, _N_STAGES_EXTENDED))
_B = _A_ALL[_N_STAGES, :_N_STAGES]
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = _dense({0: {0: 0.1312004499419488073250102996e-1,
                  5: -0.1225156446376204440720569753e+1,
                  6: -0.4957589496572501915214079952,
                  7: 0.1664377182454986536961530415e+1,
                  8: -0.3503288487499736816886487290,
                  9: 0.3341791187130174790297318841,
                  10: 0.8192320648511571246570742613e-1,
                  11: -0.2235530786388629525884427845e-1}}, (1, _N_STAGES + 1))[0]
_D = _dense(dict(enumerate(_D_ROWS)), (_INTERPOLATOR_POWER - 3, _N_STAGES_EXTENDED))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ESTIMATOR_ORDER = 7
_ERROR_EXPONENT = -1 / (_ESTIMATOR_ORDER + 1)

_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_FINISHED = "The solver successfully reached the end of the integration interval."


def _norm(x: np.ndarray) -> float:
    # root mean square
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, t_bound, f0) -> tuple[float, float]:
    """SciPy's initial step, and the length from which on the first
    interval does not limit it: the step is the same for every first
    interval at least that long, and a shorter one limited it."""
    interval_length = abs(t_bound - T0)
    scale = ATOL + np.abs(y0) * RTOL
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0_wanted = h0
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(T0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ESTIMATOR_ORDER + 1))
    h = min(100 * h0, h1)
    return min(h, interval_length), max(h0_wanted, h)


def _error_norm(KT: np.ndarray, h: float, scale: np.ndarray) -> float:
    # KT is the transpose of the 13 stages
    err5 = np.dot(KT, _E5) / scale
    err3 = np.dot(KT, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _stage_views(K_extended: np.ndarray, stages: range) -> list:
    # per stage s: its row, the earlier stages transposed, its row of the
    # Butcher matrix and its node, as SciPy slices them at every step
    return [(s, K_extended[:s].T, _A_ALL[s, :s], float(_C_ALL[s])) for s in stages]


def _room(stack: np.ndarray, rows: int) -> np.ndarray:
    # a stack with room for `rows` rows, doubled when full
    if rows <= len(stack):
        return stack
    grown = np.empty((2 * len(stack), *stack.shape[1:]))
    grown[:len(stack)] = stack
    return grown


class _Table:
    """The dense output of a solve: one row per accepted state, in the
    order the states were computed, from the state at ``T0``.

    A row holds the state's time, the step size the next step starts
    from, the right-hand-side calls made by then, the state and its
    derivative: with the end time, everything the steps from there on
    depend on.  Row ``r > 0`` was reached by a step whose interpolant
    coefficients are ``coefficients[r - 1]``.  The states, derivatives
    and coefficients are stacked arrays.  The trunk is the chain of rows
    from ``T0`` that were reached before any trial step was clipped to an
    end time.
    """

    def __init__(self, h_abs: float, calls: int, y0: np.ndarray, f0: np.ndarray):
        self.times, self.step_sizes, self.calls = [T0], [h_abs], [calls]
        self.states = np.empty((16, y0.size))
        self.derivatives = np.empty((16, y0.size))
        self.coefficients = np.empty((16, _INTERPOLATOR_POWER, y0.size))
        self.states[0], self.derivatives[0] = y0, f0
        self.trunk = [0]

    def add(self, t: float, h_abs: float, calls: int, y: np.ndarray, f: np.ndarray) -> int:
        """A new row; the caller writes its step's coefficients."""
        row = len(self.times)
        self.states = _room(self.states, row + 1)
        self.derivatives = _room(self.derivatives, row + 1)
        self.coefficients = _room(self.coefficients, row)
        self.states[row], self.derivatives[row] = y, f
        self.times.append(t)
        self.step_sizes.append(h_abs)
        self.calls.append(calls)
        return row


class OdeFlow:
    """A forward DOP853 solve to one end time: the accepted times ``t``,
    the states ``y`` (one column per time) and the last one ``end``, the
    dense solution :meth:`sol`, the number of right-hand-side calls a
    solve to this end time makes, and whether the end was reached (else
    ``message`` says why not).  Its states and steps are rows of the table of the
    :class:`Dop853` solve that made it, which its flows to other end
    times share.
    """

    __slots__ = ("t", "nfev", "success", "message", "_table", "_rows")

    def __init__(self, table: _Table, rows: list[int], nfev: int, failure: str | None):
        self._table = table
        self._rows = np.array(rows)
        self.t = np.array(table.times)[self._rows]
        self.nfev = nfev
        self.success = failure is None
        self.message = failure or _FINISHED

    @property
    def y(self) -> np.ndarray:
        return self._table.states[self._rows].T

    @property
    def end(self) -> np.ndarray:
        """The last state, ``y[:, -1]``, read from its one table row."""
        return self._table.states[self._rows[-1]]

    def sol(self, at) -> np.ndarray:
        """The dense solution of a successful solve at a time, or at each
        of an array of times (one row per time), by each step's
        7th-degree interpolant; a time on a step boundary belongs to the
        earlier step."""
        at = np.asarray(at)
        step = np.clip(np.searchsorted(self.t, at, side="left") - 1, 0, len(self.t) - 2)
        t_old = self.t[step]
        x = ((at - t_old) / (self.t[step + 1] - t_old))[..., None]
        coefficients = self._rows[step + 1] - 1
        y = np.zeros(at.shape + self._table.states.shape[1:])
        for i in range(_INTERPOLATOR_POWER):
            y += self._table.coefficients[coefficients, _INTERPOLATOR_POWER - 1 - i]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self._table.states[self._rows[step]]
        return y


class Dop853:
    """A forward DOP853 solve of ``y' = fun(t, y)`` from ``T0`` to any end time.

    ``until(t_bound)``, for ``t_bound > T0``, is bit for bit SciPy's
    ``solve_ivp`` with ``method="DOP853"`` and ``dense_output=True`` on
    ``(T0, t_bound)``, at the module's ``RTOL`` and ``ATOL``.  A
    failed solve has ``success=False``, with SciPy's message when the
    step size underflows and its own when a trial step meets a stage
    that is not finite.

    The end time enters the steps in two places only: it clips a trial
    step that would pass it, and the first interval can limit the
    initial step.  So the steps before the first step with a clipped
    trial are the same for every end time that clips none of them.  The
    solve keeps them as its trunk: a longer end time continues from the
    trunk's last state, and a shorter one branches off at the first
    trunk state whose trial step it clips.  It starts afresh from ``T0``
    only when its initial step was, or would be, limited by the first
    interval.  Each end time's flow is kept, and all of them read one
    table of states and interpolants.
    """

    def __init__(self, fun: Callable[[float, np.ndarray], Any], y0: Sequence[float]):
        y = np.array(y0, dtype=float)
        if y.ndim != 1 or not np.isfinite(y).all():
            raise ValueError("the initial state must be a finite 1-d array")
        self._fun, self._y0 = fun, y
        self._calls = 0
        self._flows: dict[float, OdeFlow] = {}
        # the table whose trunk serves every first interval at least
        # _free_from long, which does not limit its initial step
        self._table: _Table | None = None
        self._free_from = math.inf

    def _rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        self._calls += 1
        return np.asarray(self._fun(t, y), dtype=float)

    def until(self, t_bound: float) -> OdeFlow:
        """The solve from ``T0`` to ``t_bound``."""
        t_bound = float(t_bound)
        if not t_bound > T0:
            raise ValueError("Dop853 integrates forward: t_bound must exceed T0")
        if t_bound not in self._flows:
            if self._table is None or abs(t_bound - T0) < self._free_from:
                flow = self._fresh(t_bound)
            else:
                flow = self._branch(self._table, t_bound)
            self._flows[t_bound] = flow
        return self._flows[t_bound]

    def _fresh(self, t_bound: float) -> OdeFlow:
        calls = self._calls
        f = self._rhs(T0, self._y0)
        h_abs, free_from = _initial_step(self._rhs, self._y0, t_bound, f)
        table = _Table(h_abs, self._calls - calls, self._y0, f)
        if abs(t_bound - T0) >= free_from:
            self._table, self._free_from = table, free_from
        return self._run(table, 0, t_bound)

    def _branch(self, table: _Table, t_bound: float) -> OdeFlow:
        """The flow to ``t_bound`` from the first trunk state whose trial
        step it clips, or that it ends at, or else from the trunk's last."""
        # each trunk state's first trial step, as the step loop takes it
        t = np.array(table.times)[table.trunk]
        h_abs = np.array(table.step_sizes)[table.trunk]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        trial = t + np.where(h_abs < min_step, min_step, h_abs)
        stops = np.flatnonzero((trial - t_bound > 0) | (t >= t_bound))
        return self._run(table, stops[0] if len(stops) else len(t) - 1, t_bound)

    def _run(self, table: _Table, i: int, t_bound: float) -> OdeFlow:
        """The flow to ``t_bound`` from the ``i``-th trunk state.  Steps
        taken from the trunk's last state before a trial step is clipped
        extend the trunk."""
        start = table.trunk[i]
        rows = table.trunk[:i + 1]
        trunk = i == len(table.trunk) - 1
        t, h_abs = table.times[start], table.step_sizes[start]
        y, f = table.states[start], table.derivatives[start]
        calls = self._calls - table.calls[start]
        rhs = self._rhs
        # every step reads its stages through the same views of one array
        K_extended = np.empty((_N_STAGES_EXTENDED, y.size))
        K = K_extended[:_N_STAGES + 1]
        KT, K_B = K.T, K_extended[:_N_STAGES].T
        stages = _stage_views(K_extended, range(1, _N_STAGES))
        extra_stages = _stage_views(K_extended, range(_N_STAGES + 1, _N_STAGES_EXTENDED))
        failure = None

        while t < t_bound:
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            step_rejected = False
            while True:
                if h_abs < min_step:
                    failure = _TOO_SMALL_STEP
                    break
                t_new = t + h_abs
                if t_new - t_bound > 0:
                    t_new = t_bound
                    trunk = False
                h = t_new - t
                h_abs = np.abs(h)

                # one Runge-Kutta step
                K[0] = f
                for s, KsT, a, c in stages:
                    dy = np.dot(KsT, a) * h
                    K[s] = rhs(t + c * h, y + dy)
                y_new = y + h * np.dot(K_B, _B)
                f_new = rhs(t + h, y_new)
                K[-1] = f_new
                # shrinking the step would only creep up to the overflow
                if not np.isfinite(K).all():
                    failure = f"a trial step from t = {t:.6g} has a stage that is not finite."
                    break

                scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
                error_norm = _error_norm(KT, h, scale)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                    if step_rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                step_rejected = True
            if failure:
                break

            # the dense output of the accepted step, from three more stages
            for s, KsT, a, c in extra_stages:
                dy = np.dot(KsT, a) * h
                K_extended[s] = rhs(t + c * h, y + dy)
            rows.append(table.add(t_new, h_abs, self._calls - calls, y_new, f_new))
            if trunk:
                table.trunk.append(rows[-1])
            F = table.coefficients[rows[-1] - 1]
            f_old = K_extended[0]
            delta_y = y_new - y
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f_new + f_old)
            F[3:] = h * np.dot(_D, K_extended)

            t, y, f = t_new, y_new, f_new

        return OdeFlow(table, rows, self._calls - calls, failure)


# ----------------------------------------------------------------- QUADPACK

_EPMACH = 2.220446049250313e-16      # d1mach(4)
_UFLOW = 2.2250738585072014e-308     # d1mach(1)

# 21-point Kronrod abscissae and weights, and the weights of the embedded
# 10-point Gauss rule, whose nodes are the Kronrod nodes 1, 3, ..., 9
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


# dqk21's order of evaluation after the centre: -/+ the Gauss nodes 1, 3,
# ..., 9, then -/+ the Kronrod nodes 0, 2, ..., 8
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_XGK_ORDERED = np.array([_XGK[j] for j in _QK21_ORDER])


def _qk21(f, a: float, b: float):
    """``dqk21``: (result, abserr, resabs, resasc) on ``[a, b]``, from one
    call of ``f`` on the rule's 21 abscissae, in the order ``dqk21``
    evaluates them."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    absc = hlgth * _XGK_ORDERED
    x = np.empty(21)
    x[0] = centr
    x[1::2] = centr - absc
    x[2::2] = centr + absc
    fx = f(x)
    resg = 0.0
    fc = fx[0]
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for i, j in enumerate(_QK21_ORDER):
        fval1 = fx[2 * i + 1]
        fval2 = fx[2 * i + 2]
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qag(f, a: float, b: float, epsabs: float) -> tuple[float, float]:
    """(result, abserr) of QUADPACK's adaptive bisection on ``a < b``.

    After ``dqagse``'s test of the first rule, each step bisects the
    interval with the largest error, the first slot on a tie: the half
    with the larger error takes its slot and the other half a new one.
    The loop ends when the error sum meets the bound, at ``LIMIT``
    intervals, or at an interval too small to split; the result is the
    sum over the slots in order and the error the error sum, both kept
    as ``dqagse`` keeps them.
    """
    result, abserr, defabs, resasc = _qk21(f, a, b)
    errbnd = max(epsabs, EPSREL * abs(result))
    if ((abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resasc) or abserr == 0.0):
        return result, abserr
    alist, blist, rlist, elist = [a], [b], [result], [abserr]
    area, errsum = result, abserr
    while True:
        maxerr = elist.index(max(elist))
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, _ = _qk21(f, a1, b1)
        area2, error2, _, _ = _qk21(f, b1, b2)
        errsum = errsum + (error1 + error2) - elist[maxerr]
        area = area + (area1 + area2) - rlist[maxerr]
        if error2 > error1:
            alist[maxerr], rlist[maxerr], elist[maxerr] = b1, area2, error2
            alist.append(a1)
            blist.append(b1)
            rlist.append(area1)
            elist.append(error1)
        else:
            blist[maxerr], rlist[maxerr], elist[maxerr] = b1, area1, error1
            alist.append(b1)
            blist.append(b2)
            rlist.append(area2)
            elist.append(error2)
        # the error sum meets the bound, or no interval may be added, or
        # the one just bisected was too small to split
        if (errsum <= max(epsabs, EPSREL * abs(area)) or len(elist) == LIMIT
                or max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(b1) + 1000.0 * _UFLOW)):
            break
    # summed left to right, as QUADPACK sums: sum() compensates from 3.12 on
    result = 0.0
    for area in rlist:
        result = result + area
    return result, errsum


def quad(fn: Callable[[np.ndarray], Any], a: float, b: float,
         epsabs: float) -> tuple[float, float]:
    """``(value, abserr)`` of the integral of ``fn`` over the finite ``[a, b]``, ``a < b``.

    QUADPACK's QAG (:func:`_qag`).  Where ``scipy.integrate.quad(fn, a,
    b, epsabs=epsabs, epsrel=EPSREL, limit=LIMIT)``, which is QAGS, ends
    at its error bound without extrapolating and without bisecting its
    larger intervals first, as on the oracle's integrands, the two are
    equal bit for bit.  ``fn`` is called once per 21-point rule: it
    receives the rule's abscissae as one float64 array, in the order in
    which ``dqk21`` evaluates them, and returns their 21 values (or one
    value for all of them) as something a float64 array takes.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("quad integrates over a finite interval [a, b] with a < b")

    def f(x: np.ndarray) -> list:
        return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape).tolist()

    return _qag(f, a, b, epsabs)
