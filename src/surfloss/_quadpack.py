"""QUADPACK's adaptive Gauss-Kronrod integrator, QAGS and QAGP, in Python.

A statement-for-statement transcription of the netlib Fortran routines
``dqk21``, ``dqpsrt``, ``dqelg``, ``dqagse`` and ``dqagpe`` (R. Piessens,
E. de Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner, *QUADPACK: A
Subroutine Package for Automatic Integration*, Springer, 1983; public
domain), with Wynn's epsilon algorithm for the extrapolation (P. Wynn,
*Math. Tables Aids Comput.* 10 (1956) 91-96).  These are the routines
behind SciPy's ``quad`` for a finite interval, without and with break
points.

Why a transcription and not a new rule: every floating-point operation
runs in the order of the compiled routine, so value, error estimate and
subinterval count are bit-identical to ``quad``'s.  Every number the CLI
prints, and every value the benchmark reference holds, stays as it was,
while ``taper`` and ``sweep`` no longer import SciPy's integrate package,
which took most of their start-up for a few tens of milliseconds of
quadrature.  A cheaper fixed Gauss rule would move the printed values,
and the reference with them.

The integrand is called once per 21-point panel, not once per node: it
takes the list of the panel's 21 abscissae and returns the list of their
values, in the same order (``_qk21`` gives the order, dqk21's order of
evaluation).  One call per panel, with the rule's sums written out as
explicit statements, saves the Python call and loop overhead of 21 nodes
while every floating-point operation keeps its place.

The arrays keep Fortran's 1-based indices (slot 0 is unused), and the
``goto`` labels of the original are named in the comments where the
control flow jumps.  dqagse and dqagpe run as one function, ``_qag``,
whose few differences branch on whether break points were given.  Sums
are explicit statements or loops, term by term (``sum`` of floats may
compensate), and ``min(1, r**1.5)`` is taken as 1 when r >= 1, where
``pow`` gives at least 1 anyway but Python's ``**`` raises on overflow.

``quad`` is the one entry point: it runs ``_qag`` at SciPy's default
tolerances and returns the integral, raising ValueError where SciPy's
``quad`` would warn.  The tests compare ``_qag`` itself with SciPy, on
the node integrand ``lambda x: f([x])[0]``.
"""

from __future__ import annotations

import sys

EPMACH = sys.float_info.epsilon     # d1mach(4)
UFLOW = sys.float_info.min          # d1mach(1)
OFLOW = sys.float_info.max          # d1mach(2)

#: quad's default tolerances
EPSABS = EPSREL = 1.49e-8

#: first line of SciPy's quad message for each error code of a finite
#: interval; the only other code dqagse and dqagpe return is 6, invalid
#: input, which ``quad`` raises as ValueError
MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.",
    2: "The occurrence of roundoff error is detected, which prevents ",
    3: "Extremely bad integrand behavior occurs at some points of the",
    4: "The algorithm does not converge.  Roundoff error is detected",
    5: "The integral is probably divergent, or slowly convergent.",
}

# 21-point Kronrod nodes (xgk) and weights (wgk), 10-point Gauss weights
# (wg); node xgk(2j) is the j-th Gauss node
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _qk21(f, a: float, b: float):
    """dqk21: the 21-point Kronrod rule on [a, b]; returns (result, abserr,
    resabs, resasc).

    f is called once, on the list of the panel's 21 abscissae in dqk21's
    order of evaluation: the centre, then the pairs centr - absc,
    centr + absc at the Gauss nodes xgk(1, 3, 5, 7, 9) (0-based), then at
    the other Kronrod nodes xgk(0, 2, 4, 6, 8).  It returns their 21 values
    in the same order.  The sums are dqk21's loops written out, term by
    term in the loops' order."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, _ = _XGK
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10 = _WGK
    g1, g3, g5, g7, g9 = _WG
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    d0 = hlgth * x0
    d1 = hlgth * x1
    d2 = hlgth * x2
    d3 = hlgth * x3
    d4 = hlgth * x4
    d5 = hlgth * x5
    d6 = hlgth * x6
    d7 = hlgth * x7
    d8 = hlgth * x8
    d9 = hlgth * x9
    (fc, f1m, f1p, f3m, f3p, f5m, f5p, f7m, f7p, f9m, f9p,
     f0m, f0p, f2m, f2p, f4m, f4p, f6m, f6p, f8m, f8p) = f([
         centr, centr - d1, centr + d1, centr - d3, centr + d3,
         centr - d5, centr + d5, centr - d7, centr + d7, centr - d9,
         centr + d9, centr - d0, centr + d0, centr - d2, centr + d2,
         centr - d4, centr + d4, centr - d6, centr + d6, centr - d8,
         centr + d8])
    s0 = f0m + f0p
    s1 = f1m + f1p
    s2 = f2m + f2p
    s3 = f3m + f3p
    s4 = f4m + f4p
    s5 = f5m + f5p
    s6 = f6m + f6p
    s7 = f7m + f7p
    s8 = f8m + f8p
    s9 = f9m + f9p
    # resg starts from 0.0 as in dqk21, where a first term of -0.0 gives 0.0
    resg = 0.0 + g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
    resk = k10 * fc + k1 * s1 + k3 * s3 + k5 * s5 + k7 * s7 + k9 * s9 \
        + k0 * s0 + k2 * s2 + k4 * s4 + k6 * s6 + k8 * s8
    resabs = abs(k10 * fc) + k1 * (abs(f1m) + abs(f1p)) \
        + k3 * (abs(f3m) + abs(f3p)) + k5 * (abs(f5m) + abs(f5p)) \
        + k7 * (abs(f7m) + abs(f7p)) + k9 * (abs(f9m) + abs(f9p)) \
        + k0 * (abs(f0m) + abs(f0p)) + k2 * (abs(f2m) + abs(f2p)) \
        + k4 * (abs(f4m) + abs(f4p)) + k6 * (abs(f6m) + abs(f6p)) \
        + k8 * (abs(f8m) + abs(f8p))
    reskh = resk * 0.5
    resasc = k10 * abs(fc - reskh) \
        + k0 * (abs(f0m - reskh) + abs(f0p - reskh)) \
        + k1 * (abs(f1m - reskh) + abs(f1p - reskh)) \
        + k2 * (abs(f2m - reskh) + abs(f2p - reskh)) \
        + k3 * (abs(f3m - reskh) + abs(f3p - reskh)) \
        + k4 * (abs(f4m - reskh) + abs(f4p - reskh)) \
        + k5 * (abs(f5m - reskh) + abs(f5p - reskh)) \
        + k6 * (abs(f6m - reskh) + abs(f6p - reskh)) \
        + k7 * (abs(f7m - reskh) + abs(f7p - reskh)) \
        + k8 * (abs(f8m - reskh) + abs(f8p - reskh)) \
        + k9 * (abs(f9m - reskh) + abs(f9p - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """dqpsrt: keep iord in descending order of error estimate; returns
    (maxerr, ermax, nrmax), the interval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # a difficult integrand may have raised the error estimate: move
        # errmax up past the entries above nrmax it now exceeds
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        # only as many entries as subdivisions remain are kept sorted
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # 60: insert errmax, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last      # 80
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            # 50
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres) with the table and res3la updated in place."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 equal to machine accuracy: converged
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            # two elements very close: drop part of the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            # irregular behaviour in the table: drop part of it
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # 50: shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = OFLOW
            else:
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) \
                    + abs(result - res3la[1])
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    # 100
    abserr = max(abserr, 5.0 * EPMACH * abs(result))
    return n, result, abserr, nres


def _qag(f, a: float, b: float, points, epsabs: float, epsrel: float,
         limit: int):
    """dqagse (points None) or dqagpe (points sorted, unique and strictly
    inside (a, b)) on [a, b], a < b, of the panel integrand f (see
    ``_qk21``); returns (result, abserr, ier, last) with ier as in QUADPACK
    (0 success, 6 invalid input).  f is called once per panel: 2*last - 1
    times for QAGS, nint + 2*(last - nint) for QAGP's nint = len(points) + 1
    first intervals.

    The two share their bisection loop.  Where they differ, QAGS tells the
    smallest intervals by width (``small``, halved at each extrapolation)
    and QAGP by bisection level (``levmax``, raised at each one)."""
    qagp = points is not None
    npts = len(points) if qagp else 0
    if limit <= npts or (epsabs <= 0.0
                         and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6, 0
    # the interval lists are 1-based and hold entries 1..last: they start
    # with the first intervals and grow by one per bisection, so a call
    # allocates for the intervals it makes, not for limit
    alist = [0.0] * (npts + 2)
    blist = [0.0] * (npts + 2)
    rlist = [0.0] * (npts + 2)
    elist = [0.0] * (npts + 2)
    iord = [0] * (npts + 2)
    level = [0] * (npts + 2)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    ier = 0

    if not qagp:
        # first approximation to the integral
        result, abserr, defabs, resasc = _qk21(f, a, b)
        dres = abs(result)
        errbnd = max(epsabs, epsrel * dres)
        last = 1
        alist[1] = a
        blist[1] = b
        rlist[1] = result
        elist[1] = abserr
        iord[1] = 1
        if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
            ier = 2
        if limit == 1:
            ier = 1
        if ier != 0 or (abserr <= errbnd and abserr != resasc) \
                or abserr == 0.0:
            return result, abserr, ier, last    # 140
        errmax = errsum = abserr
        maxerr = 1
        numrl2 = 2
        small = erlarg = ertest = 0.0
    else:
        # first approximations, one per interval between the points; the
        # points arrive sorted, so dqagpe's sort of them is left out
        nint = npts + 1
        ndin = [0] * (nint + 1)
        result = abserr = defabs = 0.0
        a1 = a
        for i, b1 in enumerate([*points, b], 1):
            area1, error1, resabs, resa = _qk21(f, a1, b1)
            abserr = abserr + error1
            result = result + area1
            if error1 == resa and error1 != 0.0:
                ndin[i] = 1
            defabs = defabs + resabs
            elist[i] = error1
            alist[i] = a1
            blist[i] = b1
            rlist[i] = area1
            iord[i] = i
            a1 = b1
        errsum = 0.0
        for i in range(1, nint + 1):
            if ndin[i] == 1:
                elist[i] = abserr
            errsum = errsum + elist[i]
        last = nint
        dres = abs(result)
        errbnd = max(epsabs, epsrel * dres)
        if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
            ier = 2
        if nint > 1:
            # order iord by descending error estimate
            for i in range(1, npts + 1):
                ind1 = iord[i]
                for j in range(i + 1, nint + 1):
                    ind2 = iord[j]
                    if elist[ind1] > elist[ind2]:
                        continue
                    ind1 = ind2
                    k = j
                if ind1 == iord[i]:
                    continue
                iord[k] = iord[i]
                iord[i] = ind1
            if limit < npts + 2:
                ier = 1
        if ier != 0 or abserr <= errbnd:
            return result, abserr, ier, last    # 210
        maxerr = iord[1]
        errmax = elist[maxerr]
        numrl2 = 1
        erlarg = errsum
        ertest = errbnd
        levmax = 1

    def larger(i: int) -> bool:
        """Is subinterval i larger than the smallest ones?"""
        if qagp:
            return level[i] + 1 <= levmax
        return abs(blist[i] - alist[i]) > small

    rlist2[1] = result
    area = result
    nrmax = 1
    nres = 0
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    correc = 0.0
    abserr = OFLOW
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1

    jump = "sum"
    for last in range(npts + 2, limit + 1):
        for entries in (alist, blist, rlist, elist):
            entries.append(0.0)
        iord.append(0)
        level.append(0)
        # bisect the subinterval with the nrmax-th largest error estimate
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level[last] = levcur
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) \
                * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the new intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            jump = "sum"                        # 115 / 190
            break
        if ier != 0:
            jump = "check"                      # 100 / 170
            break
        if not qagp and last == 2:
            # 80
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if (levcur + 1 <= levmax) if qagp else abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if larger(maxerr):
                continue
            extrap = True
            nrmax = 2
        # 40 / 120
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # bisecting, decrease erlarg and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            bisect_larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if larger(maxerr):
                    bisect_larger = True
                    break
                nrmax += 1
            if bisect_larger:
                continue
        # 60 / 140: extrapolate (QAGP from its third table entry on)
        numrl2 += 1
        rlist2[numrl2] = area
        if not qagp or numrl2 > 2:
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la,
                                                 nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if (abserr < ertest) if qagp else (abserr <= ertest):
                    jump = "check"
                    break
            # 70 / 150: prepare bisection of the smallest interval
            if numrl2 == 1:
                noext = True
            if ier == 5:
                jump = "check"
                break
        # 155
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        if qagp:
            levmax += 1
        else:
            small = small * 0.5
        erlarg = errsum

    # the final result: the extrapolated one ("check", label 100 / 170) or
    # the sum over the subintervals ("sum", 115 / 190), then the test for
    # divergence and the internal error codes mapped to the public ones
    if jump == "check":
        if abserr == OFLOW:
            jump = "sum"
        elif ier + ierro == 0:
            jump = "divergence"
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                jump = "sum" if abserr / abs(result) > errsum / abs(area) \
                    else "divergence"
            elif abserr > errsum:
                jump = "sum"
            elif area == 0.0:
                jump = "done"
            else:
                jump = "divergence"
    if jump == "divergence":
        if not (ksgn == -1
                and max(abs(result), abs(area)) <= defabs * 0.01):
            if area == 0.0:
                # the compiled result / area is +-inf, or nan for 0 / 0
                diverges = result != 0.0 or errsum > 0.0
            else:
                ratio = result / area
                diverges = 0.01 > ratio or ratio > 100.0 \
                    or errsum > abs(area)
            if diverges:
                ier = 6
    elif jump == "sum":
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier, last


def quad(f, a: float, b: float, limit: int, points=None) -> float:
    """Integral over the finite interval [a, b], a < b, as SciPy's ``quad``
    computes it at its default tolerances: QAGS without break points, QAGP
    with the points, which must be sorted and strictly inside (a, b).

    f is the panel integrand: it takes a list of 21 abscissae and returns
    the list of the integrand's values there, in the same order, so the
    integral is that of ``lambda x: f([x])[0]``.  Raises ValueError on
    invalid input, and where ``quad`` would warn that the integral did not
    converge (the codes of ``MESSAGES``)."""
    if not a < b:
        raise ValueError(f"quadrature needs a < b, got a = {a!r}, b = {b!r}")
    val, _, ier, _ = _qag(f, a, b, points, EPSABS, EPSREL, limit)
    if ier == 6:
        raise ValueError("the quadrature input is invalid: need limit > "
                         "the number of break points")
    if ier:
        raise ValueError("wire line-energy quadrature did not converge: "
                         + MESSAGES[ier].format(limit=limit))
    return val
