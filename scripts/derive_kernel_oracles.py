"""High-precision oracles for the bilinear kernels, triad coefficients, and
the cubic modulation coefficient.

Routes everything through mpmath with hand-written two-mode convolution
kernels, independently of the package's grid extraction, and prints the
constants that get frozen into the tests:

  * verification of the commutator rearrangement identity behind the
    first-block principal symbols,
  * the analytic leftover kernel (the "mild" residual part) against the raw
    cross kernel of the first-block equations,
  * the raw cross kernel of the second-block equations with the composite
    carrier (``raw_cross2``),
  * triad-interaction stability ratios at k0 = 2 for several Bond numbers,
  * second-order correction coefficients and the cubic coefficient nu of the
    modulation equation for the quadratic-truncated system.

Run:  python3 scripts/derive_kernel_oracles.py
"""

import mpmath as mp

from derive_reference_values import partner

mp.mp.dps = 30

I = mp.mpc(0, 1)


def omega(k, b):
    if k == 0:
        return mp.mpf(0)
    a = abs(k)
    return mp.sign(k) * mp.sqrt((a + b * a**3) * mp.tanh(a))


def sig(k, b):
    if k == 0:
        return mp.mpf(1)
    a = abs(k)
    return mp.sqrt((a + b * a**3) / mp.tanh(a))


def K0(k):
    return -I * mp.tanh(k)


# -- raw cross kernel of the first-block equations --------------------------
#
# The carrier slot (wavenumber l) sits in the u_{-1} component; the second
# insertion (wavenumber m) sits in component j2 in {-1,+1}.  Output k = l+m.
# j1 in {-1,+1} selects which equation's right-hand side is read off.


def raw_cross(j1, j2, l, m, b):
    k = l + m
    ik = I * k
    s1 = -mp.sign(j1)  # +1 for the u_{-1} equation, -1 for the u_{+1} equation
    A = -ik / 2
    B = ik / 2 * K0(l) * K0(m)
    C1 = s1 * ik / 2 * sig(k, b) * K0(k) * (K0(k) - K0(m)) / sig(l, b)
    D1 = -s1 * ik / 2 * sig(k, b) * (1 + K0(k) ** 2) / sig(l, b)
    C2 = s1 * (-j2) * ik / 2 * sig(k, b) * K0(k) * (K0(k) - K0(l)) / sig(m, b)
    D2 = -s1 * (-j2) * ik / 2 * sig(k, b) * (1 + K0(k) ** 2) / sig(m, b)
    return A + B + C1 + D1 + C2 + D2


# -- raw cross kernel of the second-block equations --------------------------
#
# The composite carrier (wavenumber l) sits in u_{-1} and, through the slaved
# relation u_{-2} = dalpha^2 u_{-1}, in u_{-2}; the insertion (wavenumber m)
# sits in component j2 in {-2,+2}.  Output k = l+m; j1 in {-2,+2} selects the
# equation.  Antiderivatives use the zero-mode convention 1/(ik) := 0 at k = 0.


def inv_ik(k):
    return mp.mpc(0) if k == 0 else 1 / (I * k)


def second_block_fields(k, s1, d1, s2, d2, b):
    """The multiplied fields the second-block products are built from, for a
    single mode at k whose block sums/differences are s1, d1, s2, d2."""
    sd2 = d2 / sig(k, b)
    return {"s2": s2, "sd1": d1 / sig(k, b), "sd2": sd2,
            "a2s2": inv_ik(k) ** 2 * s2, "a1s2": inv_ik(k) * s2,
            "K0a1s2": K0(k) * inv_ik(k) * s2, "a1sd2": inv_ik(k) * sd2,
            "K0a1sd2": K0(k) * inv_ik(k) * sd2, "K0dsd2": K0(k) * I * k * sd2}


def raw_cross2(j1, j2, l, m, b):
    k = l + m
    ik = I * k
    carrier = second_block_fields(l, 1, 1, -l**2, -l**2, b)
    insert = second_block_fields(m, 0, 0, 1, -mp.sign(j2), b)

    def pr(f, g):
        return carrier[f] * insert[g] + insert[f] * carrier[g]

    E2 = ik / 2 * (pr("K0a1sd2", "sd2") - pr("a2s2", "s2") - pr("a1s2", "a1s2")
                   + pr("K0a1s2", "K0a1s2") - b * pr("sd2", "K0dsd2"))
    X2 = ik / 2 * sig(k, b) * (pr("a2s2", "sd2") + pr("a1sd2", "a1s2")
                               + ik * pr("sd1", "a1s2") + K0(k) * pr("a1sd2", "K0a1s2")
                               + ik * K0(k) * pr("sd1", "K0a1s2"))
    return E2 + mp.sign(j1) * X2


def second_block_table():
    print("\n== raw second-block cross kernel (composite carrier at l, insert at m) ==")
    for (j1, j2, l, m, b) in [(-2, -2, 2, 1, mp.mpf(0)), (2, -2, 2, 3, mp.mpf("0.05")),
                              (-2, 2, -2, 0, mp.mpf("0.1")), (2, 2, 3, -5, mp.mpf("0.13")),
                              (-2, -2, 17, -15, mp.mpf("0.3"))]:
        v = raw_cross2(j1, j2, mp.mpf(l), mp.mpf(m), b)
        print(f"j1={j1:+d} j2={j2:+d} l={l} m={m} b={mp.nstr(b, 4)}: {mp.nstr(v, 20)}")


def q11(j1, j2, l, m):
    k = l + m
    return -I * k if j1 == j2 else mp.mpc(0)


def q12(j1, j2, l, m):
    k = l + m
    return I * k * K0(l) * K0(m) if j1 == -j2 else mp.mpc(0)


def q13(j1, j2, l, m, b):
    """Analytic leftover after peeling the principal parts off raw_cross."""
    k = l + m
    ik = I * k
    s1 = -mp.sign(j1)
    part_l = ik / 2 * (sig(k, b) * K0(k) * (K0(k) - K0(m)) - sig(k, b) * (1 + K0(k) ** 2)) / sig(l, b)
    part_m = ik / 2 * ((sig(k, b) - sig(m, b)) / sig(m, b)
                       + (K0(k) * sig(k, b) - K0(m) * sig(m, b)) * K0(l) / sig(m, b))
    return s1 * (part_l + j2 * part_m)


def check_decomposition():
    print("== first-block kernel decomposition: raw == q11 + q12 + q13 ==")
    worst = mp.mpf(0)
    pts = [(mp.mpf("0.7"), mp.mpf("1.9")), (mp.mpf("-2.3"), mp.mpf("0.4")),
           (mp.mpf("5.5"), mp.mpf("-1.1")), (mp.mpf("0.01"), mp.mpf("3.0")),
           (mp.mpf("12.0"), mp.mpf("7.0"))]
    for b in [mp.mpf(0), mp.mpf("0.1"), mp.mpf("0.3")]:
        for (l, m) in pts:
            for j1 in (-1, 1):
                for j2 in (-1, 1):
                    lhs = raw_cross(j1, j2, l, m, b)
                    rhs = q11(j1, j2, l, m) + q12(j1, j2, l, m) + q13(j1, j2, l, m, b)
                    worst = max(worst, abs(lhs - rhs))
    print("max |raw - (q11+q12+q13)| over sample =", mp.nstr(worst, 3))

    # mildness of the leftover: O(|k|) at 0 and O(1) at infinity (carrier
    # wavenumber l held in a compact set)
    print("q13 smallness: |q13|/|k| near k=0:",
          [mp.nstr(abs(q13(-1, -1, mp.mpf(2), mp.mpf(-2) + 10**-e, mp.mpf("0.1")))
                   / mp.mpf(10) ** -e, 4) for e in (2, 4, 6)])
    print("q13 boundedness at large k (l=2):",
          [mp.nstr(abs(q13(-1, -1, mp.mpf(2), mp.mpf(m), mp.mpf("0.1"))), 6)
           for m in (10, 100, 1000)])


def check_K0_identity():
    print("\n== commutator identity in Fourier variables ==")
    # sigma K0 [K0, sigma^-1 f] g - sigma (1+K0^2)(sigma^-1 f g)
    #   = -g f - K0 g K0 f - [sigma, g] sigma^-1 f - [K0 sigma, K0 g] sigma^-1 f
    worst = mp.mpf(0)
    for b in [mp.mpf(0), mp.mpf("0.2")]:
        for (p, q) in [(mp.mpf("1.3"), mp.mpf("0.8")), (mp.mpf("-4.0"), mp.mpf("9.0"))]:
            k = p + q
            lhs = sig(k, b) * K0(k) * (K0(k) - K0(q)) / sig(p, b) \
                - sig(k, b) * (1 + K0(k) ** 2) / sig(p, b)
            rhs = -1 - K0(q) * K0(p) - (sig(k, b) - sig(p, b)) / sig(p, b) \
                - (K0(k) * sig(k, b) - K0(p) * sig(p, b)) * K0(q) / sig(p, b)
            worst = max(worst, abs(lhs - rhs))
    print("max defect =", mp.nstr(worst, 3))


def ext(j1, l, m, b):
    """Extraction-convention kernel of equation j1, both inserts in u_{-1}.

    raw_cross(j1, -1, l, m) already sums both slot pairings and is l<->m
    symmetric, so it coincides with the two-mode extraction value
    (the coefficient of e_{l+m} in N(e_l + e_m) - N(e_l) - N(e_m)).
    """
    return raw_cross(j1, -1, l, m, b)


def nontrivial_zero(k0, b):
    """A sign-change zero of the resonance function away from the trivial
    zero at k0.  For 0 < b < b0 it sits above k0, the zero of r/(k - k0)
    that ``derive_reference_values.partner`` brackets from k0; between the
    two critical Bond numbers it sits in (k0/2, k0), found by bisection."""
    k1 = partner(k0, b)
    if k1 is not None:
        return k1

    def r(k):
        return omega(k, b) - omega(k - k0, b) - omega(k0, b)

    lo, hi = k0 / 2 + mp.mpf("1e-6"), k0 * (1 - mp.mpf("1e-6"))
    if r(lo) * r(hi) > 0:
        raise ValueError("no bracketed nontrivial zero")
    for _ in range(200):
        mid = (lo + hi) / 2
        if r(lo) * r(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def twi_ratios():
    print("\n== triad stability ratios at k0=2 (u_{-1}-equation kernel) ==")
    k0 = mp.mpf(2)
    for b in [mp.mpf(1) / 5, 1 / mp.mpf("4.25"), mp.mpf("0.01"), mp.mpf("0.05"), mp.mpf("0.1")]:
        k1 = nontrivial_zero(k0, b)
        c0 = ext(-1, -k1, k1 - k0, b)          # output -k0
        c1 = ext(-1, k0, k1 - k0, b)           # output  k1
        c2 = ext(-1, k0, -k1, b)               # output  k0-k1
        ratio = c1 / c2
        kmax = max(k1, k0 - k1)
        print(f"b={mp.nstr(b, 8)}: k1={mp.nstr(k1, 17)}")
        print(f"   c0={mp.nstr(c0, 17)}")
        print(f"   c1={mp.nstr(c1, 17)}")
        print(f"   c2={mp.nstr(c2, 17)}")
        print(f"   ratio={mp.nstr(ratio, 17)} stable(ratio<0)={mp.re(ratio) < 0} "
              f"stable(max-crit: k0<max)={k0 < kmax}")


def nu_table():
    print("\n== modulation-equation coefficients (quadratic-truncated system) ==")
    k0 = mp.mpf(2)
    for b in [mp.mpf(0), mp.mpf("0.01"), mp.mpf("0.05"), mp.mpf("0.1")]:
        om0 = omega(k0, b)
        cg = mp.diff(lambda x: omega(x, b), k0)
        om2k0 = omega(2 * k0, b)
        half_om2 = mp.diff(lambda x: omega(x, b), k0, 2) / 2

        def offdiag(l, m):
            return raw_cross(-1, 1, l, m, b)

        nu_p = mp.mpc(0)
        coeffs = {}
        for msign in (-1, 1):
            ext_kk = ext(msign, k0, k0, b)
            D2 = -2 * om0 - msign * om2k0
            c_m2 = (ext_kk / 2) / (I * D2)
            gamma0 = mp.diff(lambda h: ext(msign, k0, -k0 + h, b), mp.mpf(0)) / I
            c_m0 = gamma0 / (-cg - msign * 1)
            coeffs[msign] = (c_m2, c_m0, D2, gamma0)
            if msign == -1:
                nu_p += ext(-1, k0, mp.mpf(0), b) * c_m0
                nu_p += ext(-1, -k0, 2 * k0, b) * c_m2
            else:
                nu_p += offdiag(k0, mp.mpf(0)) * c_m0
                nu_p += offdiag(-k0, 2 * k0) * c_m2
        nu = nu_p / I
        print(f"b={mp.nstr(b, 6)}: omega0={mp.nstr(om0, 10)} cg={mp.nstr(cg, 10)} "
              f"omega''/2={mp.nstr(half_om2, 10)}")
        for msign, (c_m2, c_m0, D2, gamma0) in coeffs.items():
            print(f"   m={msign:+d}: c_m2={mp.nstr(c_m2, 12)} c_m0={mp.nstr(c_m0, 12)} "
                  f"D2={mp.nstr(D2, 10)} gamma0={mp.nstr(gamma0, 10)}")
        print(f"   nu = {mp.nstr(nu, 14)}   (imag part {mp.nstr(mp.im(nu), 3)})")
        print(f"   focusing (nu * omega''/2 > 0)? {mp.re(nu) * half_om2 > 0}")


if __name__ == "__main__":
    check_decomposition()
    check_K0_identity()
    twi_ratios()
    nu_table()
    second_block_table()
