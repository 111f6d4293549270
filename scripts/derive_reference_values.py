"""Derive the frozen reference constants used in the test suite.

Everything here is computed with mpmath at high precision, independently of
the package's own numerics, so the test literals have a second route behind
them.  Run from the repository root:

    python scripts/derive_reference_values.py
"""

import mpmath as mp

mp.mp.dps = 30

K0 = mp.mpf(2)


def omega(k, b):
    k = mp.mpf(k)
    if k == 0:
        return mp.mpf(0)
    s = mp.sign(k)
    a = abs(k)
    return s * mp.sqrt((a + b * a**3) * mp.tanh(a))


def omega_d(k, b, n=1):
    return mp.diff(lambda x: omega(x, b), k, n)


def r_hat(k, b, k0=K0):
    return omega(k, b) - omega(k - k0, b) - omega(k0, b)


#: carriers whose critical Bond numbers the tests freeze
BOND_K0S = ("0.1", "0.3", "0.5", "1", "1.25", "2", "2.5", "3", "3.3")


def closed_form_bonds(k0):
    """(b0, b1) from the closed forms of ``arcwave.resonance.critical_bonds``."""
    t, T, S = mp.tanh(k0 / 2), mp.tanh(k0), mp.sech(k0) ** 2
    b1 = 4 * t**2 / (k0**2 * (3 - t**2))
    P, a = T + k0 * S, 3 * T + k0 * S
    lin, const = 2 * P * a - 4 * k0 * T, P**2 - 4 * k0 * T
    x = (-lin + mp.sqrt(lin**2 - 4 * a**2 * const)) / (2 * a**2)
    return x / k0**2, b1


def findroot_bonds(k0):
    """(b0, b1) as roots of omega'(k0, b) = 1 and 2 omega(k0/2, b) = omega(k0, b)."""
    b1 = mp.findroot(lambda b: 2 * omega(k0 / 2, b) - omega(k0, b), mp.mpf("0.2"))
    b0 = mp.findroot(lambda b: omega_d(k0, b, 1) - 1, mp.mpf("0.2"))
    return b0, b1


def fold_zero(k0, b):
    """The zero of r next to k0 at a b near b0, bracketed around the fold's
    estimate k0 + d, d = -2 r'(k0) / r''(k0) (above k0 for b < b0, below
    it for b > b0)."""
    d = -2 * (omega_d(k0, b, 1) - 1) / omega_d(k0, b, 2)
    ends = sorted([k0 + d / 2, k0 + 2 * d])
    return mp.findroot(lambda k: r_hat(k, b, k0), tuple(ends), solver="anderson")


def fold_values():
    """What the fold tests of tests/test_resonance.py freeze, at 40 digits.

    Their Bond numbers are float64 expressions: b0 (1 -+ 10^-x) with b0 the
    correctly rounded root (arcwave's is within 4 ulps of it, which moves
    the zeros printed here by under 1e-14), and 0.33 and 0.21 from
    ``np.linspace(0, 0.35, 36)``; each is taken at its exact binary value.
    """
    with mp.workdps(40):
        print("\n== critical Bond numbers: closed forms beside findroot ==")
        bonds = {}
        for k0s in BOND_K0S:
            k0 = mp.mpf(k0s)
            cb0, cb1 = closed_form_bonds(k0)
            fb0, fb1 = findroot_bonds(k0)
            bonds[k0s] = float(fb0)
            print(f"k0={k0s}: b0 = {float(fb0)!r} (closed - findroot {mp.nstr(cb0 - fb0, 3)})"
                  f"  b1 = {float(fb1)!r} (closed - findroot {mp.nstr(cb1 - fb1, 3)})")

        print("\n== k1 just below b0: b = b0 (1 - 10^-x) ==")
        for k0s in ("0.5", "1", "1.25", "2"):
            for x in (5, 6, 7, 8):
                b = bonds[k0s] * (1.0 - 10.0**-x)
                k1 = fold_zero(mp.mpf(k0s), mp.mpf(b))
                print(f"k0={k0s} x={x}: b = {b!r}  k1 = {float(k1)!r}")

        print("\n== the extra zero just above b0: b = b0 (1 + 1e-3) ==")
        for k0s in ("1", "2"):
            b = bonds[k0s] * (1.0 + 1e-3)
            z = fold_zero(mp.mpf(k0s), mp.mpf(b))
            print(f"k0={k0s}: b = {b!r}  zero = {float(z)!r}")

        print("\n== zeros within 0.01 of k0 that a linspace scan of step 0.01 misses ==")
        for k0s, b in (("0.3", 0.33), ("2.2", 0.21)):
            z = fold_zero(mp.mpf(k0s), mp.mpf(b))
            print(f"k0={k0s} b={b!r}: zero = {float(z)!r}")


def main():
    print("== dispersion point values ==")
    print("omega(2,0)      =", mp.nstr(omega(2, mp.mpf(0)), 17))
    print("omega'(2,0)     =", mp.nstr(omega_d(2, mp.mpf(0), 1), 17))
    print("omega''(2,0)    =", mp.nstr(omega_d(2, mp.mpf(0), 2), 17))
    print("omega'''(2,0)   =", mp.nstr(omega_d(2, mp.mpf(0), 3), 17))
    print("omega(4,0.1)    =", mp.nstr(omega(4, mp.mpf("0.1")), 17))
    print("sigma(3,0.2)    =", mp.nstr(mp.sqrt((3 + mp.mpf("0.2") * 27) / mp.tanh(3)), 17))

    print("\n== critical Bond numbers at k0=2 ==")
    # b1: r_hat(k0/2, b) = 0  <=>  2*omega(k0/2,b) = omega(k0,b)
    b1 = mp.findroot(lambda b: 2 * omega(K0 / 2, b) - omega(K0, b), mp.mpf("0.24"))
    # b0: d_k omega(k0, b) = 1 (= d_k omega(0, b))
    b0 = mp.findroot(lambda b: omega_d(K0, b, 1) - 1, mp.mpf("0.224"))
    print("b1(2) =", mp.nstr(b1, 17))
    print("b0(2) =", mp.nstr(b0, 17))
    print("check r(k0/2,b1) =", mp.nstr(r_hat(K0 / 2, b1), 5),
          " dr(k0/2,b1) =", mp.nstr(omega_d(K0 / 2, b1, 1) - omega_d(K0 - K0 / 2, b1, 1), 5))
    print("check r(k0,b0)  =", mp.nstr(r_hat(K0, b0), 5),
          " dr(k0,b0)  =", mp.nstr(omega_d(K0, b0, 1) - 1, 5))

    print("\n== nontrivial zero k1(b) at k0=2 ==")
    for b, seed in [(mp.mpf(1) / 5, 4), (mp.mpf(1) / 200, 50),
                    (mp.mpf("0.1"), 6), (mp.mpf("0.01"), 30),
                    (mp.mpf("1e-4"), 2000), (mp.mpf("0.05"), 10), (mp.mpf("0.2"), 4)]:
        k1 = mp.findroot(lambda k: r_hat(k, b), seed)
        print(f"b={mp.nstr(b, 8)}: k1 =", mp.nstr(k1, 17),
              " asym ratio b*k1*9*k0/(4 tanh k0) =",
              mp.nstr(b * k1 * 9 * K0 / (4 * mp.tanh(K0)), 10))

    print("\n== mirror zeros between b0 and b1 (panel v geometry) ==")
    b = mp.mpf(1) / mp.mpf("4.25")
    zp = mp.findroot(lambda k: r_hat(k, b), mp.mpf("1.6"))
    print("b=1/4.25: z+ =", mp.nstr(zp, 17), " z- = k0-z+ =", mp.nstr(K0 - zp, 17))
    bmid = (b0 + b1) / 2
    zpm = mp.findroot(lambda k: r_hat(k, bmid), mp.mpf("1.5"))
    print("b=(b0+b1)/2: z+ =", mp.nstr(zpm, 17), " z- =", mp.nstr(K0 - zpm, 17))

    print("\n== zero counts on (0, 60] excluding k=0 (sign scan, step 1e-3) ==")
    panels = [("1/3", mp.mpf(1) / 3), ("1/3.5", 1 / mp.mpf("3.5")),
              ("1/4.15", 1 / mp.mpf("4.15")), ("b1", b1),
              ("1/4.25", 1 / mp.mpf("4.25")), ("b0", b0),
              ("1/5", mp.mpf(1) / 5), ("1/200", mp.mpf(1) / 200), ("0", mp.mpf(0))]
    for name, bb in panels:
        lo, hi, nstep = mp.mpf("1e-6"), mp.mpf(60), 60000
        prev = r_hat(lo, bb)
        count = 0
        zs = []
        for i in range(1, nstep + 1):
            k = lo + (hi - lo) * i / nstep
            cur = r_hat(k, bb)
            if prev == 0:
                prev = cur
                continue
            if mp.sign(cur) != mp.sign(prev) and cur != 0:
                count += 1
                zs.append(mp.nstr((k + k - (hi - lo) / nstep) / 2, 6))
            prev = cur
        print(f"b={name}: {count} sign-change zeros at ~{zs}")

    print("\n== inflection/curvature landmarks ==")
    for b in [mp.mpf("0.05"), mp.mpf("0.1"), mp.mpf("0.2"), mp.mpf("0.3")]:
        k3 = mp.findroot(lambda k: omega_d(k, b, 2), mp.mpf("1.0"))
        k4 = mp.findroot(lambda k: omega_d(k, b, 3), k3 * mp.mpf("1.8"))
        print(f"b={mp.nstr(b,3)}: k3 =", mp.nstr(k3, 12), " k4 =", mp.nstr(k4, 12))

    print("\n== nrb3 violation: b with omega''(2,b)=0 ==")
    bflat = mp.findroot(lambda b: omega_d(K0, b, 2), mp.mpf("0.15"))
    print("b* =", mp.nstr(bflat, 17))

    print("\n== 2om violation: b with omega(2k0,b)=2 omega(k0,b) ==")
    # same as b1? no: b1 solves 2*omega(k0/2)=omega(k0); this solves
    # omega(2k0,b)-2omega(k0,b)=0, i.e. the second-harmonic resonance at k0=2.
    b2om = mp.findroot(lambda b: omega(2 * K0, b) - 2 * omega(K0, b), mp.mpf("0.24"))
    print("b(2om) =", mp.nstr(b2om, 17))
    print("check: omega(4,b)-2omega(2,b) =", mp.nstr(omega(4, b2om) - 2 * omega(2, b2om), 5))

    fold_values()


if __name__ == "__main__":
    main()
