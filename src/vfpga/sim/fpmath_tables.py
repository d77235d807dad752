#!/usr/bin/env python3
"""Print the constant tables of sim/fpmath.cpp.

Each entry is the double nearest a value computed in 60-digit decimal
arithmetic (Python's float(Decimal) rounds correctly), so the tables do
not depend on any libm. Run from the repository root and paste the
output between the BEGIN/END markers of src/vfpga/sim/fpmath.cpp:

    python3 src/vfpga/sim/fpmath_tables.py

FpMath.TableEntriesMatchLongDoubleLibm checks every entry against the
long-double libm within 1 ulp.
"""
from decimal import Decimal, getcontext

getcontext().prec = 60
N = 256


def atan_inv(n):
    """atan(1/n) by its Taylor series."""
    x = Decimal(1) / n
    x2 = x * x
    term, total, k = x, x, 1
    while True:
        term *= -x2
        k += 2
        step = term / k
        if abs(step) < Decimal(10) ** -70:
            return total
        total += step


def cos_sin(theta):
    """(cos theta, sin theta) by their Taylor series."""
    c, s = Decimal(0), Decimal(0)
    term = Decimal(1)  # theta^n / n!
    n = 0
    while abs(term) > Decimal(10) ** -70 or n < 4:
        sign = -1 if (n // 2) % 2 else 1
        if n % 2 == 0:
            c += sign * term
        else:
            s += sign * term
        n += 1
        term = term * theta / n
    return c, s


def hex_of(value):
    return float(value).hex()


PI = 16 * atan_inv(5) - 4 * atan_inv(239)
LN2 = Decimal(2).ln()


def log_knots():
    # Interval i of the reduced argument z in [0.6875, 1.375), as
    # fpmath::log indexes it: width 2^-9 below 1, 2^-8 above. c is the
    # interval's centre, except that the two intervals next to 1 use
    # c = 1, so that z - 1 is the remainder and nothing cancels there.
    # log forms c from z's bits; the table holds 1/c and log c.
    for i in range(N):
        if i < 160:
            start, width = (Decimal("1.375") + Decimal(i) / N) / 2, Decimal(1) / 512
        else:
            start, width = 1 + Decimal(i - 160) / N, Decimal(1) / N
        c = Decimal(1) if i in (159, 160) else start + width / 2
        yield f"    {{{hex_of(1 / c)}, {hex_of(c.ln())}}},"


def exp_knots():
    # 2^(j/256) as the nearest double `scale` and the relative rest
    # `tail`, so that 2^(j/256) = scale * (1 + tail) to about 2^-106.
    for j in range(N):
        value = (Decimal(j) / N * LN2).exp()
        scale = Decimal(float(value))
        yield f"    {{{hex_of((value - scale) / scale)}, {hex_of(scale)}}},"


def cos_knots():
    # The series leaves about 1e-197 where cos or sin is exactly 0.
    def exact(v):
        return Decimal(0) if abs(v) < Decimal(10) ** -50 else v

    for j in range(N):
        c, s = map(exact, cos_sin(j * PI / 128))
        yield f"    {{{hex_of(c)}, {hex_of(s)}}},"


def main():
    for name, kind, rows in (("kLogKnots", "LogKnot", log_knots()),
                             ("kExpKnots", "ExpKnot", exp_knots()),
                             ("kCosKnots", "CosKnot", cos_knots())):
        print(f"constinit const std::array<{kind}, {N}> {name}{{{{")
        for row in rows:
            print(row)
        print("}};")


if __name__ == "__main__":
    main()
