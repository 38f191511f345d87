#!/usr/bin/env python3
"""Independent Python transcription of the 19 Figure-9 corpus programs.

Each function below transcribes one MiniML program from
src/bench/Programs.cpp by hand, so the expected results in corpus.json
come from a second implementation and never from the compiler under
test. MiniML integers are machine integers whose `div` and `mod`
truncate toward zero (C semantics), unlike Standard ML; `tdiv` and
`tmod` reproduce that. Lists become Python lists and pairs tuples.

    python3 perfbench/oracle/transcription.py          # print the table
    python3 perfbench/oracle/transcription.py --check  # compare with corpus.json
"""

import json
import os
import sys

sys.setrecursionlimit(100000)


def tdiv(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def tmod(a, b):
    return a - b * tdiv(a, b)


def upto(a, b):
    return list(range(a, b + 1))


def concat_map(f, xs):
    out = []
    for x in xs:
        out.extend(f(x))
    return out


def fib():
    def go(n):
        return n if n < 2 else go(n - 1) + go(n - 2)
    return go(24)


def tak():
    def go(x, y, z):
        if y < x:
            return go(go(x - 1, y, z), go(y - 1, z, x), go(z - 1, x, y))
        return z
    return go(16, 10, 4)


def ack():
    # ack 2 n = 2n + 3 (the recursion, unrolled for Python's stack).
    def go(m, n):
        if m == 0:
            return n + 1
        if m == 1:
            return n + 2
        if n == 0:
            return go(m - 1, 1)
        return go(m - 1, go(m, n - 1))
    return go(2, 120)


def nrev():
    return sum(len(list(reversed(upto(1, 90)))) for _ in range(60))


def _msort(xs):
    if len(xs) < 2:
        return xs
    left, right = xs[0::2], xs[1::2]  # split deals alternate elements
    a, b = _msort(left), _msort(right)
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out + a[i:] + b[j:]


def msort():
    mk = [tmod(n * 1103, 911) for n in range(300, 0, -1)]
    return sum(len(_msort(mk)) for _ in range(20))


def qsort():
    def qs(xs):
        if not xs:
            return []
        h, t = xs[0], xs[1:]
        return qs([x for x in t if x < h]) + [h] + qs([x for x in t if x >= h])
    mk = [tmod(n * 761, 509) for n in range(250, 0, -1)]
    return sum(len(qs(mk)) for _ in range(20))


def life():
    def nbrs(c):
        return [c - 65, c - 64, c - 63, c - 1, c + 1, c + 63, c + 64, c + 65]

    def uniq(xs):
        # keeps the last occurrence of each element, in order
        return [h for i, h in enumerate(xs) if h not in xs[i + 1:]]

    def alive(board, c):
        n = len([x for x in nbrs(c) if x in board])
        return n in (2, 3) if c in board else n == 3

    def step(board):
        cand = uniq(board + concat_map(nbrs, board))
        return [c for c in cand if alive(board, c)]

    board = [2050, 2115, 2177, 2178, 2179]
    for _ in range(12):
        board = step(board)
    return len(board)


def mandel():
    def mand(cr, ci):
        zr = zi = 0
        i = 24
        while i != 0:
            zr2 = tdiv(zr * zr, 4096)
            zi2 = tdiv(zi * zi, 4096)
            if zr2 + zi2 > 16384:
                return i
            zr, zi = zr2 - zi2 + cr, tdiv(2 * zr * zi, 4096) + ci
            i -= 1
        return 0

    total = 0
    for y in range(0, 32):
        total += sum(mand(x * 256 - 8192, y * 256 - 4096) for x in range(48))
    return total


def sieve():
    xs = upto(2, 900)
    primes = []
    while xs:
        p = xs[0]
        primes.append(p)
        xs = [x for x in xs[1:] if tmod(x, p) != 0]
    return len(primes)


def queens():
    def safe(q, qs, d):
        for h in qs:
            if h == q or h == q + d or h == q - d:
                return False
            d += 1
        return True

    def place(k, n):
        if k == 0:
            return [[]]
        return concat_map(
            lambda qs: [[q] + qs for q in upto(1, n) if safe(q, qs, 1)],
            place(k - 1, n))

    return len(place(6, 6))


def strings():
    one = sum(len(str(n)) for n in range(60, 0, -1))
    return one * 40


def hof():
    # mkpipe 8 applies (x * 2) then (x + 1), innermost pipe first.
    def pipe(x):
        for _ in range(8):
            x = x * 2 + 1
        return x
    # decorate "<" maps t to "<" ^ t ^ "!": two more characters.
    strsum = sum(len(str(n)) + 2 for n in range(40, 0, -1))
    return strsum + sum(pipe(x) for x in upto(1, 600))


def refs():
    return 60 * sum(range(1, 701))


def exn():
    acc = 0
    for n in range(150, 0, -1):
        found = -1
        for x in upto(1, 200):
            if x * x > n * 40:
                found = x
                break
        acc += found
    return acc


def ratio():
    def gcd(a, b):
        while b != 0:
            a, b = b, tmod(a, b)
        return a

    def norm(r):
        g = gcd(r[0], r[1])
        return r if g == 0 else (tdiv(r[0], g), tdiv(r[1], g))

    def radd(r, s):
        return norm((r[0] * s[1] + s[0] * r[1], r[1] * s[1]))

    def conv(n):
        if n == 0:
            return (1, 1)
        inner = radd((1, 1), conv(n - 1))
        return radd((1, 1), (inner[1], inner[0]))

    return 300 * conv(12)[0]


def msortrf():
    cell = [tmod(n * 653, 499) for n in range(300, 0, -1)]
    acc = 0
    for _ in range(20):
        cell = _msort(cell)
        acc += cell[0] if cell else 0
    return acc


def minterp():
    def exec_(prog):
        stack = []
        i = 0
        while i < len(prog):
            op = prog[i]
            if op == 0:
                stack.insert(0, prog[i + 1])
                i += 2
                continue
            if op == 1:
                a, b = stack[0], stack[1]
                stack = [a + b] + stack[2:]
            elif op == 2:
                a, b = stack[0], stack[1]
                stack = [tmod(a * b, 9973)] + stack[2:]
            else:
                stack.insert(0, stack[0])
            i += 1
        return stack[0] if stack else 0

    def gen(n):
        out = []
        while n != 0:
            if tmod(n, 3) == 0:
                out += [0, tmod(n, 11), 3, 2]
            elif tmod(n, 3) == 1:
                out += [0, tmod(n, 7), 1]
            else:
                out += [0, tmod(n, 5), 0, 2, 1, 2]
            n -= 1
        return out + [0, 1]

    return 60 * exec_(gen(60))


def deadcap():
    # use () applies the composed closure, whose outer function is
    # fn _ => 0: every iteration adds 0.
    return 0


def zebra():
    def insert_all(x, xs):
        out = [[x] + xs]
        for i in range(len(xs)):
            out.append(xs[:i + 1] + [x] + xs[i + 1:])
        return out

    def perms(xs):
        if not xs:
            return [[]]
        return concat_map(lambda p: insert_all(xs[0], p), perms(xs[1:]))

    heads = sum(p[0] for p in perms(upto(1, 6)) if p)
    return 8 * heads


PROGRAMS = [fib, tak, ack, nrev, msort, qsort, life, mandel, sieve, queens,
            strings, hof, refs, exn, ratio, msortrf, minterp, deadcap, zebra]


def table():
    return {f.__name__: str(f()) for f in PROGRAMS}


def main():
    got = table()
    if "--check" in sys.argv[1:]:
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "corpus.json")) as f:
            want = json.load(f)["results"]
        bad = [k for k in got if want.get(k) != got[k]]
        bad += [k for k in want if k not in got]
        for k in bad:
            print(f"mismatch {k}: corpus.json {want.get(k)!r}, "
                  f"transcription {got.get(k)!r}")
        return 1 if bad else 0
    print(json.dumps(got, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
