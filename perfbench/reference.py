"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's machine is a few vCPUs of a shared host, which runs the same
work up to 2x slower for stretches of seconds to minutes.  A stretch that
covers a whole run cannot be removed by taking minima or medians inside it.
So every timed sample is bracketed by calls of :func:`reference_work`, and
the benchmark reports the sample in reference units: its wall time divided
by the mean time of one reference call next to it, which a slow stretch
inflates alike.  Multiplied by :data:`REFERENCE_CALL_S` this reads as
seconds on a host that runs one reference call in that time.

The workload is pure Python of the kinds pbsym spends its time on (token
parsing, dict and list traffic, small- and big-integer arithmetic, sorting).
Do not change it, nor :data:`REFERENCE_CALL_S`: together they define the
unit of every timing the benchmark reports, and changing them moves every
number with no change in the program.
"""

import time

# Seconds of one reference call: roughly its mean time on the machine the
# baseline was taken on (2 vCPUs, Intel Xeon, Python 3.11.7).  A constant,
# never measured at run time.
REFERENCE_CALL_S = 0.005

# the reference calls on each side of a sample last about this share of the
# sample (at least one call, at most MAX_BRACKET_CALLS)
BRACKET_SHARE = 0.1
MAX_BRACKET_CALLS = 40

_TEXT = " ".join("%+d x%d" % ((-1) ** i * (i % 13 + 1), i % 97 + 1)
                 for i in range(600))


def reference_work():
    """One reference call, a few milliseconds of fixed interpreter work."""
    total = 0
    for rep in range(1, 10):
        terms = _TEXT.split()
        row = {}
        for i in range(0, len(terms), 2):
            var = terms[i + 1]
            row[var] = row.get(var, 0) + int(terms[i])
        acc = rep
        for coeff in row.values():
            acc = acc * (abs(coeff) + 3) + 1
        rows = [sorted((v, c * k) for v, c in row.items())
                for k in range(1, 9)]
        slack = 0
        for r in rows:
            for v, c in r:
                slack += c if v in row else -c
        total += acc % 1000003 + slack
    return total


class Reference:
    """Times reference calls around the benchmark's samples."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.last = {}            # key -> wall time of its last sample

    def per_call(self, n):
        """Run `n` reference calls (at least one); their mean wall time."""
        n = max(1, n)
        t0 = time.perf_counter()
        for _ in range(n):
            reference_work()
        dt = time.perf_counter() - t0
        self.calls += n
        self.seconds += dt
        return dt / n

    def bracket(self, key, fn):
        """Run `fn()` between two runs of reference calls, each lasting about
        BRACKET_SHARE of the last sample of `key`.  Returns fn's result, its
        wall time and that time over the mean reference call around it."""
        n = round(BRACKET_SHARE * self.last.get(key, 0.0) / REFERENCE_CALL_S)
        n = min(n, MAX_BRACKET_CALLS)
        before = self.per_call(n)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        after = self.per_call(n)
        self.last[key] = seconds
        return result, seconds, seconds / ((before + after) / 2)
