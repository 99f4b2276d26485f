"""Reference for the differential tests of coherence._Layer: its columns
and rows found by the class-walking presolve, kept as it was.

It splits every world of the domain into the classes that no table tells
apart, then counts, class by class, where each entry's m and e hold,
drops the classes that a forcing row pins and counts again until none is
pinned. coherence._Layer runs the same presolve on masks of worlds before
it splits, so the tests require the same classes in the same order, the
same m_cols and the same rows from both. Nothing in src/ imports it.
"""


def presolved(entries, tables, domain, extra=()):
    """(classes, m_cols, homogeneous) of the layer with _Layer's arguments."""
    classes = [domain] if domain else []
    for pair in (*tables, extra):
        for t in pair:
            parts = []
            for c in classes:
                inside = c & t
                if inside and inside != c:
                    parts += (inside, c ^ inside)
                else:
                    parts.append(c)
            classes = parts
    classes.sort(key=lambda c: c & -c)
    # lo = a/b and hi = c/d; lo > 0 is a > 0, and hi < 1 is c < d
    bounds = [
        (e.lo.numerator, e.lo.denominator, e.hi.numerator, e.hi.denominator)
        for e in entries
    ]
    while True:
        # per entry (m_cols, on_m, on_e), and the worlds of the classes a
        # forcing row pins
        counts, pinned = [], 0
        for (m, e), (a, b, c, d) in zip(tables, bounds):
            m_cols, bit, on_m, on_e = 0, 1, 0, 0
            for k in classes:
                if m & k:
                    m_cols |= bit
                    on_m += 1
                    if e & k:
                        on_e += 1
                bit <<= 1
            counts.append((m_cols, on_m, on_e))
            if a and on_e < on_m and (a == b or not on_e):
                pinned |= m ^ e
            if c < d and on_e and (not c or on_e == on_m):
                pinned |= e
        if not pinned:
            break
        classes = [k for k in classes if not k & pinned]
    m_cols, homogeneous = [], []
    for (m, e), (a, b, c, d), (cols, on_m, on_e) in zip(tables, bounds, counts):
        m_cols.append(cols)
        cuts = []
        if a and on_e < on_m:
            cuts.append((a, a - b, b))
        if c < d and on_e:
            cuts.append((-c, d - c, d))
        for off_e, in_e, k in cuts:
            row = [(in_e if e & w else off_e) if m & w else 0 for w in classes]
            homogeneous.append((row, k))
    return classes, m_cols, homogeneous
