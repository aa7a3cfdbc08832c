"""Plain-text renderings: egg-box diagrams, layer summaries, and ASCII
Hasse diagrams for semilattice quotients."""

from __future__ import annotations

from .core import _must, _semigroup, semilattice_witness
from .decompose import DecompositionReport
from .errors import InvalidArgument
from .green import green, idempotents
from .stratify import stratify


def _cell_text(S, members, E):
    return " ".join(S.label(x) + ("*" if x in E else "")
                    for x in sorted(members))


def render_egg_box(S):
    """One grid per D-class (R-classes as rows, L-classes as columns);
    idempotents are starred.  Higher J-classes come first."""
    g = green(S)
    E = idempotents(S)
    above = [sum(i >> a & 1 for i in g.ideals) for a in map(min, g.J.classes)]
    lines = []
    for ci in sorted(range(len(g.D)), key=lambda c: (above[c], min(g.D.classes[c]))):
        dcls = g.D.classes[ci]
        rs = sorted({g.R.index_of[x] for x in dcls})
        ls = sorted({g.L.index_of[x] for x in dcls})
        grid = []
        for r in rs:
            row = []
            for l in ls:
                row.append(_cell_text(S, g.R.classes[r] & g.L.classes[l] & dcls, E))
            grid.append(row)
        widths = [max(len(grid[i][j]) for i in range(len(rs)))
                  for j in range(len(ls))]
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines.append(f"D-class {{{_cell_text(S, dcls, E)}}}")
        lines.append(sep)
        for row in grid:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths))
                         + " |")
            lines.append(sep)
    return "\n".join(lines)


def render_stratification(S):
    report = stratify(S)
    lines = [f"height {report.height}; "
             f"base {{{_cell_text(S, report.base, idempotents(S))}}}"]
    for m, layer in enumerate(report.layers, start=1):
        lines.append(f"  S_{m} = {{{', '.join(S.label(x) for x in sorted(layer))}}}")
    flags = ", ".join(f"{k}={v}" for k, v in sorted(report.flags.items()))
    lines.append(f"  flags: {flags}")
    return "\n".join(lines)


def render_hasse(Q, names=None):
    """ASCII Hasse diagram of a semilattice: one line per level (top first)
    and the cover relations below.  InvalidArgument, with the
    `semilattice_witness`, when Q is not a semilattice, or when names
    does not give one name per element."""
    w = semilattice_witness(_semigroup(Q, "Q"))
    if w is not None:
        raise InvalidArgument(f"not a semilattice, witness {w}")
    n = Q.order
    if names is None:
        names = [Q.label(i) for i in range(n)]
    elif _must(len, names, "names", "a sequence") != n:
        raise InvalidArgument(f"{len(names)} names for {n} elements")
    names = list(map(str, names))
    # a <= b iff ab = a; b covers a when the interval up[a] & down[b] is {a, b}
    up = [sum(1 << b for b, ab in enumerate(row) if ab == a)
          for a, row in enumerate(Q._rows)]
    down = [sum(1 << a for a, ab in enumerate(col) if ab == a)
            for col in zip(*Q._rows)]
    covers = [(a, b) for a in range(n) for b in range(n)
              if a != b and up[a] & down[b] == 1 << a | 1 << b]
    level = {}
    for a in sorted(range(n), key=lambda a: down[a].bit_count()):
        level[a] = 1 + max((level[b] for b, c in covers if c == a), default=-1)
    lines = []
    for lv in sorted(set(level.values()), reverse=True):
        members = "   ".join(names[a] for a in sorted(level) if level[a] == lv)
        lines.append(f"  {members}")
    if covers:
        lines.append("covers: " + ", ".join(f"{names[a]} < {names[b]}"
                                            for a, b in sorted(covers)))
    return "\n".join(lines)


def render_decomposition(S, report):
    _semigroup(S, "S")
    if not isinstance(report, DecompositionReport):
        raise InvalidArgument(f"report = {report!r} is not a DecompositionReport")
    if report.rho.n != S.order:
        raise InvalidArgument(f"report is of a semigroup of order "
                              f"{report.rho.n}, S of order {S.order}")
    lines = [f"{len(report.components)} component(s); quotient semilattice:"]
    names = ["{" + ",".join(S.label(x) for x in sorted(c)) + "}"
             for c in report.rho.classes]
    lines.append(render_hasse(report.quotient, names=names))
    for k, comp in enumerate(report.components):
        lines.append(f"component {k}: elements "
                     f"{{{', '.join(S.label(x) for x in sorted(comp.elements))}}}")
        lines.append(f"  regular part {{{', '.join(S.label(x) for x in sorted(comp.regular_part))}}}"
                     f"; archimedean={comp.is_archimedean}"
                     f"; e_dense={comp.is_e_dense}"
                     f"; completely_simple_base={comp.completely_simple_base}"
                     f"; finitely_stratified={comp.finitely_stratified}")
    return "\n".join(lines)


def render_analysis(S):
    head = [repr(_semigroup(S, "S"))]
    if S.labels:
        head.append("elements: " + " ".join(S.labels))
    return "\n".join(head + ["", render_egg_box(S), "",
                             render_stratification(S)])
