"""Reference bodies of the induced data, as they were before ``datum._induced``.

``graded_piece``, ``sub_truncate`` and ``quotient_datum`` each restricted W
and F, moved the operators and transported the graded pairings in their
own words, and ``canonical_key`` built a tuple of the fields to compare.  The
differential tests compare the current code against these bodies, and
``test_mixed_orbit_differential`` builds its purity references on
:func:`reference_graded_piece`, so that they share no code with the
``verify`` helpers they check.
"""

from hodgeorbit.datum import graded_maps, make_datum, zero_datum
from hodgeorbit.filtration import trivial_weight_filtration
from hodgeorbit.linalg import Matrix, quotient_projection, quotient_section


def reference_graded_piece(h, w):
    gm = h.graded(w)
    g = gm.dim
    if g == 0:
        return zero_datum(0, len(h.operators), h.twist_tag)
    wf = trivial_weight_filtration(g, w)
    ff = h.hodge_filtration.map_image(gm.project, within=h.weight_filtration.at(w))
    ops = tuple(gm.project @ op @ gm.section for op in h.operators)
    pairings = {}
    p = h.pairing(w)
    if p is not None:
        pairings[w] = p
    return make_datum(wf, ff, ops, pairings, h.twist_tag)


def reference_sub_truncate(h, j):
    s = h.weight_filtration.at(j)
    incl = s.basis.transpose()
    pivots = s.pivots()
    restrict = Matrix.identity(h.dim).select_rows(pivots)
    wf = h.weight_filtration.map_image(restrict, within=s)
    ff = h.hodge_filtration.map_image(restrict, within=s)
    ops = tuple(op.select_rows(pivots) @ incl for op in h.operators)
    pairings = {}
    for w, p in h.graded_pairings:
        if w > j:
            continue
        gm_sub = graded_maps(wf, w)
        gm = h.graded(w)
        if gm.dim == 0:
            continue
        pairings[w] = p.transport(gm_sub.project @ gm.section.select_rows(pivots))
    return make_datum(wf, ff, ops, pairings, h.twist_tag), incl


def reference_quotient_datum(h, j):
    s = h.weight_filtration.at(j)
    proj = quotient_projection(s)
    sec = quotient_section(s)
    wf = h.weight_filtration.map_image(proj)
    ff = h.hodge_filtration.map_image(proj)
    ops = tuple(proj @ op @ sec for op in h.operators)
    pairings = {}
    for w, p in h.graded_pairings:
        if w <= j:
            continue
        gm_q = graded_maps(wf, w)
        gm = h.graded(w)
        if gm.dim == 0:
            continue
        pairings[w] = p.transport(gm_q.project @ proj @ gm.section)
    return make_datum(wf, ff, ops, pairings, h.twist_tag), proj


def reference_hodge_key(h):
    """The field tuple of the former ``HodgeDatum.canonical_key``."""
    return (
        h.dim,
        h.twist_tag,
        tuple((k, s.basis.entries) for k, s in h.weight_filtration.steps),
        tuple((p, s.basis.entries) for p, s in h.hodge_filtration.steps),
        tuple(op.entries for op in h.operators),
        tuple((w, p.matrix.entries, p.twist, p.symmetry) for w, p in h.graded_pairings),
    )


def reference_orbit_key(o):
    """The field tuple that ``OrbitDatum.canonical_key`` returned before it
    returned the datum itself."""
    return (
        o.dim,
        o.weight,
        o.twist_tag,
        o.pairing.matrix.entries,
        tuple(op.entries for op in o.operators),
        tuple((p, s.basis.entries) for p, s in o.hodge_filtration.steps),
    )
