"""Semantic subplan fingerprints: the key of a memo group, as feedback
sees it.

A fingerprint identifies *what a subplan computes*, not how.  It is the
memo group's key (``optimizer.logical_props.derive_key``): the variables
bound with their sources, the conjuncts applied, and one atom per
operator that form does not open.  Joins in any order, a ``Mat`` and the
hash join Mat-to-Join made of it, an index scan and the filtered file
scan it collapsed from: each pair is one group, so one key.  With
feedback on, every plan node the search picks is marked with the
properties of the group it implements, and :func:`group_key` renders the
node's key for the cardinality monitor; a traversal's extent scan
carries the properties of a ``Get`` of the extent.

The memo's key holds predicate objects; a fingerprint holds their
strings.  A plan-cache template's slotted constants render the running
statement's values inside ``predicates.showing(consts)``: the memo looks
keys up and the monitor renders them under the statement's own
constants, so two bindings of one template are two subplans.
"""

from __future__ import annotations

# A fingerprint is a rendered group key: ``(bindings, conjuncts, atoms)``.
Fingerprint = tuple


def feedback_key(key: tuple) -> tuple[Fingerprint, frozenset[str]]:
    """``(fingerprint, collections read)`` of a group key, rendered under
    the caller's ``predicates.showing(consts)``.  The collections (the
    staleness surface) are the binding sources that name one."""
    bindings, conjuncts, atoms = key
    collections = {source for _, source in bindings if isinstance(source, str)}
    shown = []
    for atom in atoms:
        if atom[0] != "unnest":
            signature, inputs = atom
            rendered = [feedback_key(k) for k in inputs]
            collections.update(*(read for _, read in rendered))
            inner = (fingerprint for fingerprint, _ in rendered)
            atom = (_text(signature), type(inputs)(inner))
        shown.append(atom)
    fingerprint = (bindings, frozenset(map(str, conjuncts)), frozenset(shown))
    return fingerprint, frozenset(collections)


def _text(part):
    """An opaque operator's signature with every leaf as its string."""
    if part.__class__ is tuple:  # an Oid (a tuple) is a leaf
        return tuple(map(_text, part))
    return str(part)


def group_key(props, known: dict | None = None) -> tuple[Fingerprint, frozenset[str]]:
    """:func:`feedback_key` of the group ``props`` belongs to (a plan
    node's :class:`~repro.optimizer.logical_props.LogicalProps`).
    ``known`` caches the answer per properties object across one plan."""
    if known is None:
        known = {}
    found = known.get(id(props))
    if found is None:
        found = known[id(props)] = feedback_key(props.key)
    return found


def render_fingerprint(key: Fingerprint, limit: int = 96) -> str:
    """A compact single-line rendering for stats output and traces."""
    text = _render(key)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def _render(key: Fingerprint) -> str:
    bindings, conjuncts, atoms = key
    parts = [", ".join(sorted(f"{var} IN {_source(src)}" for var, src in bindings))]
    if conjuncts:
        parts.append("WHERE " + " && ".join(sorted(conjuncts)))
    for atom in sorted(atoms, key=repr):
        if atom[0] == "unnest":
            _, var, attr, out = atom
            parts.append(f"UNNEST {var}.{attr}: {out}")
        else:
            signature, inputs = atom
            shown = [_render(k) for k in inputs]
            if isinstance(inputs, frozenset):
                shown.sort()
            parts.append(f"{signature[0]}[{'; '.join(shown)}]")
    return " ".join(part for part in parts if part)


def _source(source) -> str:
    """A binding's collection, or ``<T>`` for a type without an extent."""
    return source if isinstance(source, str) else f"<{source[1]}>"


__all__ = ["Fingerprint", "feedback_key", "group_key", "render_fingerprint"]
