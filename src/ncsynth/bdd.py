"""Hash-consed reduced ordered binary decision diagrams.

Every set and relation downstream (grids, transition systems, controllers)
is a boolean function over a fixed variable order, so this module is the
single source of canonicity: within one manager, two functions are equal
iff their root references are equal.

Variable index doubles as level (index 0 is closest to the root).  A
manager and all functions it owns are confined to one thread of control
at a time.

There are no complement edges; negation is a cached traversal.  The
controllable predecessor negates nothing that changes between calls (it
uses the dual product `forall_or` against a negated relation formed
once), so O(1) negation would buy little, and in CPython the parity
bookkeeping it adds to every recursive step cost more than it saved (see
ROADMAP, direction 1).  Plain edges also keep ``_nodes[ref]`` a
``(var, lo, hi)`` triple with ROBDD semantics.  `Manager.postorder` lists
a diagram's nodes children first; `support`, `sat_count`,
`import_function`, the file writer and the code emitters fold over that
list, so none of them recurses.
"""

from __future__ import annotations

import bisect

FALSE = 0
TRUE = 1

_OPS = ("and", "or", "xor")
_LEVEL_INF = 1 << 60


class BddError(Exception):
    """Misuse of the engine (bad variable, manager mismatch, ...)."""


class _Uncached(dict):
    """A computed table that keeps nothing (``cache_enabled=False``)."""

    __slots__ = ()

    def __setitem__(self, key, value):
        pass


class Manager:
    """Owner of a shared node store.

    Garbage collection is an epoch sweep: it only runs at public operation
    boundaries, once the entries held (nodes plus computed-table entries,
    which cost about the same memory each) exceed ``gc_threshold``.  The
    sweep drops every computed table.  Functions that must survive a
    sweep are pinned; the `Bdd` wrapper pins its root for its own
    lifetime, so holding wrappers is enough.
    """

    def __init__(self, var_count=0, cache_enabled=True, gc_threshold=3 << 20):
        if var_count < 0:
            raise BddError("var_count must be nonnegative")
        self.var_count = var_count
        self._nodes = {}    # ref -> (var, lo, hi)
        self._unique = {}   # (var, lo, hi) -> ref
        self._next = 2      # refs 0/1 reserved for FALSE/TRUE
        table = dict if cache_enabled else _Uncached
        self._and_cache = table()       # (f, g) -> ref, f < g
        self._or_cache = table()        # (f, g) -> ref, f < g
        self._neg_cache = table()       # f -> ref
        self._ite_cache = table()       # (f, g, h) -> ref
        self._exand_cache = table()     # (f, g, varset token) -> ref, f < g
        self._forall_cache = table()    # (f, g, varset token) -> ref, f < g
        self._rename_cache = table()    # (f, map token) -> ref
        self._tables = (self._and_cache, self._or_cache, self._neg_cache,
                        self._ite_cache, self._exand_cache,
                        self._forall_cache, self._rename_cache)
        self._gc_threshold = gc_threshold
        self._pins = {}     # ref -> pin count
        self._varsets = {}  # sorted vars -> (token, level table, last var)
        self._map_tokens = {}

    # ------------------------------------------------------------------
    # node store

    def _make(self, var, lo, hi):
        if lo == hi:
            return lo
        key = (var, lo, hi)
        ref = self._unique.get(key)
        if ref is None:
            ref = self._next
            self._next = ref + 1
            self._unique[key] = ref
            self._nodes[ref] = key
        return ref

    def node_count(self):
        """Number of live internal nodes (terminals excluded)."""
        return len(self._nodes)

    def _entry(self):
        held = len(self._nodes)
        for table in self._tables:
            held += len(table)
        if held > self._gc_threshold:
            self.collect()

    def _pin(self, ref):
        if ref > 1:
            self._pins[ref] = self._pins.get(ref, 0) + 1

    def _unpin(self, ref):
        if ref > 1:
            c = self._pins.get(ref, 0)
            if c <= 1:
                self._pins.pop(ref, None)
            else:
                self._pins[ref] = c - 1

    def pin(self, f):
        """Keep a function alive across sweeps independently of wrappers."""
        self._check_owned(f)
        self._pin(f.ref)

    def unpin(self, f):
        self._check_owned(f)
        self._unpin(f.ref)

    def collect(self):
        """Sweep nodes unreachable from pinned roots; drops the computed
        tables."""
        nodes = self._nodes
        live = set()
        stack = list(self._pins)
        while stack:
            r = stack.pop()
            if r <= 1 or r in live:
                continue
            live.add(r)
            _, lo, hi = nodes[r]
            stack.append(lo)
            stack.append(hi)
        self._nodes = {r: nodes[r] for r in live}
        self._unique = {k: r for r, k in self._nodes.items()}
        for table in self._tables:
            table.clear()
        # right after a sweep the live nodes are all the entries held; back
        # off when they fill most of the budget, otherwise the computed
        # tables would be wiped on every operation
        if len(live) > self._gc_threshold * 3 // 4:
            self._gc_threshold *= 2

    # ------------------------------------------------------------------
    # variables

    def add_vars(self, n):
        """Append n fresh variables; returns their indices."""
        first = self.var_count
        self.var_count = first + n
        return list(range(first, self.var_count))

    def _check_var(self, i):
        if not (0 <= i < self.var_count):
            raise BddError(f"variable {i} out of range [0, {self.var_count})")

    def var(self, i):
        self._check_var(i)
        return Bdd(self, self._make(i, FALSE, TRUE))

    @property
    def true(self):
        return Bdd(self, TRUE)

    @property
    def false(self):
        return Bdd(self, FALSE)

    def _norm_vars(self, vars):
        t = tuple(sorted(set(vars)))
        for v in t:
            self._check_var(v)
        return t

    def _check_owned(self, *fs):
        for f in fs:
            if not isinstance(f, Bdd) or f.mgr is not self:
                raise BddError("operand belongs to a different manager")

    # ------------------------------------------------------------------
    # boolean combinators
    #
    # Each operation has its own recursion and computed table.  A
    # recursion is entered only on operands that are not a terminal case:
    # the entry function and every recursive step test those cases first,
    # so no call is spent on a result known without looking at nodes.

    def apply(self, op, f, g):
        if op not in _OPS:
            raise BddError(f"unknown operator {op!r}")
        self._check_owned(f, g)
        self._entry()
        f, g = f.ref, g.ref
        if op == "and":
            return Bdd(self, self._and(f, g))
        if op == "or":
            return Bdd(self, self._or(f, g))
        return Bdd(self, self._ite(f, self._neg(g), g))

    def _and(self, f, g):
        if f == g or g == 1:
            return f
        if f == 1:
            return g
        if f == 0 or g == 0:
            return 0
        return self._and_rec(f, g) if f < g else self._and_rec(g, f)

    def _and_rec(self, f, g):
        # 1 < f < g
        key = (f, g)
        cache = self._and_cache
        r = cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        v, flo, fhi = nodes[f]
        w, glo, ghi = nodes[g]
        if v < w:
            glo = ghi = g
        elif w < v:
            v = w
            flo = fhi = f
        rec = self._and_rec
        if flo == glo or glo == 1:
            lo = flo
        elif flo == 1:
            lo = glo
        elif flo == 0 or glo == 0:
            lo = 0
        else:
            lo = rec(flo, glo) if flo < glo else rec(glo, flo)
        if fhi == ghi or ghi == 1:
            hi = fhi
        elif fhi == 1:
            hi = ghi
        elif fhi == 0 or ghi == 0:
            hi = 0
        else:
            hi = rec(fhi, ghi) if fhi < ghi else rec(ghi, fhi)
        if lo == hi:
            r = lo
        else:
            node = (v, lo, hi)
            r = self._unique.get(node)
            if r is None:
                r = self._next
                self._next = r + 1
                self._unique[node] = r
                nodes[r] = node
        cache[key] = r
        return r

    def _or(self, f, g):
        if f == g or g == 0:
            return f
        if f == 0:
            return g
        if f == 1 or g == 1:
            return 1
        return self._or_rec(f, g) if f < g else self._or_rec(g, f)

    def _or_rec(self, f, g):
        # 1 < f < g
        key = (f, g)
        cache = self._or_cache
        r = cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        v, flo, fhi = nodes[f]
        w, glo, ghi = nodes[g]
        if v < w:
            glo = ghi = g
        elif w < v:
            v = w
            flo = fhi = f
        rec = self._or_rec
        if flo == glo or glo == 0:
            lo = flo
        elif flo == 0:
            lo = glo
        elif flo == 1 or glo == 1:
            lo = 1
        else:
            lo = rec(flo, glo) if flo < glo else rec(glo, flo)
        if fhi == ghi or ghi == 0:
            hi = fhi
        elif fhi == 0:
            hi = ghi
        elif fhi == 1 or ghi == 1:
            hi = 1
        else:
            hi = rec(fhi, ghi) if fhi < ghi else rec(ghi, fhi)
        if lo == hi:
            r = lo
        else:
            node = (v, lo, hi)
            r = self._unique.get(node)
            if r is None:
                r = self._next
                self._next = r + 1
                self._unique[node] = r
                nodes[r] = node
        cache[key] = r
        return r

    def negate(self, f):
        self._check_owned(f)
        self._entry()
        return Bdd(self, self._neg(f.ref))

    def _neg(self, f):
        if f <= 1:
            return 1 - f
        r = self._neg_cache.get(f)
        if r is not None:
            return r
        v, lo, hi = self._nodes[f]
        r = self._make(v, self._neg(lo), self._neg(hi))
        self._neg_cache[f] = r
        return r

    def ite(self, f, g, h):
        self._check_owned(f, g, h)
        self._entry()
        return Bdd(self, self._ite(f.ref, g.ref, h.ref))

    def _ite(self, f, g, h):
        if f <= 1:
            return g if f else h
        if g == h:
            return g
        if g <= 1 and h <= 1:
            return f if g else self._neg(f)
        if g == 1 or g == f:
            return self._or(f, h)
        if h == 0 or h == f:
            return self._and(f, g)
        key = (f, g, h)
        cache = self._ite_cache
        r = cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        v, flo, fhi = nodes[f]
        if g > 1:
            w, glo, ghi = nodes[g]
            if w < v:
                v = w
                flo = fhi = f
            elif w > v:
                glo = ghi = g
        else:
            glo = ghi = g
        if h > 1:
            w, hlo, hhi = nodes[h]
            if w < v:
                v = w
                flo = fhi = f
                glo = ghi = g
            elif w > v:
                hlo = hhi = h
        else:
            hlo = hhi = h
        rec = self._ite
        lo = glo if flo == 1 else hlo if flo == 0 else rec(flo, glo, hlo)
        hi = ghi if fhi == 1 else hhi if fhi == 0 else rec(fhi, ghi, hhi)
        if lo == hi:
            r = lo
        else:
            node = (v, lo, hi)
            r = self._unique.get(node)
            if r is None:
                r = self._next
                self._next = r + 1
                self._unique[node] = r
                nodes[r] = node
        cache[key] = r
        return r

    # ------------------------------------------------------------------
    # quantification
    #
    # A variable set is normalised once into (token, level table, last
    # level): the table marks the quantified levels, and below the last
    # one a product is a plain AND (OR).  The operands' top level and the
    # set fix how far the set is consumed, so the computed tables key on
    # (f, g, token) alone.

    def _varset(self, vars):
        t = self._norm_vars(vars)
        vs = self._varsets.get(t)
        if vs is None:
            last = t[-1] if t else -1
            levels = bytearray(last + 1)
            for v in t:
                levels[v] = 1
            vs = (len(self._varsets), levels, last)
            self._varsets[t] = vs
        return vs

    def quantify(self, kind, f, vars):
        if kind not in ("exists", "forall"):
            raise BddError(f"unknown quantifier {kind!r}")
        self._check_owned(f)
        vs = self._varset(vars)
        self._entry()
        if kind == "exists":
            return Bdd(self, self._exist_and(1, f.ref, vs))
        return Bdd(self, self._forall_or(0, f.ref, vs))

    def exist_and(self, f, g, vars):
        """exists vars . (f & g), computed in one pass (relational product)."""
        self._check_owned(f, g)
        vs = self._varset(vars)
        self._entry()
        return Bdd(self, self._exist_and(f.ref, g.ref, vs))

    def forall_or(self, f, g, vars):
        """forall vars . (f | g), computed in one pass: the dual of
        `exist_and`, so that a universal image needs no negation of a
        function that changes from call to call."""
        self._check_owned(f, g)
        vs = self._varset(vars)
        self._entry()
        return Bdd(self, self._forall_or(f.ref, g.ref, vs))

    def _exist_and(self, f, g, vs):
        if f == 0 or g == 0:
            return 0
        if f > g:
            f, g = g, f
        if f == g:
            f = 1
        if g == 1:
            return 1
        # f < g and g is not a terminal; f may be TRUE
        nodes = self._nodes
        v, glo, ghi = nodes[g]
        if f > 1:
            w, flo, fhi = nodes[f]
            if w < v:
                v = w
                glo = ghi = g
            elif w > v:
                flo = fhi = f
        else:
            flo = fhi = f
        tok, levels, last = vs
        if v > last:
            return self._and(f, g)
        key = (f, g, tok)
        cache = self._exand_cache
        r = cache.get(key)
        if r is not None:
            return r
        rec = self._exist_and
        if levels[v]:
            a = 0 if flo == 0 or glo == 0 else rec(flo, glo, vs)
            if a == 1 or fhi == 0 or ghi == 0:
                r = a
            else:
                b = rec(fhi, ghi, vs)
                r = a if a == b or b == 0 else b if a == 0 else self._or(a, b)
        else:
            lo = 0 if flo == 0 or glo == 0 else rec(flo, glo, vs)
            hi = 0 if fhi == 0 or ghi == 0 else rec(fhi, ghi, vs)
            if lo == hi:
                r = lo
            else:
                node = (v, lo, hi)
                r = self._unique.get(node)
                if r is None:
                    r = self._next
                    self._next = r + 1
                    self._unique[node] = r
                    nodes[r] = node
        cache[key] = r
        return r

    def _forall_or(self, f, g, vs):
        if f == 1 or g == 1:
            return 1
        if f > g:
            f, g = g, f
        if f == g:
            f = 0
        if g == 0:
            return 0
        # f < g and g is not a terminal; f may be FALSE
        nodes = self._nodes
        v, glo, ghi = nodes[g]
        if f > 1:
            w, flo, fhi = nodes[f]
            if w < v:
                v = w
                glo = ghi = g
            elif w > v:
                flo = fhi = f
        else:
            flo = fhi = f
        tok, levels, last = vs
        if v > last:
            return self._or(f, g)
        key = (f, g, tok)
        cache = self._forall_cache
        r = cache.get(key)
        if r is not None:
            return r
        rec = self._forall_or
        if levels[v]:
            a = 1 if flo == 1 or glo == 1 else rec(flo, glo, vs)
            if a == 0 or fhi == 1 or ghi == 1:
                r = a
            else:
                b = rec(fhi, ghi, vs)
                r = a if a == b or b == 1 else b if a == 1 else self._and(a, b)
        else:
            lo = 1 if flo == 1 or glo == 1 else rec(flo, glo, vs)
            hi = 1 if fhi == 1 or ghi == 1 else rec(fhi, ghi, vs)
            if lo == hi:
                r = lo
            else:
                node = (v, lo, hi)
                r = self._unique.get(node)
                if r is None:
                    r = self._next
                    self._next = r + 1
                    self._unique[node] = r
                    nodes[r] = node
        cache[key] = r
        return r

    # ------------------------------------------------------------------
    # renaming

    def _map_token(self, items):
        tok = self._map_tokens.get(items)
        if tok is None:
            tok = len(self._map_tokens)
            self._map_tokens[items] = tok
        return tok

    def rename(self, f, var_map):
        """Substitute variables per an injective map (simultaneously)."""
        self._check_owned(f)
        items = tuple(sorted(var_map.items()))
        targets = [t for _, t in items]
        if len(set(targets)) != len(targets):
            raise BddError("rename map is not injective")
        for s, t in items:
            self._check_var(s)
            self._check_var(t)
        self._entry()
        tok = self._map_token(items)
        return Bdd(self, self._rename(f.ref, dict(items), tok))

    def _rename(self, f, m, tok):
        if f <= 1:
            return f
        key = (f, tok)
        r = self._rename_cache.get(key)
        if r is not None:
            return r
        v, lo, hi = self._nodes[f]
        r = self._relabel(m.get(v, v), self._rename(lo, m, tok),
                          self._rename(hi, m, tok))
        self._rename_cache[key] = r
        return r

    def _relabel(self, v, lo, hi):
        """The function "v ? hi : lo" for a relabelled node: a plain node
        when v lies above both cofactors, an ite otherwise."""
        nodes = self._nodes
        if (lo <= 1 or v < nodes[lo][0]) and (hi <= 1 or v < nodes[hi][0]):
            return self._make(v, lo, hi)
        return self._ite(self._make(v, FALSE, TRUE), hi, lo)

    def import_function(self, f, var_map):
        """Copy a function of any manager, relabeling per var_map.

        var_map must cover the whole support of f.
        """
        if not isinstance(f, Bdd):
            raise BddError("import_function expects a Bdd")
        src = f.mgr
        self._entry()
        for t in var_map.values():
            self._check_var(t)
        nodes = src._nodes
        got = {0: 0, 1: 1}
        for r in src.postorder([f.ref]):
            v, lo, hi = nodes[r]
            if v not in var_map:
                raise BddError(f"variable {v} of source not in import map")
            got[r] = self._relabel(var_map[v], got[lo], got[hi])
        return Bdd(self, got[f.ref])

    # ------------------------------------------------------------------
    # evaluation, restriction, counting

    def restrict(self, f, assignment):
        """Cofactor by a partial assignment {var: bit}."""
        self._check_owned(f)
        for v in assignment:
            self._check_var(v)
        memo = {}
        nodes = self._nodes

        def rec(r):
            if r <= 1:
                return r
            got = memo.get(r)
            if got is not None:
                return got
            v, lo, hi = nodes[r]
            bit = assignment.get(v)
            if bit is None:
                res = self._make(v, rec(lo), rec(hi))
            else:
                res = rec(hi if bit else lo)
            memo[r] = res
            return res

        return Bdd(self, rec(f.ref))

    def evaluate(self, f, assignment):
        """Evaluate under a total assignment of f's support; returns bool."""
        self._check_owned(f)
        r = f.ref
        nodes = self._nodes
        while r > 1:
            v, lo, hi = nodes[r]
            try:
                bit = assignment[v]
            except KeyError:
                raise BddError(f"assignment misses variable {v}") from None
            r = hi if bit else lo
        return r == TRUE

    def postorder(self, refs):
        """The internal nodes under the roots `refs`, children first: roots
        in order, lo before hi, each shared node once."""
        nodes = self._nodes
        order = []
        seen = {0, 1}
        for root in refs:
            stack = [root]
            while stack:
                r = stack.pop()
                if r < 0:
                    order.append(~r)    # both children are listed
                elif r not in seen:
                    seen.add(r)
                    _, lo, hi = nodes[r]
                    stack += (~r, hi, lo)
        return order

    def support(self, f):
        """Set of variables the function actually depends on."""
        self._check_owned(f)
        nodes = self._nodes
        return {nodes[r][0] for r in self.postorder([f.ref])}

    def sat_count(self, f, support):
        """Number of assignments of `support` satisfying f (exact int)."""
        self._check_owned(f)
        sup = set(self._norm_vars(support))
        nodes = self._nodes
        # count[r]: assignments of the whole support satisfying r.  Neither
        # child of r reads r's variable, so halving their sum fixes it.
        count = {0: 0, 1: 1 << len(sup)}
        order = self.postorder([f.ref])
        for r in order:
            v, lo, hi = nodes[r]
            if v not in sup:
                missing = sorted({nodes[q][0] for q in order} - sup)
                raise BddError(f"support too small, missing variables {missing}")
            count[r] = (count[lo] + count[hi]) >> 1
        return count[f.ref]

    def cubes(self, f, support):
        """Yield satisfying assignments as bit tuples aligned with `support`
        (sorted ascending), in lexicographic order with support[0] as the
        most significant position."""
        self._check_owned(f)
        sup = self._norm_vars(support)
        need = self.support(f)
        if not need.issubset(sup):
            missing = sorted(need.difference(sup))
            raise BddError(f"support too small, missing variables {missing}")
        n = len(sup)
        nodes = self._nodes

        def walk(r, i, acc):
            if r == 0:
                return
            if i == n:
                if r == 1:
                    yield tuple(acc)
                return
            v = sup[i]
            rv = nodes[r][0] if r > 1 else _LEVEL_INF
            if rv > v:
                for bit in (0, 1):
                    acc.append(bit)
                    yield from walk(r, i + 1, acc)
                    acc.pop()
            else:
                _, lo, hi = nodes[r]
                acc.append(0)
                yield from walk(lo, i + 1, acc)
                acc.pop()
                acc.append(1)
                yield from walk(hi, i + 1, acc)
                acc.pop()

        yield from walk(f.ref, 0, [])

    # ------------------------------------------------------------------
    # constructors

    def cube(self, assignment):
        """Conjunction of literals from {var: bit}."""
        self._entry()
        r = TRUE
        for v in sorted(assignment, reverse=True):
            self._check_var(v)
            if assignment[v]:
                r = self._make(v, FALSE, r)
            else:
                r = self._make(v, r, FALSE)
        return Bdd(self, r)

    def from_minterms(self, support, codes):
        """Build the set of full assignments of `support` given as integer
        codes, with support[0] the most significant code bit."""
        sup = self._norm_vars(support)
        if len(sup) != len(tuple(support)):
            raise BddError("duplicate variables in support")
        n = len(sup)
        codes = sorted(set(codes))
        if codes and (codes[0] < 0 or codes[-1] >= (1 << n)):
            raise BddError("minterm code out of range for support width")
        self._entry()

        def build(lo, hi, d):
            if lo == hi:
                return FALSE
            if d == n:
                return TRUE
            k = n - 1 - d
            prefix = codes[lo] >> (k + 1) << (k + 1)
            mid = bisect.bisect_left(codes, prefix | (1 << k), lo, hi)
            return self._make(sup[d], build(lo, mid, d + 1), build(mid, hi, d + 1))

        return Bdd(self, build(0, len(codes), 0))

    def equal_blocks(self, avars, bvars):
        """Conjunction of biconditionals a_j <-> b_j over two variable lists."""
        if len(avars) != len(bvars):
            raise BddError("equal_blocks requires blocks of equal width")
        self._entry()
        pairs = sorted(zip(avars, bvars), key=lambda p: min(p), reverse=True)
        r = TRUE
        for a, b in pairs:
            self._check_var(a)
            self._check_var(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            nb = self._make(b, TRUE, FALSE)
            pb = self._make(b, FALSE, TRUE)
            x = self._make(a, nb, pb)
            r = self._and(x, r)
        return Bdd(self, r)


class Bdd:
    """Handle to a function in a manager.  Pins its root while alive."""

    __slots__ = ("mgr", "ref", "__weakref__")

    def __init__(self, mgr, ref):
        self.mgr = mgr
        self.ref = ref
        mgr._pin(ref)

    def __del__(self):
        try:
            self.mgr._unpin(self.ref)
        except Exception:
            pass

    # equality is functional equality thanks to canonicity
    def __eq__(self, other):
        return (isinstance(other, Bdd) and other.mgr is self.mgr
                and other.ref == self.ref)

    def __hash__(self):
        return hash((id(self.mgr), self.ref))

    def __repr__(self):
        return f"<Bdd ref={self.ref}>"

    @property
    def is_false(self):
        return self.ref == FALSE

    @property
    def is_true(self):
        return self.ref == TRUE

    def __bool__(self):
        # truthiness is "not the empty set", handy for fixed-point loops
        return self.ref != FALSE

    def __and__(self, other):
        return self.mgr.apply("and", self, other)

    def __or__(self, other):
        return self.mgr.apply("or", self, other)

    def __xor__(self, other):
        return self.mgr.apply("xor", self, other)

    def __invert__(self):
        return self.mgr.negate(self)

    def exists(self, vars):
        return self.mgr.quantify("exists", self, vars)

    def forall(self, vars):
        return self.mgr.quantify("forall", self, vars)

    def rename(self, var_map):
        return self.mgr.rename(self, var_map)

    def sat_count(self, support):
        return self.mgr.sat_count(self, support)

    def cubes(self, support):
        return self.mgr.cubes(self, support)

    def support(self):
        return self.mgr.support(self)

    def restrict(self, assignment):
        return self.mgr.restrict(self, assignment)

    def evaluate(self, assignment):
        return self.mgr.evaluate(self, assignment)
