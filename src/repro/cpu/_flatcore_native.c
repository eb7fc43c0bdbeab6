/*
 * Runner of the flat core (repro.cpu.flatcore).
 *
 * ``run`` is the dispatch loop that executes one lowered unit (a tier-2
 * block or a tier-4 region); ``bind`` (``flatcore._bind``) makes the
 * ``Unit`` that holds one unit's arrays and the core objects it reads.
 * The arrays are packed by ``flatcore._lower`` into ``Lowered.PACKED``
 * (little-endian uint64 columns, ``NF`` of them, ``nsite`` entries
 * each). Every architectural and simulated-cache side effect is the
 * one the slow tier (``Core.step``) produces, in the same order; the
 * differential suite (tests/test_fastpath_equivalence.py) compares the
 * two on every workload. Where this file cannot be built, tiers 2 and
 * 4 are off and nothing is lowered (repro.cpu.native).
 *
 * What stays in Python (called back, never cached here):
 *   - generic sites (``GH`` handlers), ``ld.ro`` (every execution takes
 *     ``Core.load`` -> ``MMU.translate`` with its key and read-only
 *     check), the eager ``Core.load``/``Core.store`` paths that
 *     ``refill`` cannot serve (a real page walk, a fault, MMIO, a store
 *     into a code frame or a missing frame) and ``Core._flush_blocks``;
 *   - the simulated caches and the D-TLB themselves: lookups read the
 *     live OrderedDicts, misses insert and evict through them, and the
 *     deferred LRU moves are replayed with ``move_to_end``.
 *
 * Contracts with the Python side:
 *   - the core: a unit holds it only while it runs, so the core's caches
 *     of units form no reference cycle with it; callouts into the core's
 *     methods pass it as the first argument;
 *   - registers: ``core.regs`` is loaded into ``R`` on entry; registers
 *     written since the last sync (``dirty``) are stored back before
 *     every callout, exit and raise, and ``R`` is reloaded after every
 *     callout that can write registers;
 *   - page memos: ``Core._jload_memo``/``_jstore_memo`` map a vpn to
 *     (frame, ok_kernel, ok_user, ppn) and are the D-TLB's shadows, so
 *     an entry is valid exactly while its D-TLB entry is resident and
 *     unreplaced, whatever the MMU generation: a hit replays a D-TLB
 *     hit. A miss goes to ``refill``, which inserts what it serves;
 *   - page views: each load/store site caches its last page (frame
 *     bytearray plus a raw pointer into it); an entry is valid only in
 *     the epoch it was filled in, and the unit's epoch is bumped on
 *     every entry, after every callout that could remap memory and on
 *     every D-TLB refill;
 *   - LRU replay: D-TLB, D-cache and I-cache moves are deferred in
 *     arrays and replayed deduplicated by last occurrence, which
 *     reconstructs the order eager moves would have produced.
 *
 * Frames are the fixed 4 KiB bytearrays of repro.mem.physical; they are
 * never resized, so a pointer into one stays valid while the site cache
 * holds a reference to it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define M64 0xFFFFFFFFFFFFFFFFULL
#define H63 0x8000000000000000ULL
/* "No page / line yet": never equal to a masked address, a vpn or a
   line number. */
#define NONE64 0xFFFFFFFFFFFFFFFFULL

/* Packed column order; keep in sync with flatcore._lower. */
enum { F_OP, F_A, F_B, F_C, F_IM, F_X, F_NI, F_BP, F_MU, F_PQ, F_JX,
       F_PCA, NF };

static PyObject *Trap, *LoadFault, *StoreFault;

static PyObject *s_instructions, *s_cycles, *s_branch_penalty_cycles,
    *s_muldiv_cycles, *s_dcache_misses, *s_icache_misses, *s_hits,
    *s_misses, *s_translations, *s_pc, *s_current_pc, *s_side_exits,
    *s_block_abort, *s_flush_blocks, *s_user_mode, *s_regs,
    *s_move_to_end, *s_popitem, *s_tval, *s_read_ro, *s_fast_path_enabled,
    *s_bare, *s_walk_memo_root, *s_root_ppn, *s_frames, *s_written_frames, *s_shadows, *s_walks,
    *s_dtlb_walk_cycles, *s_get, *s_pop, *s_ppn, *s_readable,
    *s_writable, *s_user, *s_base, *s_size;

typedef struct {
    uint64_t *a;
    Py_ssize_t n, cap;
} Vec;

/* One load/store site's cached page. ``gb`` is the guard base
   (vpn << 12), NONE64 when empty. */
typedef struct {
    uint64_t gb, ep, vp, pp;
    PyObject *fb;
    unsigned char *p;
} Site;

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *weakrefs;
    /* The core, held only while the unit runs: between runs the unit
       reaches it through the weak reference ``wcore``, so a core and
       the units it caches form no reference cycle. */
    PyObject *core;
    /* bound objects; ``load`` and ``store`` are the core class's
       functions, called with the core first */
    PyObject *wcore, *packed, *gh, *irt, *ilines, *mmu, *stats, *load,
        *store, *icache, *isets, *dcache, *dsets, *dtlb, *tent, *mmu_stats,
        *jload, *jstore, *memory, *wmemo, *mmio, *fpages, *cframes;
    const uint64_t *S;
    Py_ssize_t nsite;
    int64_t NT, BPT, MUT, PQT, CPI, PEN, TBP, JP, IWAYS, DWAYS, TWA,
        TCAP;
    uint64_t HEAD, IMK, DMK, MSZ;
    int DSH, dside, ICH, use_dc, WARM;
    uint64_t epoch;
    Site *sc;
    Vec dl, cl, il, scratch;
} Unit;

#define COL(f, i) (u->S[(Py_ssize_t)(f) * u->nsite + (i)])

/* -- small helpers ------------------------------------------------------ */

static int
vec_push(Vec *v, uint64_t x)
{
    if (v->n == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 64;
        uint64_t *a = PyMem_Realloc(v->a, (size_t)cap * sizeof(uint64_t));
        if (a == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        v->a = a;
        v->cap = cap;
    }
    v->a[v->n++] = x;
    return 0;
}

static int
vec_reserve(Vec *v, Py_ssize_t cap)
{
    if (v->cap >= cap)
        return 0;
    uint64_t *a = PyMem_Realloc(v->a, (size_t)cap * sizeof(uint64_t));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    v->a = a;
    v->cap = cap;
    return 0;
}

/* obj.name += d */
static int
add_attr(PyObject *obj, PyObject *name, int64_t d)
{
    PyObject *cur = PyObject_GetAttr(obj, name);
    if (cur == NULL)
        return -1;
    PyObject *delta = PyLong_FromLongLong(d);
    if (delta == NULL) {
        Py_DECREF(cur);
        return -1;
    }
    PyObject *sum = PyNumber_Add(cur, delta);
    Py_DECREF(cur);
    Py_DECREF(delta);
    if (sum == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return r;
}

static int
attr_true(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int r = PyObject_IsTrue(v);
    Py_DECREF(v);
    return r;
}

static int
attr_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
attr_i64s(PyObject *obj, const char *name, int64_t *out)
{
    PyObject *key = PyUnicode_FromString(name);
    if (key == NULL)
        return -1;
    int r = attr_i64(obj, key, out);
    Py_DECREF(key);
    return r;
}

static int
contains_u64(PyObject *container, uint64_t k)
{
    PyObject *key = PyLong_FromUnsignedLongLong(k);
    if (key == NULL)
        return -1;
    int r = PySequence_Contains(container, key);
    Py_DECREF(key);
    return r;
}

static int
move_to_end(PyObject *od, PyObject *key)
{
    PyObject *args[2] = {od, key};
    PyObject *r = PyObject_VectorcallMethod(s_move_to_end, args, 2, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
move_to_end_u64(PyObject *od, uint64_t k)
{
    PyObject *key = PyLong_FromUnsignedLongLong(k);
    if (key == NULL)
        return -1;
    int r = move_to_end(od, key);
    Py_DECREF(key);
    return r;
}

/* -- registers ---------------------------------------------------------- */

static int
regs_load(PyObject *regs, uint64_t *R)
{
    int exact = PyList_CheckExact(regs) && PyList_GET_SIZE(regs) == 32;
    for (Py_ssize_t k = 0; k < 32; k++) {
        PyObject *v;
        if (exact) {
            v = PyList_GET_ITEM(regs, k);
            Py_INCREF(v);
        }
        else if ((v = PySequence_GetItem(regs, k)) == NULL)
            return -1;
        R[k] = PyLong_AsUnsignedLongLong(v);
        Py_DECREF(v);
        if (R[k] == M64 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
regs_store(PyObject *regs, const uint64_t *R, uint32_t *dirty)
{
    uint32_t d = *dirty;
    *dirty = 0;
    for (Py_ssize_t k = 1; k < 32 && d; k++) {
        if (!(d & (1u << k)))
            continue;
        d &= ~(1u << k);
        PyObject *v = PyLong_FromUnsignedLongLong(R[k]);
        if (v == NULL || PySequence_SetItem(regs, k, v) < 0) {
            Py_XDECREF(v);
            return -1;
        }
        Py_DECREF(v);
    }
    return 0;
}

/* -- _lf: deferred LRU replay, deduplicated by last occurrence ----------- */

static int
replay(Unit *u, Vec *v, PyObject *od, PyObject *sets, uint64_t mask)
{
    Py_ssize_t n = v->n, m = 0;
    if (n == 0)
        return 0;
    v->n = 0;
    /* scratch: [0, n) unique keys newest-first, then a hash table */
    Py_ssize_t tab = 0;
    if (n > 16) {
        tab = 32;
        while (tab < 2 * n)
            tab <<= 1;
    }
    if (vec_reserve(&u->scratch, n + tab) < 0)
        return -1;
    uint64_t *out = u->scratch.a, *ht = u->scratch.a + n;
    if (tab)
        memset(ht, 0xFF, (size_t)tab * sizeof(uint64_t));
    for (Py_ssize_t j = n - 1; j >= 0; j--) {
        uint64_t k = v->a[j];
        int seen = 0;
        if (tab) {
            uint64_t h = (k * 0x9E3779B97F4A7C15ULL) >> 20;
            for (;; h++) {
                uint64_t *slot = &ht[h & (uint64_t)(tab - 1)];
                if (*slot == k) {
                    seen = 1;
                    break;
                }
                if (*slot == NONE64) {
                    *slot = k;
                    break;
                }
            }
        }
        else {
            for (Py_ssize_t q = 0; q < m; q++)
                if (out[q] == k) {
                    seen = 1;
                    break;
                }
        }
        if (!seen)
            out[m++] = k;
    }
    for (Py_ssize_t q = m - 1; q >= 0; q--) {
        uint64_t k = out[q];
        PyObject *target = od;
        if (target == NULL)
            target = PyList_GET_ITEM(sets, (Py_ssize_t)(k & mask));
        if (move_to_end_u64(target, k) < 0)
            return -1;
    }
    return 0;
}

static int
lf(Unit *u)
{
    if (u->dl.n && replay(u, &u->dl, u->tent, NULL, 0) < 0)
        return -1;
    if (u->cl.n && replay(u, &u->cl, NULL, u->dsets, u->DMK) < 0)
        return -1;
    if (u->il.n && replay(u, &u->il, NULL, u->isets, u->IMK) < 0)
        return -1;
    return 0;
}

/* -- _fl, _sy, _xt ------------------------------------------------------- */

static int
fl(Unit *u, int64_t ti, int64_t tcy, int64_t tb2, int64_t tmd, int64_t tic)
{
    if (add_attr(u->stats, s_instructions, ti) < 0
            || add_attr(u->stats, s_cycles, tcy) < 0)
        return -1;
    if (tb2 && add_attr(u->stats, s_branch_penalty_cycles, tb2) < 0)
        return -1;
    if (tmd && add_attr(u->stats, s_muldiv_cycles, tmd) < 0)
        return -1;
    if (tic && add_attr(u->icache, s_hits, tic) < 0)
        return -1;
    return 0;
}

/* Cold-path sync to site i: pc, deferred retire/penalty/fetch catch-up,
   LRU drain. Updates the catch-up cursors in place. */
static int
sy(Unit *u, Py_ssize_t i, int64_t *fc, int64_t *bc, int64_t *mc,
   int64_t *pf, int64_t *ip)
{
    PyObject *pc = PyLong_FromUnsignedLongLong(COL(F_PCA, i));
    if (pc == NULL)
        return -1;
    int r = PyObject_SetAttr(u->core, s_pc, pc);
    if (r == 0)
        r = PyObject_SetAttr(u->core, s_current_pc, pc);
    Py_DECREF(pc);
    if (r < 0)
        return -1;
    int64_t kk = (int64_t)COL(F_NI, i), bv = (int64_t)COL(F_BP, i);
    int64_t uv = (int64_t)COL(F_MU, i), qv = (int64_t)COL(F_PQ, i);
    if (add_attr(u->stats, s_instructions, kk - *fc) < 0
            || add_attr(u->stats, s_cycles,
                        (kk - *fc) * u->CPI + (bv - *bc) + (uv - *mc)) < 0)
        return -1;
    if (bv != *bc && add_attr(u->stats, s_branch_penalty_cycles,
                              bv - *bc) < 0)
        return -1;
    if (uv != *mc && add_attr(u->stats, s_muldiv_cycles, uv - *mc) < 0)
        return -1;
    if (u->ICH && add_attr(u->icache, s_hits, qv - *pf) < 0)
        return -1;
    if (lf(u) < 0)
        return -1;
    *fc = kk;
    *bc = bv;
    *mc = uv;
    *pf = qv;
    *ip = (int64_t)COL(F_JX, i);
    return 0;
}

static int
irp(Unit *u, Py_ssize_t j)
{
    PyObject *order = PyTuple_GET_ITEM(u->irt, j);
    for (Py_ssize_t q = 0; q < PyTuple_GET_SIZE(order); q++) {
        PyObject *k = PyTuple_GET_ITEM(order, q);
        uint64_t line = PyLong_AsUnsignedLongLong(k);
        if (line == M64 && PyErr_Occurred())
            return -1;
        if (move_to_end(PyList_GET_ITEM(u->isets,
                                        (Py_ssize_t)(line & u->IMK)), k) < 0)
            return -1;
    }
    return 0;
}

/* Whether every line of a warm loop is resident. */
static int
wchk(Unit *u)
{
    for (Py_ssize_t q = 0; q < PyTuple_GET_SIZE(u->ilines); q++) {
        PyObject *k = PyTuple_GET_ITEM(u->ilines, q);
        uint64_t line = PyLong_AsUnsignedLongLong(k);
        if (line == M64 && PyErr_Occurred())
            return -1;
        int r = PySequence_Contains(
            PyList_GET_ITEM(u->isets, (Py_ssize_t)(line & u->IMK)), k);
        if (r <= 0)
            return r;
    }
    return 1;
}

/* Unit exit at site i: catch up through NI[i] + extra (+pen penalty
   cycles), drain everything, replay the warm I-side permutation. */
static int
xt(Unit *u, Py_ssize_t i, int64_t extra, int64_t pen, int64_t ch,
   int64_t dh, int warm, int64_t fc, int64_t bc, int64_t mc, int64_t pf)
{
    int64_t kk = (int64_t)COL(F_NI, i) + extra;
    int64_t bpd = (int64_t)COL(F_BP, i) - bc + pen;
    int64_t mud = (int64_t)COL(F_MU, i) - mc;
    if (add_attr(u->stats, s_instructions, kk - fc) < 0
            || add_attr(u->stats, s_cycles,
                        (kk - fc) * u->CPI + bpd + mud) < 0)
        return -1;
    if (bpd && add_attr(u->stats, s_branch_penalty_cycles, bpd) < 0)
        return -1;
    if (mud && add_attr(u->stats, s_muldiv_cycles, mud) < 0)
        return -1;
    if (u->ICH && add_attr(u->icache, s_hits,
                           (int64_t)COL(F_PQ, i) - pf) < 0)
        return -1;
    if (ch && add_attr(u->dcache, s_hits, ch) < 0)
        return -1;
    if (dh && (add_attr(u->dtlb, s_hits, dh) < 0
               || add_attr(u->mmu_stats, s_translations, dh) < 0))
        return -1;
    if (lf(u) < 0)
        return -1;
    if (warm && irp(u, (Py_ssize_t)COL(F_JX, i)) < 0)
        return -1;
    return 0;
}

/* -- simulated caches: _dmiss / _imiss ----------------------------------- */

static int
cache_miss(Unit *u, PyObject *cache, PyObject *wy, uint64_t ln,
           int64_t ways, PyObject *stat)
{
    if (lf(u) < 0 || add_attr(cache, s_misses, 1) < 0)
        return -1;
    PyObject *key = PyLong_FromUnsignedLongLong(ln);
    if (key == NULL)
        return -1;
    int r = PyObject_SetItem(wy, key, Py_True);
    Py_DECREF(key);
    if (r < 0)
        return -1;
    Py_ssize_t n = PyObject_Size(wy);
    if (n < 0)
        return -1;
    if (n > ways) {
        PyObject *p = PyObject_CallMethodObjArgs(wy, s_popitem, Py_False,
                                                 NULL);
        if (p == NULL)
            return -1;
        Py_DECREF(p);
    }
    if (add_attr(u->stats, stat, 1) < 0
            || add_attr(u->stats, s_cycles, u->PEN) < 0)
        return -1;
    return 0;
}

/* D-cache access on a cached view whose line differs from the last one:
   a resident line is recorded for LRU replay and counted as a deferred
   hit, a missing one is filled at once. */
static int
dtouch(Unit *u, uint64_t ln, int64_t *ch)
{
    PyObject *wy = PyList_GET_ITEM(u->dsets, (Py_ssize_t)(ln & u->DMK));
    int c = contains_u64(wy, ln);
    if (c < 0)
        return -1;
    if (c) {
        if (vec_push(&u->cl, ln) < 0)
            return -1;
        (*ch)++;
        return 0;
    }
    return cache_miss(u, u->dcache, wy, ln, u->DWAYS, s_dcache_misses);
}

/* -- page memo lookup ----------------------------------------------------
   A hit in the core's page memo (``Core._jload_memo``/``_jstore_memo``)
   is a resident D-TLB entry: make its page site i's view. Returns 1
   (site i now caches page vp), 0 (no memo: ``refill`` or the eager
   callout serves the access), 2 (the current mode may not access the
   page: the caller raises the page fault) or -1. */
static int
fill(Unit *u, Py_ssize_t i, uint64_t vp, int um, int store)
{
    PyObject *key = PyLong_FromUnsignedLongLong(vp);
    if (key == NULL)
        return -1;
    PyObject *mo = PyDict_GetItemWithError(store ? u->jstore : u->jload,
                                           key);
    Py_DECREF(key);
    if (mo == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!PyTuple_CheckExact(mo) || PyTuple_GET_SIZE(mo) != 4) {
        PyErr_SetString(PyExc_TypeError, "page memo is not a 4-tuple");
        return -1;
    }
    int ok = PyObject_IsTrue(PyTuple_GET_ITEM(mo, um ? 1 : 2));
    if (ok <= 0)
        return ok < 0 ? -1 : 2;
    PyObject *fb = PyTuple_GET_ITEM(mo, 0);
    if (!PyByteArray_CheckExact(fb) || PyByteArray_GET_SIZE(fb) != 4096) {
        PyErr_SetString(PyExc_TypeError, "frame is not a 4 KiB bytearray");
        return -1;
    }
    uint64_t pp = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(mo, 3));
    if (pp == M64 && PyErr_Occurred())
        return -1;
    Site *s = &u->sc[i];
    Py_INCREF(fb);
    Py_XSETREF(s->fb, fb);
    s->p = (unsigned char *)PyByteArray_AS_STRING(fb);
    s->gb = vp << 12;
    s->vp = vp;
    s->pp = pp;
    s->ep = u->epoch;
    return 1;
}

static void
raise_trap(PyObject *cause, uint64_t pc, uint64_t tval)
{
    PyObject *args = Py_BuildValue("(OK)", cause, (unsigned long long)pc);
    PyObject *kw = args ? PyDict_New() : NULL;
    PyObject *tv = kw ? PyLong_FromUnsignedLongLong(tval) : NULL;
    if (tv != NULL && PyDict_SetItem(kw, s_tval, tv) == 0) {
        PyObject *exc = PyObject_Call(Trap, args, kw);
        if (exc != NULL) {
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
            Py_DECREF(exc);
        }
    }
    Py_XDECREF(tv);
    Py_XDECREF(kw);
    Py_XDECREF(args);
}

static inline uint64_t
rd_le(const unsigned char *p, int w)
{
    uint64_t v = 0;
    memcpy(&v, p, (size_t)w);       /* little-endian host only */
    return v;
}

static inline void
wr_le(unsigned char *p, uint64_t v, int w)
{
    memcpy(p, &v, (size_t)w);
}

static inline uint64_t
sext32(uint64_t v)
{
    return (uint64_t)(int64_t)(int32_t)(uint32_t)v;
}

/* -- D-TLB refill: the eager path without the callout --------------------- */

/* ``d.pop(k, None)`` */
static int
discard(PyObject *d, PyObject *k)
{
    if (PyDict_CheckExact(d)) {
        int c = PyDict_Contains(d, k);
        return c <= 0 ? c : PyDict_DelItem(d, k);
    }
    PyObject *r = PyObject_CallMethodObjArgs(d, s_pop, k, Py_None, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ``frames.get(idx)`` through the frame map's own ``get``, so a
   copy-on-write map materializes its private copy exactly as the Python
   path does. 1 with a new reference in *out (a 4 KiB bytearray), 0 when
   there is no such frame, -1 on error (frames are never anything but
   4 KiB bytearrays). */
static int
frame_get(PyObject *frames, uint64_t idx, PyObject **out)
{
    PyObject *key = PyLong_FromUnsignedLongLong(idx);
    if (key == NULL)
        return -1;
    PyObject *args[2] = {frames, key};
    PyObject *fb = PyObject_VectorcallMethod(
        s_get, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_DECREF(key);
    if (fb == NULL)
        return -1;
    if (fb == Py_None) {
        Py_DECREF(fb);
        return 0;
    }
    if (!PyByteArray_CheckExact(fb) || PyByteArray_GET_SIZE(fb) != 4096) {
        Py_DECREF(fb);
        PyErr_SetString(PyExc_TypeError, "frame is not a 4 KiB bytearray");
        return -1;
    }
    *out = fb;
    return 1;
}

/* Serve a plain READ/WRITE access that no page view and no page memo
   holds, in place of the eager ``Core.load``/``Core.store`` callout,
   when that callout would (A) replay ``MMU._walk_memo`` on a D-TLB miss
   or (B) hit the D-TLB: a page memoized in the other direction only,
   touched by ``ld.ro`` or with no frame.

   Phase 1 checks every precondition and changes nothing (the frame
   ``get`` calls may materialize a copy-on-write frame, which the
   callout does at the same point: it is idempotent). Phase 2 commits
   the callout's effects in its order: the deferred LRU moves, the
   translation, TLB and walk counters, the TLB insert with its eviction
   and shadow purges, walk cycles, the D-cache access, the frame read
   (zeros when there is no frame, as ``PhysicalMemory.read`` gives) or
   write. When the frame exists it then memoizes the page, as the
   callout's ``Core._memoize`` would, and makes it site ``s``'s view in
   the new epoch ``ep``. Returns 2 when served with that view, 1 when
   served without one, 0 when the callout must run (it then does
   everything once), -1 on error. ``ld.ro`` and AMOs never come here. */
static int
refill(Unit *u, Site *s, uint64_t ep, uint64_t va, int width, int store,
       int sgn, int um, uint64_t *val, int64_t *ch)
{
    PyObject *key = NULL, *entry = NULL, *pte = NULL, *frames = NULL,
        *fb = NULL, *ppo = NULL;
    uint64_t vpn = va >> 12, off = va & 0xFFF, ppn, paddr;
    int64_t acc = 0;
    int r = -1, t, tlb_hit, user, ok;

    /* -- phase 1: checks ---------------------------------------------- */
    if (u->wmemo == Py_None || (va & (uint64_t)(width - 1)))
        return 0;
    if ((t = attr_true(u->core, s_fast_path_enabled)) <= 0)
        return t;
    if ((t = attr_true(u->mmu, s_bare)) != 0)
        return t < 0 ? -1 : 0;
    if ((key = PyLong_FromUnsignedLongLong(vpn)) == NULL)
        return -1;
    entry = PyDict_GetItemWithError(u->tent, key);
    tlb_hit = entry != NULL;
    if (tlb_hit)                                        /* B */
        Py_INCREF(entry);
    else {                                              /* A */
        int64_t root, memo_root, pa;
        if (PyErr_Occurred()
                || attr_i64(u->mmu, s_walk_memo_root, &memo_root) < 0
                || attr_i64(u->mmu, s_root_ppn, &root) < 0)
            goto out;
        if (memo_root != root)
            goto fallback;
        PyObject *hit = PyDict_GetItemWithError(u->wmemo, key);
        if (hit == NULL) {
            if (PyErr_Occurred())
                goto out;
            goto fallback;
        }
        if (!PyTuple_CheckExact(hit) || PyTuple_GET_SIZE(hit) != 4)
            goto fallback;
        entry = PyTuple_GET_ITEM(hit, 2);
        Py_INCREF(entry);
        pte = PyTuple_GET_ITEM(hit, 1);
        Py_INCREF(pte);
        if ((pa = PyLong_AsLongLong(PyTuple_GET_ITEM(hit, 0))) == -1
                && PyErr_Occurred())
            goto out;
        if ((acc = PyLong_AsLongLong(PyTuple_GET_ITEM(hit, 3))) == -1
                && PyErr_Occurred())
            goto out;
        /* The leaf PTE word must still be bit-identical (the memo's
           verify-on-hit rule); a frame that is not there reads as 0. */
        if (pa < 0 || (uint64_t)pa + 8 > u->MSZ || (pa & 0xFFF) > 4088)
            goto fallback;
        if ((frames = PyObject_GetAttr(u->memory, s_frames)) == NULL)
            goto out;
        PyObject *pfb;
        if ((t = frame_get(frames, (uint64_t)pa >> 12, &pfb)) <= 0) {
            if (t < 0)
                goto out;
            goto fallback;
        }
        uint64_t word = rd_le((unsigned char *)PyByteArray_AS_STRING(pfb)
                              + (pa & 0xFFF), 8);
        Py_DECREF(pfb);
        uint64_t raw = PyLong_AsUnsignedLongLong(pte);
        if (raw == M64 && PyErr_Occurred()) {
            PyErr_Clear();
            goto fallback;
        }
        if (word != raw)
            goto fallback;
    }
    /* MMU._check for READ/WRITE */
    if ((user = attr_true(entry, s_user)) < 0
            || (ok = attr_true(entry, store ? s_writable : s_readable)) < 0)
        goto out;
    if (!ok || (!um && !user))
        goto fallback;
    if ((ppo = PyObject_GetAttr(entry, s_ppn)) == NULL)
        goto out;
    ppn = PyLong_AsUnsignedLongLong(ppo);
    if (ppn == M64 && PyErr_Occurred())
        goto out;
    paddr = (ppn << 12) | off;
    if (ppn >= (1ULL << 52) || paddr + (uint64_t)width > u->MSZ)
        goto fallback;
    for (Py_ssize_t q = 0; q < PyList_GET_SIZE(u->mmio); q++) {
        PyObject *region = PyList_GET_ITEM(u->mmio, q);
        int64_t base, size;
        if (attr_i64(region, s_base, &base) < 0
                || attr_i64(region, s_size, &size) < 0)
            goto out;
        if ((int64_t)paddr >= base && (int64_t)paddr < base + size)
            goto fallback;
    }
    if (store) {
        PyObject *wf;
        if ((t = contains_u64(u->cframes, ppn)) != 0) {
            if (t < 0)
                goto out;
            goto fallback;
        }
        if ((wf = PyObject_GetAttr(u->memory, s_written_frames)) == NULL)
            goto out;
        Py_DECREF(wf);
        if (wf != Py_None)
            goto fallback;
    }
    if (frames == NULL
            && (frames = PyObject_GetAttr(u->memory, s_frames)) == NULL)
        goto out;
    if ((t = frame_get(frames, ppn, &fb)) < 0 || (t == 0 && store)) {
        if (t < 0)
            goto out;
        goto fallback;      /* the callout allocates the frame */
    }

    /* -- phase 2: effects, in the eager order ------------------------- */
    if (lf(u) < 0)
        goto out;
    if (tlb_hit) {
        if (move_to_end(u->tent, key) < 0
                || add_attr(u->dtlb, s_hits, 1) < 0
                || add_attr(u->mmu_stats, s_translations, 1) < 0)
            goto out;
    }
    else {
        if (add_attr(u->mmu_stats, s_translations, 1) < 0
                || add_attr(u->dtlb, s_misses, 1) < 0
                || add_attr(u->mmu_stats, s_walks, 1) < 0)
            goto out;
        /* TLB.insert: evict the LRU entry when full, then purge the
           shadows of the victim and of the new vpn. */
        PyObject *victim = NULL, *shadows;
        if (PyObject_SetItem(u->tent, key, entry) < 0)
            goto out;
        Py_ssize_t n = PyObject_Size(u->tent);
        if (n < 0)
            goto out;
        if (n > u->TCAP) {
            PyObject *p = PyObject_CallMethodObjArgs(u->tent, s_popitem,
                                                     Py_False, NULL);
            if (p == NULL)
                goto out;
            if (!PyTuple_Check(p) || PyTuple_GET_SIZE(p) != 2) {
                Py_DECREF(p);
                PyErr_SetString(PyExc_TypeError, "popitem: not a pair");
                goto out;
            }
            victim = PyTuple_GET_ITEM(p, 0);
            Py_INCREF(victim);
            Py_DECREF(p);
        }
        if ((shadows = PyObject_GetAttr(u->dtlb, s_shadows)) == NULL) {
            Py_XDECREF(victim);
            goto out;
        }
        PyObject *seq = PySequence_Fast(shadows, "TLB shadows");
        Py_DECREF(shadows);
        if (seq == NULL) {
            Py_XDECREF(victim);
            goto out;
        }
        for (int pass = victim ? 0 : 1; pass < 2; pass++)
            for (Py_ssize_t q = 0; q < PySequence_Fast_GET_SIZE(seq); q++)
                if (discard(PySequence_Fast_GET_ITEM(seq, q),
                            pass ? key : victim) < 0) {
                    Py_DECREF(seq);
                    Py_XDECREF(victim);
                    goto out;
                }
        Py_DECREF(seq);
        Py_XDECREF(victim);
        if (acc && (add_attr(u->stats, s_cycles, acc * u->TWA) < 0
                    || add_attr(u->stats, s_dtlb_walk_cycles,
                                acc * u->TWA) < 0))
            goto out;
    }
    if (u->use_dc && dtouch(u, paddr >> u->DSH, ch) < 0)
        goto out;
    unsigned char *p = fb ? (unsigned char *)PyByteArray_AS_STRING(fb) + off
                          : NULL;
    if (store)
        wr_le(p, *val, width);
    else {
        uint64_t v = p ? rd_le(p, width) : 0;
        if (sgn && width < 8) {
            uint64_t sb = 1ULL << ((width << 3) - 1);
            v = ((v ^ sb) - sb);
        }
        *val = v;
    }
    r = 1;
    if (fb == NULL)
        goto out;       /* a frameless page stays unmemoized */
    PyObject *mo = PyTuple_Pack(4, fb, Py_True, user ? Py_True : Py_False,
                                ppo);
    if (mo == NULL)
        goto error;
    t = PyDict_SetItem(store ? u->jstore : u->jload, key, mo);
    Py_DECREF(mo);
    if (t < 0)
        goto error;
    Py_INCREF(fb);
    Py_XSETREF(s->fb, fb);
    s->p = (unsigned char *)PyByteArray_AS_STRING(fb);
    s->gb = vpn << 12;
    s->vp = vpn;
    s->pp = ppn;
    s->ep = ep;
    r = 2;
    goto out;
error:
    r = -1;
    goto out;
fallback:
    r = 0;
out:
    Py_XDECREF(key);
    Py_XDECREF(entry);
    Py_XDECREF(pte);
    Py_XDECREF(frames);
    Py_XDECREF(fb);
    Py_XDECREF(ppo);
    return r;
}

/* -- the dispatch loop ---------------------------------------------------- */

/* Statements inside run(); each jumps to ``error`` on a Python error. */
#define CHECK(expr) do { if ((expr) < 0) goto error; } while (0)
/* Drain the banked loop iterations. */
#define DRAIN_ITER() do { if (ti) { \
        CHECK(fl(u, ti, tcy, tb2, tmd, tic)); \
        ti = tcy = tb2 = tmd = tic = 0; } } while (0)
#define SYNC(i) do { DRAIN_ITER(); \
        CHECK(sy(u, (i), &fc, &bc, &mc, &pf, &ip)); } while (0)
/* Around a callout that can read or write registers. */
#define BEFORE_CALL() CHECK(regs_store(regs, R, &dirty))
#define AFTER_CALL() do { CHECK(regs_load(regs, R)); \
        if ((babort = attr_true(u->core, s_block_abort)) < 0) goto error; \
    } while (0)
/* A callout that could remap: drop the shared guards, new epoch. */
#define RESET_VIEWS() do { lvb = svb = ldp = lln = NONE64; \
        ep = ++u->epoch; } while (0)
#define SET(rd, v) do { R[rd] = (v); dirty |= 1u << (rd); } while (0)
#define EXIT(i, extra, pen, tgt) do { DRAIN_ITER(); \
        next = (tgt); \
        CHECK(xt(u, (i), (extra), (pen), ch, dh, warm, fc, bc, mc, pf)); \
        ch = dh = warm = 0;     /* drained */ \
        goto done; } while (0)
#define SIDE_EXIT(i, extra, pen, tgt) do { \
        CHECK(add_attr(u->core, s_side_exits, 1)); \
        EXIT(i, extra, pen, tgt); } while (0)

/* A D-side access through the shared guard's page: count the D-TLB
   hit, deferring its LRU move. */
#define DTLB_HIT(vpage) do { \
        if ((vpage) != ldp) { CHECK(vec_push(&u->dl, (vpage))); \
            ldp = (vpage); } \
        dh++; \
        of = va & 0xFFF; } while (0)
/* ... then touch its D-cache line. */
#define DCACHE(pbase) do { if (u->use_dc) { \
            uint64_t ln_ = ((pbase) | of) >> u->DSH; \
            if (ln_ == lln) ch++; \
            else { CHECK(dtouch(u, ln_, &ch)); lln = ln_; } \
        } } while (0)
#define LOAD_VIEW(s) do { lvb = (s)->gb; lpb = (s)->pp << 12; \
        lptr = (s)->p; lvp = (s)->vp; } while (0)
#define STORE_VIEW(s) do { svb = (s)->gb; spb = (s)->pp << 12; \
        spp = (s)->pp; sptr = (s)->p; svp = (s)->vp; \
        CHECK(scode = contains_u64(u->cframes, spp)); } while (0)

/* Find the page view of a load/store at ``va``: the shared guard, else
   this site's entry from the current epoch, else the page memo (whose
   entry may deny the current mode: the caller's page fault). Leaves
   ``have`` 1 when a view is set up, 0 for the refill or the eager
   fallback. */
#define FIND_VIEW(guard, mask, align_ok, VIEW, is_store, cause) do { \
        have = 1; \
        if ((va & (mask)) != (guard)) { \
            Site *s_ = &sc[i]; \
            if ((va & (mask)) == s_->gb && s_->ep == ep) \
                VIEW(s_); \
            else { \
                have = 0; \
                if (align_ok) { \
                    uint64_t vp_ = va >> 12; \
                    int r_ = fill(u, i, vp_, um, (is_store)); \
                    CHECK(r_); \
                    if (r_ == 2) { \
                        DTLB_HIT(vp_); \
                        SYNC(i); BEFORE_CALL(); \
                        raise_trap((cause), COL(F_PCA, i), va); \
                        goto error; \
                    } \
                    if (r_) { VIEW(s_); have = 1; } \
                } \
            } \
        } } while (0)

/* Load arm: ``mask`` is the page+alignment guard, ``READ`` the value
   read from ``lptr + of``; ``width``/``sgn`` the access for the refill
   and the eager fallback. A served refill leaves its page as the view. */
#define LOAD_ARM(mask, align_ok, READ, width, sgn) do { \
        uint64_t va = R[rb] + imv, v; \
        int have; \
        FIND_VIEW(lvb, mask, align_ok, LOAD_VIEW, 0, LoadFault); \
        if (have) { \
            DTLB_HIT(lvp); \
            DCACHE(lpb); \
            v = (READ); \
        } else { \
            RESET_VIEWS(); \
            int rf_ = refill(u, &sc[i], ep, va, (width), 0, (sgn), um, \
                             &v, &ch); \
            CHECK(rf_); \
            if (rf_ == 2) LOAD_VIEW(&sc[i]); \
            else if (!rf_) { \
                SYNC(i); BEFORE_CALL(); \
                PyObject *r_ = PyObject_CallFunction( \
                    u->load, "OKiO", u->core, (unsigned long long)va, \
                    (width), (sgn) ? Py_True : Py_False); \
                if (r_ == NULL) goto error; \
                v = PyLong_AsUnsignedLongLong(r_); Py_DECREF(r_); \
                if (v == M64 && PyErr_Occurred()) goto error; \
                AFTER_CALL(); \
            } \
        } \
        if (ad) SET(ad, v); \
    } while (0)

/* The store-side twin; ``WRITE`` stores R[rc] at ``sptr + of``. A store
   into a frame holding translated code flushes it first (``scode``,
   computed when the view is set up: the code-frame set only changes in
   callouts, which drop the views). */
#define STORE_ARM(mask, align_ok, WRITE, width) do { \
        uint64_t va = R[rb] + imv; \
        int have; \
        FIND_VIEW(svb, mask, align_ok, STORE_VIEW, 1, StoreFault); \
        if (have) { \
            DTLB_HIT(svp); \
            if (scode) { \
                BEFORE_CALL(); \
                PyObject *r_ = PyObject_CallMethodNoArgs(u->core, \
                                                         s_flush_blocks); \
                if (r_ == NULL) goto error; \
                Py_DECREF(r_); \
                AFTER_CALL(); \
                scode = 0;      /* the flush emptied the set */ \
            } \
            DCACHE(spb); \
            WRITE; \
        } else { \
            uint64_t sv_ = R[rc]; \
            RESET_VIEWS(); \
            int rf_ = refill(u, &sc[i], ep, va, (width), 1, 0, um, &sv_, \
                             &ch); \
            CHECK(rf_); \
            if (rf_ == 2) STORE_VIEW(&sc[i]); \
            else if (!rf_) { \
                SYNC(i); BEFORE_CALL(); \
                PyObject *r_ = PyObject_CallFunction( \
                    u->store, "OKiK", u->core, (unsigned long long)va, \
                    (width), (unsigned long long)sv_); \
                if (r_ == NULL) goto error; \
                Py_DECREF(r_); \
                AFTER_CALL(); \
            } \
        } \
        if (babort) EXIT(i, 1, 0, xv); \
    } while (0)

#define BRANCH_MID(cond) do { \
        int c_ = (cond); \
        if (c_ != (int)xv) SIDE_EXIT(i, 1, c_ ? u->TBP : 0, imv); \
    } while (0)

static PyObject *
run(Unit *u, int64_t b)
{
    Site *sc = u->sc;
    uint64_t R[32];
    uint32_t dirty = 0;
    Py_ssize_t i = 0;
    int64_t fc = 0, bc = 0, mc = 0, pf = 0, ip = 0;
    int64_t dh = 0, ch = 0, ti = 0, tcy = 0, tb2 = 0, tmd = 0, tic = 0;
    int warm = 0, um = 1, babort = 0, scode = 0;
    uint64_t lvb = NONE64, svb = NONE64, ldp = NONE64, lln = NONE64;
    uint64_t lvp = NONE64, svp = NONE64, lpb = 0, spb = 0, spp = 0, of = 0;
    unsigned char *lptr = NULL, *sptr = NULL;
    uint64_t ep = ++u->epoch;
    uint64_t next = 0;
    PyObject *result = NULL;

    PyObject *regs = PyObject_GetAttr(u->core, s_regs);
    if (regs == NULL)
        return NULL;
    if (regs_load(regs, R) < 0) {
        Py_DECREF(regs);
        return NULL;
    }
    if (u->dside) {
        if ((um = attr_true(u->mmu, s_user_mode)) < 0) {
            Py_DECREF(regs);
            return NULL;
        }
        um = !um;
    }

    for (;;) {
        uint64_t op = COL(F_OP, i);
        uint64_t ad = COL(F_A, i), rb = COL(F_B, i), rc = COL(F_C, i);
        uint64_t imv = COL(F_IM, i), xv = COL(F_X, i);
        switch (op) {
        case 1:     /* OP_ADDI */
            SET(ad, R[rb] + imv);
            break;
        case 2:     /* OP_LD8 */
            LOAD_ARM(0xFFFFFFFFFFFFF007ULL, !(va & 7),
                     rd_le(lptr + of, 8), 8, 1);
            break;
        case 3:     /* OP_ADD */
            SET(ad, R[rb] + R[rc]);
            break;
        case 4:     /* OP_ST8 */
            STORE_ARM(0xFFFFFFFFFFFFF007ULL, !(va & 7),
                      wr_le(sptr + of, R[rc], 8), 8);
            break;
        case 5:     /* OP_IPROBE */
            if (!warm) {
                PyObject *wy = PyList_GET_ITEM(u->isets, (Py_ssize_t)ad);
                int c = contains_u64(wy, imv);
                CHECK(c);
                if (c)
                    CHECK(vec_push(&u->il, imv));
                else {
                    CHECK(cache_miss(u, u->icache, wy, imv, u->IWAYS,
                                     s_icache_misses));
                    pf++;
                }
            }
            break;
        case 6:     /* OP_BNE */
            BRANCH_MID(R[rb] != R[rc]);
            break;
        case 7:     /* OP_BEQ */
            BRANCH_MID(R[rb] == R[rc]);
            break;
        case 8:     /* OP_BLT */
            BRANCH_MID((int64_t)R[rb] < (int64_t)R[rc]);
            break;
        case 9:     /* OP_BGE */
            BRANCH_MID((int64_t)R[rb] >= (int64_t)R[rc]);
            break;
        case 10:    /* OP_BLTU */
            BRANCH_MID(R[rb] < R[rc]);
            break;
        case 11:    /* OP_BGEU */
            BRANCH_MID(R[rb] >= R[rc]);
            break;
        case 12:    /* OP_LD4S */
            LOAD_ARM(0xFFFFFFFFFFFFF003ULL, !(va & 3),
                     sext32(rd_le(lptr + of, 4)), 4, 1);
            break;
        case 13:    /* OP_LD1U */
            LOAD_ARM(0xFFFFFFFFFFFFF000ULL, 1, lptr[of], 1, 0);
            break;
        case 14: {  /* OP_LDW: C = width | signed << 8 */
            int wd = (int)(rc & 0xFF);
            uint64_t sb = (rc >> 8) ? 1ULL << ((wd << 3) - 1) : 0;
            LOAD_ARM(0xFFFFFFFFFFFFF000ULL | (uint64_t)(wd - 1),
                     !(va & (uint64_t)(wd - 1)),
                     (rd_le(lptr + of, wd) ^ sb) - sb, wd, rc >> 8);
            break;
        }
        case 15:    /* OP_ST4 */
            STORE_ARM(0xFFFFFFFFFFFFF003ULL, !(va & 3),
                      wr_le(sptr + of, R[rc], 4), 4);
            break;
        case 16:    /* OP_ST1 */
            STORE_ARM(0xFFFFFFFFFFFFF000ULL, 1,
                      sptr[of] = (unsigned char)R[rc], 1);
            break;
        case 17: {  /* OP_STW: A = width */
            int wd = (int)ad;
            STORE_ARM(0xFFFFFFFFFFFFF000ULL | (uint64_t)(wd - 1),
                      !(va & (uint64_t)(wd - 1)),
                      wr_le(sptr + of, R[rc], wd), wd);
            break;
        }
        case 18:    /* OP_CONST */
            SET(ad, imv);
            break;
        case 19:    /* OP_ANDI */
            SET(ad, R[rb] & imv);
            break;
        case 20:    /* OP_ORI */
            SET(ad, R[rb] | imv);
            break;
        case 21:    /* OP_XORI */
            SET(ad, R[rb] ^ imv);
            break;
        case 22:    /* OP_SLLI */
            SET(ad, R[rb] << imv);
            break;
        case 23:    /* OP_SRLI */
            SET(ad, R[rb] >> imv);
            break;
        case 24:    /* OP_SRAI */
            SET(ad, (uint64_t)((int64_t)R[rb] >> imv));
            break;
        case 25:    /* OP_SLTI (IM pre-xored with H63) */
            SET(ad, (R[rb] ^ H63) < imv);
            break;
        case 26:    /* OP_SLTIU */
            SET(ad, R[rb] < imv);
            break;
        case 27:    /* OP_ADDIW */
            SET(ad, sext32(R[rb] + imv));
            break;
        case 28:    /* OP_SUB */
            SET(ad, R[rb] - R[rc]);
            break;
        case 29:    /* OP_AND */
            SET(ad, R[rb] & R[rc]);
            break;
        case 30:    /* OP_OR */
            SET(ad, R[rb] | R[rc]);
            break;
        case 31:    /* OP_XOR */
            SET(ad, R[rb] ^ R[rc]);
            break;
        case 32:    /* OP_SLL */
            SET(ad, R[rb] << (R[rc] & 63));
            break;
        case 33:    /* OP_SRL */
            SET(ad, R[rb] >> (R[rc] & 63));
            break;
        case 34:    /* OP_SRA */
            SET(ad, (uint64_t)((int64_t)R[rb] >> (R[rc] & 63)));
            break;
        case 35:    /* OP_SLT */
            SET(ad, (int64_t)R[rb] < (int64_t)R[rc]);
            break;
        case 36:    /* OP_SLTU */
            SET(ad, R[rb] < R[rc]);
            break;
        case 37:    /* OP_ADDW */
            SET(ad, sext32(R[rb] + R[rc]));
            break;
        case 38:    /* OP_SUBW */
            SET(ad, sext32(R[rb] - R[rc]));
            break;
        case 39:    /* OP_MUL (latency rides MU static) */
            SET(ad, R[rb] * R[rc]);
            break;
        case 40:    /* OP_MULW */
            SET(ad, sext32(R[rb] * R[rc]));
            break;
        case 41:    /* OP_SLLIW */
            SET(ad, sext32(R[rb] << imv));
            break;
        case 42:    /* OP_SRLIW */
            SET(ad, sext32((R[rb] & 0xFFFFFFFFULL) >> imv));
            break;
        case 43:    /* OP_SRAIW */
            SET(ad, (uint64_t)(int64_t)((int32_t)(uint32_t)R[rb] >> imv));
            break;
        case 44:    /* OP_SLLW */
            SET(ad, sext32(R[rb] << (R[rc] & 31)));
            break;
        case 45:    /* OP_SRLW */
            SET(ad, sext32((R[rb] & 0xFFFFFFFFULL) >> (R[rc] & 31)));
            break;
        case 46:    /* OP_SRAW */
            SET(ad, (uint64_t)(int64_t)((int32_t)(uint32_t)R[rb]
                                        >> (R[rc] & 31)));
            break;
        case 47:    /* OP_JAL (mid; penalty is static) */
            SET(ad, imv);
            break;
        case 48: {  /* OP_BACKEDGE: bank the finished iteration */
            int64_t d = u->NT - fc, bpd = u->BPT - bc, mud = u->MUT - mc;
            ti += d;
            tcy += d * u->CPI + bpd + mud;
            tb2 += bpd;
            tmd += mud;
            if (u->ICH)
                tic += u->PQT - pf;
            if (u->dl.n || u->cl.n || u->il.n)
                CHECK(lf(u));
            if (u->WARM && !warm)
                CHECK(warm = wchk(u));
            fc = bc = mc = pf = 0;
            b -= u->NT;
            if (b < u->NT) {
                CHECK(fl(u, ti, tcy, tb2, tmd, tic));
                ti = tcy = tb2 = tmd = tic = 0;
                if (ch) {
                    CHECK(add_attr(u->dcache, s_hits, ch));
                    ch = 0;
                }
                if (dh) {
                    CHECK(add_attr(u->dtlb, s_hits, dh));
                    CHECK(add_attr(u->mmu_stats, s_translations, dh));
                    dh = 0;
                }
                if (warm) {
                    CHECK(irp(u, 0));
                    warm = 0;
                }
                next = u->HEAD;
                goto done;
            }
            /* A pure-C loop still answers signals (SIGINT, SIGTERM). */
            CHECK(PyErr_CheckSignals());
            i = 0;
            continue;
        }
        case 49:    /* OP_MEMCHK */
        case 50: {  /* OP_HEADCHK */
            int c = contains_u64(u->fpages, imv);
            CHECK(c);
            if (!c)
                SIDE_EXIT(i, 0, 0, xv);
            break;
        }
        case 51: {  /* OP_ROLOAD: never cached (DESIGN.md 8) */
            SYNC(i);
            BEFORE_CALL();
            PyObject *r_ = PyObject_CallFunction(
                u->load, "OKiKOK", u->core, (unsigned long long)R[rb],
                (int)rc, (unsigned long long)xv, s_read_ro,
                (unsigned long long)imv);
            if (r_ == NULL)
                goto error;
            uint64_t v = PyLong_AsUnsignedLongLong(r_);
            Py_DECREF(r_);
            if (v == M64 && PyErr_Occurred())
                goto error;
            AFTER_CALL();
            if (ad)
                SET(ad, v);
            RESET_VIEWS();
            break;
        }
        case 52:    /* OP_GEN */
        case 59: {  /* OP_GEN_F */
            SYNC(i);
            PyObject *pair = PyTuple_GET_ITEM(u->gh, (Py_ssize_t)ad);
            BEFORE_CALL();
            PyObject *r_ = PyObject_CallFunction(
                PyTuple_GET_ITEM(pair, 0), "OOK", u->core,
                PyTuple_GET_ITEM(pair, 1), (unsigned long long)COL(F_PCA, i));
            if (r_ == NULL)
                goto error;
            if (op == 59) {
                result = r_;    /* the error path drops it */
                CHECK(add_attr(u->stats, s_instructions, 1));
                CHECK(add_attr(u->stats, s_cycles, u->CPI));
                if (ch)
                    CHECK(add_attr(u->dcache, s_hits, ch));
                if (dh) {
                    CHECK(add_attr(u->dtlb, s_hits, dh));
                    CHECK(add_attr(u->mmu_stats, s_translations, dh));
                }
                ch = dh = 0;
                CHECK(lf(u));
                if (result == Py_None) {
                    Py_SETREF(result, PyLong_FromUnsignedLongLong(xv));
                    if (result == NULL)
                        goto error;
                }
                goto out;
            }
            Py_DECREF(r_);
            AFTER_CALL();
            if (u->dside) {
                CHECK(um = attr_true(u->mmu, s_user_mode));
                um = !um;
            }
            RESET_VIEWS();
            if (babort)
                EXIT(i, 1, 0, xv);
            break;
        }
        case 53: {  /* OP_LD_EAGER (no D-side fast path) */
            SYNC(i);
            BEFORE_CALL();
            PyObject *r_ = PyObject_CallFunction(
                u->load, "OKiK", u->core, (unsigned long long)(R[rb] + imv),
                (int)rc, (unsigned long long)xv);
            if (r_ == NULL)
                goto error;
            uint64_t v = PyLong_AsUnsignedLongLong(r_);
            Py_DECREF(r_);
            if (v == M64 && PyErr_Occurred())
                goto error;
            AFTER_CALL();
            if (ad)
                SET(ad, v);
            break;
        }
        case 54: {  /* OP_ST_EAGER */
            SYNC(i);
            BEFORE_CALL();
            PyObject *r_ = PyObject_CallFunction(
                u->store, "OKiK", u->core, (unsigned long long)(R[rb] + imv),
                (int)ad, (unsigned long long)R[rc]);
            if (r_ == NULL)
                goto error;
            Py_DECREF(r_);
            AFTER_CALL();
            if (babort)
                EXIT(i, 1, 0, xv);
            break;
        }
        case 55:    /* OP_RET */
            EXIT(i, 0, 0, xv);
        case 56: {  /* OP_BR_F: A = condition code */
            uint64_t x_ = R[rb], y_ = R[rc];
            int c_;
            switch (ad) {
            case 0: c_ = x_ == y_; break;
            case 1: c_ = x_ != y_; break;
            case 2: c_ = (int64_t)x_ < (int64_t)y_; break;
            case 3: c_ = (int64_t)x_ >= (int64_t)y_; break;
            case 4: c_ = x_ < y_; break;
            default: c_ = x_ >= y_; break;
            }
            EXIT(i, 1, c_ ? u->TBP : 0, c_ ? imv : xv);
        }
        case 57:    /* OP_JAL_F */
            if (ad)
                SET(ad, xv);
            EXIT(i, 1, u->JP, imv);
        case 58: {  /* OP_JALR_F */
            uint64_t t = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFEULL;
            if (ad)
                SET(ad, xv);
            EXIT(i, 1, u->JP, t);
        }
        default:
            PyErr_Format(PyExc_SystemError, "flat core: bad opcode %llu",
                         (unsigned long long)op);
            goto error;
        }
        i++;
    }

done:
    if (regs_store(regs, R, &dirty) < 0)
        goto error;
    result = PyLong_FromUnsignedLongLong(next);
    goto out;

error: {
    /* Counters were synced at the raising site (which stamped ``ip``).
       Drain the deferred hits and any banked iterations, replay the LRU
       lists and the warm I-side permutation, store the registers back,
       and let the exception propagate. */
    PyObject *et, *ev, *etb;
    Py_CLEAR(result);
    PyErr_Fetch(&et, &ev, &etb);
    if ((ti && fl(u, ti, tcy, tb2, tmd, tic) < 0)
            || (ch && add_attr(u->dcache, s_hits, ch) < 0)
            || (dh && (add_attr(u->dtlb, s_hits, dh) < 0
                       || add_attr(u->mmu_stats, s_translations, dh) < 0))
            || lf(u) < 0
            || (warm && irp(u, (Py_ssize_t)ip) < 0)
            || regs_store(regs, R, &dirty) < 0)
        PyErr_Clear();
    PyErr_Restore(et, ev, etb);
    result = NULL;
    }

out:
    Py_DECREF(regs);
    return result;
}

/* -- the Unit type ------------------------------------------------------ */

static PyObject *
unit_vectorcall(PyObject *self, PyObject *const *args, size_t nargsf,
                PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "unit takes one budget argument");
        return NULL;
    }
    int64_t b = PyLong_AsLongLong(args[0]);
    if (b == -1 && PyErr_Occurred())
        return NULL;
    Unit *u = (Unit *)self;
    PyObject *core;
#if PY_VERSION_HEX >= 0x030D0000
    if (PyWeakref_GetRef(u->wcore, &core) < 0)
        return NULL;
#else
    core = PyWeakref_GetObject(u->wcore);
    if (core == NULL)
        return NULL;
    core = core == Py_None ? NULL : Py_NewRef(core);
#endif
    if (core == NULL) {
        PyErr_SetString(PyExc_ReferenceError, "the unit's core is gone");
        return NULL;
    }
    /* A callout may run another unit, or this one again: restore the
       outer run's core on the way out. */
    PyObject *outer = u->core;
    u->core = core;
    PyObject *next = run(u, b);
    u->core = outer;
    Py_DECREF(core);
    return next;
}

static void
unit_clear_sites(Unit *u)
{
    if (u->sc == NULL)
        return;
    for (Py_ssize_t i = 0; i < u->nsite; i++)
        Py_CLEAR(u->sc[i].fb);
}

#define UNIT_OBJECTS(X) X(wcore) X(packed) X(gh) X(irt) X(ilines) X(mmu) \
    X(stats) X(load) X(store) X(icache) X(isets) X(dcache) X(dsets) \
    X(dtlb) X(tent) X(mmu_stats) X(jload) X(jstore) X(memory) X(wmemo) \
    X(mmio) X(fpages) X(cframes)

static int
unit_traverse(Unit *u, visitproc visit, void *arg)
{
#define VISIT(f) Py_VISIT(u->f);
    UNIT_OBJECTS(VISIT)
#undef VISIT
    return 0;
}

static int
unit_clear(Unit *u)
{
#define CLEAR(f) Py_CLEAR(u->f);
    UNIT_OBJECTS(CLEAR)
#undef CLEAR
    unit_clear_sites(u);
    return 0;
}

static void
unit_dealloc(Unit *u)
{
    PyObject_GC_UnTrack(u);
    if (u->weakrefs != NULL)
        PyObject_ClearWeakRefs((PyObject *)u);
    unit_clear(u);
    PyMem_Free(u->sc);
    PyMem_Free(u->dl.a);
    PyMem_Free(u->cl.a);
    PyMem_Free(u->il.a);
    PyMem_Free(u->scratch.a);
    Py_TYPE(u)->tp_free((PyObject *)u);
}

static PyTypeObject UnitType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._flatcore_native.Unit",
    .tp_doc = "A lowered flat-core unit bound to one core: unit(budget) "
              "runs it and returns the next pc.",
    .tp_basicsize = sizeof(Unit),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_vectorcall_offset = offsetof(Unit, vectorcall),
    .tp_weaklistoffset = offsetof(Unit, weakrefs),
    .tp_call = PyVectorcall_Call,
    .tp_traverse = (traverseproc)unit_traverse,
    .tp_clear = (inquiry)unit_clear,
    .tp_dealloc = (destructor)unit_dealloc,
};

static PyObject *
lookup_attr(PyObject *obj, const char *name)
{
    return obj == Py_None ? (Py_INCREF(Py_None), Py_None)
                          : PyObject_GetAttrString(obj, name);
}

/* bind(core, packed, gh, irt, ilines, n, head_pc, loop, dside, bpt, mut,
        pqt, params, mmu, stats, load, store, icache, dcache, dtlb,
        jload, jstore, memory, walk_memo, mmio, fpages, cframes)

   ``icache`` may be None (no I-cache); ``dcache`` and ``dtlb`` through
   ``mmio`` are all None without a flat D-side; ``params`` is the core's
   TimingParams. ``load`` and ``store`` are functions of the core's
   class, not bound methods, and the unit keeps only a weak reference
   to ``core``. */
static PyObject *
bind(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *core, *packed, *gh, *irt, *ilines, *params, *mmu, *stats,
        *load, *store, *icache, *dcache, *dtlb, *jload, *jstore, *memory,
        *wmemo, *mmio, *fpages, *cframes;
    long long nt, bpt, mut, pqt;
    unsigned long long head;
    int loop, dside;
    if (!PyArg_ParseTuple(args, "OO!O!O!O!LKppLLLOOOOOOOOOOOOOOO:bind",
                          &core, &PyBytes_Type, &packed, &PyTuple_Type, &gh,
                          &PyTuple_Type, &irt, &PyTuple_Type, &ilines, &nt,
                          &head, &loop, &dside, &bpt, &mut, &pqt, &params,
                          &mmu, &stats, &load, &store, &icache, &dcache,
                          &dtlb, &jload, &jstore, &memory, &wmemo, &mmio,
                          &fpages, &cframes))
        return NULL;
    if (wmemo != Py_None
            && !(PyDict_CheckExact(wmemo) && PyDict_CheckExact(jload)
                 && PyDict_CheckExact(jstore) && PyList_CheckExact(mmio))) {
        PyErr_SetString(PyExc_TypeError, "D-side state of the wrong type");
        return NULL;
    }
    Py_ssize_t bytes = PyBytes_GET_SIZE(packed);
    if (bytes % (NF * 8)) {
        PyErr_SetString(PyExc_ValueError, "packed arrays: bad length");
        return NULL;
    }
    Unit *u = PyObject_GC_New(Unit, &UnitType);
    if (u == NULL)
        return NULL;
    u->vectorcall = unit_vectorcall;
    u->weakrefs = NULL;
    /* Fields the error path below may free. */
#define NULLIFY(f) u->f = NULL;
    UNIT_OBJECTS(NULLIFY)
#undef NULLIFY
    u->core = NULL;
    u->sc = NULL;
    memset(&u->dl, 0, sizeof(Vec));
    memset(&u->cl, 0, sizeof(Vec));
    memset(&u->il, 0, sizeof(Vec));
    memset(&u->scratch, 0, sizeof(Vec));
    u->nsite = bytes / (NF * 8);
    u->S = (const uint64_t *)PyBytes_AS_STRING(packed);
    u->NT = nt;
    u->HEAD = (uint64_t)head;
    u->dside = dside;
    u->BPT = bpt;
    u->MUT = mut;
    u->PQT = pqt;
    u->epoch = 0;
#define KEEP(f) Py_INCREF(f); u->f = f;
    KEEP(packed) KEEP(gh) KEEP(irt) KEEP(ilines) KEEP(mmu)
    KEEP(stats) KEEP(load) KEEP(store) KEEP(icache) KEEP(dcache) KEEP(dtlb)
    KEEP(jload) KEEP(jstore) KEEP(memory) KEEP(wmemo) KEEP(mmio)
    KEEP(fpages) KEEP(cframes)
#undef KEEP
    PyObject_GC_Track(u);
    if ((u->wcore = PyWeakref_NewRef(core, NULL)) == NULL)
        goto fail;

    if (attr_i64s(params, "base_cpi", &u->CPI) < 0
            || attr_i64s(params, "cache_miss_penalty", &u->PEN) < 0
            || attr_i64s(params, "taken_branch_penalty", &u->TBP) < 0
            || attr_i64s(params, "jump_penalty", &u->JP) < 0
            || attr_i64s(params, "tlb_walk_access", &u->TWA) < 0)
        goto fail;
    u->TCAP = 0;
    u->MSZ = 0;
    if (wmemo != Py_None) {
        int64_t msz;
        if (attr_i64s(dtlb, "capacity", &u->TCAP) < 0
                || attr_i64s(memory, "size", &msz) < 0)
            goto fail;
        u->MSZ = (uint64_t)msz;
    }
    u->ICH = icache != Py_None;
    u->use_dc = dcache != Py_None;
    u->WARM = loop && u->ICH;
    u->IMK = u->DMK = 0;
    u->IWAYS = u->DWAYS = 0;
    u->DSH = 0;
    if ((u->isets = lookup_attr(icache, "line_sets")) == NULL
            || (u->dsets = lookup_attr(dcache, "line_sets")) == NULL
            || (u->tent = lookup_attr(dtlb, "entry_map")) == NULL
            || (u->mmu_stats = lookup_attr(dtlb == Py_None ? Py_None : mmu,
                                           "stats")) == NULL)
        goto fail;
    if (u->ICH) {
        int64_t sets;
        if (attr_i64s(icache, "num_sets", &sets) < 0
                || attr_i64s(icache, "ways", &u->IWAYS) < 0)
            goto fail;
        if (!PyList_CheckExact(u->isets))
            goto fail_type;
        u->IMK = (uint64_t)sets - 1;
    }
    if (u->use_dc) {
        int64_t sets, shift;
        if (attr_i64s(dcache, "num_sets", &sets) < 0
                || attr_i64s(dcache, "ways", &u->DWAYS) < 0
                || attr_i64s(dcache, "line_shift", &shift) < 0)
            goto fail;
        if (!PyList_CheckExact(u->dsets))
            goto fail_type;
        u->DMK = (uint64_t)sets - 1;
        u->DSH = (int)shift;
    }
    if (u->nsite) {
        u->sc = PyMem_Calloc((size_t)u->nsite, sizeof(Site));
        if (u->sc == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        for (Py_ssize_t i = 0; i < u->nsite; i++)
            u->sc[i].gb = NONE64;
    }
    return (PyObject *)u;

fail_type:
    PyErr_SetString(PyExc_TypeError, "cache sets are not a list");
fail:
    Py_DECREF(u);
    return NULL;
}

static PyObject *
setup(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *trap, *lpf, *spf;
    if (!PyArg_ParseTuple(args, "OOO:setup", &trap, &lpf, &spf))
        return NULL;
    Py_INCREF(trap);
    Py_INCREF(lpf);
    Py_INCREF(spf);
    Py_XSETREF(Trap, trap);
    Py_XSETREF(LoadFault, lpf);
    Py_XSETREF(StoreFault, spf);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"bind", bind, METH_VARARGS,
     "Bind a packed lowered unit to a core's hot state."},
    {"setup", setup, METH_VARARGS,
     "setup(Trap, load_page_fault, store_page_fault)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_flatcore_native",
    "Native runner of the flat core (see repro.cpu.flatcore).", -1,
    methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__flatcore_native(void)
{
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_instructions, "instructions"}, {&s_cycles, "cycles"},
        {&s_branch_penalty_cycles, "branch_penalty_cycles"},
        {&s_muldiv_cycles, "muldiv_cycles"},
        {&s_dcache_misses, "dcache_misses"},
        {&s_icache_misses, "icache_misses"}, {&s_hits, "hits"},
        {&s_misses, "misses"}, {&s_translations, "translations"},
        {&s_pc, "pc"}, {&s_current_pc, "_current_pc"},
        {&s_side_exits, "region_side_exits"},
        {&s_block_abort, "_block_abort"},
        {&s_flush_blocks, "_flush_blocks"},
        {&s_user_mode, "user_mode"},
        {&s_regs, "regs"}, {&s_move_to_end, "move_to_end"},
        {&s_popitem, "popitem"}, {&s_tval, "tval"},
        {&s_read_ro, "read_ro"},
        {&s_fast_path_enabled, "fast_path_enabled"}, {&s_bare, "bare"},
        {&s_walk_memo_root, "_walk_memo_root"}, {&s_root_ppn, "root_ppn"},
        {&s_frames, "_frames"}, {&s_written_frames, "written_frames"},
        {&s_shadows, "shadows"}, {&s_walks, "walks"},
        {&s_dtlb_walk_cycles, "dtlb_walk_cycles"}, {&s_get, "get"},
        {&s_pop, "pop"}, {&s_ppn, "ppn"}, {&s_readable, "readable"},
        {&s_writable, "writable"}, {&s_user, "user"}, {&s_base, "base"},
        {&s_size, "size"},
    };
    for (size_t k = 0; k < sizeof(names) / sizeof(names[0]); k++)
        if ((*names[k].slot = PyUnicode_InternFromString(names[k].name))
                == NULL)
            return NULL;
    if (PyType_Ready(&UnitType) < 0)
        return NULL;
    return PyModule_Create(&module);
}
