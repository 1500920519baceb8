/* Compiled host kernels for NativeBGPQ's wall-clock fast path.
 *
 * Four entry points, exactly the ones the queue calls: sort_split_into
 * (the paper's SORT_SPLIT between two nodes), sort_records (the stable
 * presort of an incoming batch), and the fused whole-op arena kernels
 * insert_sorted and deletemin (one GIL round-trip per queue op).
 *
 * The NumPy reference kernels in repro/primitives are the semantic
 * source of truth; everything here is required to be *bit-identical*
 * to them (enforced by the hypothesis parity suite in
 * tests/primitives/test_kernel_parity.py).  The contract mirrors the
 * CUDA discipline the reproduction simulates: keys are int64, payload
 * rows are opaque byte strips that travel with their keys, ties
 * between two sorted runs resolve in favour of the first (`a`) run,
 * and nothing here allocates on the steady-state path (scratch buffers
 * are caller-supplied; only the bulk record sort mallocs a transient
 * C-heap temp, invisible to tracemalloc by design).
 *
 * Every call is validated once at the boundary and fails closed with a
 * ValueError: key, count, scratch and log buffers must be C-contiguous
 * 8-byte signed integers, payload buffers must hold every row their
 * shape implies, and sizes must be in range.  A bad call raises; it
 * never reaches the unchecked compute loops below.
 *
 * Every compute loop runs with the GIL released
 * (Py_BEGIN_ALLOW_THREADS), so other Python threads of the process
 * (a service's I/O, say) keep running while a kernel computes.
 *
 * Built on demand by repro/device/cbuild.py (gcc/cc -O3 -shared) and
 * loaded as a real CPython extension; absent a compiler the wrapper
 * falls back to the NumPy reference with a one-line notice.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* buffer plumbing                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_buffer view;
    int held;
} Buf;

/* get_buf flags: a read-only or writable byte buffer (payload rows,
 * which may be None when no payload moves), or an int64 buffer */
#define RO 0
#define RW PyBUF_WRITABLE
#define I64 PyBUF_FORMAT

/* int64 in native byte order: struct code 'q' or 'l' with 8-byte items */
static int
is_i64(const Py_buffer *v)
{
    const char *f = v->format;
    if (f == NULL || v->itemsize != 8)
        return 0;
    if (*f == '@' || *f == '=' || *f == (PY_LITTLE_ENDIAN ? '<' : '>'))
        f++;
    return (f[0] == 'q' || f[0] == 'l') && f[1] == '\0';
}

static int
get_buf(PyObject *obj, Buf *b, int flags)
{
    b->held = 0;
    b->view.buf = NULL;
    b->view.len = 0;
    if (obj == Py_None && !(flags & I64))
        return 0;
    if (PyObject_GetBuffer(obj, &b->view, PyBUF_C_CONTIGUOUS | flags) != 0)
        return -1;
    b->held = 1;
    if ((flags & I64) && !is_i64(&b->view)) {
        PyErr_Format(PyExc_ValueError,
                     "expected an int64 buffer, got format '%s'",
                     b->view.format ? b->view.format : "B");
        return -1;
    }
    return 0;
}

static void
release_bufs(Buf *bufs, int n)
{
    for (int i = 0; i < n; i++)
        if (bufs[i].held)
            PyBuffer_Release(&bufs[i].view);
}

/* Acquire n buffers with per-buffer flags; on failure release the ones
 * already held and leave the error set. */
static int
get_bufs(PyObject **objs, Buf *bufs, const int *flags, int n)
{
    for (int i = 0; i < n; i++) {
        if (get_buf(objs[i], &bufs[i], flags[i])) {
            release_bufs(bufs, i + 1);
            return -1;
        }
    }
    return 0;
}

/* 1 when len bytes cannot hold n rows of rb bytes (no overflow) */
static inline int
lacks(Py_ssize_t len, Py_ssize_t n, Py_ssize_t rb)
{
    return n > 0 && rb > 0 && len / n < rb;
}

#define KEYS(b) ((int64_t *)(b).view.buf)
#define BYTES(b) ((char *)(b).view.buf)

/* ------------------------------------------------------------------ */
/* core merge: stable, ties favour `a` (matches inplace.merge_into)   */
/* ------------------------------------------------------------------ */

#if defined(__AVX512F__)
#include <immintrin.h>

/* Sort one *bitonic* 8-vector of int64 ascending: the three butterfly
 * stages of a bitonic merge network (distance 4, 2, 1), each a
 * shuffle + vpminsq/vpmaxsq + mask-blend. */
static inline __m512i
bsort8(__m512i x)
{
    __m512i t, mn, mx;
    t = _mm512_shuffle_i64x2(x, x, 0x4E);
    mn = _mm512_min_epi64(x, t);
    mx = _mm512_max_epi64(x, t);
    x = _mm512_mask_mov_epi64(mn, 0xF0, mx);
    t = _mm512_shuffle_i64x2(x, x, 0xB1);
    mn = _mm512_min_epi64(x, t);
    mx = _mm512_max_epi64(x, t);
    x = _mm512_mask_mov_epi64(mn, 0xCC, mx);
    t = _mm512_permutex_epi64(x, 0xB1);
    mn = _mm512_min_epi64(x, t);
    mx = _mm512_max_epi64(x, t);
    x = _mm512_mask_mov_epi64(mn, 0xAA, mx);
    return x;
}

/* Keys-only merge via an 8-wide bitonic merge network.  Only legal
 * when no payload rides along: equal int64 values are
 * indistinguishable, so the output *values* match the stable scalar
 * merge exactly even though the network does not track provenance.
 *
 * Safety of each 8-element emission: the emitted block is the 8
 * smallest of v ∪ w, and every unloaded element is >= max(emitted) —
 * an element of the loaded prefixes can only enter the emitted block
 * if fewer than 8 loaded elements are below the next unloaded head,
 * which the reload-from-smaller-head rule makes impossible (the newly
 * loaded vector alone contributes 8 elements bounded by its run's
 * next head; the other register's elements are bounded by its own
 * run's head at load time). */
static void
merge_keys_avx512(const int64_t *a, Py_ssize_t na, const int64_t *b,
                  Py_ssize_t nb, int64_t *out)
{
    const __m512i rev = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    Py_ssize_t i = 8, j = 8, o = 0;
    __m512i v = _mm512_loadu_si512(a);
    __m512i w = _mm512_loadu_si512(b);
    for (;;) {
        w = _mm512_permutexvar_epi64(rev, w);
        __m512i mn = _mm512_min_epi64(v, w);
        __m512i mx = _mm512_max_epi64(v, w);
        _mm512_storeu_si512(out + o, bsort8(mn));
        o += 8;
        v = bsort8(mx);
        if (i + 8 <= na && j + 8 <= nb) {
            if (a[i] <= b[j]) {
                w = _mm512_loadu_si512(a + i);
                i += 8;
            } else {
                w = _mm512_loadu_si512(b + j);
                j += 8;
            }
        } else {
            break;
        }
    }
    /* v holds the 8 smallest unemitted records; finish with a scalar
     * 3-way merge of v and the two short tails */
    int64_t v8[8];
    _mm512_storeu_si512(v8, v);
    Py_ssize_t ra = na - i, rb = nb - j, p = 0, q = 0, r = 0;
    while (p < 8 || q < ra || r < rb) {
        int64_t vv = p < 8 ? v8[p] : INT64_MAX;
        int64_t va = q < ra ? a[i + q] : INT64_MAX;
        int64_t vb = r < rb ? b[j + r] : INT64_MAX;
        if (vv <= va && vv <= vb) {
            out[o++] = vv;
            p++;
        } else if (va <= vb) {
            out[o++] = va;
            q++;
        } else {
            out[o++] = vb;
            r++;
        }
    }
}
#endif /* __AVX512F__ */

static void
merge_core(const int64_t *a, Py_ssize_t na, const int64_t *b, Py_ssize_t nb,
           int64_t *out, const char *pa, const char *pb, char *op,
           Py_ssize_t rb)
{
    Py_ssize_t i = 0, j = 0, o = 0;
    if (rb == 0) {
#if defined(__AVX512F__)
        if (na >= 8 && nb >= 8) {
            merge_keys_avx512(a, na, b, nb, out);
            return;
        }
#endif
        /* branchless two-finger merge: the comparison becomes a cmov-
         * style select, sidestepping the ~50% mispredict rate random
         * keys would otherwise pay per element */
        while (i < na && j < nb) {
            int64_t va = a[i], vb = b[j];
            int take_a = va <= vb;
            out[o++] = take_a ? va : vb;
            i += take_a;
            j += !take_a;
        }
        if (i < na)
            memcpy(out + o, a + i, (size_t)(na - i) * 8);
        else if (j < nb)
            memcpy(out + o, b + j, (size_t)(nb - j) * 8);
        return;
    }
    if (rb == 8) { /* common case: one int64/float64 payload column */
        const int64_t *qa = (const int64_t *)pa;
        const int64_t *qb = (const int64_t *)pb;
        int64_t *qo = (int64_t *)op;
        while (i < na && j < nb) {
            int64_t va = a[i], vb = b[j];
            int take_a = va <= vb;
            out[o] = take_a ? va : vb;
            qo[o] = take_a ? qa[i] : qb[j];
            i += take_a;
            j += !take_a;
            o++;
        }
        if (i < na) {
            memcpy(out + o, a + i, (size_t)(na - i) * 8);
            memcpy(qo + o, qa + i, (size_t)(na - i) * 8);
        } else if (j < nb) {
            memcpy(out + o, b + j, (size_t)(nb - j) * 8);
            memcpy(qo + o, qb + j, (size_t)(nb - j) * 8);
        }
        return;
    }
    while (i < na && j < nb) {
        if (a[i] <= b[j]) {
            out[o] = a[i];
            memcpy(op + o * rb, pa + i * rb, (size_t)rb);
            i++;
        } else {
            out[o] = b[j];
            memcpy(op + o * rb, pb + j * rb, (size_t)rb);
            j++;
        }
        o++;
    }
    if (i < na) {
        memcpy(out + o, a + i, (size_t)(na - i) * 8);
        memcpy(op + o * rb, pa + i * rb, (size_t)((na - i) * rb));
    } else if (j < nb) {
        memcpy(out + o, b + j, (size_t)(nb - j) * 8);
        memcpy(op + o * rb, pb + j * rb, (size_t)((nb - j) * rb));
    }
}

/* merge a,b through scratch, then split: ma smallest -> x, rest -> y.
 * Staging through scratch is what makes destination/input aliasing
 * safe, exactly like primitives.inplace.sort_split_into. */
static void
sort_split_core(const int64_t *a, Py_ssize_t na, const int64_t *b,
                Py_ssize_t nb, Py_ssize_t ma, int64_t *x, int64_t *y,
                int64_t *sk, const char *pa, const char *pb, char *xp,
                char *yp, char *sp, Py_ssize_t rb)
{
    Py_ssize_t total = na + nb;
    Py_ssize_t mb = total - ma;
    merge_core(a, na, b, nb, sk, pa, pb, sp, rb);
    memcpy(x, sk, (size_t)ma * 8);
    memcpy(y, sk + ma, (size_t)mb * 8);
    if (rb) {
        memcpy(xp, sp, (size_t)(ma * rb));
        memcpy(yp, sp + ma * rb, (size_t)(mb * rb));
    }
}

/* ------------------------------------------------------------------ */
/* stable bottom-up mergesort of (key, payload-row) records            */
/* ------------------------------------------------------------------ */

static int
sort_records_core(int64_t *keys, char *pay, Py_ssize_t n, Py_ssize_t rb)
{
    if (n < 2)
        return 0;
    int64_t *tk = (int64_t *)malloc((size_t)n * 8);
    char *tp = NULL;
    if (tk == NULL)
        return -1;
    if (rb) {
        tp = (char *)malloc((size_t)(n * rb));
        if (tp == NULL) {
            free(tk);
            return -1;
        }
    }
    int64_t *src_k = keys, *dst_k = tk;
    char *src_p = pay, *dst_p = tp;
    for (Py_ssize_t width = 1; width < n; width <<= 1) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = lo + width < n ? lo + width : n;
            Py_ssize_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            merge_core(src_k + lo, mid - lo, src_k + mid, hi - mid,
                       dst_k + lo,
                       rb ? src_p + lo * rb : NULL,
                       rb ? src_p + mid * rb : NULL,
                       rb ? dst_p + lo * rb : NULL, rb);
        }
        int64_t *swk = src_k; src_k = dst_k; dst_k = swk;
        char *swp = src_p; src_p = dst_p; dst_p = swp;
    }
    if (src_k != keys) {
        memcpy(keys, src_k, (size_t)n * 8);
        if (rb)
            memcpy(pay, src_p, (size_t)(n * rb));
    }
    free(tk);
    free(tp);
    return 0;
}

/* ------------------------------------------------------------------ */
/* python-visible kernels                                              */
/* ------------------------------------------------------------------ */

/* sort_split_into(a, b, ma, x_k, y_k, sk, pa, pb, x_p, y_p, sp, rb) */
static PyObject *
py_sort_split_into(PyObject *self, PyObject *args)
{
    PyObject *o[10];
    Py_ssize_t ma, rb;
    if (!PyArg_ParseTuple(args, "OOnOOOOOOOOn", &o[0], &o[1], &ma, &o[2],
                          &o[3], &o[4], &o[5], &o[6], &o[7], &o[8], &o[9],
                          &rb))
        return NULL;
    static const int flags[10] = {RO | I64, RO | I64, RW | I64, RW | I64,
                                  RW | I64, RO, RO, RW, RW, RW};
    Buf bufs[10];
    if (get_bufs(o, bufs, flags, 10))
        return NULL;
    Py_ssize_t na = bufs[0].view.len / 8, nb = bufs[1].view.len / 8;
    Py_ssize_t total = na + nb;
    Py_ssize_t mb = total - ma;
    if (rb < 0 || ma < 0 || ma > total || bufs[4].view.len < total * 8 ||
        bufs[2].view.len < ma * 8 || bufs[3].view.len < mb * 8 ||
        lacks(bufs[5].view.len, na, rb) || lacks(bufs[6].view.len, nb, rb) ||
        lacks(bufs[7].view.len, ma, rb) || lacks(bufs[8].view.len, mb, rb) ||
        lacks(bufs[9].view.len, total, rb)) {
        release_bufs(bufs, 10);
        PyErr_SetString(PyExc_ValueError, "sort_split_into: bad split/scratch");
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    sort_split_core(KEYS(bufs[0]), na, KEYS(bufs[1]), nb, ma, KEYS(bufs[2]),
                    KEYS(bufs[3]), KEYS(bufs[4]), BYTES(bufs[5]),
                    BYTES(bufs[6]), BYTES(bufs[7]), BYTES(bufs[8]),
                    BYTES(bufs[9]), rb);
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 10);
    Py_RETURN_NONE;
}

/* sort_records(keys, pay, rb) — in-place stable sort */
static PyObject *
py_sort_records(PyObject *self, PyObject *args)
{
    PyObject *o[2];
    Py_ssize_t rb;
    if (!PyArg_ParseTuple(args, "OOn", &o[0], &o[1], &rb))
        return NULL;
    static const int flags[2] = {RW | I64, RW};
    Buf bufs[2];
    if (get_bufs(o, bufs, flags, 2))
        return NULL;
    Py_ssize_t n = bufs[0].view.len / 8;
    if (rb < 0 || lacks(bufs[1].view.len, n, rb)) {
        release_bufs(bufs, 2);
        PyErr_SetString(PyExc_ValueError, "sort_records: bad payload");
        return NULL;
    }
    int rc;
    Py_BEGIN_ALLOW_THREADS
    rc = sort_records_core(KEYS(bufs[0]), BYTES(bufs[1]), n, rb);
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 2);
    if (rc != 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* fused heapify kernels over the NodeArena layout                     */
/* ------------------------------------------------------------------ */

static inline int
level_of(Py_ssize_t i)
{
    int l = -1;
    while (i) { i >>= 1; l++; }
    return l;
}

static inline Py_ssize_t
path_next_c(Py_ssize_t cur, Py_ssize_t tar)
{
    return tar >> (level_of(tar) - level_of(cur) - 1);
}

/* split row i (merged first) against row j: row `small` keeps the ma
 * smallest, row `large` the rest.  Mirrors NativeBGPQ._split_rows,
 * including the identity fast paths (state untouched when the rows
 * already hold the requested split). */
static void
split_rows_c(int64_t *keys, char *pay, int64_t *counts, Py_ssize_t k,
             Py_ssize_t rb, int64_t *sk, char *sp, Py_ssize_t i,
             Py_ssize_t j, Py_ssize_t small, Py_ssize_t large, Py_ssize_t ma)
{
    Py_ssize_t ni = counts[i], nj = counts[j];
    int64_t *ri = keys + i * k, *rj = keys + j * k;
    if (ni && nj) {
        if (small == i && ma == ni && ri[ni - 1] <= rj[0])
            return;
        if (small == j && ma == nj && rj[nj - 1] < ri[0])
            return;
    }
    sort_split_core(ri, ni, rj, nj, ma, keys + small * k, keys + large * k,
                    sk, rb ? pay + i * k * rb : NULL,
                    rb ? pay + j * k * rb : NULL,
                    rb ? pay + small * k * rb : NULL,
                    rb ? pay + large * k * rb : NULL, sp, rb);
    counts[small] = ma;
    counts[large] = ni + nj - ma;
}

/* split row i against the travelling items batch (n live items): the
 * row keeps the ma smallest, items get the rest.  Mirrors
 * NativeBGPQ._split_row_items. */
static void
split_row_items_c(int64_t *keys, char *pay, int64_t *counts, Py_ssize_t k,
                  Py_ssize_t rb, int64_t *sk, char *sp, int64_t *ik,
                  char *ip, Py_ssize_t i, Py_ssize_t n, Py_ssize_t ma)
{
    Py_ssize_t ni = counts[i];
    int64_t *ri = keys + i * k;
    if (ni && n && ma == ni && ri[ni - 1] <= ik[0])
        return;
    sort_split_core(ri, ni, ik, n, ma, ri, ik, sk,
                    rb ? pay + i * k * rb : NULL, ip,
                    rb ? pay + i * k * rb : NULL, ip, sp, rb);
    counts[i] = ma;
}

/* Extract up to `remained` records from the root row into out/out_p,
 * shifting the row left.  Appends a tag-1 (read charge) log triple.
 * Returns the take. */
static Py_ssize_t
extract_root_c(int64_t *keys, char *pay, int64_t *counts, Py_ssize_t k,
               Py_ssize_t rb, Py_ssize_t remained, int64_t *out_k,
               char *out_p, int64_t *log, Py_ssize_t *nlog)
{
    Py_ssize_t take = remained < counts[1] ? remained : counts[1];
    memcpy(out_k, keys + k, (size_t)take * 8);
    if (rb)
        memcpy(out_p, pay + k * rb, (size_t)(take * rb));
    Py_ssize_t m = counts[1] - take;
    memmove(keys + k, keys + k + take, (size_t)m * 8);
    if (rb)
        memmove(pay + k * rb, pay + (k + take) * rb, (size_t)(m * rb));
    counts[1] = m;
    log[3 * *nlog] = 1;
    log[3 * *nlog + 1] = take;
    log[3 * *nlog + 2] = 0;
    (*nlog)++;
    return take;
}

/* buffers of both fused kernels: keys, pay, counts, batch keys, batch
 * pay, scratch, log (the batch is the incoming items or the output) */
static const int ARENA_FLAGS[7] = {RW | I64, RW, RW | I64, RW | I64, RW,
                                   RW | I64, RW | I64};

/* insert_sorted(keys, pay, counts, items_k, items_p, sk, k, rb, n,
 *               heap_size, log) -> (new_heap_size, nlog)
 * The whole arena insert of one sorted batch of n <= k records staged
 * in items_k/items_p: root split, partial-buffer fold or detach, and
 * (on detach) the full bottom-up heapify — one GIL round-trip total.
 * Mirrors NativeBGPQ._insert_sorted_arena for heap_size >= 1; callers
 * handle the empty heap and pre-grow the arena to heap_size + 2 rows.
 * log rows are (tag, p1, p2): tag 0 = node sort-split (na, nb), tag 2
 * = buffer fold (nbuf, n) charged at host sort_split rate. */
static PyObject *
py_insert_sorted(PyObject *self, PyObject *args)
{
    PyObject *o[7];
    Py_ssize_t k, rb, n, heap_size;
    if (!PyArg_ParseTuple(args, "OOOOOOnnnnO", &o[0], &o[1], &o[2], &o[3],
                          &o[4], &o[5], &k, &rb, &n, &heap_size, &o[6]))
        return NULL;
    Buf bufs[7];
    if (get_bufs(o, bufs, ARENA_FLAGS, 7))
        return NULL;
    Py_ssize_t rows = k >= 1 ? bufs[0].view.len / 8 / k : 0;
    Py_ssize_t max_log = bufs[6].view.len / 24;
    if (k < 1 || rb < 0 || n < 1 || n > k || heap_size < 1 ||
        heap_size >= rows - 1 || lacks(bufs[1].view.len, rows * k, rb) ||
        bufs[2].view.len / 8 < rows || bufs[3].view.len / 8 < k ||
        lacks(bufs[4].view.len, k, rb) ||
        bufs[5].view.len < 2 * k * (8 + rb) ||
        max_log < (Py_ssize_t)level_of(heap_size + 1) + 3) {
        release_bufs(bufs, 7);
        PyErr_SetString(PyExc_ValueError, "insert_sorted: bad shape");
        return NULL;
    }
    int64_t *keys = KEYS(bufs[0]);
    char *pay = BYTES(bufs[1]);
    int64_t *counts = KEYS(bufs[2]);
    int64_t *ik = KEYS(bufs[3]);
    char *ip = BYTES(bufs[4]);
    int64_t *sk = KEYS(bufs[5]);
    char *sp = (char *)(sk + 2 * k); /* scratch: [2k keys][2k pay rows] */
    int64_t *log = KEYS(bufs[6]);
    Py_ssize_t nlog = 0, new_hs = heap_size;
    Py_BEGIN_ALLOW_THREADS
    {
        Py_ssize_t nroot = counts[1];
        if (nroot) {
            /* root keeps its nroot smallest of root ∪ items */
            log[0] = 0; log[1] = nroot; log[2] = n;
            nlog = 1;
            split_row_items_c(keys, pay, counts, k, rb, sk, sp, ik, ip, 1,
                              n, nroot);
        }
        Py_ssize_t nbuf = counts[0];
        if (nbuf + n < k) {
            /* fold the batch into the partial buffer (buffer keys first) */
            log[3 * nlog] = 2;
            log[3 * nlog + 1] = nbuf;
            log[3 * nlog + 2] = n;
            nlog++;
            sort_split_core(keys, nbuf, ik, n, nbuf + n, keys, ik, sk,
                            rb ? pay : NULL, ip, rb ? pay : NULL, ip, sp,
                            rb);
            counts[0] = nbuf + n;
        } else {
            /* detach a full batch (items keys first on ties), leave the
             * rest in the buffer, heapify the batch down to a new slot */
            log[3 * nlog] = 0;
            log[3 * nlog + 1] = n;
            log[3 * nlog + 2] = nbuf;
            nlog++;
            sort_split_core(ik, n, keys, nbuf, k, ik, keys, sk, ip,
                            rb ? pay : NULL, ip, rb ? pay : NULL, sp, rb);
            counts[0] = n + nbuf - k;
            Py_ssize_t tar = heap_size + 1;
            Py_ssize_t cur = (tar != 1) ? path_next_c(1, tar) : 1;
            while (cur != tar) {
                Py_ssize_t ni = counts[cur];
                log[3 * nlog] = 0;
                log[3 * nlog + 1] = ni;
                log[3 * nlog + 2] = k;
                nlog++;
                split_row_items_c(keys, pay, counts, k, rb, sk, sp, ik, ip,
                                  cur, k, ni);
                cur = path_next_c(cur, tar);
            }
            memcpy(keys + tar * k, ik, (size_t)k * 8);
            if (rb)
                memcpy(pay + tar * k * rb, ip, (size_t)(k * rb));
            counts[tar] = k;
            new_hs = tar;
        }
    }
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 7);
    return Py_BuildValue("nn", new_hs, nlog);
}

/* deletemin(keys, pay, counts, heap_size, k, rb, count, out_k, out_p,
 *           scratch, log) -> (total, new_heap_size, nlog)
 * The whole arena deletemin general path (heap_size >= 2 and
 * count >= counts[1]; callers keep the cheap early-outs in Python):
 * root copy-out, last-node promotion, partial-buffer fold, and the
 * full top-down heapify with residual extraction — one GIL round-trip.
 * Mirrors NativeBGPQ._deletemin_arena.  log rows are (tag, p1, p2):
 * tag 0 = node sort-split (na, nb), tag 1 = root extraction read
 * (take, 0), tag 3 = last-node move read+write (k, k). */
static PyObject *
py_deletemin(PyObject *self, PyObject *args)
{
    PyObject *o[7];
    Py_ssize_t heap_size, k, rb, count;
    if (!PyArg_ParseTuple(args, "OOOnnnnOOOO", &o[0], &o[1], &o[2],
                          &heap_size, &k, &rb, &count, &o[3], &o[4],
                          &o[5], &o[6]))
        return NULL;
    Buf bufs[7];
    if (get_bufs(o, bufs, ARENA_FLAGS, 7))
        return NULL;
    Py_ssize_t rows = k >= 1 ? bufs[0].view.len / 8 / k : 0;
    /* log: (tag, p1, p2) triples; worst case: the move + buffer fold +
     * two splits per level of the descent + the final extract */
    Py_ssize_t max_log = bufs[6].view.len / 24;
    if (k < 1 || rb < 0 || heap_size < 2 || heap_size >= rows ||
        lacks(bufs[1].view.len, rows * k, rb) ||
        bufs[2].view.len / 8 < rows || count < KEYS(bufs[2])[1] ||
        bufs[3].view.len / 8 < count || lacks(bufs[4].view.len, count, rb) ||
        bufs[5].view.len < 2 * k * (8 + rb) ||
        max_log < 3 * ((Py_ssize_t)level_of(heap_size) + 2)) {
        release_bufs(bufs, 7);
        PyErr_SetString(PyExc_ValueError, "deletemin: bad shape");
        return NULL;
    }
    int64_t *keys = KEYS(bufs[0]);
    char *pay = BYTES(bufs[1]);
    int64_t *counts = KEYS(bufs[2]);
    int64_t *out_k = KEYS(bufs[3]);
    char *out_p = BYTES(bufs[4]);
    int64_t *sk = KEYS(bufs[5]);
    char *sp = (char *)(sk + 2 * k); /* scratch: [2k keys][2k pay rows] */
    int64_t *log = KEYS(bufs[6]);
    Py_ssize_t nlog = 0, total = 0;
    Py_BEGIN_ALLOW_THREADS
    {
        Py_ssize_t nroot = counts[1];
        Py_ssize_t remained = count - nroot;
        memcpy(out_k, keys + k, (size_t)nroot * 8);
        if (rb)
            memcpy(out_p, pay + k * rb, (size_t)(nroot * rb));
        /* move the last node into the root, fold the buffer in */
        Py_ssize_t last = heap_size;
        Py_ssize_t nlast = counts[last];
        memcpy(keys + k, keys + last * k, (size_t)nlast * 8);
        if (rb)
            memcpy(pay + k * rb, pay + last * k * rb, (size_t)(nlast * rb));
        counts[1] = nlast;
        counts[last] = 0;
        heap_size--;
        log[0] = 3; log[1] = k; log[2] = k;
        nlog = 1;
        if (counts[0]) {
            log[3] = 0; log[4] = nlast; log[5] = counts[0];
            nlog = 2;
            split_rows_c(keys, pay, counts, k, rb, sk, sp, 1, 0, 1, 0,
                         nlast);
        }
        int64_t *ex_k = out_k + nroot;
        char *ex_p = out_p + nroot * rb;
        Py_ssize_t taken = -1;
        Py_ssize_t cur = 1;
        for (;;) {
            Py_ssize_t ncur = counts[cur];
            Py_ssize_t l = 2 * cur, r = 2 * cur + 1;
            int has_l = l <= heap_size && counts[l];
            int has_r = r <= heap_size && counts[r];
            int64_t cmin = 0;
            if (has_l && has_r)
                cmin = keys[l * k] <= keys[r * k] ? keys[l * k]
                                                  : keys[r * k];
            else if (has_l)
                cmin = keys[l * k];
            else if (has_r)
                cmin = keys[r * k];
            if ((!has_l && !has_r) || ncur == 0 ||
                keys[cur * k + ncur - 1] <= cmin) {
                if (taken < 0)
                    taken = extract_root_c(keys, pay, counts, k, rb,
                                           remained, ex_k, ex_p, log,
                                           &nlog);
                break;
            }
            Py_ssize_t y;
            if (has_l && has_r) {
                Py_ssize_t nl = counts[l], nr = counts[r];
                Py_ssize_t x;
                if (keys[l * k + nl - 1] > keys[r * k + nr - 1]) {
                    x = l; y = r;
                } else {
                    x = r; y = l;
                }
                Py_ssize_t ma = nl + nr < k ? nl + nr : k;
                log[3 * nlog] = 0;
                log[3 * nlog + 1] = nl;
                log[3 * nlog + 2] = nr;
                nlog++;
                split_rows_c(keys, pay, counts, k, rb, sk, sp, l, r, y, x,
                             ma);
            } else {
                y = has_l ? l : r;
            }
            log[3 * nlog] = 0;
            log[3 * nlog + 1] = ncur;
            log[3 * nlog + 2] = counts[y];
            nlog++;
            split_rows_c(keys, pay, counts, k, rb, sk, sp, cur, y, cur, y,
                         ncur);
            if (cur == 1 && taken < 0)
                taken = extract_root_c(keys, pay, counts, k, rb, remained,
                                       ex_k, ex_p, log, &nlog);
            cur = y;
        }
        total = nroot + taken;
    }
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 7);
    return Py_BuildValue("nnn", total, heap_size, nlog);
}

static PyMethodDef CkernMethods[] = {
    {"sort_split_into", py_sort_split_into, METH_VARARGS,
     "fused SORT_SPLIT through caller scratch"},
    {"sort_records", py_sort_records, METH_VARARGS,
     "in-place stable record sort"},
    {"insert_sorted", py_insert_sorted, METH_VARARGS,
     "fused whole-batch arena insert (split, fold/detach, heapify)"},
    {"deletemin", py_deletemin, METH_VARARGS,
     "fused whole-batch arena deletemin (general path)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernmodule = {
    PyModuleDef_HEAD_INIT, "_repro_ckern",
    "Compiled BGPQ host kernels (bit-identical to the NumPy reference).",
    -1, CkernMethods,
};

PyMODINIT_FUNC
PyInit__repro_ckern(void)
{
    return PyModule_Create(&ckernmodule);
}
