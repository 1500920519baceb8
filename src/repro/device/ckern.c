/* Compiled host kernels for NativeBGPQ's and the knapsack solver's
 * wall-clock fast path.
 *
 * Five entry points.  Three are the ones the queue calls:
 * sort_records (the stable presort of an incoming batch) and the fused
 * whole-op arena kernels: insert_sorted feeds a whole presorted bulk
 * insert to the heap k records at a time, deletemin runs one
 * deletemin; each is one GIL round-trip, and every SORT_SPLIT between
 * two nodes runs inside them (sort_split_core).  The fourth, expand,
 * is the knapsack branch-and-bound expansion of one node batch (§6.5's
 * per-block expand-and-bound kernel).  The fifth, knapsack_step, runs
 * one whole solver iteration on the arena — deletemin, stale-bound
 * cut, expand, sort and insert — the way one thread block retrieves a
 * batch, expands it and inserts the children without a trip back to
 * the host.
 *
 * The NumPy reference kernels in repro/primitives and the NumPy body
 * of the knapsack _Expansion are the semantic source of truth;
 * everything here is required to be *bit-identical* to them (enforced
 * by the hypothesis parity suites in
 * tests/primitives/test_kernel_parity.py, tests/core/test_native_backends.py
 * and tests/apps/test_knapsack_expand_parity.py).  The contract mirrors the
 * CUDA discipline the reproduction simulates: keys are int64, payload
 * rows are opaque byte strips that travel with their keys, ties
 * between two sorted runs resolve in favour of the first (`a`) run,
 * and nothing here allocates on the steady-state path (scratch buffers
 * are caller-supplied; only the sort_records entry point mallocs a
 * transient C-heap temp, invisible to tracemalloc by design).
 *
 * Merges that carry payload rows run one loop, merge_range, which adapts
 * to runs: once one side's next 8 records all precede the other side's
 * head, it gallops to the end of that run and moves it as one block.  A
 * payload SORT_SPLIT writes each record once, straight into its row (see
 * sort_split_core), and sort_records is a natural-run mergesort (a
 * sorted batch costs one scan).  The 8-record single-step loops are
 * pinned rolled with `GCC unroll 1` (see merge_range).  Keys-only merges
 * keep their AVX-512 network and merge through scratch.
 *
 * Every call is validated once at the boundary and fails closed with a
 * ValueError: key, count, scratch and log buffers must be C-contiguous
 * 8-byte signed integers, payload buffers must hold every row their
 * shape implies, and sizes must be in range.  A bad call raises; it
 * never reaches the unchecked compute loops below.  The one check that
 * depends on buffer contents, expand's node fields (level at most
 * n_items, weight at most capacity), runs in its GIL-free loop, which
 * stops at the first bad node and raises once the GIL is back (in
 * knapsack_step, after its deletemin has run).
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
    if (PyObject_GetBuffer(obj, &b->view, PyBUF_C_CONTIGUOUS | flags) != 0) {
        /* a strided or read-only view is a bad shape like any other */
        if (PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError,
                            (flags & RW) ? "expected a C-contiguous writable "
                                           "buffer"
                                         : "expected a C-contiguous buffer");
        }
        return -1;
    }
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

/* Length of the prefix of sorted x[0..n) whose keys are <= v (strict
 * == 0) or < v (strict == 1): an exponential probe brackets the end,
 * a binary search finds it, so a run of length r costs O(log r). */
static inline Py_ssize_t
gallop(const int64_t *x, Py_ssize_t n, int64_t v, int strict)
{
    Py_ssize_t lo = 0, hi = 1; /* x[0..lo) all pass */
    while (hi <= n && (strict ? x[hi - 1] < v : x[hi - 1] <= v)) {
        lo = hi;
        hi <<= 1;
    }
    hi = hi - 1 < n ? hi - 1 : n; /* x[hi] fails, or hi == n */
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (strict ? x[mid] < v : x[mid] <= v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Move n records (keys, then rb-byte rows) from s/sp to d/dp.  The
 * ranges may overlap with d at or before s (a merge writing into the
 * storage of the input it reads); a run already in place is not moved. */
static inline void
move_run(int64_t *d, char *dp, const int64_t *s, const char *sp,
         Py_ssize_t n, Py_ssize_t rb)
{
    if (d != s) {
        memmove(d, s, (size_t)n * 8);
        memmove(dp, sp, (size_t)(n * rb));
    }
}

/* Emit the next m records of the stable merge of a[0..na) and b[0..nb)
 * (ties to `a`, rb > 0 payload bytes a row) from read positions *pi,
 * *pj into out/op, advancing both.  out may be the storage of a or b,
 * provided no write lands past that input's read position.  Run-
 * adaptive: while both sides hold 8 or more records, a side whose next
 * 8 records all precede the other side's head gallops to the end of
 * that run and moves it as one block (a's run ends at its first key >
 * b[j]; b's at its first key >= a[i], since ties go to `a`); otherwise
 * 8 single steps follow.  Heap SORT_SPLITs and the presort of an
 * expansion batch merge a few long runs, which this moves in blocks;
 * randomly interleaved input pays one extra compare per 8 records.
 * The 8-step loops carry `GCC unroll 1`.  Kept rolled, gcc 12 -O3
 * compiles the rb == 8 step to a cmov for the key and a predicted
 * branch for the row, with i or j bumped inside each arm, so the next
 * step's loads need not wait for this step's compare.  Fully unrolled
 * (its default here), the bumps become setcc/add data dependences and
 * every step waits on the last: 2.2x slower on random 1024+1024
 * records, as slow as a branch-free mask select of the row. */
static void
merge_range(const int64_t *a, Py_ssize_t na, const int64_t *b, Py_ssize_t nb,
            const char *pa, const char *pb, Py_ssize_t rb, Py_ssize_t *pi,
            Py_ssize_t *pj, Py_ssize_t m, int64_t *out, char *op)
{
    Py_ssize_t i = *pi, j = *pj, o = 0, n;
    const int64_t *qa = (const int64_t *)pa, *qb = (const int64_t *)pb;
    int64_t *qo = (int64_t *)op; /* rows as int64 when rb == 8 */
    while (m - o >= 8 && na - i >= 8 && nb - j >= 8) {
        if (a[i + 7] <= b[j]) {
            n = 8 + gallop(a + i + 8, na - i - 8, b[j], 0);
            n = n < m - o ? n : m - o;
            move_run(out + o, op + o * rb, a + i, pa + i * rb, n, rb);
            i += n;
            o += n;
        } else if (b[j + 7] < a[i]) {
            n = 8 + gallop(b + j + 8, nb - j - 8, a[i], 1);
            n = n < m - o ? n : m - o;
            move_run(out + o, op + o * rb, b + j, pb + j * rb, n, rb);
            j += n;
            o += n;
        } else if (rb == 8) { /* common case: one int64/float64 column */
#pragma GCC unroll 1
            for (int s = 0; s < 8; s++) {
                int64_t va = a[i], vb = b[j];
                int take_a = va <= vb;
                out[o] = take_a ? va : vb;
                qo[o] = take_a ? qa[i] : qb[j];
                i += take_a;
                j += !take_a;
                o++;
            }
        } else {
#pragma GCC unroll 1
            for (int s = 0; s < 8; s++) {
                int take_a = a[i] <= b[j];
                out[o] = take_a ? a[i] : b[j];
                memmove(op + o * rb, take_a ? pa + i * rb : pb + j * rb,
                        (size_t)rb);
                i += take_a;
                j += !take_a;
                o++;
            }
        }
    }
    if (rb == 8) {
        for (; o < m && i < na && j < nb; o++) {
            int64_t va = a[i], vb = b[j];
            int take_a = va <= vb;
            out[o] = take_a ? va : vb;
            qo[o] = take_a ? qa[i] : qb[j];
            i += take_a;
            j += !take_a;
        }
    }
    for (; o < m && i < na && j < nb; o++) {
        int take_a = a[i] <= b[j];
        out[o] = take_a ? a[i] : b[j];
        memmove(op + o * rb, take_a ? pa + i * rb : pb + j * rb, (size_t)rb);
        i += take_a;
        j += !take_a;
    }
    /* one side is spent: the rest of the m come from the other */
    n = m - o;
    if (i < na) {
        move_run(out + o, op + o * rb, a + i, pa + i * rb, n, rb);
        i += n;
    } else {
        move_run(out + o, op + o * rb, b + j, pb + j * rb, n, rb);
        j += n;
    }
    *pi = i;
    *pj = j;
}

/* Stable two-way merge of a and b into out, ties to `a`.  Keys-only
 * merges (rb == 0) take the AVX-512 network or a branchless scalar
 * loop; payload merges are merge_range over all na + nb records. */
static void
merge_core(const int64_t *a, Py_ssize_t na, const int64_t *b, Py_ssize_t nb,
           int64_t *out, const char *pa, const char *pb, char *op,
           Py_ssize_t rb)
{
    Py_ssize_t i = 0, j = 0, o = 0;
    if (rb) {
        merge_range(a, na, b, nb, pa, pb, rb, &i, &j, na + nb, out, op);
        return;
    }
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
}

/* SORT_SPLIT of sorted a and b: the ma smallest of their merge -> x,
 * the rest -> y, as primitives.inplace.sort_split_into.  Keys only, it
 * merges into scratch and copies both parts out.  With payload every
 * caller passes x == a, y == b, ma >= na or x == b, y == a, ma >= nb:
 * the input whose row takes the small part is copied to scratch, and
 * merge_range writes each record once, straight into its row.  The
 * other input is merged in place: a write to y lands at o - ma, at or
 * before its read position (o - ma <= j when y == b, as i <= na <= ma),
 * so a tail already in place stays put. */
static void
sort_split_core(const int64_t *a, Py_ssize_t na, const int64_t *b,
                Py_ssize_t nb, Py_ssize_t ma, int64_t *x, int64_t *y,
                int64_t *sk, const char *pa, const char *pb, char *xp,
                char *yp, char *sp, Py_ssize_t rb)
{
    Py_ssize_t i = 0, j = 0;
    if (rb == 0) {
        merge_core(a, na, b, nb, sk, NULL, NULL, NULL, 0);
        memcpy(x, sk, (size_t)ma * 8);
        memcpy(y, sk + ma, (size_t)(na + nb - ma) * 8);
        return;
    }
    if (x == a) {
        move_run(sk, sp, a, pa, na, rb);
        a = sk, pa = sp;
    } else {
        move_run(sk, sp, b, pb, nb, rb);
        b = sk, pb = sp;
    }
    merge_range(a, na, b, nb, pa, pb, rb, &i, &j, ma, x, xp);
    merge_range(a, na, b, nb, pa, pb, rb, &i, &j, na + nb - ma, y, yp);
}

/* ------------------------------------------------------------------ */
/* stable natural-run mergesort of (key, payload-row) records          */
/* ------------------------------------------------------------------ */

/* Number of maximal non-descending runs of keys[0..n) (1 when sorted). */
static Py_ssize_t
count_runs(const int64_t *keys, Py_ssize_t n)
{
    Py_ssize_t r = 1;
    for (Py_ssize_t i = 1; i < n; i++)
        r += keys[i - 1] > keys[i];
    return r;
}

/* Stable sort of n records holding r > 1 runs, through a caller
 * workspace: bd holds r + 1 run bounds, tk n keys, tp n rows.  A scan
 * records where the runs start; each pass then merges adjacent pairs of
 * runs, left run first on ties, ping-ponging between the records and
 * the workspace; merging only neighbours keeps the result the stable
 * permutation argsort(kind="stable") gives.  r runs cost ceil(log2 r)
 * passes.  The run starts are kept rather than found again each pass:
 * on random keys (runs of ~2) a rescan's mispredicted run ends cost
 * more than the saved passes win. */
static void
merge_runs(int64_t *keys, char *pay, Py_ssize_t n, Py_ssize_t rb,
           int64_t *bd, int64_t *tk, char *tp)
{
    int64_t *src_k = keys, *dst_k = tk;
    char *src_p = pay, *dst_p = tp;
    Py_ssize_t r = 1;
    bd[0] = 0;
    for (Py_ssize_t i = 1; i < n; i++) {
        bd[r] = i;
        r += keys[i - 1] > keys[i];
    }
    bd[r] = n;
    while (r > 1) {
        Py_ssize_t m = 0; /* merged runs; bd[m] is overwritten behind q */
        for (Py_ssize_t q = 0; q < r; q += 2) {
            Py_ssize_t lo = (Py_ssize_t)bd[q], mid = (Py_ssize_t)bd[q + 1];
            Py_ssize_t hi = q + 2 <= r ? (Py_ssize_t)bd[q + 2] : mid;
            merge_core(src_k + lo, mid - lo, src_k + mid, hi - mid,
                       dst_k + lo,
                       rb ? src_p + lo * rb : NULL,
                       rb ? src_p + mid * rb : NULL,
                       rb ? dst_p + lo * rb : NULL, rb);
            bd[m++] = lo;
        }
        bd[m] = n;
        r = m;
        int64_t *swk = src_k; src_k = dst_k; dst_k = swk;
        char *swp = src_p; src_p = dst_p; dst_p = swp;
    }
    if (src_k != keys) {
        memcpy(keys, src_k, (size_t)n * 8);
        if (rb)
            memcpy(pay, src_p, (size_t)(n * rb));
    }
}

/* Natural-run mergesort of (key, payload-row) records: a sorted batch
 * stops after one scan, with no allocation; otherwise merge_runs works
 * in one transient malloc'd block. */
static int
sort_records_core(int64_t *keys, char *pay, Py_ssize_t n, Py_ssize_t rb)
{
    Py_ssize_t r = count_runs(keys, n);
    if (r == 1)
        return 0;
    /* one block: r + 1 run bounds, then n temp keys, then n temp rows */
    int64_t *bd = (int64_t *)malloc((size_t)(r + 1 + n) * 8 +
                                    (size_t)(n * rb));
    if (bd == NULL)
        return -1;
    merge_runs(keys, pay, n, rb, bd, bd + r + 1, (char *)(bd + r + 1 + n));
    free(bd);
    return 0;
}

/* ------------------------------------------------------------------ */
/* python-visible kernels                                              */
/* ------------------------------------------------------------------ */

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
 * smallest, row `large` the rest.  Mirrors NodeArena.split_rows,
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
 * NodeArena.split_row_items. */
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

/* append the charge-log triple (tag, p1, p2) */
static inline void
log_put(int64_t *log, Py_ssize_t *nlog, int64_t tag, int64_t p1, int64_t p2)
{
    int64_t *t = log + 3 * (*nlog)++;
    t[0] = tag;
    t[1] = p1;
    t[2] = p2;
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
    log_put(log, nlog, 1, take, 0);
    return take;
}

/* buffers of both fused kernels: keys, pay, counts, batch keys, batch
 * pay, scratch, log (the batch is the travelling items or the output),
 * then insert_sorted's sorted run: keys, pay */
static const int ARENA_FLAGS[9] = {RW | I64, RW, RW | I64, RW | I64, RW,
                                   RW | I64, RW | I64, RO | I64, RO};

/* Insert one sorted batch of n <= k records staged in ik/ip into a heap
 * of heap_size >= 1 nodes: root split, partial-buffer fold or detach,
 * and (on detach) the full bottom-up heapify.  Mirrors the NumPy path of
 * NativeBGPQ._insert_sorted; the arena must hold row heap_size + 1.
 * Appends (tag, p1, p2) log triples at log[3 * *nlog]: tag 0 = node
 * sort-split (na, nb), tag 2 = buffer fold (nbuf, n) charged at host
 * sort_split rate.  Returns the new heap size. */
static Py_ssize_t
insert_sorted_core(int64_t *keys, char *pay, int64_t *counts, Py_ssize_t k,
                   Py_ssize_t rb, int64_t *sk, char *sp, int64_t *ik,
                   char *ip, Py_ssize_t n, Py_ssize_t heap_size,
                   int64_t *log, Py_ssize_t *nlog)
{
    Py_ssize_t nroot = counts[1];
    if (nroot) {
        /* root keeps its nroot smallest of root ∪ items */
        log_put(log, nlog, 0, nroot, n);
        split_row_items_c(keys, pay, counts, k, rb, sk, sp, ik, ip, 1, n,
                          nroot);
    }
    Py_ssize_t nbuf = counts[0];
    if (nbuf + n < k) {
        /* fold the batch into the partial buffer (buffer keys first) */
        log_put(log, nlog, 2, nbuf, n);
        sort_split_core(keys, nbuf, ik, n, nbuf + n, keys, ik, sk,
                        rb ? pay : NULL, ip, rb ? pay : NULL, ip, sp, rb);
        counts[0] = nbuf + n;
        return heap_size;
    }
    /* detach a full batch (items keys first on ties), leave the rest in
     * the buffer, heapify the batch down to a new slot */
    log_put(log, nlog, 0, n, nbuf);
    sort_split_core(ik, n, keys, nbuf, k, ik, keys, sk, ip,
                    rb ? pay : NULL, ip, rb ? pay : NULL, sp, rb);
    counts[0] = n + nbuf - k;
    Py_ssize_t tar = heap_size + 1;
    Py_ssize_t cur = (tar != 1) ? path_next_c(1, tar) : 1;
    while (cur != tar) {
        Py_ssize_t ni = counts[cur];
        log_put(log, nlog, 0, ni, k);
        split_row_items_c(keys, pay, counts, k, rb, sk, sp, ik, ip, cur, k,
                          ni);
        cur = path_next_c(cur, tar);
    }
    memcpy(keys + tar * k, ik, (size_t)k * 8);
    if (rb)
        memcpy(pay + tar * k * rb, ip, (size_t)(k * rb));
    counts[tar] = k;
    return tar;
}

/* Feed a sorted run of n >= 1 records to the heap k at a time through
 * the travelling batch ik/ip.  Each batch logs a tag-4 (m, 0) batch
 * entry, then lands in row 1 if the heap is empty (as
 * NativeBGPQ._insert_sorted does) or runs insert_sorted_core.  Updates
 * *heap_size; returns the count of batches that detached a node. */
static Py_ssize_t
insert_run_core(int64_t *keys, char *pay, int64_t *counts, Py_ssize_t k,
                Py_ssize_t rb, int64_t *sk, char *sp, int64_t *ik, char *ip,
                const int64_t *run_k, const char *run_p, Py_ssize_t n,
                Py_ssize_t *heap_size, int64_t *log, Py_ssize_t *nlog)
{
    Py_ssize_t hs = *heap_size, heapifies = 0;
    for (Py_ssize_t at = 0; at < n; at += k) {
        Py_ssize_t m = n - at < k ? n - at : k;
        log_put(log, nlog, 4, m, 0);
        int64_t *dk = hs ? ik : keys + k;
        char *dp = hs ? ip : pay + k * rb;
        memcpy(dk, run_k + at, (size_t)m * 8);
        if (rb)
            memcpy(dp, run_p + at * rb, (size_t)(m * rb));
        if (hs == 0) {
            /* the first batch of an empty heap is the root */
            counts[1] = m;
            hs = 1;
            continue;
        }
        Py_ssize_t next = insert_sorted_core(keys, pay, counts, k, rb, sk, sp,
                                             ik, ip, m, hs, log, nlog);
        heapifies += next != hs;
        hs = next;
    }
    *heap_size = hs;
    return heapifies;
}

/* insert_sorted(keys, pay, counts, items_k, items_p, sk, log, run_k,
 *               run_p, k, rb, heap_size) -> (new_heap_size, nlog,
 *               heapifies)
 * The whole arena insert of a sorted run of n >= 1 records
 * (insert_run_core) — one GIL round-trip per bulk insert.  heapifies
 * counts the batches that detached a node.  The caller grows
 * the arena to more than heap_size + ceil(n / k) rows and the log to
 * ceil(n / k) * (levels + 4) triples, levels being the depth of node
 * heap_size + ceil(n / k). */
static PyObject *
py_insert_sorted(PyObject *self, PyObject *args)
{
    PyObject *o[9];
    Py_ssize_t k, rb, heap_size;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOnnn", &o[0], &o[1], &o[2], &o[3],
                          &o[4], &o[5], &o[6], &o[7], &o[8], &k, &rb,
                          &heap_size))
        return NULL;
    Buf bufs[9];
    if (get_bufs(o, bufs, ARENA_FLAGS, 9))
        return NULL;
    Py_ssize_t rows = k >= 1 ? bufs[0].view.len / 8 / k : 0;
    Py_ssize_t n = bufs[7].view.len / 8;
    Py_ssize_t batches = k >= 1 ? n / k + (n % k != 0) : 0;
    Py_ssize_t max_log = bufs[6].view.len / 24;
    if (k < 1 || rb < 0 || n < 1 || heap_size < 0 ||
        heap_size >= rows - batches || lacks(bufs[1].view.len, rows * k, rb) ||
        bufs[2].view.len / 8 < rows || bufs[3].view.len / 8 < k ||
        lacks(bufs[4].view.len, k, rb) ||
        bufs[5].view.len < 2 * k * (8 + rb) ||
        lacks(bufs[8].view.len, n, rb) ||
        max_log / batches <
            (Py_ssize_t)level_of(heap_size + batches) + 4) {
        release_bufs(bufs, 9);
        PyErr_SetString(PyExc_ValueError, "insert_sorted: bad shape");
        return NULL;
    }
    int64_t *sk = KEYS(bufs[5]);
    char *sp = (char *)(sk + 2 * k); /* scratch: [2k keys][2k pay rows] */
    Py_ssize_t nlog = 0, heapifies;
    Py_BEGIN_ALLOW_THREADS
    heapifies = insert_run_core(KEYS(bufs[0]), BYTES(bufs[1]), KEYS(bufs[2]),
                                k, rb, sk, sp, KEYS(bufs[3]), BYTES(bufs[4]),
                                KEYS(bufs[7]), BYTES(bufs[8]), n, &heap_size,
                                KEYS(bufs[6]), &nlog);
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 9);
    return Py_BuildValue("nnn", heap_size, nlog, heapifies);
}

/* The arena deletemin general path (heap_size >= 2 and count >=
 * counts[1]): root copy-out, last-node promotion, partial-buffer fold,
 * and the full top-down heapify with residual extraction into
 * out_k/out_p.  Mirrors NativeBGPQ._deletemin.  Appends log triples
 * (tag, p1, p2): tag 0 = node sort-split (na, nb), tag 1 = root
 * extraction read (take, 0), tag 3 = last-node move read+write (k, k);
 * at most 3 * (level_of(heap_size) + 2) of them.  Decrements
 * *heap_size; returns the records taken. */
static Py_ssize_t
deletemin_core(int64_t *keys, char *pay, int64_t *counts, Py_ssize_t k,
               Py_ssize_t rb, int64_t *sk, char *sp, Py_ssize_t *heap_size,
               Py_ssize_t count, int64_t *out_k, char *out_p, int64_t *log,
               Py_ssize_t *nlog)
{
    Py_ssize_t nroot = counts[1];
    Py_ssize_t remained = count - nroot;
    memcpy(out_k, keys + k, (size_t)nroot * 8);
    if (rb)
        memcpy(out_p, pay + k * rb, (size_t)(nroot * rb));
    /* move the last node into the root, fold the buffer in */
    Py_ssize_t last = *heap_size;
    Py_ssize_t hs = last - 1;
    Py_ssize_t nlast = counts[last];
    memcpy(keys + k, keys + last * k, (size_t)nlast * 8);
    if (rb)
        memcpy(pay + k * rb, pay + last * k * rb, (size_t)(nlast * rb));
    counts[1] = nlast;
    counts[last] = 0;
    *heap_size = hs;
    log_put(log, nlog, 3, k, k);
    if (counts[0]) {
        log_put(log, nlog, 0, nlast, counts[0]);
        split_rows_c(keys, pay, counts, k, rb, sk, sp, 1, 0, 1, 0, nlast);
    }
    int64_t *ex_k = out_k + nroot;
    char *ex_p = out_p + nroot * rb;
    Py_ssize_t taken = -1;
    Py_ssize_t cur = 1;
    for (;;) {
        Py_ssize_t ncur = counts[cur];
        Py_ssize_t l = 2 * cur, r = 2 * cur + 1;
        int has_l = l <= hs && counts[l];
        int has_r = r <= hs && counts[r];
        int64_t cmin = 0;
        if (has_l && has_r)
            cmin = keys[l * k] <= keys[r * k] ? keys[l * k] : keys[r * k];
        else if (has_l)
            cmin = keys[l * k];
        else if (has_r)
            cmin = keys[r * k];
        if ((!has_l && !has_r) || ncur == 0 ||
            keys[cur * k + ncur - 1] <= cmin) {
            if (taken < 0)
                taken = extract_root_c(keys, pay, counts, k, rb, remained,
                                       ex_k, ex_p, log, nlog);
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
            log_put(log, nlog, 0, nl, nr);
            split_rows_c(keys, pay, counts, k, rb, sk, sp, l, r, y, x, ma);
        } else {
            y = has_l ? l : r;
        }
        log_put(log, nlog, 0, ncur, counts[y]);
        split_rows_c(keys, pay, counts, k, rb, sk, sp, cur, y, cur, y, ncur);
        if (cur == 1 && taken < 0)
            taken = extract_root_c(keys, pay, counts, k, rb, remained, ex_k,
                                   ex_p, log, nlog);
        cur = y;
    }
    return nroot + taken;
}

/* deletemin(keys, pay, counts, heap_size, k, rb, count, out_k, out_p,
 *           scratch, log) -> (total, new_heap_size, nlog)
 * deletemin_core in one GIL round-trip; callers keep the cheap
 * early-outs (count < counts[1], heap_size < 2) in Python. */
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
    int64_t *sk = KEYS(bufs[5]);
    char *sp = (char *)(sk + 2 * k); /* scratch: [2k keys][2k pay rows] */
    Py_ssize_t nlog = 0, total;
    Py_BEGIN_ALLOW_THREADS
    total = deletemin_core(KEYS(bufs[0]), BYTES(bufs[1]), KEYS(bufs[2]), k,
                           rb, sk, sp, &heap_size, count, KEYS(bufs[3]),
                           BYTES(bufs[4]), KEYS(bufs[6]), &nlog);
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 7);
    return Py_BuildValue("nnn", total, heap_size, nlog);
}

/* ------------------------------------------------------------------ */
/* knapsack branch-and-bound expansion                                 */
/* ------------------------------------------------------------------ */

/* The float64 bound must be bit-identical to fractional_bound's NumPy
 * arithmetic, so no a*b + c may be fused into an FMA (the default
 * under -march=native on FMA hosts). */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#define NO_FMA
#elif defined(__GNUC__)
#define NO_FMA __attribute__((optimize("fp-contract=off")))
#else
#define NO_FMA
#endif

/* Dantzig bound of a child at level l with profit p, whose whole items
 * [l, j) fit under the target t = wsum[l] + room: fractional_bound,
 * term for term. */
NO_FMA static inline double
dantzig(const int64_t *wsum, const int64_t *psum, const int64_t *prof,
        const int64_t *wt, Py_ssize_t n, Py_ssize_t l, Py_ssize_t j,
        int64_t p, int64_t t)
{
    double ub = (double)p + (double)(psum[j] - psum[l]);
    if (j < n) {
        double q = (double)(t - wsum[j]) / (double)wt[j];
        double frac = (double)prof[j] * q;
        ub = ub + frac;
    }
    return ub;
}

/* branch_bound.KEY_SCALE: a child's key is -(int64)(bound * KEY_SCALE) */
#define KEY_SCALE 64
/* nodes whose bound searches expand_core runs in lockstep */
#define LANE 8

/* Children of a packed node batch (see _Expansion in
 * repro/apps/knapsack/branch_bound.py): a take-child is
 * x + take[level] when the item fits, a skip-child x + 1; leaves
 * (level == n) have none.  The incumbent first rises to the best
 * take-child profit, then each child whose bound beats it is kept,
 * take-children first, then skip-children, each in batch order; skip
 * survivors are staged in the upper half of the 2n output.  Nodes go
 * LANE at a time: both children's bound searches of a lane run in
 * lockstep over the whole of wsum[0..n], the same step count each, so
 * their probes are independent loads.  Weights are positive, so wsum
 * rises strictly and each search lands where fractional_bound's
 * searchsorted(wsum, t, "right") - 1 does; probes stay inside wsum[0..n]
 * whatever the data.  Returns -1 on a node with level > n or weight >
 * cap, before any output is written. */
NO_FMA static int
expand_core(const int64_t *nodes, Py_ssize_t nn, const int64_t *wsum,
            const int64_t *psum, const int64_t *prof, const int64_t *wt,
            const int64_t *take, int64_t *ok, int64_t *on, int lb, int wb,
            int64_t cap, Py_ssize_t n, int64_t *inc_io, Py_ssize_t *nout,
            Py_ssize_t *npruned)
{
    const int64_t lmask = ((int64_t)1 << lb) - 1;
    const int64_t wmask = ((int64_t)1 << wb) - 1;
    const int pshift = lb + wb;
    int64_t inc = *inc_io;
    for (Py_ssize_t i = 0; i < nn; i++) {
        int64_t x = nodes[i], l = x & lmask;
        int64_t room = cap - ((x >> lb) & wmask);
        if (l > n || room < 0)
            return -1;
        if (l < n && wt[l] <= room && (x >> pshift) + prof[l] > inc)
            inc = (x >> pshift) + prof[l];
    }
    const double dinc = (double)inc;
    int64_t *sk = ok + nn, *sn = on + nn;
    Py_ssize_t nt = 0, ns = 0, born = 0;
    for (Py_ssize_t i0 = 0; i0 < nn; i0 += LANE) {
        Py_ssize_t m = nn - i0 < LANE ? nn - i0 : LANE;
        /* targets: take-child 2q (its parent's, wsum[l] + room), skip-
         * child 2q + 1; a leaf's and an idle lane's stay 0 */
        int64_t t[2 * LANE] = {0};
        Py_ssize_t j[2 * LANE] = {0};
        for (Py_ssize_t q = 0; q < m; q++) {
            int64_t x = nodes[i0 + q], l = x & lmask;
            int64_t room = cap - ((x >> lb) & wmask);
            if (l < n) {
                t[2 * q] = wsum[l] + room;
                t[2 * q + 1] = wsum[l + 1] + room;
            }
        }
        /* j = last index with wsum[j] <= t, each probe a cmov */
        for (Py_ssize_t len = n + 1; len > 1; len -= len / 2) {
            Py_ssize_t half = len / 2;
            for (int q = 0; q < 2 * LANE; q++)
                j[q] = wsum[j[q] + half] <= t[q] ? j[q] + half : j[q];
        }
        for (Py_ssize_t q = 0; q < m; q++) {
            int64_t x = nodes[i0 + q], l = x & lmask;
            if (l == n)
                continue;
            int64_t room = cap - ((x >> lb) & wmask), p = x >> pshift;
            double ub;
            born++;
            if (wt[l] <= room) {
                born++;
                ub = dantzig(wsum, psum, prof, wt, n, l + 1, j[2 * q],
                             p + prof[l], t[2 * q]);
                if (ub > dinc) {
                    ok[nt] = -(int64_t)(ub * KEY_SCALE);
                    on[nt++] = x + take[l];
                }
            }
            ub = dantzig(wsum, psum, prof, wt, n, l + 1, j[2 * q + 1], p,
                         t[2 * q + 1]);
            if (ub > dinc) {
                sk[ns] = -(int64_t)(ub * KEY_SCALE);
                sn[ns++] = x + 1;
            }
        }
    }
    memmove(ok + nt, sk, (size_t)ns * 8);
    memmove(on + nt, sn, (size_t)ns * 8);
    *inc_io = inc;
    *nout = nt + ns;
    *npruned = born - nt - ns;
    return 0;
}

/* 1 when expand's instance arguments are out of range: the field widths
 * must leave a profit field in 63 bits, the capacity and n_items must be
 * >= 0, and inst[0..5) (wsum, psum, profits, weights, take) must hold
 * n + 1, n + 1, n, n and n int64s. */
static int
bad_instance(const Buf *inst, Py_ssize_t lb, Py_ssize_t wb, long long cap,
             Py_ssize_t n)
{
    return lb < 1 || wb < 1 || lb > 62 - wb || cap < 0 || n < 0 ||
           inst[0].view.len / 8 <= n || inst[1].view.len / 8 <= n ||
           inst[2].view.len / 8 < n || inst[3].view.len / 8 < n ||
           inst[4].view.len / 8 < n;
}

#define NODE_ERROR "node level above n_items or weight above capacity"

/* expand(nodes, wsum, psum, profits, weights, take, out_k, out_n, lb,
 *        wb, capacity, n_items, incumbent)
 *   -> (n_out, new_incumbent, n_pruned)
 * The whole knapsack expansion of one node batch; the surviving
 * children's keys (-(int64)(ub * KEY_SCALE)) and nodes land in
 * out_k/out_n, which must hold 2 * len(nodes). */
static PyObject *
py_expand(PyObject *self, PyObject *args)
{
    PyObject *o[8];
    Py_ssize_t lb, wb, n;
    long long cap, inc;
    if (!PyArg_ParseTuple(args, "OOOOOOOOnnLnL", &o[0], &o[1], &o[2], &o[3],
                          &o[4], &o[5], &o[6], &o[7], &lb, &wb, &cap, &n,
                          &inc))
        return NULL;
    static const int flags[8] = {RO | I64, RO | I64, RO | I64, RO | I64,
                                 RO | I64, RO | I64, RW | I64, RW | I64};
    Buf bufs[8];
    if (get_bufs(o, bufs, flags, 8))
        return NULL;
    Py_ssize_t nn = bufs[0].view.len / 8;
    if (bad_instance(bufs + 1, lb, wb, cap, n) ||
        bufs[6].view.len / 8 < 2 * nn || bufs[7].view.len / 8 < 2 * nn) {
        release_bufs(bufs, 8);
        PyErr_SetString(PyExc_ValueError, "expand: bad shape");
        return NULL;
    }
    int64_t incumbent = inc;
    Py_ssize_t nout = 0, npruned = 0;
    int rc;
    Py_BEGIN_ALLOW_THREADS
    rc = expand_core(KEYS(bufs[0]), nn, KEYS(bufs[1]), KEYS(bufs[2]),
                     KEYS(bufs[3]), KEYS(bufs[4]), KEYS(bufs[5]),
                     KEYS(bufs[6]), KEYS(bufs[7]), (int)lb, (int)wb, cap, n,
                     &incumbent, &nout, &npruned);
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 8);
    if (rc != 0) {
        PyErr_SetString(PyExc_ValueError, "expand: " NODE_ERROR);
        return NULL;
    }
    return Py_BuildValue("nLn", nout, (long long)incumbent, npruned);
}

/* ------------------------------------------------------------------ */
/* one whole branch-and-bound iteration                                */
/* ------------------------------------------------------------------ */

/* knapsack_step(keys, pay, counts, items_k, items_p, scratch, del_log,
 *               ins_log, heap_size, k, rb, count, step, wsum, psum,
 *               profits, weights, take, out_k, out_n, lb, wb, capacity,
 *               n_items, incumbent)
 *   -> (removed, fresh, n_children, new_incumbent, pruned,
 *       new_heap_size, heapifies, del_nlog, ins_nlog)
 * One iteration of the batched knapsack solver on the arena, in one GIL
 * round-trip, as the op-by-op loop runs it through four entry points:
 *   1. deletemin_core of count <= k records (heap_size >= 2) into step:
 *      count keys, then count nodes (a payload row is one int64 node,
 *      rb == 8);
 *   2. the stale-bound cut: the fresh prefix is the keys below
 *      -KEY_SCALE * incumbent;
 *   3. expand_core of the fresh nodes into out_k/out_n;
 *   4. the natural-run sort of the children in place, run bounds in
 *      step (dead after 3), temp records in scratch;
 *   5. insert_run_core of the sorted children.
 * Nothing is allocated.  The deletemin log lands in del_log and the
 * insert log in ins_log, each as its own call writes it.  pruned counts
 * the stale records plus the pruned children.  The caller grows the
 * arena past row heap_size + 1 (the deletemin frees one row, at most
 * 2 * count <= 2k children add two), del_log to deletemin's and ins_log
 * to 2 * (levels + 4) triples, levels being the depth of node
 * heap_size + 1; step holds 2 * count + 1 int64s, out_k and out_n
 * 2 * count.  A popped node with level > n_items or weight > capacity
 * raises ValueError after the deletemin has run, so the queue's own
 * bookkeeping is then behind its arena. */
static PyObject *
py_knapsack_step(PyObject *self, PyObject *args)
{
    PyObject *o[16];
    Py_ssize_t heap_size, k, rb, count, lb, wb, n;
    long long cap, inc;
    if (!PyArg_ParseTuple(args, "OOOOOOOOnnnnOOOOOOOOnnLnL", &o[0], &o[1],
                          &o[2], &o[3], &o[4], &o[5], &o[6], &o[7],
                          &heap_size, &k, &rb, &count, &o[8], &o[9], &o[10],
                          &o[11], &o[12], &o[13], &o[14], &o[15], &lb, &wb,
                          &cap, &n, &inc))
        return NULL;
    static const int flags[16] = {
        RW | I64, RW, RW | I64, RW | I64, RW, RW | I64, RW | I64, RW | I64,
        RW | I64, RO | I64, RO | I64, RO | I64, RO | I64, RO | I64,
        RW | I64, RW | I64};
    Buf bufs[16];
    if (get_bufs(o, bufs, flags, 16))
        return NULL;
    Py_ssize_t rows = k >= 1 ? bufs[0].view.len / 8 / k : 0;
    if (k < 1 || rb != 8 || heap_size < 2 || heap_size >= rows - 1 ||
        count < 1 || count > k || lacks(bufs[1].view.len, rows * k, rb) ||
        bufs[2].view.len / 8 < rows || count < KEYS(bufs[2])[1] ||
        bufs[3].view.len / 8 < k || lacks(bufs[4].view.len, k, rb) ||
        bufs[5].view.len < 2 * k * (8 + rb) ||
        bufs[6].view.len / 24 < 3 * ((Py_ssize_t)level_of(heap_size) + 2) ||
        bufs[7].view.len / 24 <
            2 * ((Py_ssize_t)level_of(heap_size + 1) + 4) ||
        bufs[8].view.len / 8 < 2 * count + 1 ||
        bad_instance(bufs + 9, lb, wb, cap, n) ||
        bufs[14].view.len / 8 < 2 * count ||
        bufs[15].view.len / 8 < 2 * count ||
        inc < -(INT64_MAX / KEY_SCALE) || inc > INT64_MAX / KEY_SCALE) {
        release_bufs(bufs, 16);
        PyErr_SetString(PyExc_ValueError, "knapsack_step: bad shape");
        return NULL;
    }
    int64_t *keys = KEYS(bufs[0]);
    char *pay = BYTES(bufs[1]);
    int64_t *counts = KEYS(bufs[2]);
    int64_t *sk = KEYS(bufs[5]);
    char *sp = (char *)(sk + 2 * k); /* scratch: [2k keys][2k pay rows] */
    int64_t *step = KEYS(bufs[8]);
    int64_t *ck = KEYS(bufs[14]), *cn = KEYS(bufs[15]);
    int64_t incumbent = inc;
    Py_ssize_t removed, fresh, nch = 0, pruned = 0, heapifies = 0;
    Py_ssize_t ndel = 0, nins = 0;
    int rc;
    Py_BEGIN_ALLOW_THREADS
    removed = deletemin_core(keys, pay, counts, k, rb, sk, sp, &heap_size,
                             count, step, (char *)(step + count),
                             KEYS(bufs[6]), &ndel);
    fresh = gallop(step, removed, -KEY_SCALE * incumbent, 1);
    rc = expand_core(step + count, fresh, KEYS(bufs[9]), KEYS(bufs[10]),
                     KEYS(bufs[11]), KEYS(bufs[12]), KEYS(bufs[13]), ck, cn,
                     (int)lb, (int)wb, cap, n, &incumbent, &nch, &pruned);
    if (rc == 0 && nch) {
        if (count_runs(ck, nch) > 1)
            merge_runs(ck, (char *)cn, nch, rb, step, sk, sp);
        heapifies = insert_run_core(keys, pay, counts, k, rb, sk, sp,
                                    KEYS(bufs[3]), BYTES(bufs[4]), ck,
                                    (const char *)cn, nch, &heap_size,
                                    KEYS(bufs[7]), &nins);
    }
    Py_END_ALLOW_THREADS
    release_bufs(bufs, 16);
    if (rc != 0) {
        PyErr_SetString(PyExc_ValueError, "knapsack_step: " NODE_ERROR);
        return NULL;
    }
    return Py_BuildValue("nnnLnnnnn", removed, fresh, nch,
                         (long long)incumbent, removed - fresh + pruned,
                         heap_size, heapifies, ndel, nins);
}

static PyMethodDef CkernMethods[] = {
    {"sort_records", py_sort_records, METH_VARARGS,
     "in-place stable record sort"},
    {"insert_sorted", py_insert_sorted, METH_VARARGS,
     "fused arena insert of a sorted run, k records per batch"},
    {"deletemin", py_deletemin, METH_VARARGS,
     "fused whole-batch arena deletemin (general path)"},
    {"expand", py_expand, METH_VARARGS,
     "knapsack branch-and-bound expansion of one node batch"},
    {"knapsack_step", py_knapsack_step, METH_VARARGS,
     "one knapsack branch-and-bound iteration: deletemin, cut, expand, "
     "sort, insert"},
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
