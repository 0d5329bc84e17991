/* The two prime-push schedules of repro and its splice round, ported
 * operation for operation.
 *
 * The ports are pinned bit for bit against the Python / numpy code they
 * take off the hot path (tests/test_native_kernels.py), so *the schedule
 * is the contract*: the visiting order, the association of every product
 * and the order of every sum below are the Python code's own.  Build with
 * `-O2 -fPIC -shared -ffp-contract=off` and nothing that licenses
 * reassociation or fusion (no -ffast-math, no -march=native), and with
 * -pthread.
 *
 * No Python.h, no globals; the cluster waves and the splice round never
 * allocate (their state is numpy arrays owned by the caller), the
 * level-synchronous push grows work blocks with malloc and reports
 * failure as -1.  The push's rows share nothing: each is a lone push of
 * its source, rounds, sums and aggregation rule included, so a row's
 * bytes are those of a batch of one in any batch, order or thread
 * count.  Threads take rows off one atomic counter; they are created
 * and joined inside the one call (no thread outlives it, so a forked
 * process never inherits one).
 */
#include <pthread.h>
#include <limits.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* 1. The cluster-draining push: storage/disk_engine.py _ClusterWaves   */

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "cluster segments are little-endian; this host is not"
#endif

/* One format-2 cluster segment, read in place (storage/residency.py
 * decode_segment is its Python twin):
 *     members u64 | edges u64 | nodes i64[members]
 *     | offsets i64[members + 1] | probs f64[edges] | targets i32[edges]
 * The bytes are a Python bytes object's buffer (16-byte aligned) whose
 * length the caller has checked against its header. */
typedef struct {
    int64_t members, edges;
    const int64_t *nodes, *offsets;
    const double *probs;
    const int32_t *targets;
} segment;

static segment segment_at(const char *bytes)
{
    segment s;
    memcpy(&s.members, bytes, 8);
    memcpy(&s.edges, bytes + 8, 8);
    s.nodes = (const int64_t *)(bytes + 16);
    s.offsets = s.nodes + s.members;
    s.probs = (const double *)(s.offsets + s.members + 1);
    s.targets = (const int32_t *)(s.probs + s.edges);
    return s;
}

/* The structure checks of one stored segment, made once per physical
 * load before any wave reads it.  Returns 0, or the first of the
 * problems storage/residency.py names: 1 offsets are not a
 * non-decreasing 0..edges sequence, 2 an edge target lies outside
 * [0, num_nodes), 3 a member node lies outside [0, num_nodes), 4 a
 * member node is labelled with another cluster. */
int64_t repro_check_segment(int64_t num_nodes, const int64_t *labels,
                            int64_t cluster, const char *bytes)
{
    const segment s = segment_at(bytes);
    int offsets_bad = s.offsets[0] != 0 || s.offsets[s.members] != s.edges;
    int node_bad = 0, label_bad = 0;
    for (int64_t i = 0; i < s.members; i++) {
        offsets_bad |= s.offsets[i + 1] < s.offsets[i];
        if ((uint64_t)s.nodes[i] >= (uint64_t)num_nodes)
            node_bad = 1;
        else
            label_bad |= labels[s.nodes[i]] != cluster;
    }
    if (offsets_bad)
        return 1;
    for (int64_t e = 0; e < s.edges; e++)
        if ((uint64_t)(int64_t)s.targets[e] >= (uint64_t)num_nodes)
            return 2;
    return node_bad ? 3 : label_bad ? 4 : 0;
}

typedef struct {
    int64_t num_nodes, num_clusters, fault_budget;
    double alpha, epsilon;
    const int64_t *labels;   /* [num_nodes] cluster of every node */
    const uint8_t *hubs;     /* [num_nodes] 1 at hub nodes */
    double *scores;          /* [num_nodes] */
    double *mass;            /* [num_nodes] pending expansion mass */
    int32_t *next;           /* [num_nodes] FIFO links: pool lists, drain queue */
    int32_t *row;            /* [num_nodes] 1 + row in the wave's segment, 0 off it;
                              * shared by the batch */
    int32_t *slot;           /* [num_nodes] 1 + position in border_hubs */
    uint8_t *queued;         /* [num_nodes] node holds a pool / queue entry */
    int64_t *head, *tail;    /* [num_clusters] pool lists; head -1 = no pool */
    int64_t *order;          /* [num_clusters] clusters holding a pool, oldest first */
    int64_t *border_hubs;    /* [num_nodes] first-touch order */
    double *border_mass;     /* [num_nodes] aligned with border_hubs */
    int64_t order_count, border_count, drains, truncated;
    int64_t edges;           /* out-edges of the expanded nodes */
    int64_t pending, pending_head, pending_tail;  /* staged cluster, -1 = none */
} push_run;

/* One batch's pushes.  runs[0] arrives with row 0's arrays; row r's
 * follow at r * num_nodes (per-node arrays) and r * num_clusters
 * (per-cluster arrays).  held mirrors the graph store's resident set. */
typedef struct {
    int64_t rows;
    push_run *runs;          /* [rows] */
    const int64_t *sources;  /* [rows] */
    int64_t *demand;         /* [num_clusters] all zero between waves */
    const uint8_t *held;     /* [num_clusters] 1 while the store holds it */
    int64_t wave;            /* the cluster the next wave drains, -1 = done */
} push_waves;

int64_t repro_run_size(void) { return (int64_t)sizeof(push_run); }
int64_t repro_waves_size(void) { return (int64_t)sizeof(push_waves); }

/* pools[c][node] = pools[c].get(node, 0.0) + share */
static void pool_add(push_run *r, int64_t c, int32_t node, double share)
{
    if (r->queued[node]) {
        r->mass[node] += share;
        return;
    }
    r->mass[node] = 0.0 + share;
    r->queued[node] = 1;
    if (r->head[c] < 0) {
        r->head[c] = node;
        r->order[r->order_count++] = c;
    } else {
        r->next[r->tail[c]] = node;
    }
    r->tail[c] = node;
}

/* Cluster the run's next drain needs, -1 when done (and from then on):
 * the heaviest pool (sums left to right, the first pool wins a tie),
 * pools with nothing at or above epsilon dropped without a fault, the
 * budget charged per drain.  Staged until drained. */
static int64_t next_cluster(push_run *r)
{
    if (r->pending >= 0)
        return r->pending;
    while (r->order_count > 0) {
        int64_t best = 0;
        double best_sum = 0.0;
        for (int64_t i = 0; i < r->order_count; i++) {
            const int64_t c = r->order[i];
            double sum = 0.0;
            for (int64_t v = r->head[c];; v = r->next[v]) {
                sum += r->mass[v];
                if (v == r->tail[c])
                    break;
            }
            if (i == 0 || sum > best_sum) {
                best = i;
                best_sum = sum;
            }
        }
        const int64_t cluster = r->order[best];
        r->order_count--;
        memmove(r->order + best, r->order + best + 1,
                (size_t)(r->order_count - best) * sizeof(int64_t));
        /* local = what still expands, in insertion order */
        int64_t head = -1, tail = -1;
        for (int64_t v = r->head[cluster], last = 0; !last;) {
            const int64_t following = r->next[v];
            last = v == r->tail[cluster];
            if (r->mass[v] >= r->epsilon) {
                if (head < 0)
                    head = v;
                else
                    r->next[tail] = (int32_t)v;
                tail = v;
            } else {
                r->queued[v] = 0;
            }
            v = following;
        }
        r->head[cluster] = -1;
        if (head < 0)
            continue;
        if (r->drains >= r->fault_budget) {
            r->truncated = 1;
            for (int64_t i = 0; i < r->order_count; i++)
                r->head[r->order[i]] = -1;
            r->order_count = 0;
            return -1;
        }
        r->pending = cluster;
        r->pending_head = head;
        r->pending_tail = tail;
        return cluster;
    }
    return -1;
}

/* Drain the staged cluster over its segment's CSR rows (row[] set for
 * its members): FIFO over the members, share = ((1 - alpha) * mass) * p,
 * every target scored alpha * share in edge order, then routed hub /
 * same cluster / other pool.  Returns 0, or -(node + 1) for a node
 * labelled with a cluster whose segment does not hold it, or a label
 * outside the clusters. */
static int64_t drain(push_run *r, const segment *s)
{
    const int64_t members = s->members, *offsets = s->offsets;
    const int32_t *targets = s->targets;
    const double *probs = s->probs;
    const int64_t cluster = r->pending;
    const double alpha = r->alpha, epsilon = r->epsilon;
    int64_t head = r->pending_head, tail = r->pending_tail;
    r->pending = -1;
    r->drains++;
    while (head >= 0) {
        const int64_t node = head;
        head = node == tail ? -1 : r->next[node];
        r->queued[node] = 0;
        const double mass = r->mass[node];
        if (mass < epsilon)
            continue;  /* sub-threshold remainder: already scored */
        const uint64_t row = (uint64_t)r->row[node] - 1;
        if (row >= (uint64_t)members)
            return -(node + 1);
        const double base = (1.0 - alpha) * mass;
        r->edges += offsets[row + 1] - offsets[row];
        for (int64_t e = offsets[row]; e < offsets[row + 1]; e++) {
            const int64_t t = targets[e];
            const double share = base * probs[e];
            r->scores[t] += alpha * share;
            if (r->hubs[t]) {
                if (r->slot[t]) {
                    r->border_mass[r->slot[t] - 1] += share;
                } else {
                    r->border_hubs[r->border_count] = t;
                    r->border_mass[r->border_count] = 0.0 + share;
                    r->slot[t] = (int32_t)++r->border_count;
                }
            } else if (r->labels[t] == cluster) {
                if (r->queued[t]) {
                    r->mass[t] += share;
                } else {
                    r->mass[t] = share;
                    r->queued[t] = 1;
                    if (head < 0)
                        head = t;
                    else
                        r->next[tail] = (int32_t)t;
                    tail = t;
                }
            } else {
                if ((uint64_t)r->labels[t] >= (uint64_t)r->num_clusters)
                    return -(t + 1);
                pool_add(r, r->labels[t], (int32_t)t, share);
            }
        }
    }
    return 0;
}

/* The cluster the next wave drains, residency first: among the clusters
 * runs need next, the most demanded one the store holds; when it holds
 * none, the most demanded of all; ties to the smallest id.  -1 when
 * every run is done.  Each run's next step is fixed by the run alone,
 * so the choice decides only when a step is taken, never which. */
static int64_t next_wave(push_waves *w)
{
    int64_t best = -1, best_demand = 0, best_held = 0;
    for (int64_t i = 0; i < w->rows; i++) {
        const int64_t c = next_cluster(w->runs + i);
        if (c >= 0)
            w->demand[c]++;
    }
    for (int64_t i = 0; i < w->rows; i++) {
        const int64_t c = w->runs[i].pending, demand = c >= 0 ? w->demand[c] : 0;
        if (demand == 0)
            continue;  /* done, or this cluster was weighed already */
        const int64_t held = w->held[c] != 0;
        w->demand[c] = 0;
        if (best < 0 || held > best_held
            || (held == best_held
                && (demand > best_demand
                    || (demand == best_demand && c < best)))) {
            best = c;
            best_demand = demand;
            best_held = held;
        }
    }
    return best;
}

/* Lay the rows out from runs[0], start every push (the initial unit at
 * the source always expands, hub or not) and stage the first wave. */
void repro_waves_start(push_waves *w)
{
    const push_run first = w->runs[0];
    const int64_t n = first.num_nodes, clusters = first.num_clusters;
    for (int64_t i = 0; i < w->rows; i++) {
        push_run *r = w->runs + i;
        *r = first;
        r->scores += i * n, r->mass += i * n, r->next += i * n;
        r->slot += i * n, r->queued += i * n;
        r->border_hubs += i * n, r->border_mass += i * n;
        r->head += i * clusters, r->tail += i * clusters, r->order += i * clusters;
        for (int64_t c = 0; c < clusters; c++)
            r->head[c] = -1;
        r->pending = -1;
        r->scores[w->sources[i]] += r->alpha;
        pool_add(r, r->labels[w->sources[i]], (int32_t)w->sources[i], 1.0);
    }
    w->wave = next_wave(w);
}

/* Drain the staged wave over its cluster's stored segment (checked by
 * repro_check_segment when it was loaded) — every run whose next step
 * needs it, in row order — then stage the next wave.  Returns 0, or
 * drain's -(node + 1); a failed wave stages none. */
int64_t repro_wave(push_waves *w, const char *bytes)
{
    const int64_t cluster = w->wave;
    const segment s = segment_at(bytes);
    int32_t *row = w->runs[0].row;
    int64_t status = 0;
    if (cluster < 0)
        return 0;
    w->wave = -1;
    for (int64_t i = 0; i < s.members; i++)
        row[s.nodes[i]] = (int32_t)(i + 1);
    for (int64_t i = 0; i < w->rows && status == 0; i++)
        if (w->runs[i].pending == cluster)
            status = drain(w->runs + i, &s);
    for (int64_t i = 0; i < s.members; i++)
        row[s.nodes[i]] = 0;
    if (status == 0)
        w->wave = next_wave(w);
    return status;
}

/* ------------------------------------------------------------------ */
/* 2. The level-synchronous batched push: core/prime.py prime_push_many */

/* numpy's pairwise summation (what np.add.reduceat runs over the tail
 * of each group, and np.sum over a whole contiguous float64 row): a
 * plain loop below 8 elements, 8 accumulators up to 128, halves split
 * at a multiple of 8 above that. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* A thread's work space, reused across the rows it takes: three
 * (key, value) lanes of one capacity in one block — the frontier, the
 * round's edges and the sort's scratch — and the dense rule's bins. */
typedef struct {
    char *block;
    int64_t capacity;
    int64_t *fkey, *ekey, *skey;
    double *fval, *eval, *sval;
    double *bins;  /* [n] slots, then one bit per slot; all zero between
                    * rounds, allocated by the first dense round */
} lanes;

/* Room for `need` entries per lane, keeping the first `live` frontier
 * entries.  Returns -1 when the allocation fails. */
static int lanes_grow(lanes *w, int64_t need, int64_t live)
{
    if (need <= w->capacity)
        return 0;
    const int64_t capacity = need > 2 * w->capacity ? need : 2 * w->capacity;
    if ((uint64_t)capacity > SIZE_MAX / 48)
        return -1;
    char *block = malloc((size_t)capacity * 48);
    if (block == NULL)
        return -1;
    int64_t *keys = (int64_t *)block;
    double *vals = (double *)(block + 24 * (size_t)capacity);
    if (live > 0) {
        memcpy(keys, w->fkey, (size_t)live * 8);
        memcpy(vals, w->fval, (size_t)live * 8);
    }
    free(w->block);
    w->block = block;
    w->capacity = capacity;
    w->fkey = keys, w->ekey = keys + capacity, w->skey = keys + 2 * capacity;
    w->fval = vals, w->eval = vals + capacity, w->sval = vals + 2 * capacity;
    return 0;
}

/* Stable LSD byte radix sort of the edge lane by key (any stable sort
 * yields np.argsort(kind="stable")'s permutation); the sorted lane ends
 * up in ekey / eval. */
static void sort_edges(lanes *w, int64_t count, int64_t max_key)
{
    for (int shift = 0; shift < 63 && (max_key >> shift) > 0; shift += 8) {
        int64_t starts[256] = {0};
        for (int64_t i = 0; i < count; i++)
            starts[(w->ekey[i] >> shift) & 255]++;
        for (int64_t b = 0, at = 0; b < 256; b++) {
            const int64_t size = starts[b];
            starts[b] = at;
            at += size;
        }
        for (int64_t i = 0; i < count; i++) {
            const int64_t at = starts[(w->ekey[i] >> shift) & 255]++;
            w->skey[at] = w->ekey[i];
            w->sval[at] = w->eval[i];
        }
        int64_t *keys = w->ekey;
        double *vals = w->eval;
        w->ekey = w->skey, w->eval = w->sval;
        w->skey = keys, w->sval = vals;
    }
}

/* One call's rows.  Each is a lone push: its rounds read and write only
 * its own frontier and output slots, and choose their aggregation rule
 * from its own totals. */
typedef struct {
    int64_t n;
    const int64_t *indptr;
    const int32_t *indices;
    const double *probs;
    int64_t num_sources;
    const int64_t *sources;
    const uint8_t *hubs;
    double alpha, epsilon;
    int64_t max_rounds, dense_limit;
    double *scores, *border;
    int64_t *edges_touched;
    int64_t next_row;  /* the next row a thread takes (atomic) */
    int64_t threads;   /* threads the call runs on; -1 while starting them */
    int64_t holding;   /* threads past their first allocation (atomic) */
    int failed;        /* memory ran out: no thread takes another row */
} push_batch;

enum { STACK_SIZE = 64 << 10 };

/* The rounds of source row `row`, keyed by node.  Returns 0, or -1 when
 * memory ran out. */
static int push_row(const push_batch *b, lanes *w, int64_t row)
{
    const int64_t n = b->n, *indptr = b->indptr, words = n / 64 + 1;
    const double alpha = b->alpha, epsilon = b->epsilon;
    double *scores = b->scores + row * n, *border = b->border + row * n;
    int64_t live = 1, edges = 0;
    if (lanes_grow(w, 1, 0))
        return -1;
    w->fkey[0] = b->sources[row];
    w->fval[0] = 1.0;
    for (int64_t round = 0; round < b->max_rounds; round++) {
        /* Score every arrival, absorb at hubs (never in the first round:
         * the initial unit at the source always expands), keep what
         * expands — in frontier order — and size the round. */
        int64_t expanding = 0, total = 0;
        for (int64_t i = 0; i < live; i++) {
            const int64_t node = w->fkey[i];
            const double mass = w->fval[i];
            scores[node] += alpha * mass;
            if (b->hubs[node] && round > 0) {
                border[node] += mass;
            } else if (mass >= epsilon && indptr[node + 1] > indptr[node]) {
                w->fkey[expanding] = node;
                w->fval[expanding++] = mass;
                total += indptr[node + 1] - indptr[node];
            }
        }
        if (expanding == 0)
            break;
        if (lanes_grow(w, total, expanding))
            return -1;
        edges += total;
        for (int64_t i = 0, at = 0; i < expanding; i++) {
            const int64_t node = w->fkey[i];
            const double share_base = (1.0 - alpha) * w->fval[i];
            for (int64_t e = indptr[node]; e < indptr[node + 1]; e++, at++) {
                w->ekey[at] = b->indices[e];
                w->eval[at] = share_base * b->probs[e];
            }
        }
        /* Aggregate per target, by prime_push_many's own predicate over
         * this row's round: np.bincount's element-order += when the
         * dense buffer fits and the round is dense enough to amortise
         * scanning it, else stable grouping and np.add.reduceat's
         * first + pairwise(rest). */
        live = 0;
        if (n <= b->dense_limit && total * 16 >= n) {
            if (w->bins == NULL
                && (w->bins = calloc((size_t)(n + words), sizeof(double))) == NULL)
                return -1;
            double *bins = w->bins;
            uint64_t *touched = (uint64_t *)(bins + n);
            for (int64_t i = 0; i < total; i++) {
                bins[w->ekey[i]] += w->eval[i];
                touched[w->ekey[i] >> 6] |= (uint64_t)1 << (w->ekey[i] & 63);
            }
            /* np.nonzero(bins) in ascending node order, visiting only
             * the slots this round wrote; bins is left all zero. */
            for (int64_t word = 0; word < words; word++) {
                for (uint64_t bits = touched[word]; bits; bits &= bits - 1) {
                    const int64_t node = word * 64 + __builtin_ctzll(bits);
                    if (bins[node] != 0.0) {
                        w->fkey[live] = node;
                        w->fval[live++] = bins[node];
                        bins[node] = 0.0;
                    }
                }
                touched[word] = 0;
            }
        } else {
            sort_edges(w, total, n - 1);
            for (int64_t start = 0, end; start < total; start = end) {
                for (end = start + 1; end < total && w->ekey[end] == w->ekey[start];)
                    end++;
                w->fkey[live] = w->ekey[start];
                w->fval[live++] = end - start == 1
                    ? w->eval[start]
                    : w->eval[start]
                        + pairwise_sum(w->eval + start + 1, end - start - 1);
            }
        }
    }
    b->edges_touched[row] = edges;
    return 0;
}

/* Take rows off the shared counter until none is left or memory ran out
 * in any thread.  A thread allocates before its first row and leaves
 * only once every thread of the call has, so each binds a malloc arena
 * of its own (glibc hands an exited thread's arena to the next thread
 * that asks) and the next call's threads find one each, not having to
 * map one that an address-space limit may refuse. */
static void *push_thread(void *arg)
{
    push_batch *b = arg;
    lanes w = {0};
    if (lanes_grow(&w, 1, 0))
        __atomic_store_n(&b->failed, 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&b->holding, 1, __ATOMIC_RELAXED);
    while (!__atomic_load_n(&b->failed, __ATOMIC_RELAXED)) {
        const int64_t row = __atomic_fetch_add(&b->next_row, 1, __ATOMIC_RELAXED);
        if (row >= b->num_sources)
            break;
        if (push_row(b, &w, row))
            __atomic_store_n(&b->failed, 1, __ATOMIC_RELAXED);
    }
    free(w.block);
    free(w.bins);
    while (__atomic_load_n(&b->holding, __ATOMIC_RELAXED)
           != __atomic_load_n(&b->threads, __ATOMIC_RELAXED))
        sched_yield();
    return NULL;
}

/* scores / border: zeroed [num_sources * n]; edges_touched: zeroed
 * [num_sources].  The rows run on up to `threads` threads (at least
 * one, at most one per row), created and joined inside the call; a
 * thread the system refuses leaves the rows to fewer threads, with the
 * same bytes.  Returns the threads the rows ran on, or -1 when memory
 * runs out. */
int64_t repro_prime_push_many(
    int64_t n, const int64_t *indptr, const int32_t *indices,
    const double *probs, int64_t num_sources, const int64_t *sources,
    const uint8_t *hubs, double alpha, double epsilon, int64_t max_rounds,
    int64_t dense_limit, double *scores, double *border,
    int64_t *edges_touched, int64_t threads)
{
    push_batch b = {
        .n = n, .indptr = indptr, .indices = indices, .probs = probs,
        .num_sources = num_sources, .sources = sources, .hubs = hubs,
        .alpha = alpha, .epsilon = epsilon, .max_rounds = max_rounds,
        .dense_limit = dense_limit, .scores = scores, .border = border,
        .edges_touched = edges_touched, .threads = -1,
    };
    const int64_t extra = (threads < num_sources ? threads : num_sources) - 1;
    pthread_t *workers = extra > 0 ? malloc((size_t)extra * sizeof(pthread_t)) : NULL;
    int64_t started = 0;
    pthread_attr_t attr;
    if (workers != NULL && pthread_attr_init(&attr) == 0) {
        size_t stack = STACK_SIZE;
#ifdef PTHREAD_STACK_MIN
        if (stack < (size_t)PTHREAD_STACK_MIN)
            stack = PTHREAD_STACK_MIN;
#endif
        pthread_attr_setstacksize(&attr, stack);
        while (started < extra
               && pthread_create(workers + started, &attr, push_thread, &b) == 0)
            started++;
        pthread_attr_destroy(&attr);
    }
    __atomic_store_n(&b.threads, started + 1, __ATOMIC_RELAXED);
    push_thread(&b);
    for (int64_t t = 0; t < started; t++)
        pthread_join(workers[t], NULL);
    free(workers);
    return b.failed ? -1 : started + 1;
}

/* ------------------------------------------------------------------ */
/* 3. The splice round: core/splice.py splice_rounds_exact             */

/* One batch's incremental rounds (Algorithm 2, lines 8-12).  The block
 * (SpliceBlock: row_lookup, checked and the two CSR matrices of the
 * hubs' HubRows as they are, with no stored trivial-tour correction:
 * splice_scores applies it) is read here and may grow between calls;
 * everything else is the batch's, allocated once per batch by the
 * caller.  Query q's frontier is hubs / masses [starts[q], starts[q] +
 * counts[q]), in the scalar loop's dict order; a round writes the next
 * ones into next_hubs / next_masses (placed by next_starts /
 * next_counts until the round commits) and swaps the two buffers.  The estimates are dense rows of
 * num_nodes, addressed only through estimate_of, so a sparse row can
 * take their place. */
typedef struct {
    int64_t num_nodes, queries;
    double alpha, delta;
    const int64_t *row_lookup;   /* [num_nodes] block row of a hub, -1 = none */
    uint8_t *checked;            /* [num_nodes] 1 once a hub's rows were checked */
    const int64_t *score_indptr, *score_indices;
    const double *score_data;
    const int64_t *border_indptr, *border_indices;
    const double *border_data;
    double *estimates;           /* [queries * num_nodes] */
    const int64_t *rows;         /* [runnable] the queries this round runs */
    int64_t *starts, *counts, *next_starts, *next_counts;  /* [queries] */
    int64_t *hubs;               /* [capacity] current frontiers */
    double *masses;
    int64_t *next_hubs;          /* [capacity] */
    double *next_masses;
    int64_t *iterations, *hubs_expanded, *work_units;  /* [queries] */
    double *errors;              /* error after iteration i at [i * queries + q] */
    int64_t *slot;               /* [num_nodes] all zero between calls */
    int64_t *absent;             /* [num_nodes] hubs without a row */
    int64_t runnable, capacity, refused;
} splice_round;

int64_t repro_round_size(void) { return (int64_t)sizeof(splice_round); }

static double *estimate_of(const splice_round *s, int64_t q)
{
    return s->estimates + q * s->num_nodes;
}

static int gated(const splice_round *s, int64_t p)
{
    return s->alpha * s->masses[p] > s->delta;
}

/* Whether score row or border row `row` names a column outside [0, n). */
static int row_outside(const splice_round *s, int64_t row)
{
    const uint64_t n = (uint64_t)s->num_nodes;
    for (int64_t e = s->score_indptr[row]; e < s->score_indptr[row + 1]; e++)
        if ((uint64_t)s->score_indices[e] >= n)
            return 1;
    for (int64_t e = s->border_indptr[row]; e < s->border_indptr[row + 1]; e++)
        if ((uint64_t)s->border_indices[e] >= n)
            return 1;
    return 0;
}

/* The delta gate over every runnable pair, in frontier order: every
 * gated hub must have rows, checked once per block.  Returns 0; the
 * count k of gated hubs without a row, absent[0..k) in first-need
 * order, once each; -2 when the rows of hub `refused` name a column
 * outside [0, num_nodes); or -3 when the frontier hub `refused` lies
 * there itself (only a caller's frontier can: the border rows are
 * checked). */
static int64_t round_rows(splice_round *s)
{
    int64_t absent = 0, status = 0;
    for (int64_t i = 0; i < s->runnable && status == 0; i++) {
        const int64_t q = s->rows[i], end = s->starts[q] + s->counts[q];
        for (int64_t p = s->starts[q]; p < end; p++) {
            const int64_t hub = s->hubs[p];
            if ((uint64_t)hub >= (uint64_t)s->num_nodes) {
                s->refused = hub;
                status = -3;
                break;
            }
            if (!gated(s, p))
                continue;
            const int64_t row = s->row_lookup[hub];
            if (row < 0) {
                if (!s->slot[hub]) {
                    s->slot[hub] = 1;
                    s->absent[absent++] = hub;
                }
            } else if (!__atomic_load_n(s->checked + hub, __ATOMIC_RELAXED)) {
                if (row_outside(s, row)) {
                    s->refused = hub;
                    status = -2;
                    break;
                }
                __atomic_store_n(s->checked + hub, 1, __ATOMIC_RELAXED);
            }
        }
    }
    for (int64_t k = 0; k < absent; k++)
        s->slot[s->absent[k]] = 0;
    return status == 0 ? absent : status;
}

/* next[hub] = next.get(hub, 0.0) + mass * value over border row `row`,
 * hubs in first-touch order (a dict's insertion order) after the
 * *written entries of next_hubs / next_masses.  Returns 0, or -1 when
 * the next frontiers outgrow the capacity. */
static int64_t splice_borders(splice_round *s, int64_t row, double mass,
                              int64_t *written)
{
    const int64_t start = s->border_indptr[row], end = s->border_indptr[row + 1];
    for (int64_t e = start; e < end; e++) {
        const int64_t hub = s->border_indices[e];
        const double share = mass * s->border_data[e];
        if (s->slot[hub]) {
            s->next_masses[s->slot[hub] - 1] += share;
        } else {
            if (*written == s->capacity)
                return -1;
            s->next_hubs[*written] = hub;
            s->next_masses[*written] = 0.0 + share;
            s->slot[hub] = ++*written;
        }
    }
    return 0;
}

/* Every runnable query's next frontier, placed by next_starts /
 * next_counts.  Returns 0, or -1 (slot left all zero) when they need
 * more than capacity entries. */
static int64_t round_frontiers(splice_round *s)
{
    int64_t written = 0, status = 0;
    for (int64_t i = 0; i < s->runnable && status == 0; i++) {
        const int64_t q = s->rows[i], end = s->starts[q] + s->counts[q];
        const int64_t first = written;
        for (int64_t p = s->starts[q]; p < end && status == 0; p++)
            if (gated(s, p))
                status = splice_borders(s, s->row_lookup[s->hubs[p]],
                                        s->masses[p], &written);
        for (int64_t k = first; k < written; k++)
            s->slot[s->next_hubs[k]] = 0;
        s->next_starts[q] = first;
        s->next_counts[q] = written - first;
    }
    return status;
}

/* estimate[column] += mass * value over score row `row`, in row order,
 * then estimate[hub] += mass * -alpha: the scalar loop's
 * estimate[nodes] += m * scores, then its trivial-tour correction
 * estimate[hub] -= alpha * m (m * -alpha is bitwise -(alpha * m), and
 * adding a negated value is bitwise subtracting it).  Returns the prime
 * PPV's entries. */
static int64_t splice_scores(const splice_round *s, int64_t hub, int64_t row,
                             double mass, double *estimate)
{
    const int64_t start = s->score_indptr[row], end = s->score_indptr[row + 1];
    for (int64_t e = start; e < end; e++)
        estimate[s->score_indices[e]] += mass * s->score_data[e];
    estimate[hub] += mass * -s->alpha;
    return end - start;
}

/* One round of every runnable query, in (query, frontier position, row
 * element) order: the gated pairs' next frontier, then their scores,
 * the query's hubs_expanded and work_units, its iteration and its error
 * 1 - sum(estimate) as numpy sums a whole contiguous row.  Returns 0;
 * or, writing nothing the caller reads, round_rows' status or
 * round_frontiers' -1. */
int64_t repro_splice_round(splice_round *s)
{
    int64_t status = round_rows(s);
    if (status == 0)
        status = round_frontiers(s);
    if (status != 0)
        return status;
    for (int64_t i = 0; i < s->runnable; i++) {
        const int64_t q = s->rows[i], end = s->starts[q] + s->counts[q];
        double *estimate = estimate_of(s, q);
        int64_t expanded = 0, work = 0;
        for (int64_t p = s->starts[q]; p < end; p++) {
            if (!gated(s, p))
                continue;
            const int64_t hub = s->hubs[p], row = s->row_lookup[hub];
            work += splice_scores(s, hub, row, s->masses[p], estimate);
            work += s->border_indptr[row + 1] - s->border_indptr[row];
            expanded++;
        }
        s->starts[q] = s->next_starts[q];
        s->counts[q] = s->next_counts[q];
        s->hubs_expanded[q] += expanded;
        s->work_units[q] += work;
        s->iterations[q]++;
        s->errors[s->iterations[q] * s->queries + q] =
            1.0 - pairwise_sum(estimate, s->num_nodes);
    }
    int64_t *hubs = s->hubs;
    double *masses = s->masses;
    s->hubs = s->next_hubs, s->masses = s->next_masses;
    s->next_hubs = hubs, s->next_masses = masses;
    return 0;
}
