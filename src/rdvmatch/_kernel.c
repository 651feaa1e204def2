/*
 * Native solve of rdvmatch: validation, bottom-up order and the find loop
 * of rdvmatch.matching._shoot_greedy, in one call over the instance's
 * int64 columns.
 *
 * Plain C99 with no Python headers.  rdvmatch/_kernel.py compiles this
 * file when the package is imported and calls rdv_solve through ctypes;
 * it checks the column types and lengths before it passes a pointer, and
 * it allocates every table, so the kernel allocates nothing.
 *
 * rdv_solve returns 0 and fills mate[] when the instance is well-formed.
 * Any other value refuses the instance, and the caller runs the pure
 * Python route, which names each violation.  So the kernel only has to
 * accept no instance that validation would reject; it may refuse more.
 */

#include <stdint.h>

/* One host-tree node.  The find loop reads all four fields of every node
   it visits, so they share one 16-byte record.  Until the vertex checks
   are done, link and head hold the node's preorder number and the last
   preorder number in its subtree instead. */
typedef struct {
    int32_t parent, depth, link, head;
} node_t;

enum { OK = 0, BAD_TREE = 1, BAD_DELTA = 2, BAD_VERTEX = 3 };

/*
 * n_nodes, parent[n_nodes + 1], first[n_nodes + 3], kids[n_nodes]:
 *     the host tree as rdvmatch.core.HostTree holds it (parent[0] == 0;
 *     the children of node p are kids[first[p]:first[p + 1]]).
 * n, tops[n], bots[n_bots], offsets[n + 1] or NULL, delta:
 *     the vertex columns of rdvmatch.core.RdvInstance; with no offsets,
 *     vertex v has the one bottom bots[v - 1].
 * node[n_nodes + 1], aux[n_nodes + 1], order[n + 1], nxt[n + 1]:
 *     zeroed work tables.
 * mate[n + 1]: zeroed; on success vertex v is matched to mate[v], or free.
 * steps[1]: each step of a find is added to it.
 */
int rdv_solve(int64_t n_nodes, const int64_t *parent, const int64_t *first,
              const int64_t *kids, int64_t n, const int64_t *tops,
              const int64_t *bots, int64_t n_bots, const int64_t *offsets,
              int64_t delta, node_t *node, int32_t *aux, int32_t *order,
              int32_t *nxt, int64_t *mate, int64_t *steps)
{
    int64_t i, j, roots = 0, root = 0;

    /* parents in range, exactly one root, children ranges inside kids */
    if (first[1] < 0 || first[n_nodes + 1] > n_nodes)
        return BAD_TREE;
    for (i = 1; i <= n_nodes; i++) {
        if (parent[i] < 0 || parent[i] > n_nodes || first[i] > first[i + 1])
            return BAD_TREE;
        if (parent[i] == 0) {
            roots++;
            root = i;
        }
        node[i].parent = (int32_t)parent[i];
    }
    if (roots != 1)
        return BAD_TREE;

    /* one depth-first pass from the root: depth and preorder interval of
       every node.  While v is on the path, its head indexes in kids the
       next child to enter.  A child must name v as its parent and be
       entered once, so the walk ends even on inconsistent columns; every
       node entered means every node is reachable. */
    int32_t v = (int32_t)root, seen = 1;
    node[v].link = seen;
    node[v].head = (int32_t)first[v];
    for (;;) {
        if (node[v].head < first[v + 1]) {
            int64_t c = kids[node[v].head++];
            if (c < 1 || c > n_nodes || node[c].parent != v || node[c].link)
                return BAD_TREE;
            node[c].depth = node[v].depth + 1;
            node[c].link = ++seen;
            node[c].head = (int32_t)first[c];
            v = (int32_t)c;
        } else {
            node[v].head = seen;
            if (v == root)
                break;
            v = node[v].parent;
        }
    }
    if (seen != n_nodes)
        return BAD_TREE;

    if (delta < 1)
        return BAD_DELTA;

    /* ids in range, 1..delta bottoms each (offsets rise from 0 to n_bots),
       every top an ancestor-or-self of each of its bottoms */
    if (offsets && (offsets[0] != 0 || offsets[n] != n_bots))
        return BAD_VERTEX;
    if (!offsets && n_bots != n)
        return BAD_VERTEX;
    for (i = 0; i < n; i++) {
        int64_t t = tops[i];
        int64_t lo = offsets ? offsets[i] : i, hi = offsets ? offsets[i + 1] : i + 1;
        if (t < 1 || t > n_nodes || hi - lo < 1 || hi - lo > delta)
            return BAD_VERTEX;
        for (j = lo; j < hi; j++) {
            int64_t b = bots[j];
            if (b < 1 || b > n_nodes || node[b].link < node[t].link
                || node[b].link > node[t].head)
                return BAD_VERTEX;
        }
    }

    /* bottom-up order: a counting sort on top depth, deepest first, and
       ascending ids within a depth.  aux[d] counts the tops at depth d,
       then holds the next rank of that depth. */
    for (i = 0; i <= n_nodes; i++)
        aux[i] = 0;
    for (i = 0; i < n; i++)
        aux[node[tops[i]].depth]++;
    int32_t next = 1;
    for (i = n_nodes - 1; i >= 0; i--) {
        int32_t tops_here = aux[i];
        aux[i] = next;
        next += tops_here;
    }
    for (i = 0; i < n; i++)
        order[aux[node[tops[i]].depth]++] = (int32_t)(i + 1);
    for (i = 1; i <= n_nodes; i++)
        node[i].link = node[i].head = 0;

    /* the find loop of _shoot_greedy, with free vertices queued by rank:
       head is the rank at the front of a node's queue (0: empty), aux the
       rank at its back (read only while head is set), nxt the rank behind
       each queued one.  The smallest head among a vertex's hits is its
       minimum-rank hit. */
    int64_t count = 0;
    for (int32_t rank = 1; rank <= n; rank++) {
        int32_t u, w, best = 0, at = 0;
        v = order[rank];
        int32_t top = (int32_t)tops[v - 1], depth = node[top].depth;
        int64_t lo = offsets ? offsets[v - 1] : v - 1, hi = offsets ? offsets[v] : v;
        for (j = lo; j < hi; j++) {
            u = (int32_t)bots[j];
            /* u holds no free vertex and lies below the top: it never gets
               one again, so link it to its parent, later halve its path */
            while (!node[u].head && node[u].depth > depth) {
                w = node[u].link;
                w = w ? (node[w].link ? node[w].link : w) : node[u].parent;
                node[u].link = w;
                u = w;
                count++;
            }
            if (node[u].head && (!best || node[u].head < best)) {
                best = node[u].head;
                at = u;
            }
        }
        if (best) {
            node[at].head = nxt[best];
            mate[v] = order[best];
            mate[order[best]] = v;
        } else if (node[top].head) {
            nxt[aux[top]] = rank;
            aux[top] = rank;
        } else {
            node[top].head = aux[top] = rank;
        }
    }
    *steps += count;
    return OK;
}
