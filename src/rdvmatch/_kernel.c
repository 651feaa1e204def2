/*
 * Native solve of rdvmatch: validation, bottom-up order and the find loop
 * of rdvmatch.matching._shoot_greedy, in one call over int64 columns: the
 * host tree as its parent column alone, and the instance's vertex columns.
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
   are done, head first heads the node's list of children, then link and
   head hold its preorder number and the last one in its subtree. */
typedef struct {
    int32_t parent, depth, link, head;
} node_t;

enum { OK = 0, BAD_TREE = 1, BAD_DELTA = 2, BAD_VERTEX = 3 };

/*
 * n_nodes, parent[n_nodes + 1]:
 *     rdvmatch.core.HostTree's parent column (parent[0] == 0; 0 marks a
 *     root).  The kernel links each node's children itself.
 * n, tops[n], bots[n_bots], offsets[n + 1] or NULL, delta:
 *     the vertex columns of rdvmatch.core.RdvInstance; with no offsets,
 *     vertex v has the one bottom bots[v - 1].
 * node[n_nodes + 1], aux[n_nodes + 1], order[n + 1], nxt[n + 1]:
 *     zeroed work tables.
 * mate[n + 1]: zeroed; on success vertex v is matched to mate[v], or free.
 * steps[1]: each step of a find is added to it.
 */
int rdv_solve(int64_t n_nodes, const int64_t *parent, int64_t n,
              const int64_t *tops, const int64_t *bots, int64_t n_bots,
              const int64_t *offsets, int64_t delta, node_t *node,
              int32_t *aux, int32_t *order, int32_t *nxt, int64_t *mate,
              int64_t *steps)
{
    int64_t i, j;

    /* parents in range.  Each node goes in front of its parent's list of
       children (head, then aux per sibling), so lists come out in file
       order; node 0 heads the list of roots, which must hold one node. */
    for (i = n_nodes; i >= 1; i--) {
        int64_t p = parent[i];
        if (p < 0 || p > n_nodes)
            return BAD_TREE;
        node[i].parent = (int32_t)p;
        aux[i] = node[p].head;
        node[p].head = (int32_t)i;
    }
    int32_t root = node[0].head;
    if (!root || aux[root])
        return BAD_TREE;

    /* one depth-first pass from the root: depth and preorder interval of
       every node.  While v is on the path, its head is the next child to
       enter.  Every node sits on one list, its parent's, so it is entered
       at most once and the walk ends even on a parent cycle; every node
       entered means every node is reachable. */
    int32_t v = root, seen = 1;
    node[v].link = seen;
    for (;;) {
        int32_t c = node[v].head;
        if (c) {
            node[v].head = aux[c];
            node[c].depth = node[v].depth + 1;
            node[c].link = ++seen;
            v = c;
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

    /* ids in range, 1..delta bottoms each, every top an ancestor-or-self
       of each of its bottoms.  Offsets start at 0, rise by at least one
       per vertex and never pass n_bots, so each slice lies inside bots;
       the last one ends at n_bots. */
    if (offsets && (offsets[0] != 0 || offsets[n] != n_bots))
        return BAD_VERTEX;
    if (!offsets && n_bots != n)
        return BAD_VERTEX;
    for (i = 0; i < n; i++) {
        int64_t t = tops[i];
        int64_t lo = offsets ? offsets[i] : i, hi = offsets ? offsets[i + 1] : i + 1;
        if (t < 1 || t > n_nodes || hi > n_bots || hi <= lo || hi - lo > delta)
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
    for (i = 0; i <= n_nodes; i++)
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
