/*
 * Native routes of rdvmatch, in plain C99 with no Python headers:
 *
 * rdv_parse reads the canonical instance text that rdvmatch.io's
 * write_instance writes into int64 columns, in two calls: the first
 * counts the text's structural bytes without tokenizing it, the caller
 * allocates the columns from those counts, and the second, the one pass
 * that checks every record, fills them.  Its integer reader finds the end
 * of up to 7 digits in one 8-byte word and converts them with three
 * multiply-shift steps, where the compiler allows; longer integers, and
 * those within 8 bytes of the end of the text or of the parents line,
 * take a loop over bytes.
 *
 * rdv_solve is validation, bottom-up order and the find loop of
 * rdvmatch.matching._shoot_greedy, in one call over int64 columns: the
 * host tree as its parent column alone, and the instance's vertex columns.
 * Its tree pass gives every node its depth and preorder interval.  On a
 * topological column (node 1 the root, every other node after its
 * parent), which every generator writes, that is two linear scans whose
 * cache misses the CPU overlaps; any other column takes child links and a
 * depth-first pass, one dependent miss after another.  The bottom-up
 * order packs each rank's top and bottom (or vertex) into one 64-bit
 * record, so the find loop reads its vertices front to back, prefetches
 * the node records of the ranks a few ahead, and notes each pair as two
 * ranks; the mate array is written from them in one last pass.
 *
 * rdvmatch/_kernel.py compiles this file when the package is imported and
 * calls both through ctypes; it checks the column types and lengths before
 * it passes a pointer, and it allocates every table, so the kernel
 * allocates nothing.
 *
 * Each returns 0 when it takes its input.  Any other value refuses it, and
 * the caller runs the pure Python route, which names each fault.  So the
 * kernel only has to accept no input that the pure route would reject or
 * read otherwise; it may refuse more.
 */

#include <stdint.h>
#include <string.h>

/* One host-tree node.  The find loop reads all four fields of every node
   it visits, so they share one 16-byte record.  Until the vertex checks
   are done, link and head hold its preorder number and the last one in
   its subtree; before the depth-first pass, head heads its list of
   children. */
typedef struct {
    int32_t parent, depth, link, head;
} node_t;

enum { OK = 0, BAD_TREE = 1, BAD_DELTA = 2, BAD_VERTEX = 3, BAD_TEXT = 4 };

/*
 * n_nodes, parent[n_nodes + 1]:
 *     rdvmatch.core.HostTree's parent column (parent[0] == 0; 0 marks a
 *     root).  Where the depth-first pass needs them, the kernel links each
 *     node's children itself.
 * n, tops[n], bots[n_bots], offsets[n + 1] or NULL, delta:
 *     the vertex columns of rdvmatch.core.RdvInstance; with no offsets,
 *     vertex v has the one bottom bots[v - 1].
 * node[n_nodes + 1], aux[n_nodes + 1], order[n + 1], nxt[n + 1]:
 *     zeroed work tables.  order[r] is the vertex of rank r; nxt holds the
 *     depth of each vertex's top, then the queue links by rank, then each
 *     matched rank's partner rank, negated.
 * mate[n + 1]: zeroed; it holds each rank's record until the last pass,
 *     and on success vertex v is matched to mate[v], or free (0).
 * steps[2]: each step of a find is added to steps[0], each pair made to
 *     steps[1].
 */
int rdv_solve(int64_t n_nodes, const int64_t *parent, int64_t n,
              const int64_t *tops, const int64_t *bots, int64_t n_bots,
              const int64_t *offsets, int64_t delta, node_t *node,
              int32_t *aux, int32_t *order, int32_t *nxt, int64_t *mate,
              int64_t *steps)
{
    int64_t i, j;
    int32_t v;

    /* parents in range, and whether the column is topological: node 1 is
       the root and every other node comes after its parent.  Such a
       column is one tree whose every node is reachable, with no cycle. */
    int topological = n_nodes >= 1 && parent[1] == 0;
    for (i = 1; i <= n_nodes; i++) {
        int64_t p = parent[i];
        if (p < 0 || p > n_nodes)
            return BAD_TREE;
        node[i].parent = (int32_t)p;
        topological &= i == 1 || (p >= 1 && p < i);
    }

    if (topological) {
        /* depth and preorder interval of every node in two linear scans,
           whose random reads are independent of each other.  The reverse
           scan puts each subtree's size into aux.  The forward scan meets
           every parent before its children, and each child, in id order,
           takes the next free preorder slot of its parent, kept in aux:
           the depth-first pass's intervals, with children in file order. */
        for (i = n_nodes; i >= 2; i--) {
            aux[i]++;
            aux[node[i].parent] += aux[i];
        }
        node[1].link = 1;
        node[1].head = (int32_t)n_nodes;
        aux[1] = 2;
        for (i = 2; i <= n_nodes; i++) {
            int32_t p = node[i].parent, size = aux[i], slot = aux[p];
            aux[p] = slot + size;
            node[i].depth = node[p].depth + 1;
            node[i].link = slot;
            node[i].head = slot + size - 1;
            aux[i] = slot + 1;
        }
    } else {
        /* any other column: each node goes in front of its parent's list
           of children (head, then aux per sibling), so lists come out in
           file order; node 0 heads the list of roots, which must hold one
           node. */
        for (i = n_nodes; i >= 1; i--) {
            int32_t p = node[i].parent;
            aux[i] = node[p].head;
            node[p].head = (int32_t)i;
        }
        int32_t root = node[0].head;
        if (!root || aux[root])
            return BAD_TREE;

        /* one depth-first pass from the root: depth and preorder interval
           of every node.  While v is on the path, its head is the next
           child to enter.  Every node sits on one list, its parent's, so
           it is entered at most once and the walk ends even on a parent
           cycle; every node entered means every node is reachable. */
        int32_t seen = 1;
        v = root;
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
    }

    if (delta < 1)
        return BAD_DELTA;

    /* ids in range, 1..delta bottoms each, every top an ancestor-or-self
       of each of its bottoms.  Offsets start at 0, rise by at least one
       per vertex and never pass n_bots, so each slice lies inside bots;
       the last one ends at n_bots.  nxt[v] takes the depth of v's top. */
    if (offsets && (offsets[0] != 0 || offsets[n] != n_bots))
        return BAD_VERTEX;
    if (!offsets && n_bots != n)
        return BAD_VERTEX;
    int32_t deepest = 0;
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
        nxt[i + 1] = node[t].depth;
        if (node[t].depth > deepest)
            deepest = node[t].depth;
    }

    /* bottom-up order: a counting sort on top depth, deepest first, and
       ascending ids within a depth.  aux[d] counts the tops at depth d,
       then holds the next rank of that depth.  Rank r gets its vertex in
       order[r] and its record in mate[r]: its top in the high 32 bits,
       and in the low ones its bottom, or with offsets its vertex. */
    for (i = 0; i <= deepest; i++)
        aux[i] = 0;
    for (i = 1; i <= n; i++)
        aux[nxt[i]]++;
    int32_t next = 1;
    for (i = deepest; i >= 0; i--) {
        int32_t tops_here = aux[i];
        aux[i] = next;
        next += tops_here;
    }
    for (i = 1; i <= n; i++) {
        int32_t rank = aux[nxt[i]]++;
        order[rank] = (int32_t)i;
        mate[rank] = (int64_t)((uint64_t)tops[i - 1] << 32
                               | (uint64_t)(offsets ? i : bots[i - 1]));
    }
    memset(nxt, 0, (size_t)(n + 1) * sizeof *nxt);
    for (i = 0; i <= n_nodes; i++)
        node[i].link = node[i].head = 0;

    /* the find loop of _shoot_greedy, with free vertices queued by rank:
       head is the rank at the front of a node's queue (0: empty), aux the
       rank at its back (read only while head is set), nxt the rank behind
       each queued one.  The smallest head among a vertex's hits is its
       minimum-rank hit.  A pair of ranks r and s sets nxt[r] = -s and
       nxt[s] = -r; the mate array is written from them at the end. */
    int64_t count = 0, pairs = 0;
    for (int32_t rank = 1; rank <= n; rank++) {
        int32_t u, w, best = 0, at = 0;
#if defined(__GNUC__)
        /* the records ahead are known, so their reads can start early: the
           node records of the top and the bottoms 8 ranks ahead, and with
           offsets the vertex's offsets 16 ranks ahead */
        if (offsets && rank + 16 <= n)
            __builtin_prefetch(&offsets[(uint32_t)mate[rank + 16] - 1]);
        if (rank + 8 <= n) {
            uint64_t ahead = (uint64_t)mate[rank + 8];
            __builtin_prefetch(&node[ahead >> 32]);
            if (offsets)
                for (j = offsets[(uint32_t)ahead - 1]; j < offsets[(uint32_t)ahead]; j++)
                    __builtin_prefetch(&node[bots[j]]);
            else
                __builtin_prefetch(&node[(uint32_t)ahead]);
        }
#endif
        uint64_t record = (uint64_t)mate[rank];
        int32_t top = (int32_t)(record >> 32), depth = node[top].depth;
        int64_t lo = offsets ? offsets[(uint32_t)record - 1] : 0;
        int64_t hi = offsets ? offsets[(uint32_t)record] : 1;
        for (j = lo; j < hi; j++) {
            u = offsets ? (int32_t)bots[j] : (int32_t)(uint32_t)record;
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
            nxt[best] = -rank;
            nxt[rank] = -best;
            pairs++;
        } else if (node[top].head) {
            nxt[aux[top]] = rank;
            aux[top] = rank;
        } else {
            node[top].head = aux[top] = rank;
        }
    }

    /* the mate array, from the pairs of ranks */
    memset(mate, 0, (size_t)(n + 1) * sizeof *mate);
    for (i = 1; i <= n; i++)
        if (nxt[i] < 0)
            mate[order[i]] = order[-nxt[i]];
    steps[0] += count;
    steps[1] += pairs;
    return OK;
}

/* The unread part of a text. */
typedef struct {
    const char *at, *end;
} cursor_t;

/* Whether the text at c starts with the literal w; consumes it if so. */
static int literal(cursor_t *c, const char *w)
{
    const char *at = c->at;
    for (; *w; w++, at++)
        if (at == c->end || *at != *w)
            return 0;
    c->at = at;
    return 1;
}

/* Whether the text at c starts with an optional '-' and 1 to 19 decimal
   digits of magnitude below 2^63; consumes them into *value if so.  Up to
   19 digits cannot wrap m.  Longer digit strings are refused, because
   Python's int() refuses some of them (over 4300 digits) whatever their
   value.

   Where 8 bytes remain, gcc-compatible compilers on little-endian targets
   first read them as one word w (Lemire, "Number parsing at a gigabyte
   per second", SPE 2021).  A byte of t is nonzero where w's byte is not
   '0'..'9': its high nibble is not 3, or that of the byte plus 6 is not.
   A carry out of a byte of 0xFA or above only reaches bytes after the
   first non-digit, so the lowest nonzero byte of t is that non-digit.
   1 to 7 of them are moved to the top of the word, where the bytes below
   read as leading zeros, and three multiply-shift steps join digits into
   pairs, pairs into 4 digits, then 4 into 8.  Every other case, 8 or more
   digits among them, takes the byte loop. */
static int integer(cursor_t *c, int64_t *value)
{
    const char *at = c->at, *digits;
    uint64_t m = 0;
    if (at < c->end && *at == '-')
        at++;
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (c->end - at >= 8) {
        const uint64_t high = 0xF0F0F0F0F0F0F0F0u, zeros = 0x3030303030303030u;
        uint64_t w, t;
        int count;
        memcpy(&w, at, 8);
        t = ((w & high) ^ zeros) | (((w + 0x0606060606060606u) & high) ^ zeros);
        if (t) {
            count = __builtin_ctzll(t) >> 3;
            if (!count)
                return 0;
            w = (w << (64 - 8 * count)) & 0x0F0F0F0F0F0F0F0Fu;
            w = w * 10 + (w >> 8);
            w = ((w & 0x000000FF000000FFu) * 0x000F424000000064u
                 + ((w >> 16) & 0x000000FF000000FFu) * 0x0000271000000001u) >> 32;
            *value = *c->at == '-' ? -(int64_t)w : (int64_t)w;
            c->at = at + count;
            return 1;
        }
    }
#endif
    for (digits = at; at < c->end && (unsigned)(*at - '0') < 10; at++)
        m = m * 10 + (uint64_t)(*at - '0');
    if (at == digits || at - digits > 19 || m > (uint64_t)INT64_MAX)
        return 0;
    *value = *c->at == '-' ? -(int64_t)m : (int64_t)m;
    c->at = at;
    return 1;
}

/* Bytes per block of count_bytes: a multiple of 16, and below 256 so that
   an unsigned char counter cannot wrap within a block. */
enum { BLOCK = 240 };

/* The spaces and the newlines in [at, end).  Each fixed block is counted
   into unsigned char counters, a loop of known length over bytes that gcc
   vectorizes at -O2; a plain loop into int64 counters it does not. */
static void count_bytes(const char *at, const char *end, int64_t *spaces,
                        int64_t *newlines)
{
    int64_t s = 0, l = 0;
    int i;
    for (; end - at >= BLOCK; at += BLOCK) {
        unsigned char bs = 0, bl = 0;
        for (i = 0; i < BLOCK; i++) {
            bs += at[i] == ' ';
            bl += at[i] == '\n';
        }
        s += bs;
        l += bl;
    }
    for (; at < end; at++) {
        s += *at == ' ';
        l += *at == '\n';
    }
    *spaces = s;
    *newlines = l;
}

/*
 * text[len]: an instance in the canonical form of write_instance, and
 * nothing else:
 *
 *     tree N\nparents p_1 ... p_N\nvertices n delta\n
 *     v t b_1 [b_2 ...]\n  (n lines)
 *
 * with N >= 1, n >= 0, single spaces, a final newline, and every value an
 * integer as integer() reads it.  Comments, blank lines, other white
 * space, other spellings of integers and records too few or too many are
 * all refused.
 *
 * head[4]: n_nodes, n, delta, n_bots.  The first call passes NULL for
 * every column and gets head filled in.  It reads the three header
 * integers and tokenizes nothing else: it counts the spaces on the
 * parents line, which must equal N, and the spaces and newlines after the
 * vertices line.  The newlines must equal n, and spaces - newlines, one
 * per bottom, is n_bots, at least n.  So no count comes from the header
 * alone, and a text whose header lies is refused before anything is
 * allocated.  The second call passes the same text and head, and columns
 * sized from head: parent[n_nodes], tops[n], bots[n_bots], and
 * offsets[n + 1], or NULL when delta == 1 and n_bots == n (every vertex
 * has one bottom).  It checks every record, refuses a bottom past
 * bots[n_bots - 1], and refuses unless it read exactly n_bots of them;
 * the byte counts are exact for canonical text, so it fills every column.
 */
int rdv_parse(const char *text, int64_t len, int64_t *head, int64_t *parent,
              int64_t *tops, int64_t *bots, int64_t *offsets)
{
    cursor_t c = {text, text + len}, line;
    int64_t n_nodes, n, delta, spaces, newlines, i, k = 0;

    /* the header lines, the parents line found by its newline */
    if (!literal(&c, "tree ") || !integer(&c, &n_nodes) || !literal(&c, "\n"))
        return BAD_TEXT;
    line.at = c.at;
    line.end = memchr(c.at, '\n', (size_t)(c.end - c.at));
    if (!line.end)
        return BAD_TEXT;
    c.at = line.end + 1;
    if (!literal(&c, "vertices ") || !integer(&c, &n) || !literal(&c, " ")
        || !integer(&c, &delta) || !literal(&c, "\n"))
        return BAD_TEXT;

    if (!parent) {
        count_bytes(line.at, line.end, &spaces, &newlines);
        if (n_nodes < 1 || spaces != n_nodes)
            return BAD_TEXT;
        count_bytes(c.at, c.end, &spaces, &newlines);
        if (n < 0 || newlines != n || spaces - newlines < n)
            return BAD_TEXT;
        head[0] = n_nodes;
        head[1] = n;
        head[2] = delta;
        head[3] = spaces - newlines;
        return OK;
    }

    if (n_nodes != head[0] || n != head[1] || !literal(&line, "parents"))
        return BAD_TEXT;
    for (i = 0; i < n_nodes; i++)
        if (!literal(&line, " ") || !integer(&line, &parent[i]))
            return BAD_TEXT;
    if (line.at != line.end)
        return BAD_TEXT;
    for (i = 0; i < n; i++) {
        if (offsets)
            offsets[i] = k;
        if (!literal(&c, "v ") || !integer(&c, &tops[i]))
            return BAD_TEXT;
        do {
            if (k == head[3] || !literal(&c, " ") || !integer(&c, &bots[k]))
                return BAD_TEXT;
            k++;
        } while (!literal(&c, "\n"));
    }
    if (c.at != c.end || k != head[3])
        return BAD_TEXT;
    if (offsets)
        offsets[n] = k;
    return OK;
}
