/*
 * Native routes of rdvmatch, in plain C99 with no Python headers:
 *
 * rdv_parse reads the canonical instance text that rdvmatch.io's
 * write_instance writes into int64 columns, in two calls: the first
 * counts the text's structural bytes without tokenizing it, the caller
 * allocates the columns from those counts, and the second, the one pass
 * that checks every record, fills them.  The second scans the parents
 * line and the vertex section in blocks of 64 bytes, each giving masks of
 * its spaces, newlines and non-digits at once (Langdale & Lemire,
 * "Parsing Gigabytes of JSON per Second", VLDB J. 2019): SSE2 where the
 * target has it, else eight 8-byte words.  Token ends come from walking
 * the separator bits, so no token waits on the one before it, and each
 * token of 1 to 8 digits is converted from the 8-byte word that ends at
 * its last byte, one of 9 or 10 digits from two such words.  It is the
 * only reader of the records: a text it does not take is refused.
 *
 * rdv_solve is validation, bottom-up order and the find loop of
 * rdvmatch.matching._shoot_greedy, in one call over int64 columns: the
 * host tree as its parent column alone, and the instance's vertex columns.
 * Its tree pass gives every node its depth and preorder interval.  On a
 * topological column (node 1 the root, every other node after its
 * parent), which every generator writes, that is two linear scans whose
 * cache misses the CPU overlaps, and which carry the previous node's
 * values in registers, so a path or a caterpillar does not make each
 * node wait on the store of the one before; any other column takes child
 * links and a depth-first pass, one dependent miss after another.  The
 * bottom-up order packs each rank's top and bottom (or vertex) into one
 * 64-bit record, so the find loop reads its vertices front to back,
 * prefetches the node records of the ranks a few ahead, and notes each
 * pair as two ranks; the mate array is written from them in one last
 * pass.  A find halves its path, then points every link of the walk at
 * the node where it stopped (path compression).  Halving and compression
 * each cost O(log |T|) amortized per find without ranks (Tarjan & van
 * Leeuwen, "Worst-case analysis of set union algorithms", JACM 1984);
 * the compression walk revisits only the nodes the halving walk counted,
 * so a find costs at most twice its counted steps, and it only moves a
 * link further along its own path, so no link path ever grows.
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
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
 *     depth of each vertex's top, then each matched rank's partner rank,
 *     negated.
 * mate[n + 1]: zeroed; it holds each rank's record until the last pass,
 *     and on success vertex v is matched to mate[v], or free (0).
 * steps[2]: each step of a find's halving walk is added to steps[0], each
 *     pair made to steps[1].
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
           the depth-first pass's intervals, with children in file order.
           On a path or a caterpillar a node's parent is mostly the node
           scanned just before it, so both scans carry that node's values
           in registers instead of reading back the store just made.  The
           reverse scan owes the sizes of a run of siblings to their parent
           q and adds them when the parent changes, or into q's own size
           when the scan reaches q; node 1's size is n_nodes, so its sum is
           never added. */
        int32_t q = 0, owed = 0;
        for (i = n_nodes; i >= 2; i--) {
            int32_t p = node[i].parent, size = aux[i] + 1;
            if (p != q) {
                if (i == q)
                    size += owed;
                else
                    aux[q] += owed;
                q = p;
                owed = 0;
            }
            owed += size;
            aux[i] = size;
        }
        node[1].link = 1;
        node[1].head = (int32_t)n_nodes;
        aux[1] = 2;
        /* the next free slot and the depth of node i - 1 */
        int32_t free_slot = 2, depth = 0;
        for (i = 2; i <= n_nodes; i++) {
            int32_t p = node[i].parent, size = aux[i], slot;
            if (p == i - 1) {
                slot = free_slot;
            } else {
                slot = aux[p];
                depth = node[p].depth;
            }
            aux[p] = slot + size;
            node[i].depth = ++depth;
            node[i].link = slot;
            node[i].head = slot + size - 1;
            aux[i] = free_slot = slot + 1;
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

    /* the find loop of _shoot_greedy: head is the rank of the free vertex
       a node holds (0: none), never more than one.  The smallest head
       among a vertex's hits is its minimum-rank hit.  A pair of ranks r
       and s sets nxt[r] = -s and nxt[s] = -r; the mate array is written
       from them at the end. */
    int64_t count = 0, pairs = 0;
    for (int32_t rank = 1; rank <= n; rank++) {
        int32_t u, w, best = 0, at = 0;
#if defined(__GNUC__)
        /* the records ahead are known, so their reads can start early: the
           node records of the top and the bottoms 8 ranks ahead, and with
           offsets the vertex's offsets 16 ranks ahead; the guards add
           in n's 64 bits, where rank + 16 could overflow an int32 */
        if (offsets && (int64_t)rank + 16 <= n)
            __builtin_prefetch(&offsets[(uint32_t)mate[rank + 16] - 1]);
        if ((int64_t)rank + 8 <= n) {
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
            int32_t start = u = offsets ? (int32_t)bots[j] : (int32_t)(uint32_t)record;
            int64_t before = count;
            /* u holds no free vertex and lies below the top: it never gets
               one again, so link it to its parent, later halve its path */
            while (!node[u].head && node[u].depth > depth) {
                w = node[u].link;
                w = w ? (node[w].link ? node[w].link : w) : node[u].parent;
                node[u].link = w;
                u = w;
                count++;
            }
            /* then point every link of the walk at u, where it stopped: the
               nodes between are empty for good.  A walk of one step left
               its start linked to u already. */
            if (count - before > 1)
                for (w = start; node[w].link != u;) {
                    int32_t up = node[w].link;
                    node[w].link = u;
                    w = up;
                }
            if (node[u].head && (!best || node[u].head < best)) {
                best = node[u].head;
                at = u;
            }
        }
        if (best) {
            node[at].head = 0;
            nxt[best] = -rank;
            nxt[rank] = -best;
            pairs++;
        } else {
            node[top].head = rank;
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
   value.  It reads the three header integers alone. */
static int integer(cursor_t *c, int64_t *value)
{
    const char *at = c->at, *digits;
    uint64_t m = 0;
    if (at < c->end && *at == '-')
        at++;
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

/* The 8 bytes at p as a little-endian word, on any target. */
static inline uint64_t word_at(const char *p)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
#else
    const unsigned char *b = (const unsigned char *)p;
    return (uint64_t)b[0] | (uint64_t)b[1] << 8 | (uint64_t)b[2] << 16
           | (uint64_t)b[3] << 24 | (uint64_t)b[4] << 32 | (uint64_t)b[5] << 40
           | (uint64_t)b[6] << 48 | (uint64_t)b[7] << 56;
#endif
}

/* The value of the count (1 to 8) digits that end at last, at least 7
   bytes into the text.  The word that ends at last holds them in its top
   bytes; the bytes below are cleared to read as leading zeros, and three
   multiply-shift steps join digits into pairs, pairs into 4 digits, then
   4 into 8 (Lemire, "Number parsing at a gigabyte per second", SPE
   2021). */
static inline int64_t digits(const char *last, int64_t count)
{
    uint64_t w = word_at(last - 7) & ~(uint64_t)0 << (64 - 8 * count) & 0x0F0F0F0F0F0F0F0Fu;
    w = w * 10 + (w >> 8);
    w = ((w & 0x000000FF000000FFu) * 0x000F424000000064u
         + ((w >> 16) & 0x000000FF000000FFu) * 0x0000271000000001u) >> 32;
    return (int64_t)w;
}

/* The value of the count (9 or 10) digits that end at last, at least 15
   bytes into the text: two words, the last 8 digits and the ones before.
   Apart from digits(), so that the 1 to 8 digit path stays as it is. */
static int64_t long_digits(const char *last, int64_t count)
{
    return digits(last - 8, count - 8) * 100000000 + digits(last, 8);
}

/* The value of the count digits that end at last, or -1 unless count is
   1 to 10. */
static inline int64_t token(const char *last, int64_t count)
{
    if ((uint64_t)(count - 1) < 8)
        return digits(last, count);
    return (uint64_t)(count - 9) < 2 ? long_digits(last, count) : -1;
}

/* The index of the lowest set bit of x, which is not 0. */
static inline int lowest_bit(uint64_t x)
{
#if defined(__GNUC__)
    return __builtin_ctzll(x);
#else
    /* the ones below the lowest one, counted in bit fields of 2, 4, 8 */
    x = (x & (0 - x)) - 1;
    x -= x >> 1 & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + (x >> 2 & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return (int)(x * 0x0101010101010101u >> 56);
#endif
}

/* Bit i of each mask stands for byte i of a block of 64. */
typedef struct {
    uint64_t space, newline, nondigit;
} masks_t;

/* The masks of the 64 bytes at at: spaces, newlines, and bytes that are
   not '0'..'9'. */
static inline masks_t block_masks(const char *at)
{
    masks_t m = {0, 0, 0};
    uint64_t digit = 0;
    int i;
#if defined(__SSE2__)
    const __m128i space = _mm_set1_epi8(' '), newline = _mm_set1_epi8('\n');
    const __m128i shift = _mm_set1_epi8(0x80 - '0'), bound = _mm_set1_epi8(-128 + 10);
    for (i = 0; i < 64; i += 16) {
        __m128i b = _mm_loadu_si128((const __m128i *)(at + i));
        m.space |= (uint64_t)(uint16_t)_mm_movemask_epi8(_mm_cmpeq_epi8(b, space)) << i;
        m.newline |= (uint64_t)(uint16_t)_mm_movemask_epi8(_mm_cmpeq_epi8(b, newline)) << i;
        /* shifted by 0x80 - '0', the digits wrap to the ten smallest
           signed bytes */
        digit |= (uint64_t)(uint16_t)_mm_movemask_epi8(
                     _mm_cmplt_epi8(_mm_add_epi8(b, shift), bound)) << i;
    }
#else
    const uint64_t ones = 0x0101010101010101u, high = 0x80 * ones, low = 0x7F * ones;
    /* the high bits of a word, one per byte, gathered into its top byte */
    const uint64_t gather = 0x0102040810204080u;
    for (i = 0; i < 64; i += 8) {
        uint64_t w = word_at(at + i), s = w ^ ' ' * ones, l = w ^ '\n' * ones;
        uint64_t b = w & low;
        /* a byte's high bit is set when the byte of s (of l) is zero: no
           sum crosses a byte, so the test is exact; and when w's byte is
           below 0x80 and its low 7 bits are at least 0x30, not 0x3A */
        s = ~(((s & low) + low) | s) & high;
        l = ~(((l & low) + low) | l) & high;
        b = (b + 0x50 * ones) & ~(b + 0x46 * ones) & ~w & high;
        m.space |= ((s >> 7) * gather >> 56) << i;
        m.newline |= ((l >> 7) * gather >> 56) << i;
        digit |= ((b >> 7) * gather >> 56) << i;
    }
#endif
    m.nondigit = ~digit;
    return m;
}

/* The masks of the block of [at, end) that starts at at.  A last block
   of fewer than 64 bytes is copied, so that no read passes end, and its
   bits past end are cleared. */
static inline masks_t masks(const char *at, const char *end)
{
    char tail[64];
    masks_t m;
    uint64_t keep;
    if (end - at >= 64)
        return block_masks(at);
    memset(tail, 0, sizeof tail);
    memcpy(tail, at, (size_t)(end - at));
    m = block_masks(tail);
    keep = ((uint64_t)1 << (end - at)) - 1;
    m.space &= keep;
    m.newline &= keep;
    m.nondigit &= keep;
    return m;
}

/* The block scan of the parents section [at, end): p_1 ... p_N\n, with a
   space before at.  Every token ends at a separator, found by walking the
   block's separator bits, so no token waits on the one before it.  Fills
   parent[1..n_nodes] and says whether it took the section: n_nodes
   tokens of 1 to 10 digits. */
static int scan_parents(const char *at, const char *end, int64_t n_nodes,
                        int64_t *parent)
{
    int64_t i = 0, base, last = -1;
    for (base = 0; base < end - at; base += 64) {
        masks_t m = masks(at + base, end);
        uint64_t sep = m.space | m.newline;
        if (m.nondigit & ~sep)
            return 0;
        for (; sep; sep &= sep - 1) {
            int64_t p = base + lowest_bit(sep), value = token(at + p - 1, p - last - 1);
            if (value < 0 || i == n_nodes)
                return 0;
            parent[++i] = value;
            last = p;
        }
    }
    return i == n_nodes;
}

/* The block scan of the vertex section [at, end), with a newline before
   at: n lines v t b_1 [b_2 ...]\n, the text's last byte a newline.  Each
   line's first token must be exactly v, which is where the section's
   non-digits that are not separators must lie, so they are n in all; no
   token may be empty, and every other one is 1 to 10 digits.  Fills tops,
   bots and offsets (or not, when NULL) and says whether it took the
   section, with exactly n_bots bottoms. */
static int scan_vertices(const char *at, const char *end, int64_t n,
                         int64_t n_bots, int64_t *tops, int64_t *bots,
                         int64_t *offsets)
{
    int64_t i = 0, k = 0, base, last = -1;
    uint64_t starts = 1; /* the bytes that start a line */
    int role = 0;        /* of the next token: the v, the top, a bottom */
    if (offsets)
        offsets[0] = 0;
    for (base = 0; base < end - at; base += 64) {
        masks_t m = masks(at + base, end);
        uint64_t sep = m.space | m.newline;
        starts |= m.newline << 1;
        if (m.nondigit & ~sep & ~starts)
            return 0;
        starts = m.newline >> 63;
        for (; sep; sep &= sep - 1) {
            int bit = lowest_bit(sep);
            int64_t p = base + bit, count = p - last - 1, value;
            if (role == 2) {
                value = token(at + p - 1, count);
                if (value < 0 || k == n_bots)
                    return 0;
                bots[k++] = value;
                if (m.newline >> bit & 1) {
                    if (offsets)
                        offsets[i + 1] = k;
                    i++;
                    role = 0;
                }
            } else if (m.newline >> bit & 1) {
                return 0;
            } else if (role == 1) {
                value = token(at + p - 1, count);
                if (value < 0 || i == n)
                    return 0;
                tops[i] = value;
                role = 2;
            } else {
                if (count != 1 || at[p - 1] != 'v')
                    return 0;
                role = 1;
            }
            last = p;
        }
    }
    return i == n && k == n_bots && last == end - at - 1;
}

/*
 * text[len]: an instance in the canonical form of write_instance, and
 * nothing else:
 *
 *     tree N\nparents p_1 ... p_N\nvertices n delta\n
 *     v t b_1 [b_2 ...]\n  (n lines)
 *
 * with N >= 1, n >= 0, single spaces and a final newline.  The three
 * header values are integers as integer() reads them, and every other
 * value is 1 to 10 unsigned decimal digits.  Comments, blank lines, other
 * white space, other spellings of integers (a sign, 11 digits or more) and
 * records too few or too many are all refused.
 *
 * head[4]: n_nodes, n, delta, n_bots.  The first call passes NULL for
 * every column and gets head filled in.  It reads the three header
 * integers and tokenizes nothing else: it counts the spaces on the
 * parents line, which must equal N, and the spaces and newlines after the
 * vertices line.  The newlines must equal n, and spaces - newlines, one
 * per bottom, is n_bots, at least n.  So no count comes from the header
 * alone, and a text whose header lies is refused before anything is
 * allocated.  The second call passes the same text and head, and columns
 * sized from head: parent[n_nodes + 1], of which it fills slots 1..N and
 * sets slot 0 to 0, as rdvmatch.core.HostTree keeps it; tops[n];
 * bots[n_bots]; and offsets[n + 1], or NULL when delta == 1 and n_bots ==
 * n (every vertex has one bottom).  The block scan reads the parents line
 * and the vertex section 64 bytes at a time and decides: a text it does
 * not take is refused, so every text taken reads as the Python parser
 * reads it.  It refuses a bottom past bots[n_bots - 1] and refuses unless
 * it reads exactly n_bots of them; the byte counts are exact for
 * canonical text, so it fills every column.
 */
int rdv_parse(const char *text, int64_t len, int64_t *head, int64_t *parent,
              int64_t *tops, int64_t *bots, int64_t *offsets)
{
    cursor_t c = {text, text + len}, line;
    int64_t n_nodes, n, delta, spaces, newlines;

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
    parent[0] = 0;
    if (line.at < line.end && *line.at == ' '
        && scan_parents(line.at + 1, line.end + 1, n_nodes, parent)
        && scan_vertices(c.at, c.end, n, head[3], tops, bots, offsets))
        return OK;
    return BAD_TEXT;
}
