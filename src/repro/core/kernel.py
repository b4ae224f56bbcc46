"""Compiled way-memoization kernel (MAB + cache loop in C via ctypes).

The paper's controllers (:mod:`repro.core.dcache`,
:mod:`repro.core.icache`, :mod:`repro.core.line_buffer_memo`) spend
nearly all their time in one per-access loop over the pre-split column
arrays.  :data:`SOURCE` is that loop in C: two entry points,
``waymemo_d`` (D-side: optional line buffer, optional write buffer)
and ``waymemo_i`` (I-side, with the intra-line path).  Each reads the
controller's existing state (cache tags/dirty/LRU stacks, MAB entries,
buffers), runs the stream, and the Python side writes that state back
in place, so chunked ``process`` calls carry state exactly as the
pure-Python loops do.

The kernel is transparent: results are byte-identical to the Python
``process_columns`` loops (the differential matrix and the lockstep
fuzz run on both engines).  :func:`load` compiles the source on first
use with the system C compiler into
``<trace cache dir>/kernels/waymemo-<digest>.so``, where the digest
covers the source, the flags and the platform.  It returns ``None``
(and warns once per process) when there is no compiler, no cache
directory, or the build or load fails; the controllers then run their
Python loop.  The loop also stays in Python for what the kernel does
not model: a non-LRU replacement policy, more than 64 MAB index
entries, or an eviction listener other than the controller's own.
The source lives in this module, so ``store.code_fingerprint()``
covers it like any other code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
from itertools import chain
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.sim.fetch import FetchKind
from repro.telemetry import metrics as telemetry
from repro.telemetry.tracing import current_span

#: Compiler candidates, first found on PATH wins.
COMPILERS = ("cc", "gcc")

#: Flags: portable code only (no -march=native), so a shared cache
#: directory never serves an object built for another CPU.
CFLAGS = ("-O2", "-shared", "-fPIC")

#: The kernel keeps a MAB validity row in one 64-bit word.
MAX_INDEX_ENTRIES = 64

#: Return code of an access that must hit but did not.
_MUST_HIT = -1

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

/* Geometry / configuration vector (read only). */
enum { G_SETS, G_WAYS, G_NT, G_NS, G_MAB_INVAL, G_TAG_MASK, G_LINE_MASK,
       G_WB_ENTRIES, G_LB_ENTRIES, G_LB_INVAL, G_OFFSET_BITS, G_LOW_BITS,
       G_SEQ };

/* Scalar state in, state and counter deltas out. */
enum { S_STAMP, S_WB_LEN, S_WB_MAX, S_LB_LEN,
       C_HITS, C_MISSES, C_EVICTIONS, C_WRITEBACKS,
       C_MAB_LOOKUPS, C_MAB_HITS, C_BYPASSES, C_STALE,
       C_TAG_ACC, C_WAY_ACC, C_INVALIDATIONS,
       C_WB_INSERTS, C_WB_COALESCED, C_WB_DRAINS,
       C_LB_HITS, C_LB_MISSES, C_INTRA, N_SCALARS };

typedef struct {
    i64 ways, nt, ns, tag_mask, line_mask, offset_bits, low_bits;
    i64 wb_entries, lb_entries;
    int mab_inval, lb_inval;
    i64 *tags;        /* [set * ways + way], -1 invalid */
    uint8_t *dirty;   /* [set * ways + way] */
    i64 *lru;         /* [set * ways + k], LRU first */
    i64 *keys;        /* tag side: (base_tag << 2) | cflag, -1 empty */
    i64 *idx;         /* index side: set index, -1 empty */
    u64 *vmask;       /* validity row per tag entry */
    i64 *mways;       /* [te * ns + ie] memoized way */
    i64 *tstamp, *istamp;
    i64 *slot_of_set; /* set -> index-side slot, -1 none */
    i64 *wb;          /* [0, wb_entries) lines, then counts, FIFO order */
    i64 *lb;          /* line buffer lines, MRU last */
    i64 *s;           /* scalars */
} Ctx;

static void touch(Ctx *c, i64 set, i64 way)
{
    i64 w = c->ways, *order = c->lru + set * w, k;
    if (order[w - 1] == way)
        return;
    for (k = 0; order[k] != way; k++)
        ;
    for (; k < w - 1; k++)
        order[k] = order[k + 1];
    order[w - 1] = way;
}

static i64 find_way(Ctx *c, i64 set, i64 tag)
{
    i64 w, *row = c->tags + set * c->ways;
    for (w = 0; w < c->ways; w++)
        if (row[w] == tag)
            return w;
    return -1;
}

static void clear_column(Ctx *c, i64 j)
{
    u64 clear = ~((u64)1 << j);
    i64 i;
    for (i = 0; i < c->nt; i++)
        c->vmask[i] &= clear;
}

/* MAB.invalidate_line and the line buffer's coherence listener. */
static void on_evict(Ctx *c, i64 tag, i64 set)
{
    i64 i, j;
    if (c->mab_inval) {
        j = c->slot_of_set[set];
        if (j >= 0) {
            u64 bit = (u64)1 << j;
            for (i = 0; i < c->nt; i++) {
                i64 key = c->keys[i];
                if (key < 0 || !(c->vmask[i] & bit))
                    continue;
                if ((((key >> 2) + ((key >> 1) & 1) - (key & 1))
                     & c->tag_mask) == tag) {
                    c->vmask[i] &= ~bit;
                    c->s[C_INVALIDATIONS]++;
                }
            }
        }
    }
    if (c->lb_inval) {
        i64 line = ((tag << c->low_bits) | (set << c->offset_bits))
                   & 0xFFFFFFFFLL;
        i64 n = c->s[S_LB_LEN];
        for (i = 0; i < n; i++)
            if (c->lb[i] == line)
                break;
        if (i < n) {
            for (; i < n - 1; i++)
                c->lb[i] = c->lb[i + 1];
            c->s[S_LB_LEN] = n - 1;
        }
    }
}

/* Full access: all tags compared; fills on a miss.  Returns the way. */
static i64 full_access(Ctx *c, i64 tag, i64 set, int store)
{
    i64 way = find_way(c, set, tag), slot, evicted;
    c->s[C_TAG_ACC] += c->ways;
    if (way >= 0) {
        c->s[C_HITS]++;
        touch(c, set, way);
        if (store)
            c->dirty[set * c->ways + way] = 1;
        c->s[C_WAY_ACC] += store ? 1 : c->ways;
        return way;
    }
    c->s[C_MISSES]++;
    way = c->lru[set * c->ways];
    slot = set * c->ways + way;
    evicted = c->tags[slot];
    if (evicted >= 0) {
        c->s[C_EVICTIONS]++;
        if (c->dirty[slot])
            c->s[C_WRITEBACKS]++;
        on_evict(c, evicted, set);
    }
    c->tags[slot] = tag;
    c->dirty[slot] = (uint8_t)store;
    touch(c, set, way);
    c->s[C_WAY_ACC] += (store ? 1 : c->ways) + 1;
    return way;
}

/* Cache hit on a known-resident way (MAB hit / buffered line). */
static void hit_way(Ctx *c, i64 set, i64 way, int store)
{
    c->s[C_HITS]++;
    touch(c, set, way);
    if (store)
        c->dirty[set * c->ways + way] = 1;
}

static i64 find_key(Ctx *c, i64 key)
{
    i64 i;
    for (i = 0; i < c->nt; i++)
        if (c->keys[i] == key)
            return i;
    return -1;
}

static i64 lru_slot(const i64 *stamps, i64 n)
{
    i64 best = 0, k;
    for (k = 1; k < n; k++)
        if (stamps[k] < stamps[best])
            best = k;
    return best;
}

/* The four install cases of Section 3.3. */
static void install(Ctx *c, i64 te, i64 ie, i64 key, i64 set, i64 way)
{
    i64 stamp = c->s[S_STAMP];
    if (te < 0) {
        te = lru_slot(c->tstamp, c->nt);
        c->keys[te] = key;
        c->vmask[te] = 0;
    }
    if (ie < 0) {
        ie = lru_slot(c->istamp, c->ns);
        if (c->idx[ie] >= 0)
            c->slot_of_set[c->idx[ie]] = -1;
        c->idx[ie] = set;
        c->slot_of_set[set] = ie;
        clear_column(c, ie);
    }
    c->vmask[te] |= (u64)1 << ie;
    c->mways[te * c->ns + ie] = way;
    c->tstamp[te] = stamp;
    c->istamp[ie] = stamp + 1;
    c->s[S_STAMP] = stamp + 2;
}

/* MAB probe for a non-bypass key.  Returns the memoized way on a
   hit (after touching both sides' LRU), else -1; the matching slots
   go to *te / *ie either way. */
static i64 mab_probe(Ctx *c, i64 key, i64 set, i64 *te, i64 *ie)
{
    *te = find_key(c, key);
    *ie = c->slot_of_set[set];
    if (*te >= 0 && *ie >= 0 && (c->vmask[*te] >> *ie & 1)) {
        i64 stamp = c->s[S_STAMP];
        c->tstamp[*te] = stamp;
        c->istamp[*ie] = stamp + 1;
        c->s[S_STAMP] = stamp + 2;
        return c->mways[*te * c->ns + *ie];
    }
    return -1;
}

static void mab_bypass(Ctx *c, i64 set)
{
    i64 j = c->slot_of_set[set];
    c->s[C_BYPASSES]++;
    if (j >= 0)
        clear_column(c, j);
}

static void wb_push(Ctx *c, i64 addr)
{
    i64 line = addr & c->line_mask, n = c->s[S_WB_LEN], k;
    i64 *lines = c->wb, *counts = c->wb + c->wb_entries;
    for (k = 0; k < n; k++) {
        if (lines[k] == line) {
            counts[k]++;
            c->s[C_WB_COALESCED]++;
            return;
        }
    }
    if (n >= c->wb_entries) {
        for (k = 0; k < n - 1; k++) {
            lines[k] = lines[k + 1];
            counts[k] = counts[k + 1];
        }
        n--;
        c->s[C_WB_DRAINS]++;
    }
    lines[n] = line;
    counts[n] = 1;
    n++;
    c->s[S_WB_LEN] = n;
    c->s[C_WB_INSERTS]++;
    if (n > c->s[S_WB_MAX])
        c->s[S_WB_MAX] = n;
}

/* LineBuffer.access: true on a hit (moved to MRU), else allocate. */
static int lb_access(Ctx *c, i64 addr)
{
    i64 line = addr & c->line_mask, n = c->s[S_LB_LEN], k;
    for (k = 0; k < n; k++)
        if (c->lb[k] == line)
            break;
    if (k < n) {
        for (; k < n - 1; k++)
            c->lb[k] = c->lb[k + 1];
        c->lb[n - 1] = line;
        c->s[C_LB_HITS]++;
        return 1;
    }
    c->s[C_LB_MISSES]++;
    if (n == c->lb_entries) {
        for (k = 0; k < n - 1; k++)
            c->lb[k] = c->lb[k + 1];
        n--;
    }
    c->lb[n] = line;
    c->s[S_LB_LEN] = n + 1;
    return 0;
}

static int setup(Ctx *c, const i64 *g, i64 *tags, uint8_t *dirty, i64 *lru,
                 i64 *keys, i64 *idx, u64 *vmask, i64 *mways,
                 i64 *tstamp, i64 *istamp, i64 *wb, i64 *lb, i64 *s)
{
    i64 j;
    c->ways = g[G_WAYS];
    c->nt = g[G_NT];
    c->ns = g[G_NS];
    c->mab_inval = (int)g[G_MAB_INVAL];
    c->tag_mask = g[G_TAG_MASK];
    c->line_mask = g[G_LINE_MASK];
    c->wb_entries = g[G_WB_ENTRIES];
    c->lb_entries = g[G_LB_ENTRIES];
    c->lb_inval = (int)g[G_LB_INVAL];
    c->offset_bits = g[G_OFFSET_BITS];
    c->low_bits = g[G_LOW_BITS];
    c->tags = tags;
    c->dirty = dirty;
    c->lru = lru;
    c->keys = keys;
    c->idx = idx;
    c->vmask = vmask;
    c->mways = mways;
    c->tstamp = tstamp;
    c->istamp = istamp;
    c->wb = wb;
    c->lb = lb;
    c->s = s;
    c->slot_of_set = malloc((size_t)g[G_SETS] * sizeof(i64));
    if (!c->slot_of_set)
        return 0;
    for (j = 0; j < g[G_SETS]; j++)
        c->slot_of_set[j] = -1;
    for (j = 0; j < c->ns; j++)
        if (idx[j] >= 0)
            c->slot_of_set[idx[j]] = j;
    return 1;
}

/* D-side: WayMemoDCache (write buffer) and LineBufferWayMemoDCache
   (line buffer).  Returns 0, -1 when a buffered line missed the
   cache, -2 on allocation failure. */
int waymemo_d(i64 n, const i64 *keys_in, const i64 *tags_in,
              const i64 *sets_in, const uint8_t *stores,
              const i64 *addrs, const i64 *g,
              i64 *tags, uint8_t *dirty, i64 *lru,
              i64 *keys, i64 *idx, u64 *vmask, i64 *mways,
              i64 *tstamp, i64 *istamp, i64 *wb, i64 *lb, i64 *s)
{
    Ctx c;
    i64 i, te = -1, ie = -1, way;
    int rc = 0;
    if (!setup(&c, g, tags, dirty, lru, keys, idx, vmask, mways,
               tstamp, istamp, wb, lb, s))
        return -2;
    for (i = 0; i < n; i++) {
        i64 key = keys_in[i], tag = tags_in[i], set = sets_in[i];
        int store = stores[i] != 0;
        if (c.lb_entries > 0) {
            if (lb_access(&c, addrs[i])) {
                way = find_way(&c, set, tag);
                if (way < 0) {
                    rc = -1;
                    break;
                }
                hit_way(&c, set, way, store);
                continue;
            }
        }
        s[C_MAB_LOOKUPS]++;
        if (key < 0) {
            mab_bypass(&c, set);
        } else {
            way = mab_probe(&c, key, set, &te, &ie);
            if (way >= 0) {
                if (tags[set * c.ways + way] == tag) {
                    hit_way(&c, set, way, store);
                    if (store && c.wb_entries > 0)
                        wb_push(&c, addrs[i]);
                    s[C_MAB_HITS]++;
                    s[C_WAY_ACC]++;
                    continue;
                }
                s[C_STALE]++;
            }
        }
        if (store && c.wb_entries > 0)
            wb_push(&c, addrs[i]);
        way = full_access(&c, tag, set, store);
        if (key >= 0)
            install(&c, te, ie, key, set, way);
    }
    free(c.slot_of_set);
    return rc;
}

/* I-side: WayMemoICache with the intra-line path.  Returns 0, -1 when
   an intra-line fetch missed the cache, -2 on allocation failure. */
int waymemo_i(i64 n, const i64 *keys_in, const i64 *tags_in,
              const i64 *sets_in, const uint8_t *kinds,
              const i64 *lines, const i64 *g,
              i64 *tags, uint8_t *dirty, i64 *lru,
              i64 *keys, i64 *idx, u64 *vmask, i64 *mways,
              i64 *tstamp, i64 *istamp, i64 *s)
{
    Ctx c;
    i64 i, te = -1, ie = -1, way, last_line = -1;
    i64 seq = g[G_SEQ];
    int rc = 0;
    if (!setup(&c, g, tags, dirty, lru, keys, idx, vmask, mways,
               tstamp, istamp, NULL, NULL, s))
        return -2;
    for (i = 0; i < n; i++) {
        i64 key = keys_in[i], tag = tags_in[i], set = sets_in[i];
        i64 line = lines[i];
        if (kinds[i] == seq && line == last_line) {
            way = find_way(&c, set, tag);
            if (way < 0) {
                rc = -1;
                break;
            }
            s[C_INTRA]++;
            hit_way(&c, set, way, 0);
            s[C_WAY_ACC]++;
            continue;
        }
        s[C_MAB_LOOKUPS]++;
        last_line = line;
        if (key < 0) {
            mab_bypass(&c, set);
        } else {
            way = mab_probe(&c, key, set, &te, &ie);
            if (way >= 0) {
                if (tags[set * c.ways + way] == tag) {
                    hit_way(&c, set, way, 0);
                    s[C_MAB_HITS]++;
                    s[C_WAY_ACC]++;
                    continue;
                }
                s[C_STALE]++;
            }
        }
        way = full_access(&c, tag, set, 0);
        if (key >= 0)
            install(&c, te, ie, key, set, way);
    }
    free(c.slot_of_set);
    return rc;
}
"""

# Index names of the kernel's scalar vector (mirrors the C enum).
_SCALARS = (
    "stamp", "wb_len", "wb_max", "lb_len",
    "hits", "misses", "evictions", "writebacks",
    "mab_lookups", "mab_hits", "bypasses", "stale",
    "tag_accesses", "way_accesses", "invalidations",
    "wb_inserts", "wb_coalesced", "wb_drains",
    "lb_hits", "lb_misses", "intra_line_hits",
)
_S = {name: index for index, name in enumerate(_SCALARS)}

_LOCK = threading.Lock()
_LOADED = False
_LIB: Optional[ctypes.CDLL] = None
_WARNED = False


def _digest() -> str:
    material = "\0".join((
        SOURCE, " ".join(CFLAGS), sys.platform, platform.machine(),
    ))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def library_path(directory: Path) -> Path:
    """Where the kernel built from the current source lives."""
    return directory / "kernels" / f"waymemo-{_digest()}.so"


def _compile(path: Path) -> None:
    """Build into a temp file beside ``path``, then rename it in place."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise OSError(f"no C compiler found (tried {', '.join(COMPILERS)})")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, out = tempfile.mkstemp(dir=str(path.parent), suffix=".so.tmp")
    os.close(fd)
    try:
        # Source on stdin: no temp file name ends up in the object.
        subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-o", out, "-"],
            input=SOURCE.encode(), check=True, capture_output=True,
            timeout=120,
        )
        os.replace(out, path)
    except subprocess.CalledProcessError as exc:
        raise OSError(
            f"kernel build failed: {exc.stderr.decode(errors='replace')}"
        ) from None
    finally:
        if os.path.exists(out):
            os.unlink(out)


def _intact(path: Path) -> bool:
    """Whether the ELF object at ``path`` is whole.

    dlopen of a truncated object can kill the process with SIGBUS
    instead of failing, so every header table and segment the object
    declares must lie inside the file before it is opened.  Non-ELF
    platforms are trusted as they are.
    """
    data = path.read_bytes()
    if data[:4] != b"\x7fELF":
        return not sys.platform.startswith("linux")
    order = "<" if data[5:6] == b"\x01" else ">"
    # ELF64 / ELF32 layouts: word format, e_phoff, e_phentsize, and
    # p_offset / p_filesz within a program header.
    word, phoff_at, sizes_at, fields = (
        ("Q", 0x20, 0x36, (8, 0x20)) if data[4:5] == b"\x02"
        else ("I", 0x1C, 0x2A, (4, 16))
    )

    def read(fmt: str, at: int) -> tuple:
        return struct.unpack_from(order + fmt, data, at)

    try:
        phoff, shoff = read(word * 2, phoff_at)
        phentsize, phnum, shentsize, shnum = read("HHHH", sizes_at)
        ends = [phoff + phnum * phentsize, shoff + shnum * shentsize]
        for k in range(phnum):
            at = phoff + k * phentsize
            ends.append(sum(read(word, at + f)[0] for f in fields))
    except struct.error:
        return False
    return max(ends) <= len(data)


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.waymemo_d.argtypes = [i64] + [p] * 18
    lib.waymemo_i.argtypes = [i64] + [p] * 16
    lib.waymemo_d.restype = lib.waymemo_i.restype = ctypes.c_int
    return lib


def _build_and_open() -> ctypes.CDLL:
    from repro.workloads.suite import trace_cache_dir

    directory = trace_cache_dir()
    if directory is None:
        raise OSError("the trace cache directory is disabled")
    path = library_path(directory)
    if path.is_file() and _intact(path):
        try:
            return _open(path)
        except (OSError, AttributeError):
            pass   # corrupt: rebuild it below
    _compile(path)
    if not _intact(path):
        raise OSError(f"kernel build produced a damaged object: {path}")
    return _open(path)


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, or None when it cannot be built or loaded.

    Builds at most once per process (never at import); a failure is
    warned about once and the callers run their Python loops.
    """
    global _LOADED, _LIB, _WARNED
    if _LOADED:
        return _LIB
    with _LOCK:
        if not _LOADED:
            try:
                _LIB = _build_and_open()
            except (
                OSError, AttributeError, subprocess.SubprocessError
            ) as exc:
                _LIB = None
                if not _WARNED:
                    _WARNED = True
                    warnings.warn(
                        f"way-memo C kernel unavailable ({exc}); "
                        "using the Python loop",
                        RuntimeWarning, stacklevel=2,
                    )
            _LOADED = True
    return _LIB


def reset() -> None:
    """Forget the loaded kernel so the next :func:`load` retries (tests)."""
    global _LOADED, _LIB, _WARNED
    with _LOCK:
        _LOADED, _LIB, _WARNED = False, None, False


def record_engine(engine: str) -> None:
    """Count one way-memo loop run on ``engine`` ("c" or "python")."""
    telemetry.counter(
        "repro_kernel_calls_total",
        "Way-memo controller loops run, by engine.",
        labels={"engine": engine},
    ).inc()
    current_span().set_attribute("way_memo_engine", engine)


# ----------------------------------------------------------------------
# state marshalling
# ----------------------------------------------------------------------

def _i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _flat(rows, dtype=np.int64) -> np.ndarray:
    """A list of equal-length lists as one flat C-order array."""
    count = sum(map(len, rows))
    return np.fromiter(chain.from_iterable(rows), dtype=dtype, count=count)


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


def run(side: str, cache, mab, cols, write_buffer=None, line_buffer=None,
        line_buffer_listener=None) -> Optional[Dict[str, int]]:
    """Run one way-memo loop in C; None when the kernel does not apply.

    Reads the cache, MAB and buffer state, runs every access in
    ``cols`` and writes the state back in place (the same lists and
    dicts the Python loop mutates).  Returns the per-call counter
    deltas; the cache, MAB and buffer statistics are already synced.
    ``line_buffer_listener`` is the controller's eviction listener that
    keeps ``line_buffer`` coherent.
    """
    nways, nt, ns = cache.ways, mab._nt, mab._ns
    known = (mab.invalidate_line, line_buffer_listener)
    listeners = cache._eviction_listeners
    if (
        cache._lru is None or ns > MAX_INDEX_ENTRIES
        or any(listener not in known for listener in listeners)
    ):
        return None
    lib = load()
    if lib is None:
        return None

    sets = cache.config.sets
    offset_bits, index_bits = cache.offset_bits, cache.index_bits
    arrays = cols.cache_arrays(offset_bits, index_bits)
    stream = [_i64(arrays[name]) for name in ("keys", "tags", "sets")]
    if side == "dcache":
        extra = [
            np.ascontiguousarray(cols.store_mask, dtype=np.bool_)
            .view(np.uint8),
            _i64(cols.addr64),
        ]
    else:
        extra = [
            np.ascontiguousarray(cols.kind, dtype=np.uint8),
            _i64(arrays["lines"]),
        ]
    n = cols.n
    # The kernel indexes cache rows by set: check what it will read.
    if any(len(a) != n for a in stream + extra) or (
        n and not 0 <= int(stream[2].min()) <= int(stream[2].max()) < sets
    ):
        raise ValueError("column arrays do not match the stream/geometry")

    wb_entries = write_buffer.entries if write_buffer is not None else 0
    lb_entries = line_buffer.entries if line_buffer is not None else 0
    geometry = _i64([
        sets, nways, nt, ns, mab.invalidate_line in listeners,
        mab._tag_mask, ~(cache.config.line_bytes - 1) & 0xFFFFFFFF,
        wb_entries, lb_entries,
        line_buffer_listener is not None
        and line_buffer_listener in listeners,
        offset_bits, offset_bits + index_bits, int(FetchKind.SEQ),
    ])
    tags = _flat(cache._tags)
    dirty = _flat(cache._dirty, np.uint8)
    lru = _flat(cache._lru)
    keys = _i64(mab._keys)
    idx = _i64(mab._idx_vals)
    vmask = np.ascontiguousarray(mab._vmask, dtype=np.uint64)
    mways = _flat(mab._ways)
    tstamp = _i64(mab._tag_stamp)
    istamp = _i64(mab._idx_stamp)
    state = [tags, dirty, lru, keys, idx, vmask, mways, tstamp, istamp]
    scalars = np.zeros(len(_SCALARS), dtype=np.int64)
    scalars[_S["stamp"]] = mab._stamp

    if side == "dcache":
        # Write buffer: lines then their counts, FIFO order.
        wb = np.zeros(2 * max(wb_entries, 1), dtype=np.int64)
        if write_buffer is not None:
            pending = write_buffer._pending
            wb[:len(pending)] = list(pending)
            wb[wb_entries:wb_entries + len(pending)] = list(pending.values())
            scalars[_S["wb_len"]] = len(pending)
            scalars[_S["wb_max"]] = write_buffer.max_occupancy
        lb = np.zeros(max(lb_entries, 1), dtype=np.int64)
        if line_buffer is not None:
            lb[:len(line_buffer._lines)] = line_buffer._lines
            scalars[_S["lb_len"]] = len(line_buffer._lines)
        rc = lib.waymemo_d(
            n, *map(_ptr, stream + extra), _ptr(geometry),
            *map(_ptr, state), _ptr(wb), _ptr(lb), _ptr(scalars),
        )
    else:
        rc = lib.waymemo_i(
            n, *map(_ptr, stream + extra), _ptr(geometry),
            *map(_ptr, state), _ptr(scalars),
        )
    if rc == _MUST_HIT:
        raise AssertionError(
            "buffered line must be cache-resident" if side == "dcache"
            else "intra-line fetch must hit"
        )
    if rc != 0:
        raise MemoryError("way-memo kernel could not allocate")

    s = dict(zip(_SCALARS, scalars.tolist()))
    cache._tags[:] = tags.reshape(sets, nways).tolist()
    cache._dirty[:] = dirty.astype(bool).reshape(sets, nways).tolist()
    cache._lru[:] = lru.reshape(sets, nways).tolist()
    cache.hits += s["hits"]
    cache.misses += s["misses"]
    cache.evictions += s["evictions"]
    cache.writebacks += s["writebacks"]

    mab._keys[:] = keys.tolist()
    mab._key_map.clear()
    mab._key_map.update(
        (key, slot) for slot, key in enumerate(mab._keys) if key >= 0
    )
    mab._idx_vals[:] = idx.tolist()
    mab._idx_map.clear()
    mab._idx_map.update(
        (index, slot) for slot, index in enumerate(mab._idx_vals)
        if index >= 0
    )
    mab._vmask[:] = vmask.tolist()
    mab._ways[:] = mways.reshape(nt, ns).tolist()
    mab._tag_stamp[:] = tstamp.tolist()
    mab._idx_stamp[:] = istamp.tolist()
    mab._stamp = s["stamp"]
    mab.lookups += s["mab_lookups"]
    # A stale hit still matched in the MAB (the reference lookup path
    # counts it), it just failed cache verification.
    mab.hits += s["mab_hits"] + s["stale"]
    mab.bypasses += s["bypasses"]
    mab.invalidations += s["invalidations"]

    if write_buffer is not None:
        length = s["wb_len"]
        write_buffer._pending.clear()
        write_buffer._pending.update(zip(
            wb[:length].tolist(), wb[wb_entries:wb_entries + length].tolist()
        ))
        write_buffer.inserts += s["wb_inserts"]
        write_buffer.coalesced += s["wb_coalesced"]
        write_buffer.drains += s["wb_drains"]
        write_buffer.max_occupancy = s["wb_max"]
    if line_buffer is not None:
        line_buffer._lines[:] = lb[:s["lb_len"]].tolist()
        line_buffer.hits += s["lb_hits"]
        line_buffer.misses += s["lb_misses"]
    return s
