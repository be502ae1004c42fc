//! LZ77 match finding with hash chains (the engine behind DEFLATE).
//!
//! Produces a token stream of literals and back-references within the
//! 32 KiB DEFLATE window. Matching effort (chain depth, lazy evaluation)
//! scales with [`Level`].
//!
//! The hot path is built for single-thread throughput:
//! * hash heads and the prev ring are `u32` (half the memory traffic of
//!   the old `usize` arrays, and the whole prev ring fits in L1/L2);
//! * candidate comparison runs 8 bytes at a time via `u64` loads and
//!   `trailing_zeros` on the XOR;
//! * lazy evaluation keeps the probe result for the next position
//!   instead of re-searching it after a deferral;
//! * tokens stream into a [`TokenSink`] (the DEFLATE encoder feeds them
//!   straight into Huffman coding) instead of materializing a
//!   `Vec<Token>` for the whole input.
//! * an entropy gate skips the search where it cannot pay: 4 KiB
//!   windows whose order-0 literal cost is at least 6.5 bits per byte
//!   (f64 mantissas) bypass the hash chains and are only skimmed for
//!   long repeats through a sparse table of their own.

use crate::huffman::byte_huffman_cost;
use crate::Level;

/// Minimum back-reference length DEFLATE can encode.
pub const MIN_MATCH: usize = 3;
/// Maximum back-reference length.
pub const MAX_MATCH: usize = 258;
/// Window size: maximum back-reference distance.
pub const WINDOW: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const WMASK: usize = WINDOW - 1;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// 3..=258.
        len: u16,
        /// 1..=32768.
        dist: u16,
    },
}

/// Receives the token stream as it is produced. Implemented by the
/// DEFLATE segment encoder (fused tokenize→encode) and by the plain
/// `Vec<Token>` collector behind [`tokenize`].
pub trait TokenSink {
    /// One literal byte.
    fn literal(&mut self, byte: u8);
    /// A back-reference of `len` (3..=258) at `dist` (1..=32768).
    fn backref(&mut self, len: u32, dist: u32);
    /// A run of literal bytes. Sinks with per-token bookkeeping can
    /// override this to amortize it; the default forwards byte by byte.
    fn literals(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.literal(b);
        }
    }
}

/// Matching effort parameters derived from the compression level.
#[derive(Debug, Clone, Copy)]
struct Effort {
    max_chain: usize,
    lazy: bool,
    /// Stop searching early once a match of this length is found.
    good_enough: usize,
    /// Skip the lazy probe entirely when the current match is at least
    /// this long (zlib's `max_lazy`) — a long match is almost never
    /// beaten by one starting a byte later, and the probe is the
    /// second-most expensive step on compressible data.
    max_lazy: usize,
    /// When lazily probing against a current match at least this long,
    /// walk only a quarter of the chain (zlib's `good_length`).
    good_length: usize,
}

impl Effort {
    fn for_level(level: Level) -> Option<Effort> {
        match level {
            Level::Store => None,
            Level::Fast => Some(Effort {
                max_chain: 16,
                lazy: false,
                good_enough: 32,
                max_lazy: 0,
                good_length: 8,
            }),
            Level::Default => Some(Effort {
                max_chain: 32,
                lazy: true,
                good_enough: 64,
                max_lazy: 16,
                good_length: 8,
            }),
            Level::Best => Some(Effort {
                max_chain: 1024,
                lazy: true,
                good_enough: MAX_MATCH,
                max_lazy: MAX_MATCH,
                good_length: 32,
            }),
        }
    }
}

/// Hashes the 3 bytes at `pos` (caller guarantees `pos + 3 <= len`).
/// Loads 4 bytes and masks to 24 bits when possible — same 3-byte hash
/// semantics (and thus the same ratio behavior) as byte assembly, one
/// load instead of three.
#[inline(always)]
fn hash3(data: &[u8], pos: usize) -> usize {
    let v = match data.get(pos..pos + 4).and_then(|s| s.first_chunk::<4>()) {
        Some(c) => u32::from_le_bytes(*c) & 0x00FF_FFFF,
        None => {
            (data[pos] as u32) | (data[pos + 1] as u32) << 8 | (data[pos + 2] as u32) << 16
        }
    };
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[cand..]` and `data[pos..]`, up
/// to `max` (caller guarantees `cand < pos` and `pos + max <= len`).
/// Compares 8 bytes per step; the first differing byte is located with
/// `trailing_zeros` on the XOR of the two words.
#[inline]
fn match_len(data: &[u8], cand: usize, pos: usize, max: usize) -> usize {
    // Two subslices up front hoist all bounds checks out of the loop
    // (cand < pos, so cand + max <= pos + max <= data.len()).
    let a = &data[cand..cand + max];
    let b = &data[pos..pos + max];
    let mut l = 0usize;
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        let xv = u64::from_le_bytes(x.try_into().unwrap());
        let yv = u64::from_le_bytes(y.try_into().unwrap());
        let d = xv ^ yv;
        if d != 0 {
            return l + (d.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        if x != y {
            break;
        }
        l += 1;
    }
    l
}

/// Hash-chain state over the input buffer. Positions are stored +1 so
/// that 0 means "empty"; `u32` halves the footprint of the old `usize`
/// arrays.
struct Chains {
    /// head[h] = (most recent position with hash h) + 1, or 0. Boxed
    /// fixed-size arrays: indexing with a masked value needs no bounds
    /// check.
    head: Box<[u32; HASH_SIZE]>,
    /// prev[pos & WMASK] = previous position with the same hash, +1.
    prev: Box<[u32; WINDOW]>,
}

impl Chains {
    fn new() -> Self {
        Chains {
            head: vec![0u32; HASH_SIZE].into_boxed_slice().try_into().expect("sized"),
            prev: vec![0u32; WINDOW].into_boxed_slice().try_into().expect("sized"),
        }
    }

    /// Inserts `pos` into its hash chain and returns the previous chain
    /// head (+1 encoded) — the candidate list for a search at `pos`.
    #[inline(always)]
    fn insert(&mut self, h: usize, pos: usize) -> u32 {
        let head = self.head[h & (HASH_SIZE - 1)];
        self.prev[pos & WMASK] = head;
        self.head[h & (HASH_SIZE - 1)] = pos as u32 + 1;
        head
    }

    /// Longest match for `pos` walking the chain starting at `first`
    /// (+1 encoded head captured before `pos` was inserted), or None if
    /// not longer than `min_len` (pass `MIN_MATCH - 1` for an
    /// unconstrained search; the lazy probe passes the pending match
    /// length so candidates that cannot beat it are rejected on a
    /// single byte compare).
    #[inline]
    fn longest_from(
        &self,
        data: &[u8],
        pos: usize,
        first: u32,
        effort: &Effort,
        max_chain: usize,
        min_len: usize,
    ) -> Option<(u32, u32)> {
        let max = MAX_MATCH.min(data.len() - pos);
        if max < MIN_MATCH || min_len >= max {
            return None;
        }
        let floor = pos.saturating_sub(WINDOW);
        let mut best_len = min_len;
        let mut best_dist = 0usize;
        // Byte just past the current best, cached so the quick-reject
        // probe is one load instead of two bounds-checked reads.
        let mut want = data[pos + best_len];
        let mut cand_code = first;
        let mut chain = max_chain;
        while cand_code != 0 && chain > 0 {
            let cand = cand_code as usize - 1;
            if cand < floor || cand >= pos {
                break;
            }
            // Quick reject: the byte just past the current best must
            // match before a full comparison is worth it (best_len < max
            // here — a full-length match breaks out below).
            if data[cand + best_len] == want {
                let l = match_len(data, cand, pos, max);
                if l > best_len {
                    best_len = l;
                    best_dist = pos - cand;
                    if l >= effort.good_enough || l == max {
                        break;
                    }
                    want = data[pos + best_len];
                }
            }
            cand_code = self.prev[cand & WMASK];
            chain -= 1;
        }
        if best_len > min_len && best_len >= MIN_MATCH {
            Some((best_len as u32, best_dist as u32))
        } else {
            None
        }
    }
}

/// Bytes per gate window. [`tokenize_into`] splits its input into
/// windows of this size aligned to the input's first byte (the last
/// window may be shorter) and decides per window whether to run the
/// hash-chain matcher or only skim for long repeats. Small enough to
/// follow the sections of a checkpoint stream closely, large enough
/// that a window's byte histogram is a stable estimate of its order-0
/// cost.
const GATE_WINDOW: usize = 4 * 1024;

/// Gate threshold in half bits per byte: 13 is 6.5 bits. A window whose
/// bytes, coded as literals under their own optimal Huffman code, cost
/// at least this much skips the hash-chain matcher (see
/// [`Matcher::skim_to`]). Windows of IEEE-754 f64 bytes cost about
/// 7.1–7.7 bits per byte and the matcher finds only 3–5 byte
/// coincidences in them; quantizer-index windows near the threshold
/// code about as small as literals under a block table of their own.
/// Bitmaps and most index windows cost 1–6 bits and keep the full
/// matcher.
const GATE_HALF_BITS_PER_BYTE: u64 = 13;

/// Period of the positions a gated window indexes in the skim table.
const SKIM_INSERT: usize = 16;
/// Period of the positions a gated window looks up; coprime with
/// [`SKIM_INSERT`].
const SKIM_STRIDE: usize = 17;
/// Shortest match a gated-window lookup accepts. Long enough that
/// coincidences between unrelated f64 values do not qualify, so what is
/// found is a true repeat.
const SKIM_MIN_MATCH: usize = 16;
/// The skim table has `2^SKIM_HASH_BITS` single-position slots.
const SKIM_HASH_BITS: u32 = 14;

/// Hashes the 4 bytes at `pos` into the skim table (caller guarantees
/// `pos + 4 <= len`).
#[inline(always)]
fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - SKIM_HASH_BITS)) as usize
}

/// Whether `window` is near-incompressible: its literal-only Huffman
/// cost reaches [`GATE_HALF_BITS_PER_BYTE`]. Integer-only, so the
/// decision is a function of the bytes alone and never of the host's
/// floating point or libm.
fn near_incompressible(window: &[u8]) -> bool {
    let mut hist = [0u64; 256];
    for &b in window {
        hist[usize::from(b)] += 1;
    }
    2 * byte_huffman_cost(&hist) >= GATE_HALF_BITS_PER_BYTE * window.len() as u64
}

/// Streams the token stream for `data` at the given level into `sink`.
/// [`Level::Store`] yields all literals (the caller normally
/// special-cases it into stored blocks).
///
/// Windows of near-incompressible bytes (see `near_incompressible`)
/// are skimmed for long repeats only, without touching the hash chains;
/// every other window runs the hash-chain matcher, whose state carries
/// across consecutive matcher windows, so an input with no gated window
/// tokenizes exactly as one uninterrupted matcher pass.
pub fn tokenize_into<S: TokenSink>(data: &[u8], level: Level, sink: &mut S) {
    tokenize_gated(data, level, sink, |_| {});
}

/// [`tokenize_into`], calling `on_switch(sink)` wherever the gate
/// changes mode. Every token before the call belongs to the old mode,
/// every token after it to the new one, so the DEFLATE encoder can end
/// the block there and give each side its own Huffman table.
pub(crate) fn tokenize_gated<S: TokenSink>(
    data: &[u8],
    level: Level,
    sink: &mut S,
    mut on_switch: impl FnMut(&mut S),
) {
    let Some(effort) = Effort::for_level(level) else {
        sink.literals(data);
        return;
    };
    let mut m = Matcher::new(data, effort);
    let mut skimming = false;
    for start in (0..data.len()).step_by(GATE_WINDOW) {
        let end = (start + GATE_WINDOW).min(data.len());
        let gated = near_incompressible(&data[start..end]);
        if gated != skimming {
            m.settle(sink);
            on_switch(sink);
            skimming = gated;
        }
        if gated {
            m.skim_to(end, sink);
        } else {
            m.match_to(end, sink);
        }
    }
    m.settle(sink);
}

/// Tokenizer state that persists across gate windows: the hash-chain
/// matcher that [`Matcher::match_to`] advances, the skim table of
/// [`Matcher::skim_to`], and the open literal run both extend.
struct Matcher<'a> {
    data: &'a [u8],
    effort: Effort,
    /// Positions below this bound have a full 3-byte hash.
    hash_end: usize,
    chains: Chains,
    /// Skim table of gated windows: `skim[hash4] = position + 1` of the
    /// latest indexed position, or 0.
    skim: Box<[u32; 1 << SKIM_HASH_BITS]>,
    /// Distance of the last skim match (0 before the first).
    skim_dist: usize,
    /// Next position to tokenize. A match may carry it past the end of
    /// the window that started it.
    i: usize,
    /// Start of the literal run not yet handed to the sink — literals
    /// batch into one `literals` call per run instead of one call per
    /// byte.
    lit_start: usize,
    /// Match found at position i by the last lazy probe (i is already
    /// inserted in the chains).
    pending: Option<(u32, u32)>,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8], effort: Effort) -> Self {
        // Positions are stored +1 in u32 chains.
        assert!(data.len() < u32::MAX as usize, "input too large for u32 hash chains");
        Matcher {
            data,
            effort,
            hash_end: data.len().saturating_sub(MIN_MATCH - 1),
            chains: Chains::new(),
            skim: vec![0u32; 1 << SKIM_HASH_BITS].into_boxed_slice().try_into().expect("sized"),
            skim_dist: 0,
            i: 0,
            lit_start: 0,
            pending: None,
        }
    }

    /// Runs the matcher until the next position reaches `end`.
    fn match_to<S: TokenSink>(&mut self, end: usize, sink: &mut S) {
        let data = self.data;
        let effort = self.effort;
        let hash_end = self.hash_end;
        while self.i < end {
            let i = self.i;
            let found = match self.pending.take() {
                Some(m) => Some(m),
                None if i < hash_end => {
                    let first = self.chains.insert(hash3(data, i), i);
                    let budget = effort.max_chain;
                    self.chains.longest_from(data, i, first, &effort, budget, MIN_MATCH - 1)
                }
                None => None,
            };
            let Some((len, dist)) = found else {
                self.i += 1;
                continue;
            };
            // Lazy evaluation: if the next position matches longer,
            // defer (position i joins the literal run). The probe
            // inserts i+1 (it gets inserted exactly once either way) and
            // its result is reused as the next iteration's match.
            let mut probed = false;
            if effort.lazy && (len as usize) < effort.max_lazy && i + 1 < hash_end {
                let first = self.chains.insert(hash3(data, i + 1), i + 1);
                probed = true;
                // A match that is already good only merits a quarter of
                // the chain budget on the probe.
                let budget = if (len as usize) >= effort.good_length {
                    effort.max_chain >> 2
                } else {
                    effort.max_chain
                };
                // Seeding with the pending length means the probe can
                // only return a strictly longer match.
                if let Some(m) =
                    self.chains.longest_from(data, i + 1, first, &effort, budget, len as usize)
                {
                    self.i += 1;
                    self.pending = Some(m);
                    continue;
                }
            }
            self.emit_match(len, dist, if probed { i + 2 } else { i + 1 }, sink);
        }
    }

    /// Hands the sink the literal run before `i`, then the match at
    /// `i`, and indexes the positions it covers from `index_from` on so
    /// later matches can refer into this region (one masked u32 load
    /// per position).
    fn emit_match<S: TokenSink>(&mut self, len: u32, dist: u32, index_from: usize, sink: &mut S) {
        let i = self.i;
        if self.lit_start < i {
            sink.literals(&self.data[self.lit_start..i]);
        }
        sink.backref(len, dist);
        self.i = i + len as usize;
        self.lit_start = self.i;
        for p in index_from..self.i.min(self.hash_end) {
            self.chains.insert(hash3(self.data, p), p);
        }
    }

    /// Emits everything tokenized so far: a match deferred by the lazy
    /// probe is taken as it stands, then the open literal run.
    fn settle<S: TokenSink>(&mut self, sink: &mut S) {
        if let Some((len, dist)) = self.pending.take() {
            self.emit_match(len, dist, self.i + 1, sink);
        }
        if self.lit_start < self.i {
            sink.literals(&self.data[self.lit_start..self.i]);
            self.lit_start = self.i;
        }
    }

    /// Skims a gated window up to `end`. The hash chains are left
    /// alone: no inserts, no chain walks, no lazy probes. Only a sparse
    /// table of its own is kept — every [`SKIM_INSERT`]-th position of
    /// the input is indexed in it, and every [`SKIM_STRIDE`]-th position
    /// looks up its one candidate and accepts a match of at least
    /// [`SKIM_MIN_MATCH`] bytes. The two periods are coprime, so
    /// successive lookups meet every offset of the index grid and a
    /// repeat of high-entropy bytes longer than
    /// `SKIM_INSERT * SKIM_STRIDE + SKIM_MIN_MATCH` is found. A lookup
    /// resumes right at the end of each match and tries that match's
    /// distance first, so the rest of a long repeat follows match after
    /// match. Callers settle first, so no deferred match is open.
    fn skim_to<S: TokenSink>(&mut self, end: usize, sink: &mut S) {
        debug_assert!(self.pending.is_none());
        let data = self.data;
        // Later positions cannot start a match of the minimum length.
        let stop = end.min(data.len().saturating_sub(SKIM_MIN_MATCH - 1));
        let mut next_lookup = self.i;
        while self.i < stop {
            let i = self.i;
            let slot = hash4(data, i);
            let cand = self.skim[slot];
            if i.is_multiple_of(SKIM_INSERT) {
                self.skim[slot] = i as u32 + 1;
            }
            if i >= next_lookup {
                next_lookup = i + SKIM_STRIDE;
                // The last match's distance first (a repeat usually
                // runs on past 258 bytes), then the table's candidate.
                let rep = i.checked_sub(self.skim_dist).filter(|_| self.skim_dist > 0);
                let table = (cand as usize).checked_sub(1).filter(|&c| i - c <= WINDOW);
                let max = MAX_MATCH.min(data.len() - i);
                let found = [rep, table]
                    .into_iter()
                    .flatten()
                    .filter(|&c| data[c..c + 8] == data[i..i + 8])
                    .map(|c| (match_len(data, c, i, max), i - c))
                    .find(|&(len, _)| len >= SKIM_MIN_MATCH);
                if let Some((len, dist)) = found {
                    self.skim_dist = dist;
                    self.emit_match(len as u32, dist as u32, i + len, sink);
                    next_lookup = self.i;
                    continue;
                }
            }
            // Jump to the next grid position or lookup, whichever is first.
            self.i = next_lookup.min((i / SKIM_INSERT + 1) * SKIM_INSERT);
        }
        self.i = self.i.max(end);
    }
}

/// Collects tokens into a `Vec` (tests and offline analysis).
struct Collector {
    tokens: Vec<Token>,
}

impl TokenSink for Collector {
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.tokens.push(Token::Literal(byte));
    }
    #[inline]
    fn backref(&mut self, len: u32, dist: u32) {
        self.tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
    }
}

/// Tokenizes `data` at the given level into a materialized token
/// vector. The compressor proper uses [`tokenize_into`]; this exists
/// for tests and tools that inspect the token stream.
pub fn tokenize(data: &[u8], level: Level) -> Vec<Token> {
    let mut sink = Collector { tokens: Vec::with_capacity(data.len() / 2) };
    tokenize_into(data, level, &mut sink);
    sink.tokens
}

/// Expands a token stream back into bytes (test helper and the core of
/// inflate's copy loop semantics). Pre-sizes the output from the token
/// stream and copies matches in chunks, mirroring the inflate fast
/// path: non-overlapping matches are one `extend_from_within`
/// (memcpy), overlapping ones double the copied region per step.
pub fn resolve(tokens: &[Token]) -> Vec<u8> {
    let total: usize = tokens
        .iter()
        .map(|t| match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => *len as usize,
        })
        .sum();
    let mut out = Vec::with_capacity(total);
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                assert!(dist >= 1 && dist <= out.len(), "bad distance {dist} at {}", out.len());
                let start = out.len() - dist;
                let mut remaining = len;
                while remaining > 0 {
                    let avail = out.len() - start;
                    let take = remaining.min(avail);
                    out.extend_from_within(start..start + take);
                    remaining -= take;
                }
            }
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], level: Level) {
        let tokens = tokenize(data, level);
        assert_eq!(resolve(&tokens), data, "level {level:?}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for level in [Level::Fast, Level::Default, Level::Best] {
            roundtrip(b"", level);
            roundtrip(b"a", level);
            roundtrip(b"ab", level);
            roundtrip(b"abc", level);
        }
    }

    #[test]
    fn repetitive_data_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc";
        let tokens = tokenize(data, Level::Default);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(resolve(&tokens), data);
        // First three literals, then matches of distance 3.
        assert!(matches!(tokens[0], Token::Literal(b'a')));
        let m = tokens.iter().find_map(|t| match t {
            Token::Match { dist, .. } => Some(*dist),
            _ => None,
        });
        assert_eq!(m, Some(3));
    }

    #[test]
    fn overlapping_match_replication() {
        // "aaaaaaaa" -> literal 'a' then a dist-1 match (RLE via LZ77).
        let data = vec![b'a'; 300];
        let tokens = tokenize(&data, Level::Default);
        assert_eq!(resolve(&tokens), data);
        assert!(tokens.len() <= 4, "RLE should need very few tokens: {}", tokens.len());
        if let Token::Match { len, dist } = tokens[1] {
            assert_eq!(dist, 1);
            assert!(len as usize <= MAX_MATCH);
        } else {
            panic!("expected a match after the first literal");
        }
    }

    #[test]
    fn match_length_capped_at_258() {
        let data = vec![b'x'; 10_000];
        for t in tokenize(&data, Level::Best) {
            if let Token::Match { len, .. } = t {
                assert!(len as usize <= MAX_MATCH);
                assert!(len as usize >= MIN_MATCH);
            }
        }
    }

    #[test]
    fn distances_respect_window() {
        // Two identical 100-byte chunks separated by > 32 KiB of
        // incompressible filler: the second chunk must not reference the
        // first.
        let chunk: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut filler = Vec::new();
        let mut state = 0x12345678u32;
        for _ in 0..WINDOW + 1000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            filler.push((state >> 24) as u8);
        }
        let mut data = chunk.clone();
        data.extend_from_slice(&filler);
        data.extend_from_slice(&chunk);
        let tokens = tokenize(&data, Level::Best);
        assert_eq!(resolve(&tokens), data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= WINDOW);
            }
        }
    }

    #[test]
    fn binary_f64_mesh_data_roundtrips() {
        // The shape of data the pipeline actually feeds through gzip.
        let mut data = Vec::new();
        for i in 0..4096 {
            let v = (i as f64 * 0.001).sin() * 300.0;
            data.extend_from_slice(&v.to_le_bytes());
        }
        for level in [Level::Fast, Level::Default, Level::Best] {
            roundtrip(&data, level);
        }
    }

    #[test]
    fn store_level_is_all_literals() {
        let tokens = tokenize(b"aaaa", Level::Store);
        assert_eq!(tokens.len(), 4);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
    }

    #[test]
    fn higher_levels_do_not_tokenize_worse() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| if i % 17 < 9 { (i % 61) as u8 } else { b'z' })
            .collect();
        let fast = tokenize(&data, Level::Fast).len();
        let best = tokenize(&data, Level::Best).len();
        assert!(best <= fast + fast / 10, "best {best} much worse than fast {fast}");
        assert_eq!(resolve(&tokenize(&data, Level::Fast)), data);
        assert_eq!(resolve(&tokenize(&data, Level::Best)), data);
    }

    #[test]
    fn wide_match_len_agrees_with_bytewise() {
        // match_len against a byte-by-byte reference at every alignment
        // and length around the 8-byte stride.
        let mut data = vec![0u8; 600];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 7) as u8;
        }
        // A second copy with deliberate diffs at varied offsets.
        let base = data.clone();
        data.extend_from_slice(&base);
        for diff_at in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 255, 256, 257] {
            let mut d = data.clone();
            d[600 + diff_at] ^= 0xFF;
            let max = MAX_MATCH.min(d.len() - 600);
            let want = (0..max).take_while(|&k| d[k] == d[600 + k]).count();
            assert_eq!(match_len(&d, 0, 600, max), want, "diff at {diff_at}");
        }
    }

    #[test]
    fn resolve_presizes_and_copies_overlaps() {
        // dist < len exercises the chunked overlap path; the result must
        // replicate the period exactly.
        let tokens = vec![
            Token::Literal(1),
            Token::Literal(2),
            Token::Literal(3),
            Token::Match { len: 10, dist: 3 },
            Token::Match { len: 4, dist: 13 },
        ];
        let out = resolve(&tokens);
        assert_eq!(out, vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 1, 2, 3, 1]);
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;

    fn noise(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn text(n: usize) -> Vec<u8> {
        b"the quick brown fox jumps over the lazy checkpoint. "
            .iter()
            .copied()
            .cycle()
            .take(n)
            .collect()
    }

    /// A window cycling through `k` byte values equally often: exactly
    /// `log2(k)` bits per byte.
    fn uniform_over(k: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7) % k) as u8).collect()
    }

    #[test]
    fn gate_threshold_is_exact_integer_cost() {
        // 8 and 7 bits per byte reach the 6.5-bit threshold, 6 does not.
        assert!(near_incompressible(&uniform_over(256, GATE_WINDOW)));
        assert!(near_incompressible(&uniform_over(128, GATE_WINDOW)));
        assert!(!near_incompressible(&uniform_over(64, GATE_WINDOW)));
        // Half the bytes over 64 values (7 bits each), half over 32 (6
        // bits each): exactly 6.5 bits per byte, which counts as gated.
        let mut mixed: Vec<u8> = (0..GATE_WINDOW / 2).map(|i| (i % 64) as u8).collect();
        mixed.extend((0..GATE_WINDOW / 2).map(|i| 0x80 | (i % 32) as u8));
        assert!(near_incompressible(&mixed));
        // One byte moved from a 7-bit value to a 6-bit one drops below.
        mixed[0] = 0x80;
        assert!(!near_incompressible(&mixed));
        // One symbol costs one bit per byte.
        assert!(!near_incompressible(&[9u8; 100]));
    }

    #[test]
    fn gated_noise_yields_no_short_matches() {
        let data = noise(6 * GATE_WINDOW, 3);
        let tokens = tokenize(&data, Level::Best);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        assert_eq!(resolve(&tokens), data);
    }

    #[test]
    fn skim_finds_repeats_of_gated_bytes_at_every_alignment() {
        // A noise block repeated at distances that are and are not
        // multiples of the skim grid: most of each copy must become
        // matches.
        for dist in [1000usize, 1001, 4099, 20_000] {
            let block = noise(dist, dist as u64);
            let mut data = block.clone();
            data.extend_from_slice(&block);
            data.extend_from_slice(&block[..dist / 2]);
            for level in [Level::Fast, Level::Default, Level::Best] {
                let tokens = tokenize(&data, level);
                assert_eq!(resolve(&tokens), data, "dist {dist} {level:?}");
                let matched: usize = tokens
                    .iter()
                    .map(|t| match t {
                        Token::Match { len, .. } => usize::from(*len),
                        Token::Literal(_) => 0,
                    })
                    .sum();
                let repeated = data.len() - dist;
                let reach = SKIM_INSERT * SKIM_STRIDE + SKIM_MIN_MATCH;
                assert!(
                    matched + reach >= repeated,
                    "dist {dist} {level:?}: {matched} of {repeated} repeated bytes matched"
                );
            }
        }
    }

    #[test]
    fn inputs_shorter_than_a_window_or_ending_mid_window_roundtrip() {
        let mut lens = vec![0usize, 1, 2, 3, 4, 15, 16, 17, 100];
        lens.extend([GATE_WINDOW - 1, GATE_WINDOW, GATE_WINDOW + 1, 3 * GATE_WINDOW + 123]);
        for len in lens {
            // Noise (gated), text (matcher), and both alternating.
            let mixed: Vec<u8> = noise(len, 11)
                .chunks(GATE_WINDOW)
                .zip(text(len).chunks(GATE_WINDOW))
                .enumerate()
                .flat_map(|(k, (a, b))| if k % 2 == 0 { a.to_vec() } else { b.to_vec() })
                .collect();
            for data in [noise(len, 7), text(len), mixed] {
                for level in [Level::Fast, Level::Default, Level::Best] {
                    assert_eq!(resolve(&tokenize(&data, level)), data, "len {len} {level:?}");
                    let packed = crate::deflate::compress(&data, level);
                    assert_eq!(
                        crate::inflate::inflate(&packed).unwrap(),
                        data,
                        "len {len} {level:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mode_switches_are_reported_at_window_boundaries() {
        // noise | text | text | noise: switches where the second and
        // fourth windows begin (a match may carry past a boundary, so a
        // switch lands at or just after it).
        let mut data = noise(GATE_WINDOW, 1);
        data.extend(text(2 * GATE_WINDOW));
        data.extend(noise(GATE_WINDOW, 2));
        struct Spy {
            seen: usize,
            switches: Vec<usize>,
        }
        impl TokenSink for Spy {
            fn literal(&mut self, _: u8) {
                self.seen += 1;
            }
            fn backref(&mut self, len: u32, _: u32) {
                self.seen += len as usize;
            }
        }
        let mut spy = Spy { seen: 0, switches: Vec::new() };
        tokenize_gated(&data, Level::Default, &mut spy, |s: &mut Spy| s.switches.push(s.seen));
        assert_eq!(spy.seen, data.len());
        assert_eq!(spy.switches.len(), 3, "{:?}", spy.switches);
        assert_eq!(spy.switches[0], 0, "the first window is gated: a switch before any token");
        assert_eq!(spy.switches[1], GATE_WINDOW);
        assert!((3 * GATE_WINDOW..3 * GATE_WINDOW + MAX_MATCH).contains(&spy.switches[2]));
    }
}
