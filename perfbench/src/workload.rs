//! The three workloads, driven through the pipeline's public APIs.
//!
//! Every load is a closed loop with one client: the next op starts when
//! the previous one (and its checks) finished, because an application
//! blocks on its own checkpoint. An op and its checks either succeed or
//! count once in `failed`.
//!
//! * `ckpt_serial` — each op saves one generation of the four NICAM
//!   arrays (`Compressor::compress` at one thread, `Store::save_full`
//!   with four ranks) and restores all four (`Store::restore_array`).
//! * `ckpt_parallel` — the same fields at two threads: saves stream
//!   through `Compressor::compress_stream` into
//!   `Store::save_full_streamed`; restores are `Store::read_segment`
//!   plus `Compressor::decompress_parallel`.
//! * `restart_stream` — set-up commits one generation of 8×-deep
//!   arrays; each op restarts one rank with
//!   `ckpt_serve::restore::restore_streamed` and `Compressor::decompress`.
//!
//! Every third op also runs an interrupted restart: a streamed restore
//! killed by a `FailPoint` at a seeded byte offset, finished with
//! `resume_restore`. On `restart_stream` it replaces that op's cold
//! restart; on the other two it follows the op and restarts every rank
//! of the generation the op just saved, with one token per rank.
//!
//! With a tracer, the same ops run split into public-layer calls that
//! produce the same bytes (see [`Bench::save_gen`] and friends), each
//! call inside a span.

use crate::trace::{ms, Tracer};
use ckpt_core::metrics::relative_error;
use ckpt_core::{Compressor, CompressorConfig, Container, StreamError};
use ckpt_deflate::crc32::{crc32, crc32_combine};
use ckpt_deflate::{chunked, gzip};
use ckpt_serve::restore::{parse_token, restore_streamed, resume_restore};
use ckpt_serve::{RestoreOptions, ServeError};
use ckpt_store::layout::Layout;
use ckpt_store::{FailPoint, SegmentFormat, Snapshot, Store, StoreError};
use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
use ckpt_tensor::Tensor;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Ranks per generation: one per NICAM array kind.
pub const RANKS: u32 = 4;
/// Ops between untimed `Store::gc` passes.
const GC_EVERY: u64 = 4;
/// Full generations each GC pass keeps.
const GC_KEEP: usize = 2;
/// Every this-many-th op runs an interrupted restart.
const RESTART_EVERY: u64 = 3;
/// Upper bound on an `RST1` resume token written after `interval`
/// bytes of output: its `ICK1` engine state holds a window of up to
/// 32 KiB of that output, plus under 2 KiB of fields and code lengths.
fn token_bound(interval: u64) -> u64 {
    interval.min(32 << 10) + (2 << 10)
}
/// Fewest timed ops per run, whatever `--seconds` says, so that every
/// op kind (and, traced, every span kind) is sampled.
const MIN_OPS: u64 = 8;
/// The paper's largest average relative error across arrays for the
/// proposed quantizer at n = 128 (Section IV-C), in percent.
pub const PAPER_N128_AVG_ERROR_PCT: f64 = 1.19;

/// Which load to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CkptSerial,
    CkptParallel,
    RestartStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CkptSerial,
        Workload::CkptParallel,
        Workload::RestartStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CkptSerial => "ckpt_serial",
            Workload::CkptParallel => "ckpt_parallel",
            Workload::RestartStream => "restart_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Codec threads the workload asks for.
    pub fn threads(self) -> usize {
        match self {
            Workload::CkptSerial => 1,
            Workload::CkptParallel | Workload::RestartStream => 2,
        }
    }
}

/// Array sizes and repetition counts.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Per-rank dims of `ckpt_serial` / `ckpt_parallel`.
    pub dims: Vec<usize>,
    /// Per-rank dims of `restart_stream`.
    pub deep_dims: Vec<usize>,
    /// Output bytes between restore tokens on `restart_stream`.
    pub deep_token_bytes: u64,
    /// Set-ups per run (`setup_s` is their median) of `ckpt_serial`
    /// and `ckpt_parallel`, and of `restart_stream`.
    pub setups: usize,
    pub deep_setups: usize,
}

impl Scale {
    /// The paper's 1156 × 82 × 2 arrays; `restart_stream` at 8× the
    /// layers (12.1 MB per array, 3× a 4 MiB L2) with 1 MiB tokens.
    pub fn full() -> Scale {
        Scale {
            dims: vec![1156, 82, 2],
            deep_dims: vec![1156, 82, 16],
            deep_token_bytes: 1 << 20,
            setups: 6,
            deep_setups: 4,
        }
    }

    /// A reduced size for tests: the same code paths in milliseconds.
    pub fn smoke() -> Scale {
        Scale {
            dims: vec![128, 32, 2],
            deep_dims: vec![128, 32, 8],
            deep_token_bytes: 16 << 10,
            setups: 2,
            deep_setups: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for the store and restore outputs; removed at
    /// the end of the run.
    pub dir: PathBuf,
    /// Flip one byte of a committed segment before the first timed
    /// restore, to prove that the checks catch it.
    pub corrupt_segment: bool,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub resume_ms: Vec<f64>,
    /// Op wall times of traced ops (tracing runs only).
    pub traced_save_ms: Vec<f64>,
    pub traced_restore_ms: Vec<f64>,
    /// Raw f64 bytes and committed payload bytes of every fixture array.
    pub raw_bytes: usize,
    pub stored_bytes: usize,
    /// Per-array average and maximum relative errors, %.
    pub rel_error_avgs: Vec<f64>,
    pub rel_error_maxes: Vec<f64>,
    /// CRC-32 over every fixture payload, in set-up and rank order.
    pub payload_crc: u32,
}

impl Report {
    /// Counts one attempted op and, if it failed, the failure.
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Adds one fixture array: its raw size, committed payload and
    /// relative errors (%).
    fn add_array(&mut self, raw_bytes: usize, payload: &[u8], avg: f64, max: f64) {
        self.raw_bytes += raw_bytes;
        self.stored_bytes += payload.len();
        self.rel_error_avgs.push(avg);
        self.rel_error_maxes.push(max);
        self.payload_crc = crc32_combine(self.payload_crc, crc32(payload), payload.len() as u64);
    }

    /// Segment bytes over raw f64 bytes (the paper's Eq. 5 rate), %.
    pub fn stored_ratio(&self) -> Option<f64> {
        (self.raw_bytes > 0).then(|| self.stored_bytes as f64 / self.raw_bytes as f64 * 100.0)
    }

    /// Mean over the fixture arrays of each array's average relative
    /// error, %.
    pub fn rel_error_avg(&self) -> Option<f64> {
        mean(&self.rel_error_avgs)
    }

    /// Mean over the fixture arrays of each array's maximum relative
    /// error, %. A mean, not the largest: the largest of a run's arrays
    /// swings with the seed far more than the mean does.
    pub fn rel_error_max(&self) -> Option<f64> {
        mean(&self.rel_error_maxes)
    }

    /// Failed or mis-checked ops over ops attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Where an op sits in the schedule.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Position in the schedule; a traced run runs each slot twice.
    slot: u64,
    /// False for the warm-up ops, which record no samples.
    timed: bool,
    traced: bool,
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Reference data computed once per set-up, against which every op is
/// checked.
struct Fixture {
    /// The fixture's own store.
    dir: PathBuf,
    store: Store,
    /// The original arrays, one per rank (dropped after set-up on
    /// `restart_stream`, which saves nothing later).
    fields: Vec<Tensor<f64>>,
    /// Committed payload of each rank (likewise dropped).
    payloads: Vec<Vec<u8>>,
    /// `Compressor::decompress` of each committed payload.
    restored: Vec<Tensor<f64>>,
    /// Each rank's cold streamed restore.
    cold: Vec<Cold>,
    /// The fixture generation and a snapshot pinning it.
    gen: u64,
    snap: Snapshot,
}

/// A rank's cold streamed restore: the token interval its restarts
/// use, the output's length and CRC, and the bytes the restore wrote
/// through its fail point (the range kill offsets are drawn from).
#[derive(Debug, Clone, Copy)]
struct Cold {
    interval: u64,
    out_len: u64,
    out_crc: u32,
    fp_bytes: u64,
}

/// SplitMix64: the seeded source of kill offsets.
struct Rng(Cell<u64>);

impl Rng {
    fn next(&self) -> u64 {
        let mut z = self.0.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// One run of a workload.
pub struct Bench<'a> {
    cfg: &'a Config,
    tracer: Option<Tracer>,
    /// Buffered codec of the workload and its no-container twin that
    /// the traced run splits the save with.
    codec: Compressor,
    formatter: Compressor,
    kills: Rng,
    out_path: PathBuf,
    token_path: PathBuf,
}

/// Turns an error into a failure message prefixed with `what`.
fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn stream_err(e: StreamError<StoreError>) -> StoreError {
    match e {
        StreamError::Ckpt(e) => StoreError::Ckpt(e),
        StreamError::Sink(e) => e,
    }
}

fn same_bits(a: &Tensor<f64>, b: &Tensor<f64>) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl<'a> Bench<'a> {
    pub fn new(cfg: &'a Config) -> Bench<'a> {
        let base = CompressorConfig::paper_proposed().with_threads(cfg.workload.threads());
        Bench {
            cfg,
            tracer: cfg.trace.then(Tracer::default),
            codec: Compressor::new(base).expect("the paper's configuration is valid"),
            formatter: Compressor::new(base.with_container(Container::None))
                .expect("the paper's configuration is valid"),
            kills: Rng(Cell::new(cfg.seed ^ 0x6B69_6C6C_6F66_6673)),
            out_path: cfg.dir.join("restart.out"),
            token_path: cfg.dir.join("restart.rst"),
        }
    }

    /// The tracer, when this run traces.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The tracer for an op that is traced (`traced`), else `None`.
    fn tr(&self, traced: bool) -> Option<&Tracer> {
        self.tracer.as_ref().filter(|_| traced)
    }

    /// Runs `f` in a span when `tr` is set.
    fn span<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tr {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }

    fn dims(&self) -> &[usize] {
        match self.cfg.workload {
            Workload::RestartStream => &self.cfg.scale.deep_dims,
            _ => &self.cfg.scale.dims,
        }
    }

    /// Runs set-ups, then ops for `seconds`, and returns what it saw.
    pub fn run_workload(&self) -> Report {
        let mut rep = Report::default();
        let setups = match self.cfg.workload {
            Workload::RestartStream => self.cfg.scale.deep_setups,
            _ => self.cfg.scale.setups,
        };
        let _ = std::fs::remove_dir_all(&self.cfg.dir);
        if let Err(e) = std::fs::create_dir_all(&self.cfg.dir) {
            rep.record(Err(format!("create work dir: {e}")));
            return rep;
        }
        // Each set-up builds a fixture from its own fields and adds its
        // sizes and errors to the report, so those figures average over
        // `setups` × 4 arrays rather than one seed's four. Ops run on the
        // last fixture only: rotating over fixtures of unequal cost would
        // make each op's time a mixture whose median jumps between modes.
        let mut fixture = None;
        for s in 0..setups {
            drop(fixture.take());
            let traced =
                self.cfg.trace && self.cfg.workload == Workload::RestartStream && s % 2 == 1;
            if let Some(t) = self.tr(traced) {
                t.set_op(s as u64);
            }
            let t0 = Instant::now();
            let built = self.build_fixture(s, traced, &mut rep);
            if built.is_ok() {
                rep.setup_s.push(t0.elapsed().as_secs_f64());
            }
            rep.record(built.as_ref().map(|_| ()).map_err(Clone::clone));
            fixture = built.ok();
        }
        let Some(mut fx) = fixture else {
            return rep;
        };
        if self.cfg.corrupt_segment {
            if let Err(e) = flip_segment_byte(&fx.dir, fx.gen) {
                rep.record(Err(e));
            }
        }

        // One checked warm-up op, untimed, so caches and lazy set-up are
        // done before the clock starts.
        let mut op_id = setups as u64;
        let warm = Step {
            slot: 0,
            timed: false,
            traced: false,
        };
        let outcome = self.run_op(&mut fx, op_id, warm, &mut rep);
        rep.record(outcome);

        let start = Instant::now();
        let budget = Duration::from_secs_f64(self.cfg.seconds);
        let mut j = 0;
        while start.elapsed() < budget || j < MIN_OPS {
            // A traced run runs every slot twice, untraced then traced,
            // so both see the same state and their difference is the
            // tracing overhead.
            let (slot, traced) = if self.cfg.trace {
                (j / 2, j % 2 == 1)
            } else {
                (j, false)
            };
            op_id += 1;
            let step = Step {
                slot,
                timed: true,
                traced,
            };
            let outcome = self.run_op(&mut fx, op_id, step, &mut rep);
            rep.record(outcome);
            if fx.store.poisoned() {
                // A failed save is a simulated crash: recover by reopening.
                match Store::open(&fx.dir) {
                    Ok(s) => fx.store = s,
                    Err(e) => {
                        rep.record(Err(format!("reopen after a failed op: {e}")));
                        break;
                    }
                }
            }
            j += 1;
        }
        rep
    }

    /// Builds fixture `s`: fields from the seed, a fresh store, the
    /// fixture generation, and every reference the ops are checked
    /// against. Adds the fixture's sizes and errors to `rep`.
    fn build_fixture(&self, s: usize, traced: bool, rep: &mut Report) -> Result<Fixture, String> {
        let dir = self.cfg.dir.join(format!("store-{s}"));
        let dims = self.dims().to_vec();
        let seed = self.cfg.seed.wrapping_mul(64).wrapping_add(s as u64);
        let mut fields: Vec<Tensor<f64>> = FieldKind::ALL
            .iter()
            .map(|&kind| {
                generate(&FieldSpec {
                    dims: dims.clone(),
                    ..FieldSpec::nicam_like(kind, seed)
                })
            })
            .collect();
        let mut store = Store::open(&dir).map_err(err("open store"))?;

        let t0 = Instant::now();
        let tr = self.tr(traced);
        let gen = Self::span(tr, "op.save", || self.save_gen(&mut store, &fields, 1, tr))?;
        let save_ms = ms(t0.elapsed());
        if self.cfg.workload == Workload::RestartStream {
            // Restarts encode nothing, so the set-up saves are this
            // workload's only saves.
            if traced {
                rep.traced_save_ms.push(save_ms);
            } else {
                rep.save_ms.push(save_ms);
            }
        }

        let mut payloads: Vec<Vec<u8>> = (0..RANKS)
            .map(|r| {
                store
                    .read_segment(gen, r)
                    .map_err(err("read fixture segment"))
            })
            .collect::<Result<_, _>>()?;
        let restored: Vec<Tensor<f64>> = payloads
            .iter()
            .map(|p| Compressor::decompress(p).map_err(err("decompress fixture payload")))
            .collect::<Result<_, _>>()?;
        if traced {
            // The split save must commit what the untraced path would.
            for (field, payload) in fields.iter().zip(&payloads) {
                if self.codec.compress(field).map_err(err("compress"))?.bytes != *payload {
                    return Err("traced save committed other bytes than the untraced path".into());
                }
            }
        }

        let mut avg = 0.0;
        for ((orig, back), payload) in fields.iter().zip(&restored).zip(&payloads) {
            let e = relative_error(orig, back).map_err(err("relative error"))?;
            avg += e.average_percent() / f64::from(RANKS);
            rep.add_array(
                orig.len() * 8,
                payload,
                e.average_percent(),
                e.max_percent(),
            );
        }
        if avg > PAPER_N128_AVG_ERROR_PCT {
            return Err(format!(
                "average relative error {avg:.4} % exceeds the paper's n=128 bound {PAPER_N128_AVG_ERROR_PCT} %"
            ));
        }

        // Cold streamed restores: the reference every resumed restart
        // must reproduce, and the fail-point byte range kills draw from.
        let snap = store.snapshot().map_err(err("snapshot"))?;
        let mut cold = Vec::with_capacity(RANKS as usize);
        for r in 0..RANKS {
            let cold_restore = |interval_bytes| {
                let fp = FailPoint::unlimited();
                let opts = RestoreOptions { interval_bytes };
                restore_streamed(&snap, gen, r, &self.out_path, &self.token_path, &opts, &fp)
                    .map(|o| (o, fp.bytes_written()))
                    .map_err(err("cold streamed restore"))
            };
            // The small arrays' token interval depends on the output
            // length, which a first pass without tokens measures.
            let interval = match self.cfg.workload {
                Workload::RestartStream => self.cfg.scale.deep_token_bytes,
                _ => small_token_interval(cold_restore(u64::MAX)?.0.out_len),
            };
            let (o, fp_bytes) = cold_restore(interval)?;
            cold.push(Cold {
                interval,
                out_len: o.out_len,
                out_crc: o.out_crc,
                fp_bytes,
            });
        }
        if self.cfg.workload == Workload::RestartStream {
            // Nothing is saved after set-up; free what only saves need.
            fields.clear();
            payloads.clear();
        }
        Ok(Fixture {
            dir,
            store,
            fields,
            payloads,
            restored,
            cold,
            gen,
            snap,
        })
    }

    /// One op on fixture `fx`; `op` tags the trace.
    fn run_op(
        &self,
        fx: &mut Fixture,
        op: u64,
        step: Step,
        rep: &mut Report,
    ) -> Result<(), String> {
        if let Some(t) = self.tr(step.traced) {
            t.set_op(op);
        }
        let restart = step.slot % RESTART_EVERY == RESTART_EVERY - 1;
        let result = match self.cfg.workload {
            Workload::RestartStream => self.restart_op(fx, step, restart, rep),
            _ => self.generation_op(fx, op, step, restart, rep),
        };
        // Untimed, once per slot; traced runs report its cost as
        // `store.gc_ms`.
        let gc_slot = step.slot % GC_EVERY == GC_EVERY - 1;
        if step.timed && gc_slot && (step.traced || !self.cfg.trace) {
            let tr = self.tr(step.traced);
            Self::span(tr, "store.gc", || fx.store.gc(GC_KEEP)).map_err(err("gc"))?;
        }
        result
    }

    /// `ckpt_serial` / `ckpt_parallel`: save a generation, restore it,
    /// check both, and every third op restart one rank with a kill.
    fn generation_op(
        &self,
        fx: &mut Fixture,
        op: u64,
        step: Step,
        restart: bool,
        rep: &mut Report,
    ) -> Result<(), String> {
        let Step {
            slot,
            timed,
            traced,
            ..
        } = step;
        let tr = self.tr(traced);
        let t0 = Instant::now();
        let gen = Self::span(tr, "op.save", || {
            self.save_gen(&mut fx.store, &fx.fields, op, tr)
        })?;
        let save_ms = ms(t0.elapsed());
        if self.cfg.corrupt_segment && slot == 0 && timed && !traced {
            flip_segment_byte(&fx.dir, gen)?;
        }

        let t1 = Instant::now();
        let restored = Self::span(tr, "op.restore", || self.restore_gen(&fx.store, gen, tr))?;
        let restore_ms = ms(t1.elapsed());
        if timed {
            if traced {
                rep.traced_save_ms.push(save_ms);
                rep.traced_restore_ms.push(restore_ms);
            } else {
                rep.save_ms.push(save_ms);
                rep.restore_ms.push(restore_ms);
            }
        }

        // Untimed checks: the committed bytes are the fixture's, and
        // every restored tensor is bit-identical to decompressing them.
        for r in 0..RANKS {
            let ru = r as usize;
            let committed = fx
                .store
                .read_segment(gen, r)
                .map_err(err("read committed segment"))?;
            if committed != fx.payloads[ru] {
                let back =
                    Compressor::decompress(&committed).map_err(err("decompress committed"))?;
                if !same_bits(&back, &restored[ru]) {
                    return Err(format!(
                        "gen {gen} rank {r}: restore differs from its committed payload"
                    ));
                }
                return Err(format!(
                    "gen {gen} rank {r}: committed payload differs from the fixture's"
                ));
            }
            if !same_bits(&restored[ru], &fx.restored[ru]) {
                return Err(format!(
                    "gen {gen} rank {r}: restored tensor differs from the committed payload"
                ));
            }
        }

        if restart {
            // Restart the whole generation, rank by rank, so a sample is
            // per generation like `restore_ms` (and not a mixture of the
            // ranks' unequal sizes).
            let snap = fx.store.snapshot().map_err(err("snapshot"))?;
            let mut resume_ms = 0.0;
            for rank in 0..RANKS {
                if traced {
                    self.oneshot_reference(fx, gen, rank)?;
                    Self::span(tr, "ref.stream", || {
                        self.cold_restart(&snap, gen, rank, fx, tr)
                    })?;
                }
                resume_ms += self.interrupted_restart(&snap, gen, rank, fx, tr)?;
            }
            if timed && !traced {
                rep.resume_ms.push(resume_ms);
            }
        }
        Ok(())
    }

    /// `restart_stream`: restart one rank (rotating), cold or, every
    /// third op, killed at a seeded offset and resumed.
    fn restart_op(
        &self,
        fx: &Fixture,
        step: Step,
        restart: bool,
        rep: &mut Report,
    ) -> Result<(), String> {
        let Step {
            slot,
            timed,
            traced,
        } = step;
        let tr = self.tr(traced);
        let rank = (slot % u64::from(RANKS)) as u32;
        let snap = &fx.snap;
        if restart {
            let resume_ms = self.interrupted_restart(snap, fx.gen, rank, fx, tr)?;
            if timed && !traced {
                rep.resume_ms.push(resume_ms);
            }
            return Ok(());
        }
        if traced {
            self.oneshot_reference(fx, fx.gen, rank)?;
        }
        let t0 = Instant::now();
        let back = Self::span(tr, "op.restore", || {
            self.cold_restart(snap, fx.gen, rank, fx, tr)
        })?;
        let restore_ms = ms(t0.elapsed());
        if timed {
            if traced {
                rep.traced_restore_ms.push(restore_ms);
            } else {
                rep.restore_ms.push(restore_ms);
            }
        }
        if !same_bits(&back, &fx.restored[rank as usize]) {
            return Err(format!(
                "rank {rank}: restarted tensor differs from the committed payload"
            ));
        }
        Ok(())
    }

    /// Saves `fields` as one generation, one rank per field. Traced, the
    /// save runs as `Compressor` without a container (stage timings as
    /// child spans), then the workload's deflate call, then the store
    /// call; the bytes are the untraced path's.
    fn save_gen(
        &self,
        store: &mut Store,
        fields: &[Tensor<f64>],
        step: u64,
        tr: Option<&Tracer>,
    ) -> Result<u64, String> {
        let serial = self.cfg.workload == Workload::CkptSerial;
        let gen = match (tr, serial) {
            (None, true) => {
                let payloads = fields
                    .iter()
                    .map(|f| self.codec.compress(f).map(|c| c.bytes))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(err("compress"))?;
                let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                store.save_full(step, SegmentFormat::Array, &refs, 1)
            }
            (None, false) => store.save_full_streamed(step, SegmentFormat::Array, RANKS, |r, w| {
                self.codec
                    .compress_stream(&fields[r as usize], w)
                    .map_err(stream_err)?;
                Ok(())
            }),
            (Some(t), true) => {
                let mut payloads = Vec::with_capacity(fields.len());
                for f in fields {
                    let formatted = self.format(t, f)?;
                    let level = self.codec.config().level;
                    let bytes = t.span("deflate.compress", || gzip::compress(&formatted, level));
                    t.count("deflate.in_bytes", formatted.len() as f64);
                    t.count("deflate.out_bytes", bytes.len() as f64);
                    payloads.push(bytes);
                }
                let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                let before = store.bytes_written();
                let gen = t.span("store.save", || {
                    store.save_full(step, SegmentFormat::Array, &refs, 1)
                });
                t.count(
                    "store.written_bytes",
                    (store.bytes_written() - before) as f64,
                );
                t.count(
                    "store.payload_bytes",
                    refs.iter().map(|p| p.len()).sum::<usize>() as f64,
                );
                gen
            }
            (Some(t), false) => {
                let before = store.bytes_written();
                let mut payload_bytes = 0usize;
                let cfg = *self.codec.config();
                let gen = t.span("store.save", || {
                    store.save_full_streamed(step, SegmentFormat::Array, RANKS, |r, w| {
                        let formatted = self
                            .format(t, &fields[r as usize])
                            .map_err(StoreError::NotFound)?;
                        let stats = t.span("deflate.compress", || {
                            chunked::compress_chunked_stream(
                                &formatted,
                                cfg.level,
                                cfg.chunk_bytes,
                                cfg.threads,
                                w,
                            )
                        })?;
                        t.count("deflate.in_bytes", formatted.len() as f64);
                        t.count("deflate.out_bytes", stats.container_len as f64);
                        payload_bytes += stats.container_len;
                        Ok(())
                    })
                });
                t.count(
                    "store.written_bytes",
                    (store.bytes_written() - before) as f64,
                );
                t.count("store.payload_bytes", payload_bytes as f64);
                gen
            }
        };
        gen.map_err(err("save"))
    }

    /// Traced save, stages 1–4: the formatted stream and its timings.
    fn format(&self, t: &Tracer, field: &Tensor<f64>) -> Result<Vec<u8>, String> {
        let c = t.span("core.compress", || {
            let c = self.formatter.compress(field);
            if let Ok(c) = &c {
                t.stages(&c.timings);
            }
            c
        });
        let c = c.map_err(err("compress"))?;
        t.count("quant.coverage", c.stats.coverage() / f64::from(RANKS));
        Ok(c.bytes)
    }

    /// Restores every rank of `gen`. Traced, each rank runs as
    /// `Store::read_segment`, the container's inflate, then
    /// `Compressor` on the formatted stream.
    fn restore_gen(
        &self,
        store: &Store,
        gen: u64,
        tr: Option<&Tracer>,
    ) -> Result<Vec<Tensor<f64>>, String> {
        let threads = self.cfg.workload.threads();
        let serial = self.cfg.workload == Workload::CkptSerial;
        (0..RANKS)
            .map(|r| match (tr, serial) {
                (None, true) => store.restore_array(gen, r).map_err(err("restore_array")),
                (None, false) => {
                    let bytes = store.read_segment(gen, r).map_err(err("read_segment"))?;
                    Compressor::decompress_parallel(&bytes, threads).map_err(err("decompress"))
                }
                (Some(t), _) => {
                    let bytes = t
                        .span("store.read", || store.read_segment(gen, r))
                        .map_err(err("read_segment"))?;
                    let formatted = t
                        .span("deflate.inflate", || {
                            if serial {
                                gzip::decompress(&bytes)
                            } else {
                                chunked::decompress_chunked_with_limit(&bytes, threads, usize::MAX)
                            }
                        })
                        .map_err(err("inflate"))?;
                    t.span("core.parse_inverse", || {
                        Compressor::decompress_parallel(&formatted, threads)
                    })
                    .map_err(err("parse"))
                }
            })
            .collect()
    }

    /// Traced only, outside any op's timing: a one-shot single-thread
    /// inflate of the segment being restarted, the reference a merged
    /// inflate engine must reach.
    fn oneshot_reference(&self, fx: &Fixture, gen: u64, rank: u32) -> Result<(), String> {
        let Some(t) = self.tracer.as_ref() else {
            return Ok(());
        };
        t.span("ref.oneshot", || self.oneshot_inflate(t, fx, gen, rank))
    }

    fn oneshot_inflate(&self, t: &Tracer, fx: &Fixture, gen: u64, rank: u32) -> Result<(), String> {
        let bytes = t
            .span("store.read", || fx.store.read_segment(gen, rank))
            .map_err(err("read_segment"))?;
        let formatted = t
            .span("deflate.inflate_oneshot", || {
                if chunked::is_chunked(&bytes) {
                    chunked::decompress_chunked_with_limit(&bytes, 1, usize::MAX)
                } else {
                    gzip::decompress(&bytes)
                }
            })
            .map_err(err("one-shot inflate"))?;
        let cold = fx.cold[rank as usize];
        if (formatted.len() as u64, crc32(&formatted)) != (cold.out_len, cold.out_crc) {
            return Err(format!(
                "rank {rank}: one-shot inflate differs from the streamed restore"
            ));
        }
        Ok(())
    }

    /// A cold streamed restart of one rank: `restore_streamed` to a
    /// file, then `Compressor::decompress` of that file.
    fn cold_restart(
        &self,
        snap: &Snapshot,
        gen: u64,
        rank: u32,
        fx: &Fixture,
        tr: Option<&Tracer>,
    ) -> Result<Tensor<f64>, String> {
        let opts = RestoreOptions {
            interval_bytes: fx.cold[rank as usize].interval,
        };
        let o = Self::span(tr, "serve.stream", || {
            restore_streamed(
                snap,
                gen,
                rank,
                &self.out_path,
                &self.token_path,
                &opts,
                &FailPoint::unlimited(),
            )
        })
        .map_err(err("restore_streamed"))?;
        if let Some(t) = tr {
            t.count("serve.tokens", o.checkpoints as f64);
        }
        let cold = fx.cold[rank as usize];
        if (o.out_len, o.out_crc) != (cold.out_len, cold.out_crc) {
            return Err(format!(
                "rank {rank}: streamed restore output differs from the set-up reference"
            ));
        }
        let out = Self::span(tr, "serve.output_read", || std::fs::read(&self.out_path))
            .map_err(err("read output"))?;
        Self::span(tr, "core.parse_inverse", || Compressor::decompress(&out))
            .map_err(err("decompress"))
    }

    /// Kills a streamed restore of `rank` at a seeded byte offset, then
    /// times `resume_restore` and checks it reproduces the cold output.
    fn interrupted_restart(
        &self,
        snap: &Snapshot,
        gen: u64,
        rank: u32,
        fx: &Fixture,
        tr: Option<&Tracer>,
    ) -> Result<f64, String> {
        let cold = fx.cold[rank as usize];
        let opts = RestoreOptions {
            interval_bytes: cold.interval,
        };
        // Kill past the first token: its interval of output plus the
        // token itself are written by then. On `restart_stream`, in the
        // middle third of the restore's writes, a band narrow enough
        // that the work left for the resume does not swing with where
        // each kill lands; elsewhere after the one token, so every
        // resume continues from it.
        let (lo, hi) = match self.cfg.workload {
            Workload::RestartStream => {
                let third = cold.fp_bytes / 3;
                let lo = third.max(cold.interval + token_bound(cold.interval));
                (lo, (lo + third).min(cold.fp_bytes))
            }
            _ => (cold.interval + token_bound(cold.interval), cold.fp_bytes),
        };
        if hi <= lo {
            return Err(format!(
                "rank {rank}: restore of {} bytes is too short to kill past a token",
                cold.fp_bytes
            ));
        }
        let budget = self.kills.range(lo, hi);
        let fp = FailPoint::after_bytes(budget);
        let killed = Self::span(tr, "serve.stream_killed", || {
            restore_streamed(
                snap,
                gen,
                rank,
                &self.out_path,
                &self.token_path,
                &opts,
                &fp,
            )
        });
        match killed {
            Err(ServeError::Store(StoreError::Killed)) => {}
            Err(e) => return Err(format!("rank {rank}: killed restore failed otherwise: {e}")),
            Ok(_) => {
                return Err(format!(
                    "rank {rank}: kill at byte {budget} did not interrupt the restore"
                ))
            }
        }
        let token = std::fs::read(&self.token_path).map_err(err("kill left no token"))?;
        let token = parse_token(&token).map_err(err("parse token"))?;
        let written = std::fs::metadata(&self.out_path)
            .map_err(err("killed output"))?
            .len();
        if let Some(t) = tr {
            t.count(
                "serve.resume_redo_bytes",
                written.saturating_sub(token.out_len) as f64,
            );
        }

        let t0 = Instant::now();
        let o = Self::span(tr, "op.resume", || {
            Self::span(tr, "serve.resume", || {
                resume_restore(
                    snap,
                    &self.token_path,
                    &self.out_path,
                    &opts,
                    &FailPoint::unlimited(),
                )
            })
        })
        .map_err(err("resume_restore"))?;
        let resume_ms = ms(t0.elapsed());
        if !o.resumed || (o.out_len, o.out_crc) != (cold.out_len, cold.out_crc) {
            return Err(format!(
                "rank {rank}: resumed restore differs from the cold output (length or CRC)"
            ));
        }
        Ok(resume_ms)
    }
}

/// Output bytes between restore tokens on `ckpt_serial` and
/// `ckpt_parallel`, for a rank whose restored stream is `out_len` bytes:
/// one token at 55 % of the output. Their arrays are 8× smaller than
/// `restart_stream`'s, so 1 MiB tokens would leave them none; one token
/// keeps a resume a tail inflate and one final sync, rather than a
/// handful of token fsyncs whose latency swings with the host far more
/// than the inflate does.
fn small_token_interval(out_len: u64) -> u64 {
    (out_len * 11 / 20).div_ceil(4096) * 4096
}

/// Flips one byte in the middle of rank 0's segment of `gen`.
fn flip_segment_byte(store_dir: &Path, gen: u64) -> Result<(), String> {
    let path = Layout::new(store_dir).segment_path(gen, 0);
    let mut bytes = std::fs::read(&path).map_err(err("read segment to corrupt"))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(&path, bytes).map_err(err("write corrupted segment"))
}
