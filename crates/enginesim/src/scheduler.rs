//! Iteration-level continuous batching: the scheduler that admits and
//! retires requests at decode-iteration boundaries.
//!
//! The fixed-batch engine ([`crate::BatchRun`]) decodes one batch to
//! completion before the next forms, which leaves pipeline slots idle from
//! the moment a request finishes until the whole batch drains. Modern
//! serving stacks (Orca-style continuous batching) instead admit and retire
//! at *iteration* granularity: after every forward pass, finished requests
//! leave, waiting requests join — up to the configuration's batch capacity
//! **and** the engine's KV-cache budget — and the next iteration is priced
//! from the *current* mixed batch (prefill and decode tokens in one pass,
//! via [`parallelism::PerfModel::mixed_iteration_time`]).
//!
//! # Segments
//!
//! Simulating every iteration as its own event would be wasteful: between
//! membership changes the running set decodes uniformly. The scheduler
//! therefore advances in *segments* — maximal spans over which membership
//! is fixed. A segment runs until the earliest in-flight request emits its
//! last token (`K = min` remaining), with two prices: the first iteration
//! (which carries any newly admitted requests' prefills) and the steady
//! decode iteration, evaluated at each request's mid-segment context. An
//! arrival mid-segment truncates the segment at the next iteration
//! boundary so admission never happens mid-iteration.
//!
//! Progress commits only at iteration boundaries, which is what keeps
//! migration token-exact (§4.1): freezing the scheduler at any instant
//! yields, per request, exactly the tokens whose KV entries exist.
//!
//! Under the continuous engine a pipeline's engine value is its
//! scheduler: the in-flight set's cache bytes and deepest committed token
//! are the context a migration reads, and
//! [`IterationScheduler::freeze`] hands over the records it carries.
//!
//! # Chunked prefill
//!
//! With [`IterationScheduler::with_prefill_chunk`], prompts are pushed
//! through the model in chunks of at most `chunk` tokens (Sarathi-style):
//! while any member has more than one chunk of prompt left, each segment
//! is a single mixed pass — every prefilling member advances one chunk,
//! every decoding member commits one token — so no decode iteration waits
//! on more than one chunk. The *final* chunk rides the first iteration of
//! a normal segment (committing the first output token), exactly like a
//! prompt that fits one chunk — which is why `chunk >= s_in` degenerates
//! bit-exactly to the monolithic engine: chunked segmentation never
//! engages. Checkpoints carry `(prefilled, committed)`: a half-prefilled
//! request resumes its prefill chunk-exact.
//!
//! # SLO-aware admission
//!
//! Requests may carry a deadline ([`workload::Request::deadline`]). The
//! admission hook then projects completions over the mixed batch — see
//! [`IterationScheduler::slo_verdict`] — and admits, defers (stays
//! queued), or rejects (hopeless even solo; drained via
//! [`IterationScheduler::take_rejected`]). When deadlines are present the
//! waiting queue pops **earliest-deadline-first** (a stable
//! [`workload::Request::edf_key`] sort at each boundary) instead of
//! FIFO-with-skip, so the tightest deadline claims the next free slot.
//! Deadline-free workloads take the legacy FIFO path untouched —
//! byte-identical to the pre-EDF engine.
//!
//! A caller whose own scan has just cleared a candidate with
//! [`IterationScheduler::can_admit`] truncates the segment for it with
//! [`IterationScheduler::truncate_for_admission`].
//!
//! # Pricing
//!
//! Every pass the scheduler prices — segment passes, chunk passes,
//! admission projections and solo floors — goes through one boxed
//! [`llmsim::PassPricer`] for its mesh, which derives the mesh's terms
//! once and tables the terms fixed by a pass's total new tokens. The
//! pricer remembers the perf model it was built from and is rebuilt when a
//! call brings one that compares unequal (clones of one model compare by
//! a shared id, without reading fields). Two prices are remembered beside
//! it:
//!
//! * the projection's per-pass price, a function of the residents' worst
//!   passes, the candidate's worst pass, the mesh and the perf model
//!   alone: the last answer is kept, keyed on the candidate's worst pass,
//!   and dropped wherever the residents' entries or the configuration
//!   change;
//! * the solo floor's two passes (the lightest chunk and the first
//!   decode), which depend only on the prompt length, the chunk size, the
//!   mesh and the perf model: priced once per prompt length.
//!
//! Every answer equals [`parallelism::PerfModel::mixed_iteration_time`]
//! of the same pass bit for bit; debug builds re-price each one, cached
//! or not, and compare.

use std::cell::RefCell;

use parallelism::{ParallelConfig, PerfModel};
use simkit::{SimDuration, SimTime};
use workload::{Request, RequestId};

use llmsim::{PassPricer, SeqWork};

use crate::queue::AdmissionQueue;

/// Per-request execution record: one request's progress through the engine.
///
/// This is what the fixed-batch engine's monolithic batch record becomes
/// under continuous batching — the unit the scheduler admits, advances,
/// retires, and (on migration) checkpoints and resumes token-exact. Under
/// chunked prefill the checkpoint is two-dimensional: `prefilled` prompt
/// tokens and `committed` output tokens both have KV entries, and a
/// half-prefilled request resumes its prefill from the exact chunk
/// boundary it froze at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRun {
    request: Request,
    /// Prompt tokens whose KV entries exist (`== s_in` once prefill is
    /// complete; strictly less while a chunked prefill is in progress).
    prefilled: u32,
    /// Output tokens committed (KV entries exist for `prefilled + committed`).
    committed: u32,
}

impl RequestRun {
    /// A fresh record with no progress (prefill still required).
    pub fn fresh(request: Request) -> Self {
        RequestRun {
            request,
            prefilled: 0,
            committed: 0,
        }
    }

    /// A record resumed from migrated KV cache holding `committed` output
    /// tokens (stateful recovery, §4). The prefill is complete by
    /// construction; see [`RequestRun::resumed_partial`] for half-prefilled
    /// checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `committed` is not less than the request's output length.
    pub fn resumed(request: Request, committed: u32) -> Self {
        assert!(
            committed < request.s_out,
            "{}: resume at {committed}/{} is already finished",
            request.id,
            request.s_out
        );
        RequestRun {
            request,
            prefilled: request.s_in,
            committed,
        }
    }

    /// A record resumed mid-prefill: `prefilled` prompt tokens are cached,
    /// `committed` output tokens exist (only once the prefill completed).
    ///
    /// # Panics
    ///
    /// Panics if `prefilled` exceeds the prompt, if the record is already
    /// finished, or if output tokens exist before the prefill completed.
    pub fn resumed_partial(request: Request, prefilled: u32, committed: u32) -> Self {
        assert!(
            prefilled <= request.s_in,
            "{}: prefilled {prefilled} exceeds prompt {}",
            request.id,
            request.s_in
        );
        assert!(
            committed < request.s_out,
            "{}: resume at {committed}/{} is already finished",
            request.id,
            request.s_out
        );
        assert!(
            committed == 0 || prefilled == request.s_in,
            "{}: output tokens cannot precede prefill completion",
            request.id
        );
        RequestRun {
            request,
            prefilled,
            committed,
        }
    }

    /// The request being executed.
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// Prompt tokens whose KV entries exist.
    pub fn prefilled(&self) -> u32 {
        self.prefilled
    }

    /// Output tokens committed so far.
    pub fn committed(&self) -> u32 {
        self.committed
    }

    /// Output tokens still to generate.
    pub fn remaining(&self) -> u32 {
        self.request.s_out - self.committed
    }

    /// Whether the last output token is committed.
    pub fn is_done(&self) -> bool {
        self.committed >= self.request.s_out
    }

    /// Whether this record has any checkpointable progress (cached prompt
    /// chunks or committed output tokens).
    pub fn has_progress(&self) -> bool {
        self.prefilled > 0 || self.committed > 0
    }

    /// Whether the next iteration must run (part of) this request's
    /// prefill: prompt tokens without KV entries remain.
    pub fn needs_prefill(&self) -> bool {
        self.prefilled < self.request.s_in
    }

    /// KV tokens this request will occupy at its peak (`S_in + S_out`);
    /// the admission test provisions for the peak so a request admitted
    /// under the budget can always run to completion.
    fn peak_kv_tokens(&self) -> u64 {
        self.request.s_in as u64 + self.request.s_out as u64
    }

    /// Progress after `done` iteration boundaries under prefill chunks of
    /// `chunk` tokens: each pass advances one chunk while the prompt is
    /// incomplete (the pass consuming the final chunk also commits the
    /// first output token), then one output token per pass. With
    /// `chunk >= s_in` this is exactly the unchunked engine's
    /// `committed + done`.
    fn advanced(&self, done: u32, chunk: u32) -> (u32, u32) {
        let mut prefilled = self.prefilled;
        let mut committed = self.committed;
        let mut d = done;
        while d > 0 && prefilled < self.request.s_in {
            let step = chunk.min(self.request.s_in - prefilled);
            prefilled += step;
            if prefilled == self.request.s_in {
                committed = (committed + 1).min(self.request.s_out);
            }
            d -= 1;
        }
        committed = committed.saturating_add(d).min(self.request.s_out);
        (prefilled, committed)
    }
}

/// Scratch space, not scheduler state: the pricer and the prices it
/// remembers, behind interior mutability so `&self` verdict queries can
/// use it too, and equality-transparent so two schedulers with identical
/// in-flight work compare equal whatever it last held.
#[derive(Debug, Clone, Default)]
struct Scratch<T>(RefCell<T>);

impl<T> PartialEq for Scratch<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Distinct prompt lengths whose solo floors a [`Pricer`] remembers; it
/// forgets them all when one more arrives.
const FLOOR_SLOTS: usize = 16;

/// Everything a scheduler prices passes with: one [`PassPricer`] for its
/// mesh under the perf model it was built from, and the prices that depend
/// on nothing else the scheduler changes. Boxed, so the scheduler stays
/// small. Every answer equals [`PerfModel::mixed_iteration_time`] of the
/// same pass, which debug builds check on each one, cached or not.
#[derive(Debug, Clone)]
struct Pricer {
    /// The perf model `pass` was built from: a call with a model that
    /// compares unequal builds a new pricer.
    perf: PerfModel,
    pass: PassPricer,
    /// Reused mixed-pass buffer for segment and projection pricing.
    seqs: Vec<SeqWork>,
    /// The admission projection's last per-pass price, keyed on the
    /// candidate's worst pass. The price is a function of that key, the
    /// residents' worst passes, the mesh and the perf model, so every
    /// change to the residents' entries or the configuration clears it.
    projection: Option<(SeqWork, SimDuration)>,
    /// Per prompt length, the solo floor's two passes: the lightest
    /// prefill chunk and the lightest decode. Both depend only on the
    /// prompt length, the chunk size, the mesh and the perf model.
    floors: Vec<(u32, SimDuration, SimDuration)>,
}

impl Pricer {
    /// The pricer in `slot`, first built (or rebuilt) when it is missing
    /// or was built from a perf model other than `perf`.
    #[inline]
    fn for_perf<'a>(
        slot: &'a mut Option<Box<Pricer>>,
        perf: &PerfModel,
        cfg: &ParallelConfig,
    ) -> &'a mut Pricer {
        if slot.as_ref().is_none_or(|p| p.perf != *perf) {
            *slot = Some(Pricer::build(perf, cfg));
        }
        slot.as_mut().expect("built above")
    }

    /// A fresh pricer, out of line: it is built once per scheduler (or
    /// per new perf model), while the check before it runs on every pass.
    #[cold]
    fn build(perf: &PerfModel, cfg: &ParallelConfig) -> Box<Pricer> {
        Box::new(Pricer {
            perf: perf.clone(),
            pass: perf.pass_pricer(cfg),
            seqs: Vec::new(),
            projection: None,
            floors: Vec::new(),
        })
    }

    /// Prices the pass in the buffer.
    fn price_seqs(&mut self, cfg: &ParallelConfig) -> SimDuration {
        let t = self.pass.price(&self.seqs);
        self.debug_check(cfg, &self.seqs, t);
        t
    }

    /// Prices a single-sequence pass.
    fn price_one(&mut self, cfg: &ParallelConfig, work: SeqWork) -> SimDuration {
        let t = self.pass.price(std::slice::from_ref(&work));
        self.debug_check(cfg, &[work], t);
        t
    }

    /// Debug-build guard: `t` must be the cost model's own price of
    /// `seqs`.
    fn debug_check(&self, cfg: &ParallelConfig, seqs: &[SeqWork], t: SimDuration) {
        if cfg!(debug_assertions) {
            assert_eq!(
                self.perf.mixed_iteration_time(cfg, seqs),
                t,
                "pricer answer differs from the cost model on {seqs:?}"
            );
        }
    }

    /// The projection's per-pass bound: one mixed pass in which every
    /// resident (`residents`, their worst passes) and the candidate
    /// contribute their worst work, priced once per candidate worst pass
    /// between changes to the residents or the configuration.
    fn projection(
        &mut self,
        cfg: &ParallelConfig,
        residents: &[SeqWork],
        candidate: SeqWork,
    ) -> SimDuration {
        if let Some((key, t)) = self.projection {
            if key == candidate {
                if cfg!(debug_assertions) {
                    let mut fresh = residents.to_vec();
                    fresh.push(candidate);
                    self.debug_check(cfg, &fresh, t);
                }
                return t;
            }
        }
        self.seqs.clear();
        self.seqs.extend_from_slice(residents);
        self.seqs.push(candidate);
        let t = self.price_seqs(cfg);
        self.projection = Some((candidate, t));
        t
    }

    /// The solo floor's two passes for an `s_in`-token prompt split into
    /// chunks of `chunk` tokens: the first chunk (the lightest) and the
    /// first decode (the shortest context), priced once per prompt length.
    fn solo_floor(
        &mut self,
        cfg: &ParallelConfig,
        s_in: u32,
        chunk: u32,
    ) -> (SimDuration, SimDuration) {
        let best_chunk = SeqWork::prefill_chunk(0, chunk);
        let best_decode = SeqWork::decode(s_in + 1);
        if let Some(&(_, c, d)) = self.floors.iter().find(|f| f.0 == s_in) {
            self.debug_check(cfg, &[best_chunk], c);
            self.debug_check(cfg, &[best_decode], d);
            return (c, d);
        }
        if self.floors.len() == FLOOR_SLOTS {
            self.floors.clear();
        }
        let c = self.price_one(cfg, best_chunk);
        let d = self.price_one(cfg, best_decode);
        self.floors.push((s_in, c, d));
        (c, d)
    }
}

/// One span of iterations over a fixed running set.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    start: SimTime,
    /// End of the first iteration (carries any admitted prefills).
    first_boundary: SimTime,
    /// Duration of each further decode iteration.
    iter_time: SimDuration,
    /// Iteration boundaries in this segment (`>= 1`).
    iters: u32,
}

impl Segment {
    /// Boundaries at or before `t` (clamped to the segment length).
    fn elapsed_iters(&self, t: SimTime) -> u32 {
        if t < self.first_boundary {
            return 0;
        }
        if self.iter_time == SimDuration::ZERO {
            return self.iters;
        }
        let extra =
            t.saturating_since(self.first_boundary).as_micros() / self.iter_time.as_micros();
        (1 + extra).min(self.iters as u64) as u32
    }

    /// The instant of boundary `k` (1-based).
    fn boundary(&self, k: u32) -> SimTime {
        debug_assert!(k >= 1 && k <= self.iters);
        self.first_boundary + self.iter_time * (k - 1) as u64
    }

    fn end(&self) -> SimTime {
        self.boundary(self.iters)
    }
}

/// The iteration-level scheduler for one inference pipeline.
///
/// Owns the pipeline's running set of [`RequestRun`]s; at each iteration
/// boundary it retires finished requests, admits waiting ones within the
/// batch capacity and KV budget, and re-prices the iteration from the
/// current mixed batch.
///
/// # Example
///
/// ```
/// use std::collections::VecDeque;
/// use enginesim::IterationScheduler;
/// use parallelism::{ParallelConfig, PerfModel};
/// use simkit::SimTime;
/// use workload::{Request, RequestId};
///
/// let model = llmsim::ModelSpec::opt_6_7b();
/// let perf = PerfModel::paper_defaults(model.clone());
/// let cfg = ParallelConfig::new(1, 1, 4, 8);
/// let mut sched = IterationScheduler::new(cfg, model.kv_bytes_per_token(), u64::MAX);
/// let mut pending: VecDeque<Request> = (0..2)
///     .map(|i| Request::new(RequestId(i), SimTime::ZERO, 512, 128))
///     .collect();
/// sched.admit(&mut pending, SimTime::ZERO, &perf);
/// assert_eq!(sched.in_flight(), 2);
/// let end = sched.next_event().expect("segment scheduled");
/// let retired = sched.advance(end, &mut pending, &perf);
/// assert_eq!(retired.len(), 2, "equal-length requests retire together");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IterationScheduler {
    cfg: ParallelConfig,
    kv_bytes_per_token: u64,
    kv_budget_bytes: u64,
    /// Prefill chunk size in prompt tokens; `u32::MAX` disables chunking
    /// (monolithic prefill in the segment's first iteration, the pre-chunk
    /// engine semantics).
    chunk: u32,
    running: Vec<RequestRun>,
    segment: Option<Segment>,
    /// Deadline-hopeless requests dropped at admission (SLO-aware
    /// admission); drained by [`IterationScheduler::take_rejected`].
    rejected: Vec<Request>,
    /// Per-resident worst-pass work, aligned with `running` — the
    /// admission projection's pricing input, maintained incrementally on
    /// admit/retire/progress instead of being rebuilt per verdict.
    slo_worst: Vec<SeqWork>,
    /// Per-resident `(deadline, remaining boundaries)`, aligned with
    /// `running` (`None` for best-effort residents) — maintained alongside
    /// `slo_worst`.
    slo_deadlines: Vec<Option<(SimTime, u64)>>,
    /// Prices every pass: segments, chunks, projections and solo floors.
    /// Built at the first pass priced, and again when a call brings
    /// another perf model or the chunk size changes.
    pricer: Scratch<Option<Box<Pricer>>>,
    /// Cumulative admission/retire tallies for telemetry rollups (a few
    /// integer bumps per boundary; never read on the scheduling path).
    counters: EngineCounters,
}

/// Cumulative verdict and retirement tallies for one scheduler's
/// lifetime — the epoch-granular numbers telemetry rollups difference.
/// `deferrals` counts Defer *verdicts* (one request scanned at several
/// boundaries counts each time); `admitted`/`rejected`/`retired` count
/// requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Requests admitted into a batch.
    pub admitted: u64,
    /// Defer verdicts returned by the admission scan.
    pub deferrals: u64,
    /// Requests rejected as deadline-hopeless.
    pub rejected: u64,
    /// Requests retired (fully generated).
    pub retired: u64,
}

impl EngineCounters {
    /// Adds `other`'s tallies into this one (for absorbing a detached
    /// scheduler's counters into a system-lifetime total).
    pub fn absorb(&mut self, other: EngineCounters) {
        self.admitted += other.admitted;
        self.deferrals += other.deferrals;
        self.rejected += other.rejected;
        self.retired += other.retired;
    }
}

/// What SLO-aware admission decided for one candidate request at one
/// iteration boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Projected completion busts no deadline: join at this boundary.
    Admit,
    /// Admitting now would bust the candidate's own deadline or an
    /// already-admitted request's; the candidate stays queued (load only
    /// drains, so a later boundary may admit it).
    Defer,
    /// The candidate cannot meet its deadline even running alone on this
    /// pipeline: drop it rather than burn iterations on a guaranteed SLO
    /// violation (or let it block the queue forever).
    Reject,
}

impl IterationScheduler {
    /// Creates an idle scheduler for a pipeline of configuration `cfg`
    /// whose engine holds `kv_budget_bytes` of KV cache
    /// (see [`llmsim::MemoryModel::kv_bytes_per_gpu`] times the pipeline's
    /// GPU count). Prefill is monolithic; see
    /// [`IterationScheduler::with_prefill_chunk`].
    pub fn new(cfg: ParallelConfig, kv_bytes_per_token: u64, kv_budget_bytes: u64) -> Self {
        IterationScheduler {
            cfg,
            kv_bytes_per_token,
            kv_budget_bytes,
            chunk: u32::MAX,
            running: Vec::new(),
            segment: None,
            rejected: Vec::new(),
            slo_worst: Vec::new(),
            slo_deadlines: Vec::new(),
            pricer: Scratch::default(),
            counters: EngineCounters::default(),
        }
    }

    /// Cumulative admission/retire tallies since this scheduler was
    /// built (resumed schedulers start from zero; the serving system
    /// absorbs a detached scheduler's tallies into its run total).
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Enables Sarathi-style chunked prefill: prompts are pushed through
    /// the model in chunks of at most `chunk` tokens, one chunk per
    /// iteration, so decoding neighbours commit one token per pass instead
    /// of stalling behind a monolithic prefill. `None` restores monolithic
    /// prefill.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is `Some(0)`, or if the scheduler already has
    /// work in flight (the chunk size is an engine-launch parameter, not a
    /// live knob).
    pub fn with_prefill_chunk(mut self, chunk: Option<u32>) -> Self {
        assert!(chunk != Some(0), "a prefill chunk must carry tokens");
        assert!(
            self.running.is_empty() && self.segment.is_none(),
            "chunk size cannot change with work in flight"
        );
        self.chunk = chunk.unwrap_or(u32::MAX);
        // The solo floors it remembers were priced for the old chunk.
        *self.pricer.0.get_mut() = None;
        self
    }

    /// The configured prefill chunk size, `None` when prefill is
    /// monolithic.
    pub fn prefill_chunk(&self) -> Option<u32> {
        (self.chunk != u32::MAX).then_some(self.chunk)
    }

    /// Installs checkpointed records into this (idle, freshly configured)
    /// scheduler and starts the first segment at `now` (stateful recovery
    /// after migration): records with progress resume decoding from their
    /// committed token, fresh ones re-run prefill. Build with
    /// [`IterationScheduler::with_prefill_chunk`] first and half-prefilled
    /// records continue their prefill chunk-exact.
    ///
    /// # Panics
    ///
    /// Panics if `records` exceeds the batch capacity or contains a
    /// finished record, or if this scheduler already has work in flight.
    pub fn restore(mut self, records: Vec<RequestRun>, now: SimTime, perf: &PerfModel) -> Self {
        assert!(
            self.running.is_empty() && self.segment.is_none(),
            "restore onto a busy scheduler"
        );
        assert!(
            records.len() <= self.cfg.batch as usize,
            "resume of {} records exceeds B={}",
            records.len(),
            self.cfg.batch
        );
        for r in &records {
            assert!(!r.is_done(), "{} is already finished", r.request.id);
        }
        self.running = records;
        self.rebuild_slo_entries();
        if !self.running.is_empty() {
            self.start_segment(now, perf);
        }
        self
    }

    /// Like [`IterationScheduler::restore`], but applies this scheduler's
    /// own admission rule to an arbitrarily large checkpoint (§3.3
    /// footnote 2 — the new configuration may hold fewer concurrent
    /// requests). Deepest-progress records — committed output tokens
    /// first, then cached prefill chunks — are kept within the capacity
    /// and KV budget; the rest come back as bare requests for
    /// recomputation via the queue. SLO admission is *not* re-applied:
    /// the records were admitted before the migration.
    ///
    /// # Panics
    ///
    /// Panics if `records` contains a finished record or this scheduler
    /// already has work in flight.
    pub fn restore_within_budget(
        mut self,
        mut records: Vec<RequestRun>,
        now: SimTime,
        perf: &PerfModel,
    ) -> (Self, Vec<Request>) {
        assert!(
            self.running.is_empty() && self.segment.is_none(),
            "restore onto a busy scheduler"
        );
        records.sort_by_key(|r| {
            (
                std::cmp::Reverse(r.committed()),
                std::cmp::Reverse(r.prefilled()),
                r.request.id,
            )
        });
        let mut dropped = Vec::new();
        for r in records {
            assert!(!r.is_done(), "{} is already finished", r.request.id);
            if self.fits(&r.request) {
                self.running.push(r);
            } else {
                dropped.push(r.request);
            }
        }
        self.rebuild_slo_entries();
        if !self.running.is_empty() {
            self.start_segment(now, perf);
        }
        (self, dropped)
    }

    /// The configuration this scheduler runs under.
    pub fn config(&self) -> &ParallelConfig {
        &self.cfg
    }

    /// Adopts a batch-size-only configuration change (same mesh, so no
    /// migration): the running segment is untouched, future admissions use
    /// the new capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` changes the mesh shape (that requires a full
    /// freeze/resume through migration).
    pub fn set_config(&mut self, cfg: ParallelConfig) {
        assert_eq!(
            self.cfg.mesh_key(),
            cfg.mesh_key(),
            "mesh changes must go through freeze/resume"
        );
        self.cfg = cfg;
        self.forget_projection();
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.running.len()
    }

    /// Whether nothing is running.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// The running set (progress as of the current segment's start).
    pub fn running(&self) -> &[RequestRun] {
        &self.running
    }

    /// Whether a slot is free under the batch capacity.
    pub fn has_capacity(&self) -> bool {
        self.running.len() < self.cfg.batch as usize
    }

    /// Whether `r`'s peak KV footprint fits the remaining budget. An idle
    /// pipeline always admits one request (a feasible configuration's
    /// engine can serve a single sequence by construction), so serving can
    /// never deadlock on a conservative budget.
    pub fn kv_fits(&self, r: &Request) -> bool {
        if self.running.is_empty() {
            return true;
        }
        let projected: u64 = self
            .running
            .iter()
            .map(RequestRun::peak_kv_tokens)
            .sum::<u64>()
            + r.s_in as u64
            + r.s_out as u64;
        projected.saturating_mul(self.kv_bytes_per_token) <= self.kv_budget_bytes
    }

    /// Whether `r` fits the batch capacity and KV budget (the pre-SLO
    /// admission test).
    pub fn fits(&self, r: &Request) -> bool {
        self.has_capacity() && self.kv_fits(r)
    }

    /// Whether `r` can join the running set at the next boundary: it fits
    /// the capacity and KV budget *and* SLO-aware admission projects no
    /// busted deadline.
    pub fn can_admit(&self, r: &Request, now: SimTime, perf: &PerfModel) -> bool {
        self.fits(r) && self.slo_verdict(r, now, perf) == AdmissionVerdict::Admit
    }

    /// Iteration boundaries `r` still needs: prefill chunks (the last one
    /// commits the first output token), then one output token per pass.
    fn remaining_iters(r: &RequestRun, chunk: u32) -> u64 {
        let prefill_left = r.request.s_in - r.prefilled;
        if prefill_left == 0 {
            return r.remaining() as u64;
        }
        let chunks = prefill_left.div_ceil(chunk.max(1)) as u64;
        chunks + r.remaining().saturating_sub(1) as u64
    }

    /// The heaviest single pass a record can contribute while it runs: a
    /// full prefill chunk (while its prompt is incomplete) or one decode
    /// token, priced at its *peak* attention context.
    fn worst_pass_work(s_in: u32, s_out: u32, needs_prefill: bool, chunk: u32) -> SeqWork {
        SeqWork {
            new_tokens: if needs_prefill {
                chunk.min(s_in).max(1)
            } else {
                1
            },
            ctx: s_in + s_out,
        }
    }

    /// One resident's admission-pricing entry: its worst-pass work and,
    /// when it carries a deadline, its remaining boundary count.
    fn slo_entry(r: &RequestRun, chunk: u32) -> (SeqWork, Option<(SimTime, u64)>) {
        let worst =
            Self::worst_pass_work(r.request.s_in, r.request.s_out, r.needs_prefill(), chunk);
        let deadline = r.request.deadline.map(|d| {
            (
                d,
                Self::remaining_iters(r, chunk.min(r.request.s_in).max(1)),
            )
        });
        (worst, deadline)
    }

    /// Appends the pricing entry for a record just pushed onto `running`
    /// (the admit-side half of the incremental maintenance).
    fn push_slo_entry(&mut self, r: &RequestRun) {
        let (worst, deadline) = Self::slo_entry(r, self.chunk);
        self.slo_worst.push(worst);
        self.slo_deadlines.push(deadline);
        self.forget_projection();
    }

    /// Recomputes every resident's pricing entry in place (no allocation:
    /// the buffers keep their capacity). Called where progress commits or
    /// membership is rebuilt wholesale — retirement, restore — the
    /// admit-side stays a push.
    fn rebuild_slo_entries(&mut self) {
        self.slo_worst.clear();
        self.slo_deadlines.clear();
        let chunk = self.chunk;
        for r in &self.running {
            let (worst, deadline) = Self::slo_entry(r, chunk);
            self.slo_worst.push(worst);
            self.slo_deadlines.push(deadline);
        }
        self.forget_projection();
    }

    /// Drops the cached projection price: the residents' entries or the
    /// configuration it was priced from changed.
    fn forget_projection(&mut self) {
        if let Some(pricer) = self.pricer.0.get_mut() {
            pricer.projection = None;
        }
    }

    /// Debug-build guard: the incrementally maintained entries must equal
    /// a fresh computation from the running set.
    #[cfg(debug_assertions)]
    fn debug_check_slo_entries(&self) {
        assert_eq!(self.slo_worst.len(), self.running.len(), "stale SLO data");
        assert_eq!(self.slo_deadlines.len(), self.running.len());
        for (i, r) in self.running.iter().enumerate() {
            let (worst, deadline) = Self::slo_entry(r, self.chunk);
            assert_eq!(self.slo_worst[i], worst, "stale worst-pass entry");
            assert_eq!(self.slo_deadlines[i], deadline, "stale deadline entry");
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_slo_entries(&self) {}

    /// SLO-aware admission (the scheduler's admission hook): projects the
    /// completion of the candidate and of every already-admitted
    /// deadline-carrying request, priced via the mixed-batch forward pass
    /// over the current in-flight set plus the candidate.
    ///
    /// The admit/defer projection is a deliberate **upper bound**: one pass
    /// is priced with *every* member contributing its heaviest possible
    /// work (a whole prefill chunk while its prompt is incomplete, one
    /// decode token at peak context otherwise), and each request's
    /// completion is projected as `remaining passes × that worst pass`.
    /// Every member advances exactly one pass per boundary, the mixed-pass
    /// price is monotone in membership and per-member work, and membership
    /// between admissions only shrinks — so once a projection clears a
    /// deadline it stays cleared, and every later admission re-establishes
    /// the guard for the grown membership.
    ///
    /// The reject test is the opposite, a **lower bound** on running solo
    /// (every pass at its *minimum* context), so only certainly-hopeless
    /// requests are dropped — a request the bound cannot rule out stays
    /// queued as deferred. Requests and members without deadlines
    /// short-circuit to [`AdmissionVerdict::Admit`], so best-effort
    /// workloads never touch the SLO path.
    pub fn slo_verdict(&self, r: &Request, now: SimTime, perf: &PerfModel) -> AdmissionVerdict {
        // Deadline-free fast path before any pricing or allocation: this
        // sits on `can_admit`, which every arrival's dispatch touches.
        if r.deadline.is_none() && !self.residents_carry_deadlines() {
            return AdmissionVerdict::Admit;
        }
        self.debug_check_slo_entries();
        self.slo_verdict_inner(r, now, perf)
    }

    /// Whether any in-flight request carries a deadline (i.e. admission
    /// must run the SLO projection even for best-effort candidates).
    fn residents_carry_deadlines(&self) -> bool {
        self.slo_deadlines.iter().any(Option::is_some)
    }

    /// [`IterationScheduler::slo_verdict`] against the incrementally
    /// maintained per-resident entries, priced through the scheduler's
    /// pricer — no allocation per verdict.
    fn slo_verdict_inner(&self, r: &Request, now: SimTime, perf: &PerfModel) -> AdmissionVerdict {
        if r.deadline.is_none() && !self.residents_carry_deadlines() {
            return AdmissionVerdict::Admit;
        }
        // Same contract as admission itself: the projection arithmetic
        // below assumes at least one output token.
        assert!(r.s_out > 0, "generation must produce tokens");
        let mut slot = self.pricer.0.borrow_mut();
        let pricer = Pricer::for_perf(&mut slot, perf, &self.cfg);
        let t_worst = pricer.projection(
            &self.cfg,
            &self.slo_worst,
            Self::worst_pass_work(r.s_in, r.s_out, true, self.chunk),
        );
        let chunk = self.chunk.min(r.s_in).max(1);
        if let Some(deadline) = r.deadline {
            let rem = Self::remaining_iters(&RequestRun::fresh(*r), chunk);
            if now + t_worst * rem > deadline {
                // Reject only when the deadline is unmeetable even in the
                // best case: alone on the pipeline, every chunk priced at
                // its lightest shape (the first chunk's context) and every
                // decode at the smallest context. The forward-pass price is
                // monotone in context, so this underestimates the real solo
                // time — a request it cannot rule out merely defers.
                let chunks = (r.s_in.div_ceil(chunk) as u64).max(1);
                let (best_chunk, best_decode) = pricer.solo_floor(&self.cfg, r.s_in, chunk);
                let solo_floor = now + best_chunk * chunks + best_decode * (r.s_out - 1) as u64;
                return if solo_floor > deadline {
                    AdmissionVerdict::Reject
                } else {
                    AdmissionVerdict::Defer
                };
            }
        }
        for &(deadline, rem) in self.slo_deadlines.iter().flatten() {
            if now + t_worst * rem > deadline {
                return AdmissionVerdict::Defer;
            }
        }
        AdmissionVerdict::Admit
    }

    /// Admits from `pending` at an iteration boundary, then (re)starts the
    /// segment at `now` if anything runs and no segment is active.
    ///
    /// When any queued request carries a deadline, the queue is first
    /// stably reordered **earliest-deadline-first** ([`Request::edf_key`]):
    /// deadline carriers pop in deadline order ahead of the best-effort
    /// tail, which keeps its FIFO order. Deadline-free queues are never
    /// touched — byte-identical to the pre-EDF engine — and a queue that
    /// reports itself unchanged since the last boundary
    /// ([`AdmissionQueue::edf_may_be_dirty`], e.g. a
    /// [`crate::PendingQueue`] that only shrank) skips the re-sort
    /// entirely: admission removals preserve sorted order, so the stable
    /// sort would be the identity. The scan then stops at the first
    /// request that does not [`fit`](Self::fits) (head-blocking on
    /// capacity/memory, as before); SLO-deferred requests are *skipped* in
    /// place (they stay queued, later arrivals may still fit), and
    /// SLO-hopeless ones are dropped into the rejected drain. Returns how
    /// many requests were admitted.
    ///
    /// # Panics
    ///
    /// Panics if called mid-segment, or if an admitted request has
    /// `s_out == 0`.
    pub fn admit<Q: AdmissionQueue + ?Sized>(
        &mut self,
        pending: &mut Q,
        now: SimTime,
        perf: &PerfModel,
    ) -> usize {
        assert!(
            self.segment.is_none(),
            "admission is only legal at an iteration boundary"
        );
        // EDF ordering engages only when a deadline is present; the sort
        // is stable, so a deadline-free queue is bit-for-bit untouched.
        if pending.edf_may_be_dirty() {
            let q = pending.deque();
            if q.iter().any(|r| r.deadline.is_some()) {
                q.make_contiguous().sort_by_key(Request::edf_key);
            }
            pending.note_edf_sorted();
        } else {
            // A clean queue must actually be in EDF order when it carries
            // deadlines — catches callers that mutated the deque behind
            // the dirty flag (e.g. through `AdmissionQueue::deque`
            // instead of the flag-setting push methods).
            debug_assert!(
                {
                    let q = pending.deque();
                    !q.iter().any(|r| r.deadline.is_some())
                        || q.iter().map(Request::edf_key).is_sorted()
                },
                "queue reported clean but is not in EDF order"
            );
        }
        let pending = pending.deque();
        let mut admitted = 0;
        let mut i = 0;
        // Resident pricing entries are maintained incrementally (pushed on
        // admit, refreshed on retire/progress), so verdicts read them
        // directly — no per-scan rebuild, no per-candidate allocation. The
        // SLO path is skipped entirely while neither candidate nor
        // residents carry a deadline (admitting a best-effort request
        // cannot create a deadline).
        self.debug_check_slo_entries();
        let mut guarded = self.residents_carry_deadlines();
        while i < pending.len() {
            if !self.fits(&pending[i]) {
                break;
            }
            let verdict = if !guarded && pending[i].deadline.is_none() {
                AdmissionVerdict::Admit
            } else {
                self.slo_verdict_inner(&pending[i], now, perf)
            };
            match verdict {
                AdmissionVerdict::Admit => {
                    let req = pending.remove(i).expect("indexed");
                    assert!(req.s_out > 0, "generation must produce tokens");
                    guarded |= req.deadline.is_some();
                    let run = RequestRun::fresh(req);
                    self.running.push(run);
                    self.push_slo_entry(&run);
                    admitted += 1;
                    self.counters.admitted += 1;
                }
                AdmissionVerdict::Defer => {
                    i += 1;
                    self.counters.deferrals += 1;
                }
                AdmissionVerdict::Reject => {
                    let req = pending.remove(i).expect("indexed");
                    self.rejected.push(req);
                    self.counters.rejected += 1;
                }
            }
        }
        if !self.running.is_empty() {
            self.start_segment(now, perf);
        }
        admitted
    }

    /// Drains the requests dropped by SLO-aware admission since the last
    /// call (hopeless deadlines; see [`AdmissionVerdict::Reject`]).
    pub fn take_rejected(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.rejected)
    }

    /// The instant of the current segment's last boundary — when
    /// [`IterationScheduler::advance`] must be called.
    pub fn next_event(&self) -> Option<SimTime> {
        self.segment.as_ref().map(Segment::end)
    }

    /// The first iteration boundary strictly being worked toward at `t`
    /// (the earliest instant a waiting request could join this pipeline),
    /// or `None` when no segment runs.
    pub fn next_boundary_after(&self, t: SimTime) -> Option<SimTime> {
        let seg = self.segment.as_ref()?;
        let k = (seg.elapsed_iters(t) + 1).min(seg.iters);
        Some(seg.boundary(k))
    }

    /// Processes the boundary at `now` (the segment's end): commits the
    /// segment's iterations, retires finished requests, admits waiting
    /// ones, and starts the next segment. Returns the retired requests in
    /// admission order.
    pub fn advance<Q: AdmissionQueue + ?Sized>(
        &mut self,
        now: SimTime,
        pending: &mut Q,
        perf: &PerfModel,
    ) -> Vec<Request> {
        let Some(seg) = self.segment.take() else {
            // Idle pipeline: nothing to commit, just try admission.
            self.admit(pending, now, perf);
            return Vec::new();
        };
        debug_assert!(now >= seg.end(), "boundary event fired early");
        let done = seg.iters;
        let chunk = self.chunk;
        for r in &mut self.running {
            (r.prefilled, r.committed) = r.advanced(done, chunk);
        }
        let mut retired = Vec::new();
        self.running.retain(|r| {
            if r.is_done() {
                retired.push(r.request);
                false
            } else {
                true
            }
        });
        self.counters.retired += retired.len() as u64;
        // Progress moved and membership may have shrunk: refresh the
        // admission-pricing entries in place before `admit` reads them.
        self.rebuild_slo_entries();
        // `admit` restarts the segment whenever anything is still running.
        self.admit(pending, now, perf);
        retired
    }

    /// An arrival landed at `now` while a segment is running, and the
    /// caller's scan found it a request this scheduler
    /// [admits](Self::can_admit): ends the running segment at the first
    /// boundary after `now`, so the boundary event fires early and the
    /// request joins there. Returns the new segment end when the caller
    /// must reschedule, `None` when the segment already ends there or
    /// sooner or none runs.
    pub fn truncate_for_admission(&mut self, now: SimTime) -> Option<SimTime> {
        let seg = self.segment.as_mut()?;
        let next = seg.elapsed_iters(now) + 1;
        if next >= seg.iters {
            return None; // already ending at the next boundary or sooner
        }
        seg.iters = next;
        Some(seg.end())
    }

    /// Freezes the pipeline at `now` (engine interruption): commits every
    /// boundary at or before `now` — progress is token-exact, only whole
    /// iterations count — cancels the segment, and drains the running set
    /// as checkpointable records. Requests that finished exactly at `now`
    /// come back as done records.
    pub fn freeze(&mut self, now: SimTime) -> Vec<RequestRun> {
        if let Some(seg) = self.segment.take() {
            let done = seg.elapsed_iters(now);
            let chunk = self.chunk;
            for r in &mut self.running {
                (r.prefilled, r.committed) = r.advanced(done, chunk);
            }
        }
        self.slo_worst.clear();
        self.slo_deadlines.clear();
        self.forget_projection();
        std::mem::take(&mut self.running)
    }

    /// Abandons all in-flight work, returning the bare requests in
    /// admission order (the recomputation path: progress is discarded).
    pub fn into_requests(mut self) -> Vec<Request> {
        self.segment = None;
        self.running.drain(..).map(|r| r.request).collect()
    }

    /// Per-request committed output tokens at `t`, including progress
    /// inside the live segment.
    pub fn committed_per_request_at(&self, t: SimTime) -> Vec<(RequestId, u32)> {
        let done = self.segment.map(|s| s.elapsed_iters(t)).unwrap_or(0);
        self.running
            .iter()
            .map(|r| (r.request.id, r.advanced(done, self.chunk).1))
            .collect()
    }

    /// The deepest per-request progress at `t` (the device mapper ranks
    /// pipelines by decoding progress when shrinking, §3.3).
    pub fn max_committed_at(&self, t: SimTime) -> u32 {
        self.committed_per_request_at(t)
            .into_iter()
            .map(|(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    /// Resident KV-cache bytes at `t`: every in-flight request holds
    /// `S_in +` committed tokens. The prompt counts in full from admission
    /// — KV blocks are provisioned up front (the same peak-provisioning
    /// rule the admission budget applies), so a mid-prefill freeze still
    /// accounts the whole prompt's allocation.
    pub fn cache_bytes_at(&self, t: SimTime, kv_bytes_per_token: u64) -> u64 {
        let done = self.segment.map(|s| s.elapsed_iters(t)).unwrap_or(0);
        self.running
            .iter()
            .map(|r| {
                let tokens = r.request.s_in as u64 + r.advanced(done, self.chunk).1 as u64;
                tokens * kv_bytes_per_token
            })
            .sum()
    }

    /// Prices and installs the next segment.
    ///
    /// While any member still has **more than one chunk** of prompt left
    /// under chunked prefill, the segment is a single iteration: every
    /// prefilling member pushes one chunk, every decoding member one
    /// token, priced as one mixed pass. Membership and pricing are
    /// re-evaluated at each chunk boundary, so a decoding request never
    /// waits on more than one chunk of a neighbour's prompt.
    ///
    /// Otherwise (decode-only, monolithic prefill, or every remaining
    /// prompt fits in one chunk): `K = min` remaining iterations over a
    /// fixed membership, decode iterations evaluated at each request's
    /// mid-segment context, the first iteration carrying any pending
    /// prefill remainders through the mixed batch. Routing the *final*
    /// chunk through this path is what makes `chunk >= s_in` degenerate
    /// bit-exactly to the monolithic engine: chunked segmentation then
    /// never engages at all.
    fn start_segment(&mut self, now: SimTime, perf: &PerfModel) {
        debug_assert!(!self.running.is_empty());
        // Segment pricing runs at every boundary: reuse the pricer's
        // buffer across segments instead of allocating `Vec<SeqWork>`s.
        let pricer = Pricer::for_perf(self.pricer.0.get_mut(), perf, &self.cfg);
        let chunk = self.chunk;
        if chunk != u32::MAX
            && self
                .running
                .iter()
                .any(|r| r.request.s_in - r.prefilled > chunk)
        {
            pricer.seqs.clear();
            pricer.seqs.extend(self.running.iter().map(|r| {
                if r.needs_prefill() {
                    let left = r.request.s_in - r.prefilled;
                    SeqWork::prefill_chunk(r.prefilled, left.min(chunk))
                } else {
                    SeqWork::decode(r.request.s_in + r.committed)
                }
            }));
            let pass = pricer.price_seqs(&self.cfg);
            self.segment = Some(Segment {
                start: now,
                first_boundary: now + pass,
                iter_time: pass,
                iters: 1,
            });
            return;
        }
        let k = self
            .running
            .iter()
            .map(RequestRun::remaining)
            .min()
            .expect("non-empty");
        debug_assert!(k >= 1, "finished requests must be retired first");
        let mid_ctx = |r: &RequestRun| {
            (r.request.s_in + r.committed + k / 2).min(r.request.s_in + r.request.s_out)
        };
        pricer.seqs.clear();
        pricer
            .seqs
            .extend(self.running.iter().map(|r| SeqWork::decode(mid_ctx(r))));
        let iter_time = pricer.price_seqs(&self.cfg);
        let first_iter = if self.running.iter().any(RequestRun::needs_prefill) {
            pricer.seqs.clear();
            pricer.seqs.extend(self.running.iter().map(|r| {
                if r.needs_prefill() {
                    // The whole remaining prompt in one pass (a record
                    // checkpointed mid-chunk resumes only the tokens it
                    // still lacks).
                    SeqWork {
                        new_tokens: r.request.s_in - r.prefilled,
                        ctx: r.request.s_in,
                    }
                } else {
                    SeqWork::decode(mid_ctx(r))
                }
            }));
            pricer.price_seqs(&self.cfg)
        } else {
            iter_time
        };
        self.segment = Some(Segment {
            start: now,
            first_boundary: now + first_iter,
            iter_time,
            iters: k,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::batch::BatchRun;
    use llmsim::ModelSpec;

    fn perf() -> PerfModel {
        PerfModel::paper_defaults(ModelSpec::opt_6_7b())
    }

    fn cfg() -> ParallelConfig {
        ParallelConfig::new(1, 1, 4, 8)
    }

    fn req(id: u64, s_in: u32, s_out: u32) -> Request {
        Request::new(RequestId(id), SimTime::ZERO, s_in, s_out)
    }

    fn kvbpt() -> u64 {
        ModelSpec::opt_6_7b().kv_bytes_per_token()
    }

    fn sched() -> IterationScheduler {
        IterationScheduler::new(cfg(), kvbpt(), u64::MAX)
    }

    #[test]
    fn uniform_batch_matches_fixed_engine_timing() {
        // A batch admitted at once decodes exactly like the fixed-batch
        // engine's BatchRun: same prefill, same mid-context iteration.
        let p = perf();
        let reqs: Vec<Request> = (0..4).map(|i| req(i, 512, 128)).collect();
        let run = BatchRun::start(reqs.clone(), &cfg(), SimTime::ZERO, &p);
        let mut s = sched();
        let mut pending: VecDeque<Request> = reqs.into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        assert_eq!(s.next_event(), Some(run.finish_time()));
        let retired = s.advance(run.finish_time(), &mut pending, &p);
        assert_eq!(retired.len(), 4);
        assert!(s.is_idle());
    }

    #[test]
    fn short_request_retires_and_backfills() {
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 16), req(1, 512, 128)]
            .into_iter()
            .collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let b1 = s.next_event().unwrap();
        // Segment ends when the 16-token request finishes.
        let retired = s.advance(b1, &mut pending, &p);
        assert_eq!(retired, vec![req(0, 512, 16)]);
        assert_eq!(s.in_flight(), 1);
        // The survivor carries its 16 committed tokens into the next
        // segment; the retired request's cache is gone.
        assert_eq!(s.running()[0].committed(), 16);
        assert_eq!(s.max_committed_at(b1), 16);
        assert_eq!(s.cache_bytes_at(b1, kvbpt()), (512 + 16) * kvbpt());
        let b2 = s.next_event().unwrap();
        let retired = s.advance(b2, &mut pending, &p);
        assert_eq!(retired, vec![req(1, 512, 128)]);
        assert!(s.next_event().is_none());
    }

    #[test]
    fn kv_budget_binds_before_batch_capacity() {
        // Budget for exactly two peak-size requests; B = 8.
        let budget = 2 * (512 + 128) * kvbpt();
        let p = perf();
        let mut s = IterationScheduler::new(cfg(), kvbpt(), budget);
        let mut pending: VecDeque<Request> = (0..4).map(|i| req(i, 512, 128)).collect();
        let admitted = s.admit(&mut pending, SimTime::ZERO, &p);
        assert_eq!(admitted, 2, "KV budget must bind before B=8");
        assert!(s.has_capacity(), "slots remain, memory does not");
        assert!(!s.can_admit(pending.front().unwrap(), SimTime::ZERO, &p));
        // Retirement frees budget: both retire together, then two more fit.
        let end = s.next_event().unwrap();
        let retired = s.advance(end, &mut pending, &p);
        assert_eq!(retired.len(), 2);
        assert_eq!(s.in_flight(), 2);
        assert!(pending.is_empty());
    }

    #[test]
    fn idle_pipeline_always_admits_one_request() {
        // A budget too small even for one request must not deadlock: the
        // first admission bypasses the check.
        let p = perf();
        let mut s = IterationScheduler::new(cfg(), kvbpt(), 1);
        let mut pending: VecDeque<Request> = vec![req(0, 512, 128), req(1, 512, 128)]
            .into_iter()
            .collect();
        assert_eq!(s.admit(&mut pending, SimTime::ZERO, &p), 1);
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn retirement_of_last_in_flight_request_goes_idle() {
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 8)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let end = s.next_event().unwrap();
        let retired = s.advance(end, &mut pending, &p);
        assert_eq!(retired.len(), 1);
        assert!(s.is_idle());
        assert_eq!(s.next_event(), None);
        assert_eq!(s.cache_bytes_at(end, kvbpt()), 0, "cache released");
        // The idle scheduler admits again on the next dispatch.
        let mut more: VecDeque<Request> = vec![req(1, 512, 8)].into_iter().collect();
        assert_eq!(s.admit(&mut more, end, &p), 1);
    }

    #[test]
    fn freeze_exactly_on_boundary_is_token_exact() {
        // Preemption landing exactly on an iteration boundary commits that
        // boundary's token — no more, no less.
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 128)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let seg = s.segment.unwrap();
        let b3 = seg.boundary(3);
        assert_eq!(s.committed_per_request_at(b3), vec![(RequestId(0), 3)]);
        let records = s.freeze(b3);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].committed(), 3);
        assert!(s.is_idle());
    }

    #[test]
    fn freeze_mid_iteration_commits_only_whole_iterations() {
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 128)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let seg = s.segment.unwrap();
        let mid = seg.boundary(5) + SimDuration::from_micros(1);
        let records = s.freeze(mid);
        assert_eq!(records[0].committed(), 5, "partial iteration 6 discarded");
    }

    #[test]
    fn heterogeneous_progress_survives_freeze_and_resume() {
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 32), req(1, 512, 128)]
            .into_iter()
            .collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        // Run out the first segment: request 0 done, request 1 at 32.
        let b = s.next_event().unwrap();
        s.advance(b, &mut pending, &p);
        // Mid-second-segment freeze: request 1 alone, heterogeneous vs a
        // fresh admission that joins on resume.
        let seg = s.segment.unwrap();
        let records = s.freeze(seg.boundary(10));
        assert_eq!(records, vec![RequestRun::resumed(req(1, 512, 128), 42)]);
        // Resume under a different configuration: no prefill re-run.
        let new_cfg = ParallelConfig::new(1, 2, 2, 8);
        let mut r = IterationScheduler::new(new_cfg, kvbpt(), u64::MAX).restore(
            records,
            seg.boundary(10),
            &p,
        );
        assert!(!r.running()[0].needs_prefill());
        let end = r.next_event().unwrap();
        let retired = r.advance(end, &mut VecDeque::new(), &p);
        assert_eq!(retired.len(), 1, "86 remaining tokens decode to the end");
    }

    #[test]
    fn mid_segment_arrival_truncates_to_next_boundary() {
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 128)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let old_end = s.next_event().unwrap();
        let seg = s.segment.unwrap();
        let arrival_t = seg.boundary(2) + SimDuration::from_micros(1);
        let newcomer = req(1, 512, 128);
        assert!(s.can_admit(&newcomer, arrival_t, &p));
        let new_end = s.truncate_for_admission(arrival_t).unwrap();
        assert_eq!(new_end, seg.boundary(3), "next boundary after arrival");
        assert_eq!(s.next_event(), Some(new_end), "segment truncated");
        assert_eq!(
            s.truncate_for_admission(arrival_t),
            None,
            "already ends there"
        );
        assert!(new_end < old_end);
        // At the new boundary the newcomer joins and the survivor keeps
        // its 3 committed tokens.
        let mut q: VecDeque<Request> = vec![newcomer].into_iter().collect();
        s.advance(new_end, &mut q, &p);
        assert_eq!(s.in_flight(), 2);
        assert_eq!(
            s.committed_per_request_at(new_end),
            vec![(RequestId(0), 3), (RequestId(1), 0)]
        );
    }

    #[test]
    fn arrival_without_room_is_not_admitted() {
        // A full batch refuses the arrival, so the caller leaves the
        // segment to end where it was scheduled.
        let p = perf();
        let small = ParallelConfig::new(1, 1, 4, 1);
        let mut s = IterationScheduler::new(small, kvbpt(), u64::MAX);
        let mut pending: VecDeque<Request> = vec![req(0, 512, 128)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let end = s.next_event().unwrap();
        let t = s.segment.unwrap().boundary(1) + SimDuration::from_micros(1);
        assert!(!s.can_admit(&req(1, 512, 128), t, &p));
        assert_eq!(s.next_event(), Some(end), "segment untouched");
    }

    #[test]
    fn mixed_batch_iterations_cost_more_than_decode_only() {
        // A segment whose first iteration carries a prefill must price it
        // above the steady decode iteration.
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 64)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let b = s.next_event().unwrap();
        s.advance(b, &mut pending, &p); // retires request 0
        let mut q: VecDeque<Request> = vec![req(1, 512, 128)].into_iter().collect();
        s.admit(&mut q, b, &p);
        let seg = s.segment.unwrap();
        let first = seg.first_boundary.saturating_since(seg.start);
        assert!(
            first > seg.iter_time,
            "prefill-carrying iteration {first} must exceed decode {}",
            seg.iter_time
        );
    }

    #[test]
    fn cache_grows_with_commitment() {
        let p = perf();
        let mut s = sched();
        let mut pending: VecDeque<Request> = vec![req(0, 512, 128)].into_iter().collect();
        s.admit(&mut pending, SimTime::ZERO, &p);
        let kv = kvbpt();
        assert_eq!(s.cache_bytes_at(SimTime::ZERO, kv), 512 * kv);
        let end = s.next_event().unwrap();
        assert_eq!(s.cache_bytes_at(end, kv), (512 + 128) * kv);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn resumed_record_must_have_tokens_left() {
        RequestRun::resumed(req(0, 512, 128), 128);
    }

    // ---- Chunked prefill ---------------------------------------------

    fn chunked(chunk: u32) -> IterationScheduler {
        IterationScheduler::new(cfg(), kvbpt(), u64::MAX).with_prefill_chunk(Some(chunk))
    }

    #[test]
    fn chunk_covering_prompt_matches_monolithic_prefill() {
        // chunk >= S_in degenerates to the unchunked engine: identical
        // finish time for a fresh batch. Odd s_out deliberately — the
        // final chunk must ride the monolithic segment path, or the
        // mid-context rounding differs.
        let p = perf();
        let reqs: Vec<Request> = (0..3).map(|i| req(i, 512, 63)).collect();
        let mut mono = sched();
        let mut q1: VecDeque<Request> = reqs.clone().into_iter().collect();
        mono.admit(&mut q1, SimTime::ZERO, &p);
        let mono_end = {
            let mut end = SimTime::ZERO;
            while let Some(e) = mono.next_event() {
                end = e;
                mono.advance(e, &mut q1, &p);
            }
            end
        };
        let mut ch = chunked(512);
        let mut q2: VecDeque<Request> = reqs.into_iter().collect();
        ch.admit(&mut q2, SimTime::ZERO, &p);
        let ch_end = {
            let mut end = SimTime::ZERO;
            while let Some(e) = ch.next_event() {
                end = e;
                ch.advance(e, &mut q2, &p);
            }
            end
        };
        assert_eq!(mono_end, ch_end);
    }

    #[test]
    fn chunk_size_one_prefills_one_token_per_pass() {
        let p = perf();
        let mut s = chunked(1);
        let mut q: VecDeque<Request> = vec![req(0, 16, 4)].into_iter().collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        // 15 single-token prefill passes, then the final prompt token
        // rides the first iteration of the closing 4-iteration segment
        // (committing output token 1) — 16 advances in total.
        let mut passes = 0;
        while !s.is_idle() {
            if passes == 15 {
                assert_eq!(s.running()[0].prefilled(), 15, "one prompt token per pass");
                assert_eq!(s.running()[0].committed(), 0);
            }
            let e = s.next_event().unwrap();
            s.advance(e, &mut q, &p);
            passes += 1;
        }
        assert_eq!(passes, 16, "15 single passes + the closing segment");
    }

    #[test]
    fn decode_neighbour_commits_a_token_every_chunk_pass() {
        // A decoding resident is never stalled behind a monolithic prefill:
        // each chunk pass commits one of its tokens.
        let p = perf();
        let mut s = chunked(128);
        let mut q: VecDeque<Request> = vec![req(0, 64, 200)].into_iter().collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        // The resident's own prompt fits one chunk, so it runs a normal
        // segment; walk to its third boundary and let a long prompt arrive
        // there, truncating the segment.
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t = s.next_boundary_after(t).unwrap();
        }
        let arrival = SimTime::from_micros(t.as_micros() + 1);
        let newcomer = req(1, 1024, 8);
        assert!(s.can_admit(&newcomer, arrival, &p));
        let new_end = s.truncate_for_admission(arrival).unwrap();
        let mut q2: VecDeque<Request> = vec![newcomer].into_iter().collect();
        s.advance(new_end, &mut q2, &p);
        assert_eq!(s.in_flight(), 2);
        assert!(s.running()[0].committed() >= 1);
        // 1024/128 = 8 chunks: 7 single-chunk passes, each committing one
        // resident token, then the final chunk rides the closing segment.
        let mut at = s.running()[0].committed();
        for pass in 0..7 {
            assert!(s.running().iter().any(RequestRun::needs_prefill));
            let e = s.next_event().unwrap();
            s.advance(e, &mut q2, &p);
            let now_committed = s
                .running()
                .iter()
                .find(|r| r.request().id == RequestId(0))
                .unwrap()
                .committed();
            assert_eq!(now_committed, at + 1, "pass {pass} must commit one token");
            at = now_committed;
        }
        // One chunk left: the closing segment's first iteration completes
        // the newcomer's prefill; the resident keeps committing one token
        // per iteration throughout.
        let newcomer_run = s
            .running()
            .iter()
            .find(|r| r.request().id == RequestId(1))
            .unwrap();
        assert_eq!(newcomer_run.prefilled(), 7 * 128);
        let e = s.next_event().unwrap();
        s.advance(e, &mut q2, &p);
        assert!(s.running().iter().all(|r| !r.needs_prefill()));
    }

    #[test]
    fn freeze_mid_chunked_prefill_is_chunk_exact() {
        let p = perf();
        let mut s = chunked(128);
        let mut q: VecDeque<Request> = vec![req(0, 1024, 32)].into_iter().collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        // Run exactly 3 chunk passes.
        for _ in 0..3 {
            let e = s.next_event().unwrap();
            s.advance(e, &mut q, &p);
        }
        // Freeze mid-4th-pass: the partial chunk is discarded, the 3
        // committed chunks survive.
        let mid = SimTime::from_micros(s.next_event().unwrap().as_micros() - 1);
        let records = s.freeze(mid);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].prefilled(), 3 * 128);
        assert_eq!(records[0].committed(), 0);
        assert!(records[0].has_progress());
        // Resume under a new configuration: the prefill continues from
        // chunk 4, not from scratch.
        let new_cfg = ParallelConfig::new(1, 2, 2, 8);
        let mut r = IterationScheduler::new(new_cfg, kvbpt(), u64::MAX)
            .with_prefill_chunk(Some(128))
            .restore(records, mid, &p);
        let mut passes_to_first_token = 0;
        while r.running().first().map(|x| x.committed()) == Some(0) {
            let e = r.next_event().unwrap();
            r.advance(e, &mut VecDeque::new(), &p);
            passes_to_first_token += 1;
        }
        assert_eq!(
            passes_to_first_token,
            (1024 - 384) / 128,
            "exactly the missing chunks run again"
        );
    }

    #[test]
    fn resumed_partial_rejects_inconsistent_progress() {
        let r = RequestRun::resumed_partial(req(0, 1024, 32), 256, 0);
        assert!(r.needs_prefill());
        assert_eq!(r.prefilled(), 256);
    }

    #[test]
    #[should_panic(expected = "cannot precede prefill completion")]
    fn resumed_partial_requires_complete_prefill_for_output() {
        RequestRun::resumed_partial(req(0, 1024, 32), 256, 5);
    }

    // ---- SLO-aware admission -----------------------------------------

    fn deadline_req(id: u64, s_in: u32, s_out: u32, slo_secs: u64) -> Request {
        req(id, s_in, s_out).with_slo(SimDuration::from_secs(slo_secs))
    }

    #[test]
    fn best_effort_requests_never_touch_the_slo_path() {
        let p = perf();
        let s = sched();
        assert_eq!(
            s.slo_verdict(&req(0, 512, 128), SimTime::ZERO, &p),
            AdmissionVerdict::Admit
        );
    }

    #[test]
    fn hopeless_deadline_is_rejected_not_queued() {
        let p = perf();
        let mut s = sched();
        // 1 s for 512 output tokens: impossible even alone.
        let hopeless = deadline_req(0, 512, 512, 1);
        assert_eq!(
            s.slo_verdict(&hopeless, SimTime::ZERO, &p),
            AdmissionVerdict::Reject
        );
        let mut q: VecDeque<Request> = vec![hopeless, req(1, 512, 16)].into_iter().collect();
        let admitted = s.admit(&mut q, SimTime::ZERO, &p);
        // The hopeless request is dropped, the best-effort one behind it
        // still gets in.
        assert_eq!(admitted, 1);
        assert_eq!(s.take_rejected(), vec![hopeless]);
        assert_eq!(s.running()[0].request().id, RequestId(1));
    }

    #[test]
    fn admission_defers_rather_than_bust_an_admitted_deadline() {
        let p = perf();
        let mut s = sched();
        // A tight-but-feasible resident.
        let resident = deadline_req(0, 512, 64, 600);
        let mut q: VecDeque<Request> = vec![resident].into_iter().collect();
        assert_eq!(s.admit(&mut q, SimTime::ZERO, &p), 1);
        // A big burst of requests that each solo-fit their own deadline:
        // none may be dropped — whatever does not get in stays queued.
        let mut q2: VecDeque<Request> = (1..8).map(|i| deadline_req(i, 512, 64, 610)).collect();
        let before = q2.len();
        s.advance(s.next_event().unwrap(), &mut q2, &p);
        assert_eq!(s.take_rejected(), vec![], "feasible requests never drop");
        assert_eq!(s.in_flight() + q2.len(), before, "admitted + deferred");
        // Every admitted deadline is still projected met (the guard's own
        // invariant re-checked post-hoc).
        for r in s.running() {
            assert!(s.slo_verdict(r.request(), SimTime::ZERO, &p) != AdmissionVerdict::Reject);
        }
    }

    #[test]
    fn edf_pops_earliest_deadline_first() {
        // Arrival order r0 (loose), r1 (tight): with one slot, EDF must
        // seat the tight deadline first even though it queued second.
        let p = perf();
        let one_slot = ParallelConfig::new(1, 1, 4, 1);
        let mut s = IterationScheduler::new(one_slot, kvbpt(), u64::MAX);
        let loose = deadline_req(0, 512, 16, 3000);
        let tight = deadline_req(1, 512, 16, 600);
        let mut q: VecDeque<Request> = vec![loose, tight].into_iter().collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        assert_eq!(s.running()[0].request().id, RequestId(1), "tight first");
        assert_eq!(q.front().unwrap().id, RequestId(0), "loose stays queued");
    }

    #[test]
    fn edf_orders_deadline_carriers_ahead_of_best_effort() {
        let p = perf();
        let one_slot = ParallelConfig::new(1, 1, 4, 1);
        let mut s = IterationScheduler::new(one_slot, kvbpt(), u64::MAX);
        let mut q: VecDeque<Request> = vec![
            req(0, 512, 16),
            req(1, 512, 16),
            deadline_req(2, 512, 16, 900),
        ]
        .into_iter()
        .collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        assert_eq!(s.running()[0].request().id, RequestId(2));
        // The best-effort tail keeps FIFO order (stable sort).
        let ids: Vec<RequestId> = q.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![RequestId(0), RequestId(1)]);
    }

    #[test]
    fn deadline_free_queue_keeps_fifo_order() {
        // Without deadlines the EDF sort must never engage: admission pops
        // the *front* (ids deliberately out of numeric order) and leaves
        // the remainder bit-for-bit in place.
        let p = perf();
        let one_slot = ParallelConfig::new(1, 1, 4, 1);
        let mut s = IterationScheduler::new(one_slot, kvbpt(), u64::MAX);
        let q0: VecDeque<Request> = vec![req(2, 512, 8), req(0, 256, 8), req(1, 128, 8)]
            .into_iter()
            .collect();
        let mut q = q0.clone();
        s.admit(&mut q, SimTime::ZERO, &p);
        assert_eq!(s.running()[0].request().id, RequestId(2), "front admitted");
        let rest: Vec<Request> = q.iter().copied().collect();
        assert_eq!(rest, vec![q0[1], q0[2]], "remainder order untouched");
    }

    /// Asserts that `s` answers like a scheduler rebuilt from its records
    /// at every verdict edge: for each probed candidate shape and perf
    /// model, the earliest deadlines at which the rebuilt scheduler stops
    /// rejecting and starts admitting (found by bisection, the verdict
    /// being monotone in the deadline), and the microsecond before each.
    /// A projection or solo floor priced from stale residents, another
    /// configuration or another perf model moves an edge and fails here.
    /// The probes vary the prompt length, pass between `perfs[0]` and
    /// `perfs[1]` (equal models built separately) and `perfs[2]` (another
    /// model), and start and end on the same shape and model, so prices
    /// surviving from the last check are asked first.
    fn assert_verdicts_match_rebuilt(s: &IterationScheduler, now: SimTime, perfs: &[PerfModel]) {
        let shapes = [(512, 128), (96, 24), (1024, 48), (300, 64), (768, 16)];
        let order = [
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 0),
            (2, 2),
            (2, 0),
            (3, 1),
            (3, 2),
            (4, 0),
            (4, 1),
            (1, 2),
            (0, 0),
        ];
        // Reject, Defer, Admit: the order the deadline loosens in.
        let rank = |v: AdmissionVerdict| match v {
            AdmissionVerdict::Reject => 0,
            AdmissionVerdict::Defer => 1,
            AdmissionVerdict::Admit => 2,
        };
        let mut edges = 0;
        for (shape, model) in order {
            let (s_in, s_out) = shapes[shape];
            let perf = &perfs[model];
            let rebuilt = IterationScheduler::new(*s.config(), kvbpt(), u64::MAX)
                .with_prefill_chunk(s.prefill_chunk())
                .restore(s.running().to_vec(), now, perf);
            let ask = |sched: &IterationScheduler, deadline: u64| {
                let mut r = req(900, s_in, s_out);
                r.deadline = Some(SimTime::from_micros(deadline));
                sched.slo_verdict(&r, now, perf)
            };
            for edge in [AdmissionVerdict::Defer, AdmissionVerdict::Admit] {
                let (mut lo, mut hi) = (now.as_micros(), now.as_micros() + 10_000_000_000);
                if rank(ask(&rebuilt, lo)) >= rank(edge) || rank(ask(&rebuilt, hi)) < rank(edge) {
                    continue;
                }
                edges += 1;
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if rank(ask(&rebuilt, mid)) >= rank(edge) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                for deadline in [lo, hi] {
                    assert_eq!(
                        ask(s, deadline),
                        ask(&rebuilt, deadline),
                        "shape {shape}, model {model}, deadline {deadline} µs at {now}"
                    );
                }
            }
        }
        assert_eq!(edges, 2 * order.len(), "every probe finds both edges");
    }

    #[test]
    fn cached_projections_answer_like_a_rebuilt_scheduler() {
        let perfs = [
            perf(),
            perf(),
            PerfModel::paper_defaults(ModelSpec::gpt_20b()),
        ];
        assert_eq!(perfs[0], perfs[1], "built separately, equal");
        assert_ne!(perfs[0], perfs[2]);
        let p = &perfs[0];
        for chunk in [None, Some(256)] {
            // Deadline carriers in mixed shapes, so admission prices every
            // candidate and residents retire at different boundaries; more
            // queued than the batch holds, so scans end on capacity right
            // after a seat.
            let shapes = [(512, 128), (512, 16), (256, 40), (512, 128)];
            let mut q: VecDeque<Request> = (0..11)
                .map(|i| {
                    let (s_in, s_out) = shapes[i as usize % 4];
                    deadline_req(i, s_in, s_out, 3000)
                })
                .collect();
            let mut s = sched().with_prefill_chunk(chunk);
            s.admit(&mut q, SimTime::ZERO, p);
            assert_eq!(s.in_flight(), 8);
            assert_verdicts_match_rebuilt(&s, SimTime::ZERO, &perfs);
            let mut now = SimTime::ZERO;
            for step in 0..6 {
                now = s.next_event().expect("work in flight");
                s.advance(now, &mut q, p);
                assert_verdicts_match_rebuilt(&s, now, &perfs);
                if step == 1 {
                    s.set_config(ParallelConfig::new(1, 1, 4, 12));
                    assert_verdicts_match_rebuilt(&s, now, &perfs);
                    q.extend((20..26).map(|i| deadline_req(i, 512, 128, 3000)));
                }
            }
            // Freeze mid-segment, then restore under a budget that keeps
            // only part of the checkpoint.
            let mid = SimTime::from_micros(now.as_micros() + 1);
            let frozen = s.freeze(mid);
            assert_verdicts_match_rebuilt(&s, mid, &perfs);
            let budget = 3 * (512 + 128) * kvbpt();
            let (mut s, dropped) = IterationScheduler::new(cfg(), kvbpt(), budget)
                .with_prefill_chunk(chunk)
                .restore_within_budget(frozen, mid, p);
            assert!(!dropped.is_empty() && !s.is_idle());
            assert_verdicts_match_rebuilt(&s, mid, &perfs);
            let mut q: VecDeque<Request> = dropped.into_iter().collect();
            for _ in 0..3 {
                let Some(t) = s.next_event() else { break };
                s.advance(t, &mut q, p);
                assert_verdicts_match_rebuilt(&s, t, &perfs);
            }
        }
    }

    #[test]
    fn deferred_requests_admit_once_load_drains() {
        let p = perf();
        let mut s = sched();
        // Resident with a deadline tight enough that admitting a second
        // request would bust it; the second is feasible and defers.
        let resident = deadline_req(0, 512, 32, 290);
        let mut q: VecDeque<Request> = vec![resident].into_iter().collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        let newcomer = deadline_req(1, 512, 32, 4000);
        let mut q2: VecDeque<Request> = vec![newcomer].into_iter().collect();
        // Drive until the newcomer gets in (at the latest when the
        // resident retires).
        let mut admitted_at = None;
        while let Some(e) = s.next_event() {
            s.advance(e, &mut q2, &p);
            if q2.is_empty() && admitted_at.is_none() {
                admitted_at = Some(e);
            }
        }
        assert!(admitted_at.is_some(), "deferred request eventually admits");
        assert!(s.take_rejected().is_empty());
    }
}
