//! The long-lived view service: epoch-versioned snapshots, one writer,
//! many concurrent readers.
//!
//! # Snapshot lifecycle
//!
//! The service owns a current [`Snapshot`] behind an `RwLock<Arc<_>>`.
//! Readers grab the `Arc` (one lock-held clone, no data copied — the
//! snapshot's database and view relations are themselves shared
//! copy-on-write) and serve from it for as long as they like; a snapshot
//! is immutable once published. The single writer path
//! ([`ViewService::apply_batch`], [`ViewService::register_view`]) runs
//! under a separate mutex: it clones the master database (cheap COW),
//! applies the insert batch (copying only the touched relations),
//! maintains every registered view through its certificate-licensed
//! maintenance form ([`crate::view`]), and publishes a new `Arc<Snapshot>`
//! with the epoch bumped. Readers never block writers and vice versa
//! beyond the pointer swap.
//!
//! Epochs are strictly increasing; a batch that inserts nothing new (all
//! duplicates) publishes nothing and reports the current epoch.
//!
//! # Durability (optional)
//!
//! A service with an attached [`linrec_storage::Store`] (see
//! [`crate::persist::open_durable`]) write-ahead-logs every batch: the WAL
//! append + fsync happens **before** the batch commits to the master
//! database, publishes, or is acknowledged, so an acknowledged batch is on
//! disk and an unacknowledged one never half-commits. When the WAL
//! pressure passes the [`linrec_storage::CheckpointPolicy`], the writer
//! folds the current snapshot into a fresh on-disk generation
//! (arena snapshot + rotated WAL) while still holding the writer lock —
//! readers keep serving throughout.
//!
//! # Parallel maintenance across views
//!
//! When the service's [`Parallelism`] knob is engaged and a batch faces
//! more than one registered view, maintenance dispatches **one view per
//! worker** on a service-owned pool (sized like the engine knob). Views
//! are maintained against the same frozen pre-batch snapshot and the same
//! delta, and each view's work is exactly what the sequential loop would
//! do, so reports, stats, and the published snapshot are bit-identical to
//! sequential maintenance. The per-view jobs keep their *inner* fixpoint
//! rounds on the engine's shared pool — two pools, no lock-step, no
//! worker-starvation deadlock (a view job never waits on the pool it runs
//! on).

use crate::sentinel::{DriftTrip, Sentinel, SentinelConfig};
use crate::view::{MaintainedView, MaintenanceOutcome, ViewDef, DELTA_MARKER};
use linrec_datalog::hash::FastMap;
use linrec_datalog::{Database, Relation, Symbol, Value};
use linrec_engine::{
    CostModel, EvalStats, Parallelism, Selection, StrategyError, TraceStep, WorkerPool,
};
use linrec_storage::{
    view_fingerprint, CheckpointPolicy, DecisionLog, SnapshotData, StorageError, Store, Vfs,
    ViewSnapshot,
};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::{Duration, Instant};

/// Errors from the service's write and query paths.
#[derive(Debug)]
pub enum ServiceError {
    /// Query or insert referenced an unknown view.
    UnknownView(String),
    /// An insert's arity disagrees with the predicate's relation.
    ArityMismatch {
        /// The predicate being inserted into.
        pred: Symbol,
        /// Arity of the stored relation.
        expected: usize,
        /// Arity of the offered tuple.
        got: usize,
    },
    /// The predicate name is reserved for the service's delta machinery.
    ReservedPredicate(String),
    /// A view is already registered under this name.
    DuplicateView(String),
    /// Planning or execution failed.
    Strategy(StrategyError),
    /// The durability layer failed (WAL append, checkpoint, recovery).
    Storage(StorageError),
    /// The static analyzer refused the view's rules at registration
    /// (error-severity findings; see
    /// [`ViewService::set_registration_checks`] for the opt-out).
    Lint(linrec_lint::LintReport),
    /// The service is in fault-driven read-only degraded mode: persistent
    /// storage failed, reads keep serving the last published epoch, and
    /// writes are refused until the recovery probe restores the store.
    Degraded {
        /// Why the service degraded (the storage fault, verbatim).
        reason: String,
    },
    /// The service was started (or switched) read-only by the operator.
    ReadOnly,
    /// Load shedding: too many writers are already queued.
    Busy {
        /// Writers waiting when this request was shed.
        waiting: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// The request could not acquire the writer within its deadline.
    Timeout {
        /// The deadline that expired, in milliseconds.
        millis: u64,
    },
}

impl ServiceError {
    /// The machine-parseable protocol code for this error — the first
    /// word after `err` in a protocol reply. Lint errors carry their own
    /// per-finding codes (`L…`/`C…`) and report `lint` here.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownView(_) => "unknown-view",
            ServiceError::ArityMismatch { .. } => "arity",
            ServiceError::ReservedPredicate(_) => "reserved",
            ServiceError::DuplicateView(_) => "duplicate",
            ServiceError::Strategy(_) => "strategy",
            ServiceError::Storage(_) => "storage",
            ServiceError::Lint(_) => "lint",
            ServiceError::Degraded { .. } => "degraded",
            ServiceError::ReadOnly => "read-only",
            ServiceError::Busy { .. } => "busy",
            ServiceError::Timeout { .. } => "timeout",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownView(name) => write!(f, "unknown view {name}"),
            ServiceError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(f, "{pred} holds {expected}-tuples, got arity {got}"),
            ServiceError::ReservedPredicate(name) => {
                write!(f, "{name} is reserved (delta marker {DELTA_MARKER:?})")
            }
            ServiceError::DuplicateView(name) => write!(f, "view {name} already registered"),
            ServiceError::Strategy(e) => write!(f, "{e}"),
            ServiceError::Storage(e) => write!(f, "storage: {e}"),
            // One protocol-friendly line: the first error's typed
            // `<code> <span>: <message>` plus how many more there are.
            ServiceError::Lint(report) => {
                let mut errors = report.errors();
                let first = errors
                    .next()
                    .expect("a Lint error carries ≥ 1 error finding");
                write!(f, "{}", first.protocol_line())?;
                let more = errors.count();
                if more > 0 {
                    write!(f, " (+{more} more)")?;
                }
                Ok(())
            }
            ServiceError::Degraded { reason } => {
                write!(f, "service degraded to read-only: {reason}")
            }
            ServiceError::ReadOnly => write!(f, "writes disabled by operator"),
            ServiceError::Busy { waiting, limit } => {
                write!(f, "writer queue full ({waiting} waiting, limit {limit})")
            }
            ServiceError::Timeout { millis } => {
                write!(f, "request deadline of {millis}ms expired")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// The service's write-availability mode (reads always work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Normal operation.
    ReadWrite,
    /// Operator-requested read-only (`--read-only` / `set_read_only`);
    /// never auto-restores.
    ReadOnly,
    /// Fault-driven read-only: persistent storage failed. The recovery
    /// probe re-opens the store and restores read-write automatically.
    Degraded,
}

impl fmt::Display for ServiceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServiceMode::ReadWrite => "read-write",
            ServiceMode::ReadOnly => "read-only",
            ServiceMode::Degraded => "degraded",
        })
    }
}

/// Bounded retry with exponential backoff for the durable write path.
/// Any I/O failure is retried (the WAL rolls partial appends back, so a
/// retry is always safe); format-level errors (corruption, version skew)
/// never are.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all (fail on the first fault) — chaos tests use this
    /// to make every injected fault observable.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Run `f`, retrying I/O failures up to the policy's attempt budget.
    fn run<T>(&self, mut f: impl FnMut() -> Result<T, StorageError>) -> Result<T, StorageError> {
        let mut backoff = self.initial_backoff;
        let mut attempt = 1;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e @ StorageError::Io { .. }) if attempt < self.attempts => {
                    let _ = e; // retried; only the final error surfaces
                    if linrec_obs::enabled() {
                        crate::profile::service().storage_retries.inc();
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.max_backoff);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Overload-control knobs for the write path.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Writers allowed to queue behind the writer lock before further
    /// requests are shed with [`ServiceError::Busy`] (0 = unbounded).
    pub max_queue: usize,
    /// Deadline for acquiring the writer lock; expiry answers
    /// [`ServiceError::Timeout`]. `None` waits indefinitely.
    pub request_timeout: Option<Duration>,
    /// Tuples a protocol session may stage before `insert` answers
    /// [`ServiceError::Busy`] (0 = unbounded).
    pub max_staged: usize,
    /// Minimum interval between *inline* recovery probes: a write
    /// arriving in degraded mode retries the store this often (the
    /// background probe, if any, runs on its own cadence).
    pub probe_interval: Duration,
    /// Protocol requests slower than this are counted in
    /// `linrec_service_slow_requests_total` and logged to stderr with
    /// their trace ID (`None` disables the slow-request log).
    pub slow_request: Option<Duration>,
}

impl Default for ServiceLimits {
    fn default() -> ServiceLimits {
        ServiceLimits {
            max_queue: 64,
            request_timeout: None,
            max_staged: 1 << 20,
            probe_interval: Duration::from_millis(500),
            slow_request: None,
        }
    }
}

/// A point-in-time health report (the `health`/`ready` protocol commands).
#[derive(Debug, Clone)]
pub struct HealthInfo {
    /// Write-availability mode.
    pub mode: ServiceMode,
    /// Why the service is degraded (`None` unless mode is `Degraded`).
    pub reason: Option<String>,
    /// Current published epoch.
    pub epoch: u64,
    /// Registered views.
    pub views: usize,
    /// Writers currently queued behind the writer lock.
    pub waiting_writers: usize,
    /// The configured queue bound (0 = unbounded).
    pub max_queue: usize,
    /// Whether a store is attached (even if currently degraded).
    pub durable: bool,
    /// WAL pressure `(batches, payload bytes)` since the last checkpoint;
    /// zeros while degraded or volatile.
    pub wal_batches: u64,
    /// See `wal_batches`.
    pub wal_bytes: u64,
    /// Live on-disk generation (`None` while degraded or volatile).
    pub generation: Option<u64>,
    /// Times the service has degraded over its lifetime.
    pub degradations: u64,
    /// Most recent storage fault, verbatim (`None` if none ever).
    pub last_fault: Option<String>,
}

impl From<StrategyError> for ServiceError {
    fn from(e: StrategyError) -> ServiceError {
        ServiceError::Strategy(e)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> ServiceError {
        ServiceError::Storage(e)
    }
}

/// Per-view serving state inside a [`Snapshot`].
#[derive(Clone)]
pub struct ViewInfo {
    /// The materialized relation (shared, immutable).
    pub relation: Arc<Relation>,
    /// Maintenance form that produced this state (`"materialize"` for the
    /// initial build).
    pub mode: &'static str,
    /// Statistics of the maintenance/materialization that produced it.
    pub stats: EvalStats,
    /// Wall-clock of that maintenance step.
    pub maintenance_nanos: u64,
    /// Epoch at which the relation last changed.
    pub updated_epoch: u64,
    /// The plan's rationale, annotated with estimate-vs-actual feedback
    /// from the latest plan execution.
    pub rationale: String,
}

/// An immutable, epoch-stamped state of the database and every view.
pub struct Snapshot {
    /// Epoch counter (strictly increasing across published snapshots).
    pub epoch: u64,
    /// The EDB (plus seed relations) at this epoch.
    pub db: Database,
    views: FastMap<String, ViewInfo>,
}

impl Snapshot {
    /// Per-view serving state, if the view exists.
    pub fn view(&self, name: &str) -> Option<&ViewInfo> {
        self.views.get(name)
    }

    /// Registered view names (sorted, for deterministic listings).
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of tuples in a view.
    pub fn count(&self, name: &str) -> Result<usize, ServiceError> {
        self.view(name)
            .map(|v| v.relation.len())
            .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))
    }

    /// Membership test against a view.
    pub fn contains(&self, name: &str, tuple: &[Value]) -> Result<bool, ServiceError> {
        self.view(name)
            .map(|v| v.relation.contains(tuple))
            .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))
    }

    /// Tuples of a view matching a selection (all tuples when `None`),
    /// capped at `limit`.
    pub fn select(
        &self,
        name: &str,
        sel: Option<&Selection>,
        limit: usize,
    ) -> Result<Vec<Vec<Value>>, ServiceError> {
        let view = self
            .view(name)
            .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))?;
        let matches = |t: &[Value]| match sel {
            Some(sel) => sel
                .bindings()
                .iter()
                .all(|&(pos, v)| t.get(pos) == Some(&v)),
            None => true,
        };
        Ok(view
            .relation
            .iter()
            .filter(|t| matches(t))
            .take(limit)
            .map(|t| t.to_vec())
            .collect())
    }
}

/// Report for one view after one batch.
#[derive(Debug)]
pub struct ViewReport {
    /// The view's name.
    pub name: String,
    /// Maintenance form that ran (`"unchanged"` when the batch did not
    /// reach the view).
    pub mode: &'static str,
    /// Statistics of the maintenance work.
    pub stats: EvalStats,
    /// Wall-clock of the maintenance step.
    pub nanos: u64,
    /// Tuples added to the view by this batch.
    pub grown_by: usize,
}

/// Result of [`ViewService::explain`]: the plan tree, the structured
/// decision record, and (with `analyze`) per-node actuals from running
/// the plan against the current snapshot.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The view explained.
    pub view: String,
    /// Maintenance mode label (`"incremental"`, `"recompute"`, ...).
    pub mode: &'static str,
    /// Indented plan tree with per-node rationales and estimates.
    pub tree: String,
    /// The structured [`PlanDecision`](linrec_engine::PlanDecision) as
    /// JSON, when the planner produced one.
    pub decision_json: Option<String>,
    /// One-line human summary of the decision record.
    pub decision_summary: Option<String>,
    /// Per-node execution record (empty unless analyzed).
    pub nodes: Vec<TraceStep>,
    /// Total wall time across all nodes (ns; 0 unless analyzed).
    pub total_nanos: u64,
    /// Whether the plan actually ran (`explain analyze`).
    pub analyzed: bool,
}

/// Report for one applied batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Epoch of the snapshot the batch produced (the current epoch if the
    /// batch inserted nothing new).
    pub epoch: u64,
    /// Tuples that were actually new, per predicate.
    pub inserted: usize,
    /// Per-view maintenance outcomes (empty for an all-duplicate batch).
    pub views: Vec<ViewReport>,
}

struct Writer {
    /// The master database: the writer's working copy, snapshotted into
    /// every published epoch.
    db: Database,
    views: Vec<MaintainedView>,
    epoch: u64,
    /// Parallelism handed to every registered view's maintenance (and,
    /// through its plan, to materialization/recompute).
    par: Parallelism,
    /// Lazily created pool for fanning one batch's maintenance out across
    /// views (one view per worker). Deliberately distinct from the
    /// engine's shared pool: a per-view job blocks on its fixpoint's
    /// sharded rounds, which run on the engine pool — running both tiers
    /// on one pool could park every worker on a wait (see module docs).
    view_pool: Option<Arc<WorkerPool>>,
}

/// Durable state attached to a service: the store plus the checkpoint
/// policy driving WAL-to-snapshot folding. While degraded the store is
/// `None` — the handle is dropped so the recovery probe re-opens the data
/// directory from scratch (`dir` + `vfs` are kept for exactly that).
struct Durability {
    store: Option<Store>,
    policy: CheckpointPolicy,
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// Mutable mode state behind [`ViewService::mode_state`].
struct ModeState {
    kind: ServiceMode,
    /// Why the service degraded (kept while `kind == Degraded`).
    reason: Option<String>,
    /// Lifetime degradation count.
    degradations: u64,
    /// Most recent storage fault (append, checkpoint, or probe), kept
    /// across restores for the `health` report.
    last_fault: Option<String>,
    /// When the last (inline or background) restore attempt ran.
    last_probe: Option<Instant>,
}

/// The service: one writer, epoch snapshots, concurrent readers. See the
/// module docs for the lifecycle.
pub struct ViewService {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
    /// Lock order is always writer → durability → mode_state → current.
    durability: Mutex<Option<Durability>>,
    /// Write-availability mode (may be read without the writer lock).
    mode_state: Mutex<ModeState>,
    /// Overload-control knobs (see [`ServiceLimits`]).
    limits: Mutex<ServiceLimits>,
    /// Retry policy for the durable write path.
    retry: Mutex<RetryPolicy>,
    /// Writers currently queued behind the writer lock.
    waiting_writers: AtomicUsize,
    /// Highest WAL sequence number ever acknowledged to a caller. The
    /// restore probe refuses to reattach a store whose recovered log does
    /// not reach this point — that would silently lose an acked batch.
    acked_seq: AtomicU64,
    /// Deny-by-default static analysis at registration (see
    /// [`ViewService::set_registration_checks`]).
    registration_checks: std::sync::atomic::AtomicBool,
    /// The shared cost model every registration plans with. Mutable so
    /// the drift sentinel can recalibrate it from journal feedback.
    cost_model: Mutex<CostModel>,
    /// Per-view drift state + knobs (see [`SentinelConfig`]).
    sentinel: Mutex<Sentinel>,
    /// Optional on-disk decision log (`decisions.log` next to the WAL).
    /// Appends are best-effort: a failure is counted, never surfaced to a
    /// batch caller.
    decision_log: Mutex<Option<DecisionLog>>,
}

impl ViewService {
    /// A service starting from the given database at epoch 0, with no
    /// views. Maintenance runs sequentially; see
    /// [`ViewService::with_parallelism`].
    pub fn new(db: Database) -> ViewService {
        ViewService::with_parallelism(db, Parallelism::sequential())
    }

    /// [`ViewService::new`] with a [`Parallelism`] knob: view
    /// materialization, recompute fallbacks, and large-delta maintenance
    /// rounds fan out on the shared engine pool (cost-model gated per
    /// round — small batches keep maintaining sequentially), and batches
    /// touching several views maintain them concurrently (one view per
    /// worker).
    pub fn with_parallelism(db: Database, par: Parallelism) -> ViewService {
        ViewService::with_parallelism_at_epoch(db, par, 0)
    }

    /// A service whose first snapshot is published at `epoch` — the
    /// recovery path: a database loaded from a checkpoint resumes at the
    /// epoch the checkpoint captured, so epochs stay strictly increasing
    /// across restarts.
    pub(crate) fn with_parallelism_at_epoch(
        db: Database,
        par: Parallelism,
        epoch: u64,
    ) -> ViewService {
        let snapshot = Arc::new(Snapshot {
            epoch,
            db: db.snapshot(),
            views: FastMap::default(),
        });
        ViewService {
            current: RwLock::new(snapshot),
            writer: Mutex::new(Writer {
                db,
                views: Vec::new(),
                epoch,
                par,
                view_pool: None,
            }),
            durability: Mutex::new(None),
            mode_state: Mutex::new(ModeState {
                kind: ServiceMode::ReadWrite,
                reason: None,
                degradations: 0,
                last_fault: None,
                last_probe: None,
            }),
            limits: Mutex::new(ServiceLimits::default()),
            retry: Mutex::new(RetryPolicy::default()),
            waiting_writers: AtomicUsize::new(0),
            acked_seq: AtomicU64::new(0),
            registration_checks: std::sync::atomic::AtomicBool::new(true),
            cost_model: Mutex::new(CostModel::default()),
            sentinel: Mutex::new(Sentinel::new(SentinelConfig::default())),
            decision_log: Mutex::new(None),
        }
    }

    /// Enable or disable the static-analysis registration gate (on by
    /// default): [`ViewService::register_view`] runs `linrec-lint`'s
    /// structural passes over the offered rules and refuses error-severity
    /// findings with [`ServiceError::Lint`]. Disabling is an experiment
    /// escape hatch — an unsafe rule that passes the gate can still fail
    /// (or loop) at materialization time.
    pub fn set_registration_checks(&self, enabled: bool) {
        self.registration_checks
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// A copy of the shared [`CostModel`] views are planned with. The
    /// drift sentinel mutates the shared model in place
    /// ([`CostModel::calibrate`]), so two calls can observe different
    /// `fanout_scale`s.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
            .lock()
            .expect("cost model lock poisoned")
            .clone()
    }

    /// Replace the shared cost model (e.g. with deployment-specific
    /// constants, or a deliberately skewed model in drift tests). Applies
    /// to future registrations and future per-batch estimates; already
    /// registered views keep their plans.
    pub fn set_cost_model(&self, model: CostModel) {
        *self.cost_model.lock().expect("cost model lock poisoned") = model;
    }

    /// The drift sentinel's current knobs.
    pub fn sentinel_config(&self) -> SentinelConfig {
        self.sentinel
            .lock()
            .expect("sentinel lock poisoned")
            .config()
            .clone()
    }

    /// Replace the drift sentinel's knobs. Every view's EWMA state and
    /// warm-up restarts (it was accumulated under the old tolerances).
    pub fn set_sentinel_config(&self, cfg: SentinelConfig) {
        self.sentinel
            .lock()
            .expect("sentinel lock poisoned")
            .set_config(cfg);
    }

    /// Attach a `decisions.log`: registration decisions, drift events and
    /// recalibrations append to it (CRC-framed, best-effort — see
    /// [`linrec_storage::DecisionLog`]). `open_durable` attaches one next
    /// to the WAL automatically.
    pub(crate) fn attach_decision_log(&self, log: DecisionLog) {
        *self
            .decision_log
            .lock()
            .expect("decision log lock poisoned") = Some(log);
    }

    /// Best-effort append to the attached decision log. Failures bump
    /// `linrec_service_decision_log_errors_total` and are otherwise
    /// swallowed: the log is observability data and must never fail an
    /// acknowledged operation.
    fn log_decision(&self, json: &str) {
        let mut log = self
            .decision_log
            .lock()
            .expect("decision log lock poisoned");
        if let Some(log) = log.as_mut() {
            if log.append(json).is_err() {
                crate::profile::service().decision_log_errors.inc();
            }
        }
    }

    /// Attach a recovered store: every subsequent batch is write-ahead
    /// logged before acknowledgement, and `policy` decides when the WAL is
    /// folded into a fresh snapshot generation. Use
    /// [`crate::persist::open_durable`] for the full open/recover/attach
    /// flow.
    pub(crate) fn attach_durability(&self, store: Store, policy: CheckpointPolicy) {
        let dir = store.dir().to_owned();
        let vfs = store.vfs();
        self.acked_seq
            .store(store.next_seq().saturating_sub(1), Ordering::SeqCst);
        let mut dur = self.durability.lock().expect("durability lock poisoned");
        *dur = Some(Durability {
            store: Some(store),
            policy,
            dir,
            vfs,
        });
    }

    /// The live on-disk snapshot generation, when durable (and not
    /// currently degraded).
    pub fn store_generation(&self) -> Option<u64> {
        self.durability
            .lock()
            .expect("durability lock poisoned")
            .as_ref()
            .and_then(|d| d.store.as_ref())
            .map(Store::generation)
    }

    /// Force a checkpoint of the current snapshot (no-op returning `false`
    /// on a non-durable — or currently degraded — service). The write
    /// happens under the writer lock, so it captures a batch-consistent
    /// state; readers are unaffected.
    pub fn checkpoint_now(&self) -> Result<bool, ServiceError> {
        let writer = self.writer.lock().expect("writer lock poisoned");
        Ok(self.checkpoint(&writer, true)?)
    }

    /// The current write-availability mode and (when degraded) its reason.
    pub fn mode(&self) -> (ServiceMode, Option<String>) {
        let mode = self.mode_state.lock().expect("mode lock poisoned");
        (mode.kind, mode.reason.clone())
    }

    /// Operator toggle: switch the service read-only (writes answer
    /// [`ServiceError::ReadOnly`]) or back to read-write. Switching a
    /// *degraded* service "on" is a no-op — the fault, not the operator,
    /// owns the mode until the probe restores it.
    pub fn set_read_only(&self, read_only: bool) {
        let mut mode = self.mode_state.lock().expect("mode lock poisoned");
        match (read_only, mode.kind) {
            (true, ServiceMode::ReadWrite) => mode.kind = ServiceMode::ReadOnly,
            (false, ServiceMode::ReadOnly) => mode.kind = ServiceMode::ReadWrite,
            _ => {}
        }
    }

    /// Replace the overload-control knobs.
    pub fn set_limits(&self, limits: ServiceLimits) {
        *self.limits.lock().expect("limits lock poisoned") = limits;
    }

    /// The current overload-control knobs.
    pub fn limits(&self) -> ServiceLimits {
        *self.limits.lock().expect("limits lock poisoned")
    }

    /// Replace the durable-write retry policy.
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        *self.retry.lock().expect("retry lock poisoned") = retry;
    }

    fn retry_policy(&self) -> RetryPolicy {
        *self.retry.lock().expect("retry lock poisoned")
    }

    /// A point-in-time health report: mode, epoch, queue depth, WAL
    /// pressure, fault history. Lock-light — safe to call from any
    /// session at any time, including while degraded.
    pub fn health(&self) -> HealthInfo {
        let snap = self.snapshot();
        let (wal_batches, wal_bytes, generation, durable) = {
            let dur = self.durability.lock().expect("durability lock poisoned");
            match dur.as_ref() {
                Some(d) => match d.store.as_ref() {
                    Some(s) => {
                        let (batches, bytes) = s.wal_pressure();
                        (batches, bytes, Some(s.generation()), true)
                    }
                    None => (0, 0, None, true),
                },
                None => (0, 0, None, false),
            }
        };
        let mode = self.mode_state.lock().expect("mode lock poisoned");
        HealthInfo {
            mode: mode.kind,
            reason: mode.reason.clone(),
            epoch: snap.epoch,
            views: snap.views.len(),
            waiting_writers: self.waiting_writers.load(Ordering::SeqCst),
            max_queue: self.limits().max_queue,
            durable,
            wal_batches,
            wal_bytes,
            generation,
            degradations: mode.degradations,
            last_fault: mode.last_fault.clone(),
        }
    }

    /// Enter degraded mode: drop the store handle (the probe re-opens the
    /// directory from scratch), record the fault, and start refusing
    /// writes. Called with the durability lock **held** by the caller.
    fn degrade(&self, dur: &mut Option<Durability>, fault: &StorageError, context: &str) -> String {
        let reason = format!("{context}: {fault}");
        if let Some(d) = dur.as_mut() {
            d.store = None;
        }
        let mut mode = self.mode_state.lock().expect("mode lock poisoned");
        if mode.kind != ServiceMode::Degraded {
            mode.kind = ServiceMode::Degraded;
            mode.degradations += 1;
            if linrec_obs::enabled() {
                crate::profile::service().degradations.inc();
            }
        }
        mode.reason = Some(reason.clone());
        mode.last_fault = Some(reason.clone());
        mode.last_probe = None;
        reason
    }

    /// Record a storage fault that did *not* degrade the service (e.g. a
    /// failed post-commit checkpoint — the WAL remains the durability
    /// source, so the service stays read-write).
    fn note_fault(&self, fault: &StorageError, context: &str) {
        let mut mode = self.mode_state.lock().expect("mode lock poisoned");
        mode.last_fault = Some(format!("{context}: {fault}"));
    }

    /// Try to leave degraded mode by re-opening and re-recovering the
    /// store. Returns `Ok(true)` when the store was restored (mode is
    /// read-write again), `Ok(false)` when the service was not degraded
    /// (or is volatile), and the typed error when the probe itself failed
    /// (the service stays degraded; the fault is recorded).
    ///
    /// The restored store must recover at least up to the highest
    /// acknowledged sequence number — anything less means the disk lost an
    /// acked batch, and reattaching would silently break the durability
    /// contract, so the probe refuses.
    ///
    /// The in-memory state needs no replay: every acked batch was applied
    /// in memory before acknowledgement, and degraded mode refused writes,
    /// so memory is exactly the acked prefix the disk recovered.
    pub fn try_restore(&self) -> Result<bool, ServiceError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let mut dur = self.durability.lock().expect("durability lock poisoned");
        let degraded = {
            let mut mode = self.mode_state.lock().expect("mode lock poisoned");
            mode.last_probe = Some(Instant::now());
            mode.kind == ServiceMode::Degraded
        };
        let Some(d) = dur.as_mut() else {
            return Ok(false);
        };
        if !degraded && d.store.is_some() {
            return Ok(false);
        }
        let probe = || -> Result<Store, StorageError> {
            let mut store = Store::open_with(&d.dir, Arc::clone(&d.vfs))?;
            store.recover()?;
            Ok(store)
        };
        match probe() {
            Ok(store) => {
                let acked = self.acked_seq.load(Ordering::SeqCst);
                if store.next_seq() <= acked {
                    let err = StorageError::Corrupt {
                        file: d.dir.display().to_string(),
                        detail: format!(
                            "recovered log ends at seq {} but seq {acked} was acknowledged",
                            store.next_seq().saturating_sub(1)
                        ),
                    };
                    self.note_fault(&err, "restore probe");
                    return Err(ServiceError::Storage(err));
                }
                d.store = Some(store);
                let mut mode = self.mode_state.lock().expect("mode lock poisoned");
                if mode.kind == ServiceMode::Degraded {
                    mode.kind = ServiceMode::ReadWrite;
                    mode.reason = None;
                }
                Ok(true)
            }
            Err(e) => {
                self.note_fault(&e, "restore probe");
                let mut mode = self.mode_state.lock().expect("mode lock poisoned");
                mode.reason = Some(format!("restore probe: {e}"));
                drop(mode);
                Err(ServiceError::Storage(e))
            }
        }
    }

    /// The write-path gate: refuse (typed) when read-only or degraded.
    /// A degraded service whose inline-probe interval has elapsed gets one
    /// restore attempt right here, so traffic alone heals the service even
    /// without a background probe thread. Must be called **before**
    /// acquiring the writer lock ([`ViewService::try_restore`] takes it).
    fn write_gate(&self) -> Result<(), ServiceError> {
        let (kind, reason, probe_due) = {
            let mode = self.mode_state.lock().expect("mode lock poisoned");
            let due = match mode.last_probe {
                Some(at) => at.elapsed() >= self.limits().probe_interval,
                None => true,
            };
            (mode.kind, mode.reason.clone(), due)
        };
        match kind {
            ServiceMode::ReadWrite => Ok(()),
            ServiceMode::ReadOnly => Err(ServiceError::ReadOnly),
            ServiceMode::Degraded => {
                if probe_due && matches!(self.try_restore(), Ok(true)) {
                    return Ok(());
                }
                Err(ServiceError::Degraded {
                    reason: reason.unwrap_or_else(|| "storage fault".to_owned()),
                })
            }
        }
    }

    /// Acquire the writer lock under overload control: uncontended
    /// acquisition is free; a contended request joins a bounded queue
    /// (shed with [`ServiceError::Busy`] beyond `max_queue`) and spins
    /// with a deadline (expiry answers [`ServiceError::Timeout`]).
    fn lock_writer(&self) -> Result<MutexGuard<'_, Writer>, ServiceError> {
        match self.writer.try_lock() {
            Ok(w) => return Ok(w),
            Err(TryLockError::Poisoned(_)) => panic!("writer lock poisoned"),
            Err(TryLockError::WouldBlock) => {}
        }
        let limits = self.limits();
        let waiting = self.waiting_writers.fetch_add(1, Ordering::SeqCst) + 1;
        if limits.max_queue > 0 && waiting > limits.max_queue {
            self.waiting_writers.fetch_sub(1, Ordering::SeqCst);
            return Err(ServiceError::Busy {
                waiting,
                limit: limits.max_queue,
            });
        }
        let deadline = limits.request_timeout.map(|t| (t, Instant::now() + t));
        let result = loop {
            match self.writer.try_lock() {
                Ok(w) => break Ok(w),
                Err(TryLockError::Poisoned(_)) => panic!("writer lock poisoned"),
                Err(TryLockError::WouldBlock) => {
                    if let Some((timeout, at)) = deadline {
                        if Instant::now() >= at {
                            break Err(ServiceError::Timeout {
                                millis: timeout.as_millis() as u64,
                            });
                        }
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        };
        self.waiting_writers.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// The current state as a storage-layer snapshot: the master database
    /// plus every view's relation and definition fingerprint. Caller holds
    /// the writer lock, so the current snapshot *is* the writer's state.
    fn snapshot_data(&self, writer: &Writer) -> SnapshotData {
        let snap = self.snapshot();
        let views = writer
            .views
            .iter()
            .map(|v| {
                let name = v.def().name.clone();
                let info = snap
                    .view(&name)
                    .expect("registered view must be in the current snapshot");
                ViewSnapshot {
                    fingerprint: view_fingerprint(v.def().seed, v.def().rules.iter()),
                    relation: Arc::clone(&info.relation),
                    name,
                }
            })
            .collect();
        SnapshotData {
            epoch: snap.epoch,
            db: snap.db.snapshot(),
            views,
        }
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Explain a registered view's plan: the tree with per-node
    /// estimates/rationales plus the structured decision record. With
    /// `analyze`, the plan additionally *runs* against the current
    /// snapshot (on a clone — the registered view's state is untouched)
    /// and the report carries per-node actual wall times and statistics.
    pub fn explain(&self, name: &str, analyze: bool) -> Result<ExplainReport, ServiceError> {
        // Clone the plan under a brief writer lock, then run (if asked)
        // against the lock-free published snapshot: an analyze of a big
        // view must not stall the write path.
        let (mut plan, seed_sym, arity, mode) = {
            let writer = self.lock_writer()?;
            let view = writer
                .views
                .iter()
                .find(|v| v.def().name == name)
                .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))?;
            (
                view.plan().clone(),
                view.def().seed,
                view.def().rules[0].arity(),
                view.mode().label(),
            )
        };
        let mut nodes = Vec::new();
        let mut total_nanos = 0;
        if analyze {
            let snap = self.snapshot();
            let seed = snap.db.relation_or_empty(seed_sym, arity);
            let outcome = plan.execute_feedback(&snap.db, &seed)?;
            total_nanos = outcome.trace.iter().map(|t| t.nanos).sum();
            nodes = outcome.trace;
        }
        Ok(ExplainReport {
            view: name.to_owned(),
            mode,
            tree: plan.describe(),
            decision_json: plan.decision().map(|d| d.to_json()),
            decision_summary: plan.decision().map(|d| d.summary()),
            nodes,
            total_nanos,
            analyzed: analyze,
        })
    }

    /// Register a view: plan it against the current database, materialize
    /// it, and publish a new epoch.
    pub fn register_view(&self, def: ViewDef) -> Result<BatchReport, ServiceError> {
        let mut sp = linrec_obs::span("service.register");
        sp.attr("view", &def.name);
        self.write_gate()?;
        let mut writer = self.lock_writer()?;
        if writer.views.iter().any(|v| v.def().name == def.name) {
            return Err(ServiceError::DuplicateView(def.name));
        }
        // Deny-by-default static analysis: structural lints plus the
        // certificate cross-verifier, without the data-dependent passes
        // (registration-time relations legitimately start empty). Clients
        // get the typed diagnostic over the protocol instead of a late
        // fixpoint failure.
        if self
            .registration_checks
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            let report = linrec_lint::check_rules(&def.rules, None, None);
            if report.has_errors() {
                return Err(ServiceError::Lint(report));
            }
        }
        let name = def.name.clone();
        // Pin the seed relation at the rules' arity when it does not exist
        // yet, so a later insert cannot create it at a different arity
        // (apply_batch validates inserts against existing relations).
        if let (Some(rule), None) = (def.rules.first(), writer.db.relation(def.seed)) {
            let arity = rule.arity();
            writer.db.set_relation(def.seed, Relation::new(arity));
        }
        let mut view =
            MaintainedView::register_with(def, &writer.db, writer.par.clone(), &self.cost_model())?;
        let started = Instant::now();
        let (relation, stats) = view.materialize(&writer.db)?;
        let nanos = started.elapsed().as_nanos() as u64;
        let grown_by = relation.len();
        if linrec_obs::enabled() {
            crate::profile::service().maintain_ns.observe(nanos);
            sp.attr("tuples", grown_by);
        }
        // Persist the registration's decision record (the journal got it
        // from `execute_feedback` inside materialize).
        if let Some(dec) = view.plan().decision() {
            self.log_decision(&dec.to_json());
        }
        writer.epoch += 1;
        let epoch = writer.epoch;
        let info = ViewInfo {
            relation: Arc::new(relation),
            mode: "materialize",
            stats,
            maintenance_nanos: nanos,
            updated_epoch: epoch,
            rationale: view.plan().annotated_rationale(),
        };
        writer.views.push(view);
        self.publish(&writer, [(name.clone(), info)]);
        // Registrations are not WAL-logged (the log carries insert batches
        // only), so a durable service folds the new view into a checkpoint
        // right away. The registration has already committed and
        // published, so a failure is reported out-of-band.
        if let Err(e) = self.checkpoint(&writer, true) {
            self.note_fault(&e, "post-registration checkpoint");
            eprintln!(
                "warning: post-registration checkpoint failed ({e}); the \
                 view is registered and will be captured by the next \
                 successful checkpoint"
            );
        }
        Ok(BatchReport {
            epoch,
            inserted: 0,
            views: vec![ViewReport {
                name,
                mode: "materialize",
                stats,
                nanos,
                grown_by,
            }],
        })
    }

    /// Register a view whose materialized contents were recovered from a
    /// checkpoint: the plan and maintenance mode are derived exactly as in
    /// [`ViewService::register_view`], but `relation` is installed as the
    /// materialized state instead of running the fixpoint, and the epoch
    /// does **not** advance (the recovered state belongs to the persisted
    /// epoch). The caller vouches for `relation` being this view's fixpoint
    /// over the current database — `open_durable` does so by matching the
    /// checkpoint's definition fingerprint and CRC-validated contents.
    pub fn register_view_recovered(
        &self,
        def: ViewDef,
        relation: Arc<Relation>,
    ) -> Result<(), ServiceError> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        if writer.views.iter().any(|v| v.def().name == def.name) {
            return Err(ServiceError::DuplicateView(def.name));
        }
        let name = def.name.clone();
        if let (Some(rule), None) = (def.rules.first(), writer.db.relation(def.seed)) {
            let arity = rule.arity();
            writer.db.set_relation(def.seed, Relation::new(arity));
        }
        let view =
            MaintainedView::register_with(def, &writer.db, writer.par.clone(), &self.cost_model())?;
        let arity = view.def().rules[0].arity();
        if relation.arity() != arity {
            return Err(ServiceError::ArityMismatch {
                pred: Symbol::new(&name),
                expected: arity,
                got: relation.arity(),
            });
        }
        let stats = EvalStats {
            tuples: relation.len(),
            ..Default::default()
        };
        let info = ViewInfo {
            relation,
            mode: "recovered",
            stats,
            maintenance_nanos: 0,
            updated_epoch: writer.epoch,
            rationale: view.plan().annotated_rationale(),
        };
        writer.views.push(view);
        self.publish(&writer, [(name, info)]);
        Ok(())
    }

    /// Apply one insert-only batch: extend the EDB, maintain every view,
    /// WAL the batch (when durable) and publish a new epoch. Readers keep
    /// serving the previous snapshot until the publish; a batch with no
    /// genuinely new tuple publishes nothing.
    pub fn apply_batch(
        &self,
        inserts: impl IntoIterator<Item = (Symbol, Vec<Value>)>,
    ) -> Result<BatchReport, ServiceError> {
        let mut sp = linrec_obs::span("service.batch");
        let t0 = linrec_obs::enabled().then(Instant::now);
        self.write_gate()?;
        let mut writer = self.lock_writer()?;

        // Validate and stage: nothing is written until the whole batch
        // checks out (a failed batch leaves the master database intact).
        let mut staged: Vec<(Symbol, Vec<Value>)> = Vec::new();
        let mut staged_arity: FastMap<Symbol, usize> = FastMap::default();
        for (pred, tuple) in inserts {
            if pred.as_str().starts_with(DELTA_MARKER) {
                return Err(ServiceError::ReservedPredicate(pred.as_str().to_owned()));
            }
            let expected = writer
                .db
                .relation(pred)
                .map(|r| r.arity())
                .or_else(|| staged_arity.get(&pred).copied());
            if let Some(expected) = expected {
                if expected != tuple.len() {
                    return Err(ServiceError::ArityMismatch {
                        pred,
                        expected,
                        got: tuple.len(),
                    });
                }
            }
            staged_arity.insert(pred, tuple.len());
            staged.push((pred, tuple));
        }

        // Apply to a COW clone of the master database: if maintenance or
        // the WAL append fails below, the master is untouched and the
        // batch simply never happened.
        let mut db = writer.db.snapshot();
        let mut deltas: FastMap<Symbol, Relation> = FastMap::default();
        let mut logged: Vec<(Symbol, Vec<Value>)> = Vec::new();
        for (pred, tuple) in staged {
            if db.insert_tuple(pred, &tuple) {
                deltas
                    .entry(pred)
                    .or_insert_with(|| Relation::new(tuple.len()))
                    .insert(&tuple);
                logged.push((pred, tuple));
            }
        }
        let inserted = logged.len();
        if inserted == 0 {
            return Ok(BatchReport {
                epoch: writer.epoch,
                inserted: 0,
                views: Vec::new(),
            });
        }
        let deltas: FastMap<Symbol, Arc<Relation>> =
            deltas.into_iter().map(|(p, r)| (p, Arc::new(r))).collect();

        let epoch = writer.epoch + 1;
        let snapshot = self.snapshot();
        let maintained = Self::maintain_views(&mut writer, &snapshot, &db, &deltas)?;
        let mut reports = Vec::new();
        let mut updates: Vec<(String, ViewInfo)> = Vec::new();
        for (i, (outcome, nanos)) in maintained.into_iter().enumerate() {
            let view = &writer.views[i];
            let name = view.def().name.clone();
            match outcome.relation {
                Some(relation) => {
                    let old_len = snapshot
                        .view(&name)
                        .map(|v| v.relation.len())
                        .expect("registered view must be in the current snapshot");
                    let grown_by = relation.len() - old_len;
                    updates.push((
                        name.clone(),
                        ViewInfo {
                            relation: Arc::new(relation),
                            mode: outcome.mode,
                            stats: outcome.stats,
                            maintenance_nanos: nanos,
                            updated_epoch: epoch,
                            rationale: view.plan().annotated_rationale(),
                        },
                    ));
                    reports.push(ViewReport {
                        name,
                        mode: outcome.mode,
                        stats: outcome.stats,
                        nanos,
                        grown_by,
                    });
                }
                None => reports.push(ViewReport {
                    name,
                    mode: "unchanged",
                    stats: outcome.stats,
                    nanos,
                    grown_by: 0,
                }),
            }
        }

        // Durability barrier: the WAL append + fsync must succeed before
        // the batch commits to the master database, publishes, or is
        // acknowledged to the caller. Transient faults retry with backoff
        // (the WAL rolls a failed append back before the retry lands, so
        // re-appending is always safe); exhausted retries degrade the
        // service to read-only and refuse the batch — the master database
        // is untouched, so the unacked batch vanishes atomically.
        {
            let retry = self.retry_policy();
            let mut dur = self.durability.lock().expect("durability lock poisoned");
            let append = match dur.as_mut() {
                None => None,
                Some(d) => match d.store.as_mut() {
                    Some(store) => Some(retry.run(|| store.append_batch(&logged))),
                    // Degraded between the gate and here: refuse.
                    None => {
                        let (_, reason) = self.mode();
                        return Err(ServiceError::Degraded {
                            reason: reason.unwrap_or_else(|| "storage fault".to_owned()),
                        });
                    }
                },
            };
            match append {
                None | Some(Ok(_)) => {
                    if let Some(Ok(seq)) = append {
                        self.acked_seq.store(seq, Ordering::SeqCst);
                    }
                }
                Some(Err(e)) => {
                    let reason = self.degrade(&mut dur, &e, "wal append");
                    return Err(ServiceError::Degraded { reason });
                }
            }
        }

        writer.db = db;
        writer.epoch = epoch;
        self.publish(&writer, updates);
        // Fold the WAL into a new snapshot generation when the policy says
        // so. This is **after the commit point**, so a checkpoint failure
        // must not fail the acknowledged batch: it is reported out-of-band
        // and the batch stays in the WAL, which remains the source of
        // durability. The next batch (or `checkpoint_now`) retries.
        if let Err(e) = self.checkpoint(&writer, false) {
            self.note_fault(&e, "checkpoint");
            eprintln!(
                "warning: checkpoint failed ({e}); committed batches remain \
                 durable in the WAL and the next batch will retry"
            );
        }
        // The batch is committed and acked from here on; feed the drift
        // sentinel (estimate each maintained view's batch against the
        // shared model, journal the pair, trip + recalibrate on drift).
        if linrec_obs::enabled() {
            self.observe_maintenance(&writer, &deltas, &reports);
        }
        if let Some(t0) = t0 {
            let prof = crate::profile::service();
            prof.batches.inc();
            prof.batch_inserted.inc_by(inserted as u64);
            prof.batch_ns.observe(t0.elapsed().as_nanos() as u64);
            sp.attr("epoch", epoch);
            sp.attr("inserted", inserted);
        }
        Ok(BatchReport {
            epoch,
            inserted,
            views: reports,
        })
    }

    /// Per-view drift observation for one committed batch: estimate the
    /// maintenance work the shared model predicts for this delta, journal
    /// the (estimate, actual) pair, and let the sentinel decide whether
    /// the model has drifted.
    fn observe_maintenance(
        &self,
        writer: &Writer,
        deltas: &FastMap<Symbol, Arc<Relation>>,
        reports: &[ViewReport],
    ) {
        let model = self.cost_model();
        let journal = linrec_obs::journal::journal();
        for (view, report) in writer.views.iter().zip(reports) {
            if report.mode == "unchanged" {
                continue;
            }
            let estimate = deltas
                .get(&view.def().seed)
                .map(|delta| model.estimate(view.plan(), &writer.db, delta));
            let shape = view.plan().shape().label();
            journal.record(
                "maintain",
                &report.name,
                shape,
                estimate.unwrap_or(0.0),
                report.stats.derivations,
                report.nanos,
                String::new(),
            );
            let trip = self
                .sentinel
                .lock()
                .expect("sentinel lock poisoned")
                .observe(
                    &report.name,
                    estimate,
                    report.stats.derivations,
                    report.nanos,
                );
            if let Some(trip) = trip {
                self.handle_drift(&report.name, shape, &trip);
            }
        }
    }

    /// A drift trip: emit the typed `plan-drift` event (counter +
    /// flight-recorder span + stderr line with the trace id + journal and
    /// decision-log records), then — for ratio drift with auto-calibrate
    /// on — recalibrate the shared cost model from the journal's recent
    /// (estimate, actual) pairs and restart the view's drift window.
    fn handle_drift(&self, view: &str, shape: &'static str, trip: &DriftTrip) {
        let journal = linrec_obs::journal::journal();
        crate::profile::service().plan_drift.inc();
        let mut sp = linrec_obs::span("plan.drift");
        sp.attr("view", view);
        sp.attr("kind", trip.kind());
        let trace = linrec_obs::trace::current_trace()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".to_owned());
        eprintln!(
            "linrec: plan-drift on view '{view}' ({}) trace={trace}",
            trip.describe()
        );
        let drift_json = format!(
            "{{\"event\":\"plan-drift\",\"view\":\"{}\",\"kind\":\"{}\",\
             \"detail\":\"{}\",\"trace\":\"{trace}\"}}",
            linrec_obs::trace::json_escape(view),
            trip.kind(),
            linrec_obs::trace::json_escape(&trip.describe()),
        );
        journal.record("drift", view, shape, 0.0, 0, 0, drift_json.clone());
        self.log_decision(&drift_json);
        let (auto, window) = {
            let sentinel = self.sentinel.lock().expect("sentinel lock poisoned");
            let cfg = sentinel.config();
            (cfg.auto_calibrate, cfg.calibration_window)
        };
        if !auto || !matches!(trip, DriftTrip::Ratio { .. }) {
            return;
        }
        let since = self
            .sentinel
            .lock()
            .expect("sentinel lock poisoned")
            .last_calibrate_seq(view);
        let pairs = journal.recent_pairs(Some(view), window, since);
        if pairs.is_empty() {
            return;
        }
        let scale = {
            let mut model = self.cost_model.lock().expect("cost model lock poisoned");
            model.calibrate(&pairs);
            model.fanout_scale
        };
        let calib_json = format!(
            "{{\"event\":\"calibrate\",\"view\":\"{}\",\"pairs\":{},\"fanout_scale\":{scale}}}",
            linrec_obs::trace::json_escape(view),
            pairs.len()
        );
        let seq = journal.record("calibrate", view, shape, 0.0, 0, 0, calib_json.clone());
        self.log_decision(&calib_json);
        self.sentinel
            .lock()
            .expect("sentinel lock poisoned")
            .note_calibrated(view, seq);
        eprintln!(
            "linrec: recalibrated cost model from {} journal pairs for view '{view}' \
             (fanout_scale → {scale:.4}) trace={trace}",
            pairs.len()
        );
    }

    /// Maintain every registered view against the post-batch database,
    /// returning one `(outcome, nanos)` per view in registration order.
    /// One view per worker when the knob is parallel and several views are
    /// registered; outcomes are identical to the sequential loop either
    /// way (each view's maintenance is independent: same frozen pre-batch
    /// relations, same deltas).
    fn maintain_views(
        writer: &mut Writer,
        snapshot: &Snapshot,
        db: &Database,
        deltas: &FastMap<Symbol, Arc<Relation>>,
    ) -> Result<Vec<(MaintenanceOutcome, u64)>, ServiceError> {
        let old_of = |name: &str| {
            snapshot
                .view(name)
                .map(|v| Arc::clone(&v.relation))
                .expect("registered view must be in the current snapshot")
        };
        if !writer.par.is_parallel() || writer.views.len() < 2 {
            let mut out = Vec::with_capacity(writer.views.len());
            for view in writer.views.iter_mut() {
                let old = old_of(&view.def().name);
                let (outcome, nanos) = maintain_one(view, &old, db, deltas);
                out.push((outcome?, nanos));
            }
            return Ok(out);
        }

        let pool = Arc::clone(
            writer
                .view_pool
                .get_or_insert_with(|| Arc::new(WorkerPool::new(writer.par.threads()))),
        );
        let ctx = linrec_obs::trace::context();
        let receivers: Vec<_> = std::mem::take(&mut writer.views)
            .into_iter()
            .map(|mut view| {
                let old = old_of(&view.def().name);
                let db = db.snapshot();
                let deltas = deltas.clone();
                pool.submit(move || {
                    let _g = ctx.enter();
                    let (outcome, nanos) = maintain_one(&mut view, &old, &db, &deltas);
                    (view, outcome, nanos)
                })
            })
            .collect();
        // Reassemble the views in dispatch order before surfacing any
        // error, so a failed batch cannot drop a registered view.
        let mut out = Vec::with_capacity(receivers.len());
        let mut first_err: Option<StrategyError> = None;
        for rx in receivers {
            let (view, outcome, nanos) = rx.recv().expect("view maintenance worker panicked");
            writer.views.push(view);
            match outcome {
                Ok(o) => out.push((o, nanos)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e.into()),
            None => Ok(out),
        }
    }

    /// Fold the current snapshot into a new store generation, under the
    /// writer lock the caller holds (so the capture is batch-consistent;
    /// readers are unaffected). Without `force` it only runs when the
    /// checkpoint policy says the WAL has grown enough. Returns whether a
    /// checkpoint ran: `Ok(false)` on a non-durable (or currently
    /// degraded) service.
    fn checkpoint(&self, writer: &Writer, force: bool) -> Result<bool, StorageError> {
        let retry = self.retry_policy();
        let mut dur = self.durability.lock().expect("durability lock poisoned");
        let Some(d) = dur.as_mut() else {
            return Ok(false);
        };
        let Some(store) = d.store.as_mut() else {
            return Ok(false);
        };
        let (batches, bytes) = store.wal_pressure();
        if !force && !d.policy.should_checkpoint(batches, bytes) {
            return Ok(false);
        }
        let data = self.snapshot_data(writer);
        retry.run(|| store.checkpoint(&data))?;
        Ok(true)
    }

    /// Build and publish a snapshot from the writer's state, carrying the
    /// previous snapshot's view states forward except for `updates`.
    fn publish(&self, writer: &Writer, updates: impl IntoIterator<Item = (String, ViewInfo)>) {
        let mut sp = linrec_obs::span("service.publish");
        sp.attr("epoch", writer.epoch);
        let mut views = self
            .current
            .read()
            .expect("snapshot lock poisoned")
            .views
            .clone();
        for (name, info) in updates {
            views.insert(name, info);
        }
        if linrec_obs::enabled() {
            let prof = crate::profile::service();
            prof.epoch.set(writer.epoch as i64);
            prof.views.set(views.len() as i64);
        }
        let snapshot = Arc::new(Snapshot {
            epoch: writer.epoch,
            db: writer.db.snapshot(),
            views,
        });
        *self.current.write().expect("snapshot lock poisoned") = snapshot;
    }
}

/// Maintain one view under one batch inside its `view.maintain` span,
/// observing the wall time into the service's maintain histogram. Returns
/// the outcome with that wall time (ns).
fn maintain_one(
    view: &mut MaintainedView,
    old: &Arc<Relation>,
    db: &Database,
    deltas: &FastMap<Symbol, Arc<Relation>>,
) -> (Result<MaintenanceOutcome, StrategyError>, u64) {
    let mut sp = linrec_obs::span("view.maintain");
    sp.attr("view", &view.def().name);
    let started = Instant::now();
    let outcome = view.maintain(old, db, deltas);
    let nanos = started.elapsed().as_nanos() as u64;
    if linrec_obs::enabled() {
        crate::profile::service().maintain_ns.observe(nanos);
        if let Ok(o) = &outcome {
            sp.attr("mode", o.mode);
        }
    }
    (outcome, nanos)
}

/// Start a background recovery probe: every `interval`, a degraded
/// service gets one [`ViewService::try_restore`] attempt, so the service
/// heals as soon as the fault clears even with zero write traffic. The
/// thread holds only a weak reference and exits when the service is
/// dropped; probe failures are recorded in [`ViewService::health`] and
/// otherwise ignored (the next tick retries).
pub fn spawn_degraded_probe(
    service: &Arc<ViewService>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    let weak = Arc::downgrade(service);
    std::thread::Builder::new()
        .name("linrec-degraded-probe".to_owned())
        .spawn(move || loop {
            std::thread::sleep(interval);
            let Some(svc) = weak.upgrade() else { break };
            if svc.mode().0 == ServiceMode::Degraded {
                let _ = svc.try_restore();
            }
        })
        .expect("spawn degraded-probe thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use linrec_datalog::parse_linear_rule;

    fn tc_def(name: &str) -> ViewDef {
        ViewDef {
            name: name.into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
            seed: Symbol::new("e"),
        }
    }

    fn pair(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    #[test]
    fn epochs_advance_and_old_snapshots_stay_immutable() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        let service = ViewService::new(db);
        assert_eq!(service.snapshot().epoch, 0);
        service.register_view(tc_def("tc")).unwrap();
        let epoch1 = service.snapshot();
        assert_eq!(epoch1.epoch, 1);
        assert_eq!(epoch1.count("tc").unwrap(), 3);

        let report = service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.inserted, 1);
        assert_eq!(report.views[0].mode, "incremental");
        assert_eq!(report.views[0].grown_by, 3); // (3,4),(2,4),(1,4)

        // The old snapshot still answers from its epoch.
        assert_eq!(epoch1.epoch, 1);
        assert_eq!(epoch1.count("tc").unwrap(), 3);
        assert!(!epoch1.contains("tc", &pair(1, 4)).unwrap());
        let epoch2 = service.snapshot();
        assert_eq!(epoch2.count("tc").unwrap(), 6);
        assert!(epoch2.contains("tc", &pair(1, 4)).unwrap());
    }

    #[test]
    fn duplicate_only_batches_publish_nothing() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        let before = service.snapshot();
        let report = service
            .apply_batch([(Symbol::new("e"), pair(1, 2))])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.inserted, 0);
        assert!(report.views.is_empty());
        assert!(Arc::ptr_eq(&before, &service.snapshot()));
    }

    #[test]
    fn batches_are_validated_atomically() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        // Second insert has the wrong arity: the whole batch must fail
        // without the first insert landing.
        let err = service
            .apply_batch([
                (Symbol::new("e"), pair(2, 3)),
                (Symbol::new("e"), vec![Value::Int(9)]),
            ])
            .unwrap_err();
        assert!(matches!(err, ServiceError::ArityMismatch { .. }));
        assert_eq!(service.snapshot().count("tc").unwrap(), 1);
        assert_eq!(service.snapshot().epoch, 1);
        // Reserved predicates are rejected.
        let err = service
            .apply_batch([(Symbol::new("Δ·e"), pair(0, 0))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::ReservedPredicate(_)));
    }

    #[test]
    fn missing_seed_is_pinned_at_rule_arity_so_bad_inserts_cannot_poison_the_writer() {
        // Regression: registering a view whose seed predicate does not
        // exist yet used to leave the arity unpinned, so a wrong-arity
        // insert could create the seed relation at the wrong arity and
        // panic maintenance with the writer mutex held — permanently
        // poisoning the write path.
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let service = ViewService::new(db);
        service
            .register_view(ViewDef {
                name: "tc".into(),
                rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
                seed: Symbol::new("s0"), // not in the database
            })
            .unwrap();
        // The wrong-arity insert is rejected cleanly…
        let err = service
            .apply_batch([(Symbol::new("s0"), vec![Value::Int(7)])])
            .unwrap_err();
        assert!(matches!(err, ServiceError::ArityMismatch { .. }));
        // …and the service keeps serving and writing afterwards.
        let report = service
            .apply_batch([(Symbol::new("s0"), pair(1, 1))])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(service.snapshot().count("tc").unwrap(), 2); // (1,1),(1,2)
    }

    #[test]
    fn multiple_views_are_maintained_under_one_batch() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        db.set_relation("f", Relation::from_pairs([(7, 8)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        service
            .register_view(ViewDef {
                name: "ftc".into(),
                rules: vec![parse_linear_rule("q(x,y) :- q(x,z), f(z,y).").unwrap()],
                seed: Symbol::new("f"),
            })
            .unwrap();
        assert!(matches!(
            service.register_view(tc_def("tc")).unwrap_err(),
            ServiceError::DuplicateView(_)
        ));
        let report = service
            .apply_batch([
                (Symbol::new("e"), pair(3, 4)),
                (Symbol::new("f"), pair(8, 9)),
            ])
            .unwrap();
        assert_eq!(report.views.len(), 2);
        assert!(report.views.iter().all(|v| v.mode == "incremental"));
        let snap = service.snapshot();
        assert_eq!(snap.count("tc").unwrap(), 6);
        assert_eq!(snap.count("ftc").unwrap(), 3);
        assert_eq!(snap.view_names(), vec!["ftc".to_owned(), "tc".to_owned()]);
        // A batch touching only one predicate leaves the other view alone.
        let report = service
            .apply_batch([(Symbol::new("f"), pair(9, 10))])
            .unwrap();
        let tc = report.views.iter().find(|v| v.name == "tc").unwrap();
        assert_eq!(tc.mode, "unchanged");
        let snap2 = service.snapshot();
        assert!(Arc::ptr_eq(
            &snap.view("tc").unwrap().relation,
            &snap2.view("tc").unwrap().relation
        ));
        assert_eq!(snap2.count("ftc").unwrap(), 6);
    }

    #[test]
    fn parallel_service_serves_the_same_views() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..30).map(|i| (i, i + 1))));
        let par = Parallelism::new(2).with_min_delta(1);
        let service = ViewService::with_parallelism(db.clone(), par);
        let sequential = ViewService::new(db);
        for s in [&service, &sequential] {
            s.register_view(tc_def("tc")).unwrap();
        }
        let batch = || {
            (0..5)
                .map(|i| (Symbol::new("e"), pair(31 + i, 32 + i)))
                .collect::<Vec<_>>()
        };
        let a = service.apply_batch(batch()).unwrap();
        let b = sequential.apply_batch(batch()).unwrap();
        assert_eq!(a.views[0].stats, b.views[0].stats);
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            sequential.snapshot().view("tc").unwrap().relation.sorted()
        );
    }

    #[test]
    fn multi_view_parallel_maintenance_matches_sequential() {
        // Several views, one batch: the parallel service dispatches one
        // view per worker; reports, stats, modes, and snapshot contents
        // must be bit-identical to the sequential service.
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..20).map(|i| (i, i + 1))));
        db.set_relation(
            "f",
            Relation::from_pairs((0..20).map(|i| (i * 2, i * 2 + 2))),
        );
        db.set_relation("g", Relation::from_pairs([(0, 5), (5, 10)]));
        let par = Parallelism::new(3).with_min_delta(1);
        let parallel = ViewService::with_parallelism(db.clone(), par);
        let sequential = ViewService::new(db);
        for s in [&parallel, &sequential] {
            s.register_view(tc_def("tc")).unwrap();
            s.register_view(ViewDef {
                name: "ftc".into(),
                rules: vec![parse_linear_rule("q(x,y) :- q(x,z), f(z,y).").unwrap()],
                seed: Symbol::new("f"),
            })
            .unwrap();
            s.register_view(ViewDef {
                name: "gtc".into(),
                rules: vec![parse_linear_rule("r(x,y) :- r(x,z), g(z,y).").unwrap()],
                seed: Symbol::new("g"),
            })
            .unwrap();
        }
        for batch in [
            vec![
                (Symbol::new("e"), pair(20, 21)),
                (Symbol::new("f"), pair(40, 42)),
                (Symbol::new("g"), pair(10, 15)),
            ],
            vec![(Symbol::new("e"), pair(21, 22))], // touches one view only
        ] {
            let a = parallel.apply_batch(batch.clone()).unwrap();
            let b = sequential.apply_batch(batch).unwrap();
            assert_eq!(a.inserted, b.inserted);
            assert_eq!(a.views.len(), b.views.len());
            for (va, vb) in a.views.iter().zip(&b.views) {
                assert_eq!(va.name, vb.name, "view order must be preserved");
                assert_eq!(va.mode, vb.mode);
                assert_eq!(va.stats, vb.stats);
                assert_eq!(va.grown_by, vb.grown_by);
            }
            let sa = parallel.snapshot();
            let sb = sequential.snapshot();
            for name in ["tc", "ftc", "gtc"] {
                assert_eq!(
                    sa.view(name).unwrap().relation.sorted(),
                    sb.view(name).unwrap().relation.sorted(),
                    "view {name} diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_maintenance_error_keeps_every_view_registered() {
        // A failing batch (wrong arity caught late is impossible — use a
        // reserved-predicate error instead, which fails before dispatch)
        // and a successful next batch: the fan-out path must never drop a
        // view from the writer.
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        db.set_relation("f", Relation::from_pairs([(7, 8)]));
        let par = Parallelism::new(2).with_min_delta(1);
        let service = ViewService::with_parallelism(db, par);
        service.register_view(tc_def("tc")).unwrap();
        service
            .register_view(ViewDef {
                name: "ftc".into(),
                rules: vec![parse_linear_rule("q(x,y) :- q(x,z), f(z,y).").unwrap()],
                seed: Symbol::new("f"),
            })
            .unwrap();
        assert!(service
            .apply_batch([(Symbol::new("Δ·e"), pair(0, 0))])
            .is_err());
        let report = service
            .apply_batch([
                (Symbol::new("e"), pair(2, 3)),
                (Symbol::new("f"), pair(8, 9)),
            ])
            .unwrap();
        assert_eq!(report.views.len(), 2);
        assert_eq!(service.snapshot().count("tc").unwrap(), 3);
        assert_eq!(service.snapshot().count("ftc").unwrap(), 3);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-svc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..n).map(|i| (i, i + 1))));
        db
    }

    #[test]
    fn wal_fault_degrades_to_read_only_and_restore_recovers() {
        use linrec_storage::{FaultOp, FaultPlan, FaultVfs};
        let dir = tmpdir("degrade");
        let fault = FaultVfs::new(FaultPlan::none());
        let vfs: Arc<dyn Vfs> = fault.clone();
        let (service, _) = crate::persist::open_durable_with_vfs(
            &dir,
            vfs,
            chain_db(3),
            vec![tc_def("tc")],
            Parallelism::sequential(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        service.set_retry_policy(RetryPolicy::none());
        service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        let epoch_before = service.snapshot().epoch;
        let count_before = service.snapshot().count("tc").unwrap();

        // The disk dies: every write, fsync, and read faults from here on.
        fault.set_plan(FaultPlan::seeded_ops(
            7,
            1000,
            vec![FaultOp::Write, FaultOp::Sync, FaultOp::Read],
        ));
        let err = service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Degraded { .. }), "{err}");
        assert_eq!(err.code(), "degraded");

        // The unacked batch vanished atomically; reads keep serving the
        // last acked epoch; the mode is typed and carries the fault.
        assert_eq!(service.snapshot().epoch, epoch_before);
        assert_eq!(service.snapshot().count("tc").unwrap(), count_before);
        assert!(!service.snapshot().contains("tc", &pair(4, 5)).unwrap());
        let health = service.health();
        assert_eq!(health.mode, ServiceMode::Degraded);
        assert_eq!(health.degradations, 1);
        assert!(health.reason.as_deref().unwrap().contains("wal append"));
        // Further writes answer degraded (the inline probe runs — reads
        // are faulted too, so it fails and the mode sticks).
        let err = service
            .apply_batch([(Symbol::new("e"), pair(5, 6))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Degraded { .. }), "{err}");
        assert_eq!(service.mode().0, ServiceMode::Degraded);

        // The operator fixes the disk: the probe restores read-write and
        // writes flow again.
        fault.clear();
        assert!(service.try_restore().unwrap());
        assert_eq!(service.mode().0, ServiceMode::ReadWrite);
        service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap();
        assert!(service.snapshot().contains("tc", &pair(0, 5)).unwrap());
        let want = service.snapshot().view("tc").unwrap().relation.sorted();
        drop(service);

        // Everything acked survived: a cold start (production VFS) agrees.
        let (service, _) = crate::persist::open_durable(
            &dir,
            Database::new(),
            vec![tc_def("tc")],
            Parallelism::sequential(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            want
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_keeps_the_service_read_write() {
        use linrec_storage::{FaultKind, FaultOp, FaultPlan, FaultVfs};
        let dir = tmpdir("ckpt-fault");
        let fault = FaultVfs::new(FaultPlan::none());
        let vfs: Arc<dyn Vfs> = fault.clone();
        let policy = CheckpointPolicy {
            max_wal_batches: 1,
            max_wal_bytes: u64::MAX,
        };
        let (service, _) = crate::persist::open_durable_with_vfs(
            &dir,
            vfs,
            chain_db(3),
            vec![tc_def("tc")],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        // The next checkpoint's snapshot publication (rename) fails:
        // post-commit, so the batch stays acked and the service stays
        // read-write — the WAL remains the durability source. (Retries
        // off: the default policy would paper over a single lost rename,
        // which is exactly what it is for.)
        service.set_retry_policy(RetryPolicy::none());
        let next_rename = fault.op_count(FaultOp::Rename) + 1;
        fault.set_plan(FaultPlan::none().fail_nth(
            FaultOp::Rename,
            next_rename,
            FaultKind::DropRename,
        ));
        let report = service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        assert_eq!(report.inserted, 1);
        let health = service.health();
        assert_eq!(health.mode, ServiceMode::ReadWrite);
        assert!(
            health.last_fault.as_deref().unwrap().contains("checkpoint"),
            "{:?}",
            health.last_fault
        );
        // The next batch's checkpoint succeeds and rotates the generation.
        let g = service.store_generation().unwrap();
        service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap();
        assert!(service.store_generation().unwrap() > g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contended_writers_shed_busy_and_time_out() {
        let service = Arc::new(ViewService::new(chain_db(2)));
        service.register_view(tc_def("tc")).unwrap();
        service.set_limits(ServiceLimits {
            max_queue: 1,
            request_timeout: Some(Duration::from_millis(200)),
            ..Default::default()
        });
        // Occupy the writer lock directly (same-module test privilege).
        let guard = service.writer.lock().unwrap();
        // First contended writer takes the one queue slot and will time
        // out; the second is shed immediately with `busy`.
        let svc = Arc::clone(&service);
        let queued = std::thread::spawn(move || {
            svc.apply_batch([(Symbol::new("e"), pair(2, 3))])
                .unwrap_err()
        });
        while service.waiting_writers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let shed = service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap_err();
        assert!(matches!(shed, ServiceError::Busy { .. }), "{shed}");
        assert_eq!(shed.code(), "busy");
        let timed_out = queued.join().unwrap();
        assert!(
            matches!(timed_out, ServiceError::Timeout { .. }),
            "{timed_out}"
        );
        drop(guard);
        // The lock is free again: writes flow.
        service
            .apply_batch([(Symbol::new("e"), pair(2, 3))])
            .unwrap();
        assert_eq!(service.waiting_writers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn select_filters_and_caps() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        let snap = service.snapshot();
        let all = snap.select("tc", None, 100).unwrap();
        assert_eq!(all.len(), 6);
        let from1 = snap.select("tc", Some(&Selection::eq(0, 1)), 100).unwrap();
        assert_eq!(from1.len(), 3);
        assert_eq!(snap.select("tc", None, 2).unwrap().len(), 2);
        assert!(snap.select("nope", None, 1).is_err());
    }
}
