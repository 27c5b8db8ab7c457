//! The serving loop: SQL in, cached category tree out.

use crate::cache::{Answer, AnswerCache};
use crate::fingerprint::fingerprint;
use crate::speculate::{SpecOutcome, SpeculateConfig, SpeculateReport};
use qcat_core::{render_tree, CategorizeConfig, Categorizer, CategoryTree, DegradeReason};
use qcat_data::{Catalog, DataError, IngestTable, Relation, Value};
use qcat_exec::{execute, Donor, ExecError, ExecOptions};
use qcat_fault::Budget;
use qcat_pool::ThreadPool;
use qcat_sql::{parse_select, NormalizedQuery};
use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// The query references a table never passed to
    /// [`Server::register_table`].
    UnregisteredTable(String),
    /// Parse, normalize, or storage failure from the layers below.
    Exec(ExecError),
    /// An injected fault fired at a serve-layer fault point
    /// (`QCAT_FAULT`; chaos testing only).
    Fault(qcat_fault::Fault),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnregisteredTable(t) => {
                write!(f, "table '{t}' is not registered with the server")
            }
            ServeError::Exec(e) => write!(f, "{e}"),
            ServeError::Fault(e) => write!(f, "serve failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<qcat_sql::ParseError> for ServeError {
    fn from(e: qcat_sql::ParseError) -> Self {
        ServeError::Exec(e.into())
    }
}

impl From<qcat_sql::NormalizeError> for ServeError {
    fn from(e: qcat_sql::NormalizeError) -> Self {
        ServeError::Exec(e.into())
    }
}

/// Tunables for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Byte budget of the answer cache: each fingerprint is charged
    /// once, its rows' [`qcat_exec::ResultSet::heap_bytes`] or its
    /// tree's [`CategoryTree::heap_bytes`] plus the rendering length
    /// (`0` disables caching).
    pub cache_bytes: usize,
    /// Categorization parameters, applied to every served query.
    pub categorize: CategorizeConfig,
    /// Depth limit for the cached ASCII rendering
    /// (`usize::MAX` = full tree).
    pub render_depth: usize,
    /// Per-query resource budget applied to every cold fill (execute +
    /// categorize). [`Budget::UNLIMITED`] (the default) disables
    /// governance entirely: no gas is installed and trees are
    /// byte-identical to an unbudgeted build.
    pub budget: Budget,
    /// Admission control: at most this many cold fills run at once;
    /// requests beyond it are shed with [`ServeOutcome::Shed`]
    /// (cache hits always pass). `usize::MAX` (the default) disables
    /// shedding.
    pub max_in_flight: usize,
    /// Slow-query threshold in nanoseconds: any [`Server::serve`] call
    /// lasting at least this long lands in the slow-query log (and,
    /// when tracing, is marked for a flight-recorder dump).
    /// `u64::MAX` (the default) records only anomalous outcomes.
    pub slow_query_ns: u64,
    /// How many [`SlowQuery`] entries the slow-query log retains
    /// (oldest evicted).
    pub slow_log_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_bytes: 64 << 20,
            categorize: CategorizeConfig::default(),
            render_depth: usize::MAX,
            budget: Budget::UNLIMITED,
            max_in_flight: usize::MAX,
            slow_query_ns: u64::MAX,
            slow_log_capacity: 32,
        }
    }
}

/// One slow-query log entry: a served request that was shed, degraded,
/// errored, or ran past [`ServerConfig::slow_query_ns`].
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The SQL text as submitted.
    pub sql: String,
    /// The trace id of the request (0 when tracing was disabled);
    /// links to the recorder's flight dump of the same id.
    pub trace: u64,
    /// End-to-end serve duration in nanoseconds.
    pub dur_ns: u64,
    /// Why the entry exists: `shed`, `degraded:<reason>`, `error`, or
    /// `slow`.
    pub outcome: String,
    /// Per-phase breakdown from the flight-recorder dump: total
    /// nanoseconds per span name, descending. Empty when tracing was
    /// disabled or the dump already left the ring.
    pub phases: Vec<(String, u64)>,
}

/// How a [`Served`] answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Executed and categorized from scratch.
    Cold,
    /// Row ids came from the answer cache (rows, or a tree built at an
    /// older stats epoch); the tree was recomputed.
    ResultCacheHit,
    /// Row ids were derived from a cached **superset** answer whose
    /// query provably subsumes this one: the donor's rows were
    /// post-filtered with the residual conjuncts instead of executing
    /// from scratch (see `qcat_sql::subsumes`).
    ContainmentHit,
    /// The fully rendered tree came straight from the answer cache.
    TreeCacheHit,
    /// A concurrent cold miss of the same fingerprint was already
    /// computing; this request waited and shares its published tree.
    Coalesced,
    /// Admission control refused the fill: too many cold fills were
    /// already in flight. The answer is a root-only degraded tree.
    Shed,
}

/// A served answer: the category tree plus its rendering.
#[derive(Debug, Clone)]
pub struct Served {
    /// The categorization of the query's result set.
    pub tree: Arc<CategoryTree>,
    /// ASCII outline of `tree`, rendered once and shared.
    pub rendered: Arc<String>,
    /// `|Result(Q)|` — number of matching rows.
    pub rows: usize,
    /// Which cache (if any) answered.
    pub outcome: ServeOutcome,
}

impl Served {
    /// A cached tree and its rendering, served as `outcome`.
    fn cached((tree, rendered): (Arc<CategoryTree>, Arc<String>), outcome: ServeOutcome) -> Self {
        let rows = tree.tuples(qcat_core::NodeId::ROOT).len();
        Served {
            tree,
            rendered,
            rows,
            outcome,
        }
    }
}

/// What one [`Server::append_rows`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The table's ingest generation after the commit.
    pub generation: u64,
    /// Rows appended by the batch.
    pub added: usize,
    /// Cached entries evicted because their predicates may intersect
    /// the batch.
    pub evicted: usize,
    /// Tracked cached entries proven disjoint from the batch and kept
    /// alive.
    pub kept: usize,
}

/// Everything the server knows about one registered table.
struct TableState {
    /// The workload batches the server was given, in order: the log
    /// passed to [`Server::register_table`], then one batch per
    /// [`Server::log_queries`]. Shared, never copied — speculation
    /// ranks over their concatenation.
    log: Vec<Arc<WorkloadLog>>,
    stats: Arc<WorkloadStatistics>,
    /// The mutable-tail ingest handle: appends go through it and
    /// queries pin a snapshot from it, so a commit racing a query
    /// cannot change what the query sees.
    ingest: Arc<IngestTable>,
    /// Bumped whenever `stats` absorbs new workload queries; guards
    /// cached *trees*, which depend on the statistics. Rows do not,
    /// and appends evict answers surgically instead of bumping it.
    stats_epoch: u64,
}

/// Where one single-flight fill stands.
enum FillState {
    /// The leader is computing.
    Filling,
    /// The leader finished and published a cacheable tree.
    Done,
    /// The leader errored, degraded, or was torn down mid-fill;
    /// followers must retry (the next one becomes leader).
    Failed,
}

/// One fingerprint's single-flight rendezvous point.
struct FillSlot {
    state: Mutex<FillState>,
    cv: Condvar,
}

/// Longest a follower waits on a leader before giving up and retrying
/// as leader itself. A wedged leader can therefore never hang its
/// followers — at worst the fill is recomputed.
const FILL_WAIT: Duration = Duration::from_secs(5);

/// What a request gets to do about a cold miss.
enum FillRole<'a> {
    /// First arrival under the admission cap: compute the fill.
    Lead(AdmissionGuard<'a>, Arc<FillSlot>),
    /// Same fingerprint already filling: wait for its tree.
    Follow(Arc<FillSlot>),
    /// Admission cap reached: refuse with a degraded answer.
    Shed,
}

/// Everything a fill carries from the moment its snapshot was pinned:
/// the pinned relation + generation, and the statistics snapshot with
/// the stats epoch read atomically with it.
#[derive(Clone, Copy)]
struct FillCtx<'a> {
    relation: &'a Relation,
    stats: &'a WorkloadStatistics,
    ingest: &'a IngestTable,
    generation: u64,
    stats_epoch: u64,
}

/// Holds one admission slot; releases it on drop (including unwinds).
struct AdmissionGuard<'a>(&'a AtomicUsize);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Leader-side cleanup: whatever path the fill exits through —
/// success, structured error, or panic — the slot is removed from the
/// map and followers are woken. Anything but an explicit
/// [`FillGuard::publish`] resolves to `Failed`, so followers retry
/// rather than trusting a fill that produced nothing cacheable.
struct FillGuard<'a> {
    server: &'a Server,
    key: &'a str,
    slot: &'a Arc<FillSlot>,
    resolved: bool,
}

impl FillGuard<'_> {
    /// Mark the fill successful (a tree was published to the cache).
    fn publish(&mut self) {
        self.resolve(FillState::Done);
    }

    fn resolve(&mut self, state: FillState) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        // Remove the slot before flipping its state: a new arrival
        // either finds no slot (and leads a fresh fill) or still holds
        // this one and observes a final state — never a stale
        // `Filling` with no live leader.
        self.server.lock_fills().remove(self.key);
        *lock_recover(&self.slot.state) = state;
        self.slot.cv.notify_all();
    }
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        self.resolve(FillState::Failed);
    }
}

/// The server's one poison-recovery lock helper. Rule L7 (clippy's
/// `disallowed_methods` on `Mutex::lock`, see docs/LINTS.md) admits
/// no other lock call: the guarded state is only mutated while
/// structurally valid, so a panicking peer cannot leave it
/// half-updated.
#[allow(
    clippy::disallowed_methods,
    reason = "L7: the server's one poison-recovering lock helper"
)]
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A query-to-category-tree server.
///
/// Owns a [`Catalog`] of indexed relations plus per-table workload
/// statistics, and serves `SQL → CategoryTree` with one byte-budgeted
/// LRU answer cache in front of the pipeline. Each fingerprint holds
/// its answer once: as rows right after execution, then as the
/// finished tree, whose root slice is the same rows. A tree skips
/// everything; rows skip execution.
///
/// The cache keys on the *normalized* query, so literal spellings,
/// conjunct order, and case differences all share one entry. Logging
/// new workload queries ([`Server::log_queries`]) absorbs them into the
/// statistics and bumps the table's stats epoch: the table's cached
/// trees stop being servable (trees depend on the statistics) but keep
/// serving as rows, because row ids do not depend on the workload.
/// Appends ([`Server::append_rows`]) evict exactly the answers whose
/// predicates may intersect the batch.
pub struct Server {
    catalog: Catalog,
    config: ServerConfig,
    tables: Mutex<HashMap<String, TableState>>,
    caches: Mutex<AnswerCache>,
    /// Single-flight slots for in-progress fills, by fingerprint.
    fills: Mutex<HashMap<String, Arc<FillSlot>>>,
    /// Cold fills currently computing (admission control).
    in_flight: AtomicUsize,
    /// Bounded ring of anomalous/slow serves (see [`SlowQuery`]).
    slow_log: Mutex<VecDeque<SlowQuery>>,
}

impl Server {
    /// Empty server.
    pub fn new(config: ServerConfig) -> Self {
        Server {
            catalog: Catalog::new(),
            config,
            tables: Mutex::new(HashMap::new()),
            caches: Mutex::new(AnswerCache::new(config.cache_bytes)),
            fills: Mutex::new(HashMap::new()),
            in_flight: AtomicUsize::new(0),
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// The underlying catalog (read-only use; register tables through
    /// [`Server::register_table`] so they get statistics and indexes).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutex access with poison recovery: state is only ever mutated
    /// while structurally valid, so a panicking peer cannot leave a
    /// half-updated map behind.
    fn lock_tables(&self) -> MutexGuard<'_, HashMap<String, TableState>> {
        lock_recover(&self.tables)
    }

    fn lock_caches(&self) -> MutexGuard<'_, AnswerCache> {
        lock_recover(&self.caches)
    }

    fn lock_fills(&self) -> MutexGuard<'_, HashMap<String, Arc<FillSlot>>> {
        lock_recover(&self.fills)
    }

    /// Try to take an admission slot for one cold fill.
    fn try_admit(&self) -> Option<AdmissionGuard<'_>> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.config.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            None
        } else {
            Some(AdmissionGuard(&self.in_flight))
        }
    }

    /// Register `relation` under `name` with its workload history.
    ///
    /// Builds the relation's secondary indexes (the serving path is
    /// exactly the repeated-selective-query workload indexes exist
    /// for) and the workload statistics that drive categorization.
    pub fn register_table(
        &self,
        name: &str,
        relation: Relation,
        log: WorkloadLog,
        prep: PreprocessConfig,
    ) -> Result<(), DataError> {
        let _span = qcat_obs::span!("serve.register", rows = relation.len());
        // Chaos hook for slow index builds (delay/alloc kinds);
        // error-kind faults have no structured channel here and are
        // deliberately ignored.
        let _ = qcat_fault::point("serve.index.build");
        relation.build_indexes();
        let stats = Arc::new(WorkloadStatistics::build(&log, relation.schema(), &prep));
        self.catalog.register(name, relation.clone())?;
        self.lock_tables().insert(
            name.to_ascii_lowercase(),
            TableState {
                log: vec![Arc::new(log)],
                stats,
                ingest: Arc::new(IngestTable::new(relation)),
                stats_epoch: 0,
            },
        );
        Ok(())
    }

    /// Append freshly observed workload queries for `table`,
    /// incrementally absorb them into its statistics, and bump the
    /// **stats** epoch. Cached trees (which depend on the statistics)
    /// go stale; they keep serving as rows and containment donors —
    /// row ids do not depend on the workload.
    ///
    /// The absorb is all-or-nothing: if the `workload.stats.delta`
    /// fault site fires, statistics, log, and epoch are untouched.
    /// The attribute-correlation index is the one component absorb
    /// does not extend; new correlation pairs take effect at the next
    /// full rebuild ([`Server::register_table`]).
    pub fn log_queries(&self, table: &str, queries: Vec<NormalizedQuery>) -> Result<(), DataError> {
        let key = table.to_ascii_lowercase();
        let mut tables = self.lock_tables();
        let Some(state) = tables.get_mut(&key) else {
            return Err(DataError::UnknownTable(table.to_string()));
        };
        // Copy-on-write: in-flight serves hold `Arc` clones of the old
        // statistics and keep categorizing against them (snapshot
        // semantics); the fault check inside `absorb` runs before any
        // mutation, so a refusal leaves the fresh copy identical.
        let stats = Arc::make_mut(&mut state.stats);
        stats
            .absorb(&queries)
            .map_err(|f| DataError::Fault { site: f.site })?;
        state.log.push(Arc::new(WorkloadLog::from_normalized(queries)));
        state.stats_epoch += 1;
        qcat_obs::event!(
            "serve.stats.absorbed",
            table = key.as_str(),
            epoch = state.stats_epoch,
        );
        Ok(())
    }

    /// Current statistics epoch for `table` (0 until the first
    /// [`Server::log_queries`]).
    pub fn epoch(&self, table: &str) -> Option<u64> {
        self.lock_tables()
            .get(&table.to_ascii_lowercase())
            .map(|s| s.stats_epoch)
    }

    /// Current ingest generation for `table` (0 until the first
    /// [`Server::append_rows`]).
    pub fn generation(&self, table: &str) -> Option<u64> {
        self.lock_tables()
            .get(&table.to_ascii_lowercase())
            .map(|s| s.ingest.generation())
    }

    /// Append a batch of rows to `table` with all-or-nothing
    /// visibility, then invalidate exactly the cached answers the
    /// batch can affect.
    ///
    /// The commit itself is the storage layer's shadow-paging append
    /// ([`qcat_data::IngestTable::append_rows`]): concurrent queries
    /// keep reading their pinned snapshots, and a mid-batch failure
    /// (validation, or the `data.append` / `data.index.delta` fault
    /// sites) leaves the table byte-identical to pre-batch, and the
    /// caches are only touched after a successful commit.
    ///
    /// Only entries whose predicates may intersect the batch's
    /// per-column min/max/code-presence summary are evicted; disjoint
    /// entries keep serving.
    ///
    /// The commit and the cache sweep run under the cache lock, so no
    /// reader can pin the new generation and still hit a stale entry:
    /// a reader that observes generation `g+1` cannot reach the caches
    /// until the sweep for `g+1` has finished.
    pub fn append_rows(&self, table: &str, rows: &[Vec<Value>]) -> Result<AppendOutcome, ServeError> {
        let mut span = qcat_obs::span!("serve.append", rows = rows.len());
        let key = table.to_ascii_lowercase();
        let ingest = {
            let tables = self.lock_tables();
            let Some(state) = tables.get(&key) else {
                return Err(ServeError::UnregisteredTable(table.to_string()));
            };
            Arc::clone(&state.ingest)
        };
        // Hold the cache lock across commit + sweep (see doc comment).
        // Appends serialize on the ingest table's own lock as well, so
        // two appenders cannot interleave sweeps.
        let mut caches = self.lock_caches();
        let receipt = ingest
            .append_rows(rows)
            .map_err(|e| ServeError::Exec(ExecError::Data(e)))?;
        self.catalog
            .register_or_replace(&key, receipt.snapshot.relation().clone());
        let (evicted, kept) =
            caches.invalidate_delta(&key, receipt.snapshot.relation(), &receipt.commit.delta);
        qcat_obs::counter("serve.append.committed", 1);
        qcat_obs::counter("serve.invalidate.evicted", i64::try_from(evicted).unwrap_or(i64::MAX));
        qcat_obs::counter("serve.invalidate.kept", i64::try_from(kept).unwrap_or(i64::MAX));
        if qcat_obs::active() {
            span.set("generation", receipt.snapshot.generation());
            span.set("evicted", evicted);
            span.set("kept", kept);
        }
        Ok(AppendOutcome {
            generation: receipt.snapshot.generation(),
            added: receipt.commit.added,
            evicted,
            kept,
        })
    }

    /// Drop every cached answer (measurement hook; stats epochs and
    /// append sweeps handle correctness-driven invalidation).
    pub fn clear_caches(&self) {
        self.lock_caches().clear();
    }

    /// (cached answers, answers holding a tree servable at its table's
    /// current stats epoch).
    pub fn cache_sizes(&self) -> (usize, usize) {
        let epochs: HashMap<String, u64> = self
            .lock_tables()
            .iter()
            .map(|(table, state)| (table.clone(), state.stats_epoch))
            .collect();
        self.lock_caches().sizes(|table| epochs.get(table).copied())
    }

    /// Resident bytes of the answer cache, split as (row ids, the rest
    /// of each entry's charge: tree, rendering, projection). The two
    /// sum to the one budget's resident total.
    pub fn cache_bytes(&self) -> (usize, usize) {
        self.lock_caches().bytes()
    }

    /// Serve `sql`: parse, normalize, execute (index-accelerated when
    /// selective), categorize, render — returning cached artifacts
    /// wherever the fingerprint and epoch allow.
    ///
    /// Each call runs under its own trace ([`qcat_obs::TraceScope`]):
    /// shed, degraded, or errored outcomes — and calls lasting at
    /// least [`ServerConfig::slow_query_ns`] — are marked for a
    /// flight-recorder dump and land in the slow-query log
    /// ([`Server::slow_queries`]) with a per-phase breakdown.
    pub fn serve(&self, sql: &str) -> Result<Served, ServeError> {
        let scope = qcat_obs::TraceScope::start();
        let trace = scope.id();
        let started = std::time::Instant::now();
        let result = self.serve_inner(sql);
        let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let outcome = match &result {
            Ok(s) if matches!(s.outcome, ServeOutcome::Shed) => Some("shed".to_string()),
            Ok(s) => s
                .tree
                .degraded()
                .map(|reason| format!("degraded:{}", reason.as_str())),
            Err(_) => Some("error".to_string()),
        };
        let slow = dur_ns >= self.config.slow_query_ns;
        if outcome.is_none() && !slow {
            return result;
        }
        let outcome = outcome.unwrap_or_else(|| "slow".to_string());
        scope.mark(&outcome);
        // Close the trace so the recorder finalizes its flight dump,
        // then pull the per-phase breakdown out of that dump.
        drop(scope);
        let phases = if trace != 0 {
            qcat_obs::current_recorder()
                .and_then(|rec| rec.flight_dump_for(trace))
                .map(|d| d.phase_totals())
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let mut log = lock_recover(&self.slow_log);
        while log.len() >= self.config.slow_log_capacity.max(1) {
            log.pop_front();
        }
        log.push_back(SlowQuery {
            sql: sql.to_string(),
            trace,
            dur_ns,
            outcome,
            phases,
        });
        result
    }

    /// A snapshot of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        lock_recover(&self.slow_log).iter().cloned().collect()
    }

    /// Drain the slow-query log, returning the entries oldest first.
    pub fn take_slow_queries(&self) -> Vec<SlowQuery> {
        lock_recover(&self.slow_log).drain(..).collect()
    }

    fn serve_inner(&self, sql: &str) -> Result<Served, ServeError> {
        let mut span = qcat_obs::span!("serve.query", bytes = sql.len());
        let ast = parse_select(sql)?;
        let (relation, generation, ingest, stats, stats_epoch) = {
            // Table state is keyed by lowercased name (the catalog's
            // lookup is case-insensitive too). The statistics and their
            // epoch are read under one lock, so a tree is always cached
            // under the epoch of the statistics it was built from.
            let tables = self.lock_tables();
            let Some(state) = tables.get(&ast.table.to_ascii_lowercase()) else {
                return Err(ServeError::UnregisteredTable(ast.table.clone()));
            };
            let snap = state.ingest.pin();
            (
                snap.relation().clone(),
                snap.generation(),
                Arc::clone(&state.ingest),
                Arc::clone(&state.stats),
                state.stats_epoch,
            )
        };
        let query = qcat_sql::normalize::normalize(&ast, relation.schema())?;
        let key = fingerprint(&query);
        let ctx = FillCtx {
            relation: &relation,
            stats: &stats,
            ingest: &ingest,
            generation,
            stats_epoch,
        };

        // Fast path: the finished tree is cached for this epoch. The
        // lookup is bound to a local first so the cache `MutexGuard`
        // (a temporary in the scrutinee) is dropped before the body
        // runs — scrutinee temporaries live to the end of the whole
        // `if let`/`match`, and re-locking inside would self-deadlock.
        let tree_hit = self.lock_caches().tree(&key, stats_epoch);
        if let Some(hit) = tree_hit {
            qcat_obs::counter("serve.cache.hit", 1);
            qcat_obs::counter("serve.cache.tree.hit", 1);
            if qcat_obs::active() {
                span.set("outcome", "tree_hit");
            }
            return Ok(Served::cached(hit, ServeOutcome::TreeCacheHit));
        }
        qcat_obs::counter("serve.cache.tree.miss", 1);

        // Cold/middle path: single-flighted and admission-controlled.
        // Concurrent misses of one fingerprint coalesce onto a single
        // leader's fill; fills beyond `max_in_flight` are shed.
        loop {
            let role = {
                let mut fills = self.lock_fills();
                if let Some(slot) = fills.get(&key) {
                    FillRole::Follow(Arc::clone(slot))
                } else if let Some(admission) = self.try_admit() {
                    let slot = Arc::new(FillSlot {
                        state: Mutex::new(FillState::Filling),
                        cv: Condvar::new(),
                    });
                    fills.insert(key.clone(), Arc::clone(&slot));
                    FillRole::Lead(admission, slot)
                } else {
                    FillRole::Shed
                }
            };
            match role {
                FillRole::Shed => {
                    qcat_obs::counter("serve.shed", 1);
                    qcat_obs::event!(
                        "serve.shed",
                        table = ast.table.as_str(),
                        in_flight = self.in_flight.load(Ordering::Acquire),
                    );
                    if qcat_obs::active() {
                        span.set("outcome", "shed");
                    }
                    return Ok(self.flat(&relation, DegradeReason::Shed, ServeOutcome::Shed));
                }
                FillRole::Follow(slot) => {
                    qcat_obs::counter("serve.singleflight.coalesced", 1);
                    {
                        let state = lock_recover(&slot.state);
                        // wait_timeout bounds the wait even if the
                        // leader wedges; a timed-out follower simply
                        // retries (and usually becomes leader).
                        let _unused = slot
                            .cv
                            .wait_timeout_while(state, FILL_WAIT, |s| {
                                matches!(s, FillState::Filling)
                            })
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    let published = self.lock_caches().tree(&key, stats_epoch);
                    if let Some(hit) = published {
                        qcat_obs::counter("serve.cache.hit", 1);
                        if qcat_obs::active() {
                            span.set("outcome", "coalesced");
                        }
                        return Ok(Served::cached(hit, ServeOutcome::Coalesced));
                    }
                    // Leader failed, degraded, or the epoch moved:
                    // this fill never published — go again.
                    continue;
                }
                FillRole::Lead(_admission, slot) => {
                    let mut guard = FillGuard {
                        server: self,
                        key: &key,
                        slot: &slot,
                        resolved: false,
                    };
                    let served = self.fill(&ctx, &query, &key, &self.config.budget);
                    if let Ok(s) = &served {
                        if s.tree.degraded().is_none() {
                            guard.publish();
                        }
                        if qcat_obs::active() {
                            span.set(
                                "outcome",
                                match s.outcome {
                                    ServeOutcome::Cold => "cold",
                                    ServeOutcome::ResultCacheHit => "result_hit",
                                    ServeOutcome::ContainmentHit => "containment_hit",
                                    ServeOutcome::TreeCacheHit => "tree_hit",
                                    ServeOutcome::Coalesced => "coalesced",
                                    ServeOutcome::Shed => "shed",
                                },
                            );
                            span.set("rows", s.rows);
                            if let Some(reason) = s.tree.degraded() {
                                span.set("degraded", reason.as_str());
                            }
                        }
                    }
                    // Errors and degraded fills resolve to Failed via
                    // the guard's drop, waking followers to retry.
                    drop(guard);
                    return served;
                }
            }
        }
    }

    /// Is `table`'s ingest still at the generation this fill pinned?
    /// Called *inside* the cache lock right before an insert: a fill
    /// that raced a commit must not publish rows computed against the
    /// superseded snapshot. (An appender sweeps under the same cache
    /// lock after committing, so an insert that passes this check is
    /// either pre-commit — and gets swept — or provably current.)
    fn still_current(&self, ctx: &FillCtx<'_>) -> bool {
        ctx.ingest.generation() == ctx.generation
    }

    /// The expensive path: reuse cached rows (exact or by
    /// containment) or execute, then categorize — all under `budget`.
    /// Runs at most `max_in_flight` times concurrently for live
    /// queries, once per fingerprint.
    fn fill(
        &self,
        ctx: &FillCtx<'_>,
        query: &NormalizedQuery,
        key: &str,
        budget: &Budget,
    ) -> Result<Served, ServeError> {
        let FillCtx {
            relation,
            stats,
            stats_epoch,
            ..
        } = *ctx;
        if let Some(fault) = qcat_fault::point("serve.fill") {
            return Err(ServeError::Fault(fault));
        }
        let gas = if budget.is_unlimited() {
            None
        } else {
            Some(budget.start())
        };
        let compute = || -> Result<Served, ServeError> {
            // Middle path: the row ids are cached (as rows, or as a
            // tree from another stats epoch); re-categorize only. The
            // lookup is bound to a local first so the cache
            // `MutexGuard` (a temporary in the scrutinee) is dropped
            // before the body runs — re-locking inside the match would
            // self-deadlock.
            let result_hit = self.lock_caches().result(key);
            let (result, outcome) = match result_hit {
                Some(result) => {
                    qcat_obs::counter("serve.cache.result.hit", 1);
                    qcat_obs::counter("serve.cache.hit", 1);
                    (result, ServeOutcome::ResultCacheHit)
                }
                None => {
                    qcat_obs::counter("serve.cache.result.miss", 1);
                    // Second chance: a cached *superset* answer whose
                    // query subsumes this one can donate its rows.
                    let donor = self.lock_caches().donor(key, query);
                    if donor.is_none() {
                        qcat_obs::counter("serve.cache.miss", 1);
                    }
                    let opts = ExecOptions {
                        donor: donor.as_ref().map(|(answer, residual)| Donor {
                            rows: answer.rows(),
                            residual,
                        }),
                        ..ExecOptions::default()
                    };
                    // Filtering or executing happens outside the cache
                    // lock: donors are immutable `Arc`s, so eviction
                    // races are harmless.
                    let result = match execute(relation, query, &opts) {
                        Ok(r) => Arc::new(r),
                        // Execution refuses partial rows on budget
                        // exhaustion; the serve answer degrades to the
                        // flat (root-only, empty) fallback instead of
                        // erroring — the contract is best-effort, not
                        // all-or-nothing.
                        Err(ExecError::Budget(b)) => {
                            return Ok(self.degraded_flat(relation, b.into()));
                        }
                        Err(e) => return Err(e.into()),
                    };
                    let outcome = match &donor {
                        Some((donor, _)) => {
                            qcat_obs::counter("serve.cache.containment_hit", 1);
                            qcat_obs::counter("serve.cache.hit", 1);
                            qcat_obs::counter(
                                "serve.containment.rows_donor",
                                i64::try_from(donor.rows().len()).unwrap_or(i64::MAX),
                            );
                            qcat_obs::counter(
                                "serve.containment.rows_out",
                                i64::try_from(result.len()).unwrap_or(i64::MAX),
                            );
                            ServeOutcome::ContainmentHit
                        }
                        None => ServeOutcome::Cold,
                    };
                    // The answer is itself cached (and donates), so
                    // chains of refinements each filter their nearest
                    // superset. A racing serve of the same query at
                    // worst double-computes the same deterministic
                    // value. Skip the insert if an append superseded
                    // the pinned snapshot.
                    let mut caches = self.lock_caches();
                    if self.still_current(ctx) {
                        caches.publish(key, query, Answer::Rows(Arc::clone(&result)));
                    }
                    drop(caches);
                    (result, outcome)
                }
            };

            let tree = {
                let _span = qcat_obs::span!("serve.categorize", rows = result.len());
                Arc::new(
                    Categorizer::new(stats, self.config.categorize)
                        .categorize(&result, Some(query)),
                )
            };
            let rendered = Arc::new(render_tree(&tree, self.config.render_depth));
            if let Some(reason) = tree.degraded() {
                // Degraded trees are never cached: a later uncontended
                // serve should get the chance to build the full tree.
                qcat_obs::counter("serve.degraded", 1);
                qcat_obs::event!(
                    "serve.degraded",
                    reason = reason.as_str(),
                    rows = result.len(),
                );
            } else {
                let mut caches = self.lock_caches();
                if self.still_current(ctx) {
                    let answer = Answer::Tree {
                        tree: Arc::clone(&tree),
                        rendered: Arc::clone(&rendered),
                        epoch: stats_epoch,
                    };
                    caches.publish(key, query, answer);
                }
            }
            Ok(Served {
                tree,
                rendered,
                rows: result.len(),
                outcome,
            })
        };
        match &gas {
            Some(g) => qcat_fault::with_budget(g, compute),
            None => compute(),
        }
    }

    /// One idle-time speculative precomputation pass over `table`:
    /// rank the hottest logged queries and compute + pin their trees
    /// so the next live arrival is a tree-cache hit (see
    /// [`crate::speculate`] for the full contract). Returns
    /// immediately — with [`SpeculateReport::skipped_busy`] — when
    /// live fills are in flight.
    pub fn speculate(
        &self,
        table: &str,
        cfg: &SpeculateConfig,
    ) -> Result<SpeculateReport, ServeError> {
        let mut span = qcat_obs::span!("serve.speculate");
        let key_tbl = table.to_ascii_lowercase();
        let (relation, generation, ingest, stats, stats_epoch, logged) = {
            let tables = self.lock_tables();
            let Some(state) = tables.get(&key_tbl) else {
                return Err(ServeError::UnregisteredTable(table.to_string()));
            };
            let snap = state.ingest.pin();
            (
                snap.relation().clone(),
                snap.generation(),
                Arc::clone(&state.ingest),
                Arc::clone(&state.stats),
                state.stats_epoch,
                state.log.clone(),
            )
        };
        let mut report = SpeculateReport::default();
        // Idle gate: speculation must never compete with live traffic
        // (workers re-check per fill; admission slots are never taken,
        // so live queries can never be shed by speculation).
        if self.in_flight.load(Ordering::Acquire) > 0 {
            qcat_obs::counter("serve.speculate.skip_busy", 1);
            report.skipped_busy = true;
            if qcat_obs::active() {
                span.set("outcome", "busy");
            }
            return Ok(report);
        }
        let ranked = crate::speculate::rank_hot_queries(
            logged.iter().flat_map(|batch| batch.queries()),
            &stats,
        );
        report.considered = ranked.len();
        let mut targets = Vec::new();
        {
            let caches = self.lock_caches();
            for (key, query) in ranked {
                if targets.len() >= cfg.max_fills {
                    break;
                }
                if caches.has_tree(&key, stats_epoch) {
                    report.already_cached += 1;
                    continue;
                }
                targets.push((key, query));
            }
        }
        if targets.is_empty() {
            if qcat_obs::active() {
                span.set("outcome", "cached");
            }
            return Ok(report);
        }
        let ctx = FillCtx {
            relation: &relation,
            stats: &stats,
            ingest: &ingest,
            generation,
            stats_epoch,
        };
        let pool = ThreadPool::new(cfg.threads);
        let outcomes = pool.try_map(&targets, |_, (key, query)| {
            self.speculate_one(&ctx, query, key, &cfg.budget)
        });
        match outcomes {
            Ok(outcomes) => {
                for outcome in outcomes {
                    match outcome {
                        SpecOutcome::Filled => report.filled += 1,
                        SpecOutcome::Degraded => report.degraded += 1,
                        SpecOutcome::Coalesced => report.coalesced += 1,
                        SpecOutcome::Busy => report.skipped_busy = true,
                        SpecOutcome::Failed => report.failed += 1,
                    }
                }
            }
            // Pool-level failure (injected fault, worker panic): the
            // pass is best-effort, so account and move on — per-fill
            // slots were released by their guards.
            Err(_) => report.failed += targets.len(),
        }
        if qcat_obs::active() {
            span.set("filled", report.filled);
            span.set("outcome", "ran");
        }
        Ok(report)
    }

    /// One speculative fill: single-flighted under the same slot map
    /// as live queries (a racing live query joins it rather than
    /// recomputing), budgeted independently, and yielded outright the
    /// moment live traffic shows up.
    fn speculate_one(
        &self,
        ctx: &FillCtx<'_>,
        query: &NormalizedQuery,
        key: &str,
        budget: &Budget,
    ) -> SpecOutcome {
        if self.in_flight.load(Ordering::Acquire) > 0 {
            qcat_obs::counter("serve.speculate.skip_busy", 1);
            return SpecOutcome::Busy;
        }
        let slot = {
            let mut fills = self.lock_fills();
            if fills.contains_key(key) {
                // A live (or sibling) fill already owns the key; its
                // publication serves us both.
                qcat_obs::counter("serve.speculate.coalesced", 1);
                return SpecOutcome::Coalesced;
            }
            let slot = Arc::new(FillSlot {
                state: Mutex::new(FillState::Filling),
                cv: Condvar::new(),
            });
            fills.insert(key.to_string(), Arc::clone(&slot));
            slot
        };
        // The fill runs inside its own `serve.query` span so the
        // events it emits (degradation, residual filtering) stay
        // within a query scope on this worker thread, exactly like a
        // live serve.
        let mut span = qcat_obs::span!("serve.query", speculative = true);
        let mut guard = FillGuard {
            server: self,
            key,
            slot: &slot,
            resolved: false,
        };
        let served = self.fill(ctx, query, key, budget);
        let outcome = match &served {
            Ok(s) if s.tree.degraded().is_none() => {
                guard.publish();
                qcat_obs::counter("serve.speculate.filled", 1);
                SpecOutcome::Filled
            }
            Ok(_) => {
                qcat_obs::counter("serve.speculate.degraded", 1);
                SpecOutcome::Degraded
            }
            Err(_) => {
                qcat_obs::counter("serve.speculate.failed", 1);
                SpecOutcome::Failed
            }
        };
        if qcat_obs::active() {
            span.set(
                "outcome",
                match outcome {
                    SpecOutcome::Filled => "speculative_fill",
                    SpecOutcome::Degraded => "speculative_degraded",
                    SpecOutcome::Coalesced => "speculative_coalesced",
                    SpecOutcome::Busy => "speculative_busy",
                    SpecOutcome::Failed => "speculative_failed",
                },
            );
        }
        drop(guard);
        outcome
    }

    /// The flat fallback: a root-only degraded tree with no rows —
    /// what a request gets when not even execution fit the budget.
    fn degraded_flat(&self, relation: &Relation, reason: DegradeReason) -> Served {
        qcat_obs::counter("serve.degraded", 1);
        qcat_obs::event!("serve.degraded", reason = reason.as_str(), rows = 0usize);
        self.flat(relation, reason, ServeOutcome::Cold)
    }

    /// A root-only tree with no rows, degraded for `reason`.
    fn flat(&self, relation: &Relation, reason: DegradeReason, outcome: ServeOutcome) -> Served {
        let mut tree = CategoryTree::new(relation.clone(), Vec::new());
        tree.mark_degraded(reason);
        let tree = Arc::new(tree);
        let rendered = Arc::new(render_tree(&tree, self.config.render_depth));
        Served {
            tree,
            rendered,
            rows: 0,
            outcome,
        }
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (answers, trees) = self.cache_sizes();
        f.debug_struct("Server")
            .field("tables", &self.catalog.table_names())
            .field("cached_answers", &answers)
            .field("cached_trees", &trees)
            .finish()
    }
}
