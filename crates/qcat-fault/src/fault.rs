//! Deterministic, seedable fault points.
//!
//! A fault point is one line of library code:
//!
//! ```ignore
//! if let Some(fault) = qcat_fault::point("exec.scan") {
//!     return Err(fault.into());
//! }
//! ```
//!
//! With no plan installed (`QCAT_FAULT` unset, no [`with_plan`] scope)
//! that line is a thread-local `Cell` read plus one relaxed atomic
//! load — the same disabled-path budget as `qcat_obs`. With a plan,
//! each matching rule rolls a splitmix64 stream indexed by its own hit
//! counter, so a `(spec, seed)` pair replays the identical fault
//! sequence at every site that is visited in a deterministic order.
//!
//! Kinds: `error` hands the caller a [`Fault`] to convert into its own
//! structured error; `delay`, `panic`, and `alloc` are applied *by the
//! harness* (sleep, panic, transient allocation) so a site only ever
//! needs to handle the error case. Chaos tests then assert the system
//! turns every one of these into a structured error or a degraded
//! result — never a wedge.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// An injected error, returned by [`point`] for `error`-kind rules.
/// The caller converts it into its layer's structured error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl std::error::Error for Fault {}

/// What a rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Hand the site a [`Fault`] to return as a structured error.
    Error,
    /// Sleep for this many milliseconds (deadline/latency chaos).
    Delay { ms: u64 },
    /// Panic at the site (exercises unwind containment).
    Panic,
    /// Allocate-and-drop this many bytes (heap pressure).
    Alloc { bytes: usize },
}

#[derive(Debug)]
struct FaultRule {
    /// Site this rule arms, or `"*"` for every site.
    site: String,
    kind: FaultKind,
    /// Fire when `roll <= threshold`; `u64::MAX` means always.
    threshold: u64,
    seed: u64,
    /// Per-rule visit counter indexing the splitmix64 stream.
    hits: AtomicU64,
}

/// A parsed `QCAT_FAULT` specification. Clones share the per-rule hit
/// counters, so a plan handed to worker threads keeps one coherent
/// fault stream.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Arc<Vec<FaultRule>>,
}

/// Every fault site compiled into the workspace.
///
/// [`FaultPlan::parse`] rejects rules naming any other site (except
/// `*` and the reserved `test.` prefix), so a typo'd chaos drill fails
/// loudly instead of passing vacuously with zero injected faults.
/// When a crate gains a new `point("...")` call, its site must be
/// added here or every spec arming it will be refused.
pub const KNOWN_SITES: &[&str] = &[
    "core.level",
    "data.append",
    "data.index.delta",
    "exec.execute",
    "exec.fetch",
    "exec.plan",
    "exec.residual",
    "exec.scan",
    "pool.task",
    "serve.fill",
    "serve.index.build",
    "workload.stats.delta",
];

/// splitmix64: the standard 64-bit finalizer-based stream generator.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, so a rule's stream also depends on the site it matched
/// (relevant for `*` rules).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultPlan {
    /// Parse a fault spec.
    ///
    /// Grammar: rules joined by `;`, each rule
    /// `site:kind[:key=value]...` where `kind` is one of `error`,
    /// `delay`, `panic`, `alloc`, and the keys are `p` (probability in
    /// `[0,1]`, default 1), `seed` (u64, default 0), `ms` (delay
    /// milliseconds, default 1), and `bytes` (alloc size, default
    /// 1 MiB). `site` is an instrumentation point name like
    /// `exec.scan`, or `*` to arm every site. Sites must appear in
    /// [`KNOWN_SITES`] — a misspelled site is a parse error, not a
    /// drill that silently injects nothing — except names under the
    /// reserved `test.` prefix, which are accepted for unit tests
    /// exercising the machinery without a compiled-in site.
    ///
    /// ```
    /// let plan = qcat_fault::FaultPlan::parse(
    ///     "exec.scan:error:p=0.5:seed=7;pool.task:delay:ms=2",
    /// ).unwrap();
    /// assert_eq!(plan.rule_count(), 2);
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for rule in spec.split(';') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            let mut parts = rule.split(':');
            let site = parts.next().unwrap_or_default().trim();
            if site.is_empty() {
                return Err(format!("fault rule {rule:?} is missing a site"));
            }
            if site != "*" && !site.starts_with("test.") && !KNOWN_SITES.contains(&site) {
                return Err(format!(
                    "unknown fault site {site:?} (known sites: {})",
                    KNOWN_SITES.join(", ")
                ));
            }
            let kind_name = parts
                .next()
                .map(str::trim)
                .filter(|k| !k.is_empty())
                .ok_or_else(|| format!("fault rule {rule:?} is missing a kind"))?;
            let mut p = 1.0f64;
            let mut seed = 0u64;
            let mut ms = 1u64;
            let mut bytes = 1usize << 20;
            for param in parts {
                let (key, value) = param
                    .split_once('=')
                    .ok_or_else(|| format!("fault param {param:?} is not key=value"))?;
                match key.trim() {
                    "p" => {
                        p = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault p={value:?} is not a number"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("fault p={p} outside [0,1]"));
                        }
                    }
                    "seed" => {
                        seed = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault seed={value:?} is not a u64"))?
                    }
                    "ms" => {
                        ms = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault ms={value:?} is not a u64"))?
                    }
                    "bytes" => {
                        bytes = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault bytes={value:?} is not a usize"))?
                    }
                    other => return Err(format!("unknown fault param {other:?}")),
                }
            }
            let kind = match kind_name {
                "error" => FaultKind::Error,
                "delay" => FaultKind::Delay { ms },
                "panic" => FaultKind::Panic,
                "alloc" => FaultKind::Alloc { bytes },
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            let threshold = if p >= 1.0 {
                u64::MAX
            } else {
                (p * u64::MAX as f64) as u64
            };
            rules.push(FaultRule {
                site: site.to_string(),
                kind,
                threshold,
                seed,
                hits: AtomicU64::new(0),
            });
        }
        if rules.is_empty() {
            return Err("fault spec contains no rules".to_string());
        }
        Ok(FaultPlan {
            rules: Arc::new(rules),
        })
    }

    /// Number of parsed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Evaluate every rule armed at `site`; applies delay/alloc/panic
    /// kinds in place and returns a [`Fault`] for a fired error rule.
    #[allow(clippy::panic, reason = "L1: a `panic` fault rule panics on purpose")]
    fn fire(&self, site: &'static str) -> Option<Fault> {
        let mut out = None;
        for rule in self.rules.iter() {
            if rule.site != "*" && rule.site != site {
                continue;
            }
            let hit = rule.hits.fetch_add(1, Ordering::Relaxed);
            let base = rule.seed ^ fnv1a(site);
            let roll = splitmix64(base.wrapping_add(hit.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            if rule.threshold != u64::MAX && roll > rule.threshold {
                continue;
            }
            qcat_obs::counter("fault.injected", 1);
            match rule.kind {
                FaultKind::Error => {
                    qcat_obs::counter("fault.error", 1);
                    out = Some(Fault { site });
                }
                FaultKind::Delay { ms } => {
                    qcat_obs::counter("fault.delay", 1);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                FaultKind::Panic => {
                    qcat_obs::counter("fault.panic", 1);
                    panic!("injected fault panic at {site} (QCAT_FAULT)");
                }
                FaultKind::Alloc { bytes } => {
                    qcat_obs::counter("fault.alloc", 1);
                    let pressure = vec![0xA5u8; bytes];
                    std::hint::black_box(&pressure);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The current plan: thread-scoped overrides over a process global.
// ---------------------------------------------------------------------------

static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<FaultPlan> = OnceLock::new();

thread_local! {
    static OVERRIDE: RefCell<Vec<FaultPlan>> = const { RefCell::new(Vec::new()) };
    /// Mirror of `OVERRIDE.len()` readable without a RefCell borrow —
    /// keeps the disabled path of [`point`] a plain `Cell` read.
    static OVERRIDE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

#[inline]
fn fault_active() -> bool {
    OVERRIDE_DEPTH.with(|d| d.get() > 0) || GLOBAL_ACTIVE.load(Ordering::Relaxed)
}

/// The plan [`point`] consults right now, if any: the innermost
/// [`with_plan`] scope, else the process global.
pub fn current_plan() -> Option<FaultPlan> {
    if OVERRIDE_DEPTH.with(|d| d.get() > 0) {
        if let Some(plan) = OVERRIDE.with(|o| o.borrow().last().cloned()) {
            return Some(plan);
        }
    }
    if GLOBAL_ACTIVE.load(Ordering::Relaxed) {
        return GLOBAL.get().cloned();
    }
    None
}

/// Run `f` with `plan` as this thread's fault plan, shadowing the
/// global. Scopes nest; the previous plan is restored even if `f`
/// panics.
pub fn with_plan<T>(plan: &FaultPlan, f: impl FnOnce() -> T) -> T {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
            OVERRIDE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(plan.clone()));
    OVERRIDE_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = PopOnDrop;
    f()
}

/// Install `plan` as the process-global fault plan. First call wins;
/// returns `false` (leaving the existing global) on repeats.
pub fn install_global(plan: FaultPlan) -> bool {
    let installed = GLOBAL.set(plan).is_ok();
    if installed {
        GLOBAL_ACTIVE.store(true, Ordering::Relaxed);
    }
    installed
}

/// Read `QCAT_FAULT` and install the parsed plan globally. For
/// binaries and examples only — library code never touches the
/// environment. Returns `Ok(true)` when a plan was installed,
/// `Ok(false)` when the variable is unset/empty/`off`, and `Err` with
/// a description when the spec does not parse (callers should fail
/// loudly: a typo'd chaos spec silently testing nothing is worse than
/// an error).
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var("QCAT_FAULT") {
        Ok(spec) => {
            let spec = spec.trim();
            if spec.is_empty() || spec == "off" {
                return Ok(false);
            }
            Ok(install_global(FaultPlan::parse(spec)?))
        }
        Err(_) => Ok(false),
    }
}

/// Hit the fault point `site`.
///
/// Returns `Some(Fault)` when an `error` rule fires (the caller turns
/// it into its structured error type); `delay`/`alloc`/`panic` rules
/// take effect inside this call. Without an installed plan this is a
/// no-op flag read.
#[inline]
pub fn point(site: &'static str) -> Option<Fault> {
    if !fault_active() {
        return None;
    }
    current_plan().and_then(|p| p.fire(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_are_none() {
        assert!(point("test.nowhere").is_none());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("siteonly").is_err());
        assert!(FaultPlan::parse("test.rule:explode").is_err());
        assert!(FaultPlan::parse("test.rule:error:p=2").is_err());
        assert!(FaultPlan::parse("test.rule:error:p").is_err());
        assert!(FaultPlan::parse("test.rule:error:seed=x").is_err());
        assert!(FaultPlan::parse("test.rule:error:color=red").is_err());
    }

    #[test]
    fn parse_rejects_unknown_sites() {
        // A typo'd site must fail the drill at parse time, not pass
        // vacuously by never firing.
        let err = FaultPlan::parse("exec.scna:error").unwrap_err();
        assert!(err.contains("unknown fault site"), "{err}");
        assert!(err.contains("exec.scna"), "{err}");
        assert!(err.contains("exec.scan"), "error lists known sites: {err}");
        // One bad rule poisons the whole spec, even alongside good ones.
        assert!(FaultPlan::parse("exec.scan:error;serve.fil:panic").is_err());
        // Known sites, the wildcard, and the reserved test prefix pass.
        for site in KNOWN_SITES {
            assert!(
                FaultPlan::parse(&format!("{site}:error")).is_ok(),
                "known site {site} must parse"
            );
        }
        assert!(FaultPlan::parse("*:error").is_ok());
        assert!(FaultPlan::parse("test.anything:error").is_ok());
    }

    #[test]
    fn error_rule_fires_only_at_its_site() {
        let plan = FaultPlan::parse("exec.scan:error").unwrap();
        with_plan(&plan, || {
            let fault = point("exec.scan").expect("armed site fires");
            assert_eq!(fault.site, "exec.scan");
            assert_eq!(fault.to_string(), "injected fault at exec.scan");
            assert!(point("exec.plan").is_none(), "unarmed site must not fire");
        });
    }

    #[test]
    fn wildcard_arms_every_site() {
        let plan = FaultPlan::parse("*:error").unwrap();
        with_plan(&plan, || {
            assert!(point("test.one").is_some());
            assert!(point("test.two").is_some());
        });
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let sequence = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("test.x:error:p=0.5:seed={seed}")).unwrap();
            with_plan(&plan, || (0..64).map(|_| point("test.x").is_some()).collect())
        };
        let a = sequence(7);
        assert_eq!(a, sequence(7), "same seed, same stream");
        assert_ne!(a, sequence(8), "different seed, different stream");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "p=0.5 of 64 fired {fired} times");
    }

    #[test]
    fn delay_rule_sleeps_and_returns_none() {
        let plan = FaultPlan::parse("test.y:delay:ms=5").unwrap();
        with_plan(&plan, || {
            let start = std::time::Instant::now();
            assert!(point("test.y").is_none());
            assert!(start.elapsed() >= Duration::from_millis(5));
        });
    }

    #[test]
    fn panic_rule_panics_with_site_name() {
        let plan = FaultPlan::parse("test.z:panic").unwrap();
        let caught = std::panic::catch_unwind(|| with_plan(&plan, || point("test.z")));
        let err = caught.expect_err("panic rule must panic");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("injected fault panic at test.z"), "{message}");
        // The with_plan guard restored the previous (empty) context.
        assert!(point("test.z").is_none());
    }

    #[test]
    fn alloc_rule_is_transient_pressure() {
        let plan = FaultPlan::parse("test.a:alloc:bytes=4096").unwrap();
        with_plan(&plan, || assert!(point("test.a").is_none()));
    }

    #[test]
    fn clones_share_one_hit_stream() {
        // p=0.5: the stream of a plan and its clone interleave into
        // the same 64-roll prefix a single handle would produce.
        let plan = FaultPlan::parse("test.c:error:p=0.5:seed=3").unwrap();
        let solo = FaultPlan::parse("test.c:error:p=0.5:seed=3").unwrap();
        let clone = plan.clone();
        let mut interleaved = Vec::new();
        for i in 0..64 {
            let handle = if i % 2 == 0 { &plan } else { &clone };
            interleaved.push(with_plan(handle, || point("test.c").is_some()));
        }
        let straight: Vec<bool> =
            with_plan(&solo, || (0..64).map(|_| point("test.c").is_some()).collect());
        assert_eq!(interleaved, straight);
    }

    #[test]
    fn faults_bump_obs_counters() {
        let rec = qcat_obs::Recorder::metrics_only();
        let plan = FaultPlan::parse("test.m:error").unwrap();
        qcat_obs::with_recorder(&rec, || {
            with_plan(&plan, || {
                assert!(point("test.m").is_some());
            });
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("fault.injected"), Some(&1));
        assert_eq!(snap.counters.get("fault.error"), Some(&1));
    }
}
