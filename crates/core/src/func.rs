//! `function`: the multi-stage JIT tracer (§4.1, §4.6).
//!
//! [`function`] wraps a host closure composed of primitive operations and
//! returns a [`Func`] — a polymorphic callable backed by a cache of
//! [`ConcreteFunction`]s. Invoking a `Func` runs a binding-time analysis on
//! the arguments (tensors are abstracted to dtype/shape, everything else is
//! specialized by value), and either reuses a cached graph function or
//! traces the closure in a graph-building context to create one.
//!
//! A traced function lives as long as something can still reach it: its
//! [`ConcreteFunction`] is the single owner of every graph traced for one
//! specialization and takes their names out of the process-global tables
//! when it drops; it is held by the `Func`'s cache and by whatever wrote one
//! of its names into an attribute ([`keep_alive`]). The tables only index,
//! so a name stops resolving once the owner is gone (DESIGN.md §7).

use crate::arg::{Arg, ArgKey, TensorSpec};
use crate::call_grad::{ForwardBundle, GradTargets};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tfe_graph::{passes, GraphFunction, TensorRef};
use tfe_ops::{Attrs, Op};
use tfe_runtime::{context, Result, RuntimeError, Tensor};
use tfe_tensor::{DType, TensorData};

type TraceClosure = dyn Fn(&[Arg]) -> Result<Vec<Tensor>> + Send + Sync;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    args: Vec<ArgKey>,
    device: String,
}

// ---------------------------------------------------------------------------
// Retrace diagnostics
// ---------------------------------------------------------------------------

fn fmt_dims(dims: &[Option<usize>]) -> String {
    let parts: Vec<String> = dims
        .iter()
        .map(|d| match d {
            Some(n) => n.to_string(),
            None => "?".to_string(),
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// Static-argument kind + rendered value, for cause strings.
fn static_parts(k: &ArgKey) -> (&'static str, String) {
    match k {
        ArgKey::Int(v) => ("int", v.to_string()),
        ArgKey::Float(bits) => ("float", f64::from_bits(*bits).to_string()),
        ArgKey::Bool(v) => ("bool", v.to_string()),
        ArgKey::Str(s) => ("str", format!("{s:?}")),
        ArgKey::Tensor { dtype, dims } => ("tensor", format!("{dtype}{}", fmt_dims(dims))),
        ArgKey::Var(id) => ("variable", format!("id {id}")),
    }
}

fn key_repr(k: &ArgKey) -> String {
    let (kind, value) = static_parts(k);
    format!("{kind} {value}")
}

/// One reason a [`Func`] call missed the trace cache even though concrete
/// functions already existed. Causes come from diffing the new call's
/// structured cache key against the *closest* previously cached key, so
/// they name exactly what drifted (the §4.6 binding-time analysis, made
/// observable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetraceCause {
    /// The number of arguments changed.
    ArgCount {
        /// Previous argument count.
        before: usize,
        /// New argument count.
        after: usize,
    },
    /// A tensor argument changed rank.
    Rank {
        /// Argument position.
        index: usize,
        /// Previous dims (`None` = unknown extent).
        before: Vec<Option<usize>>,
        /// New dims.
        after: Vec<Option<usize>>,
    },
    /// A tensor argument changed shape at the same rank.
    Shape {
        /// Argument position.
        index: usize,
        /// Previous dims.
        before: Vec<Option<usize>>,
        /// New dims.
        after: Vec<Option<usize>>,
    },
    /// A tensor argument changed dtype.
    DType {
        /// Argument position.
        index: usize,
        /// Previous dtype.
        before: DType,
        /// New dtype.
        after: DType,
    },
    /// A static argument changed value (statics specialize the trace by
    /// value, so a new value is a new graph — Listing 6's `training=True`
    /// vs `False`).
    StaticValue {
        /// Argument position.
        index: usize,
        /// Static kind (`int`, `float`, `bool`, `str`).
        kind: &'static str,
        /// Previous value, rendered.
        before: String,
        /// New value, rendered.
        after: String,
    },
    /// A *different variable object* was passed (variables key by
    /// identity, never by value).
    VariableIdentity {
        /// Argument position.
        index: usize,
        /// Previous variable id.
        before: u64,
        /// New variable id.
        after: u64,
    },
    /// The argument changed kind entirely (e.g. tensor → static int).
    Kind {
        /// Argument position.
        index: usize,
        /// Previous kind + value.
        before: String,
        /// New kind + value.
        after: String,
    },
    /// The requested device changed (the cache key couples the signature
    /// with the surrounding program state, §4.6).
    Device {
        /// Previous device.
        before: String,
        /// New device.
        after: String,
    },
}

impl fmt::Display for RetraceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetraceCause::ArgCount { before, after } => {
                write!(f, "argument count {before} → {after}")
            }
            RetraceCause::Rank { index, before, after } => write!(
                f,
                "arg {index}: rank {} → {} (shape {} → {})",
                before.len(),
                after.len(),
                fmt_dims(before),
                fmt_dims(after)
            ),
            RetraceCause::Shape { index, before, after } => {
                write!(f, "arg {index}: shape {} → {}", fmt_dims(before), fmt_dims(after))
            }
            RetraceCause::DType { index, before, after } => {
                write!(f, "arg {index}: dtype {before} → {after}")
            }
            RetraceCause::StaticValue { index, kind, before, after } => {
                write!(f, "arg {index}: static {kind} {before} → {after}")
            }
            RetraceCause::VariableIdentity { index, before, after } => {
                write!(f, "arg {index}: variable identity id {before} → id {after}")
            }
            RetraceCause::Kind { index, before, after } => {
                write!(f, "arg {index}: {before} → {after}")
            }
            RetraceCause::Device { before, after } => write!(f, "device {before} → {after}"),
        }
    }
}

/// Diff two cache keys into causes. Non-empty whenever the keys differ.
fn diff_key(before: &CacheKey, after: &CacheKey) -> Vec<RetraceCause> {
    let mut causes = Vec::new();
    if before.device != after.device {
        causes.push(RetraceCause::Device {
            before: before.device.clone(),
            after: after.device.clone(),
        });
    }
    if before.args.len() != after.args.len() {
        causes.push(RetraceCause::ArgCount { before: before.args.len(), after: after.args.len() });
    }
    for (i, (b, a)) in before.args.iter().zip(&after.args).enumerate() {
        if b == a {
            continue;
        }
        match (b, a) {
            (
                ArgKey::Tensor { dtype: bd, dims: bdims },
                ArgKey::Tensor { dtype: ad, dims: adims },
            ) => {
                if bd != ad {
                    causes.push(RetraceCause::DType { index: i, before: *bd, after: *ad });
                }
                if bdims.len() != adims.len() {
                    causes.push(RetraceCause::Rank {
                        index: i,
                        before: bdims.clone(),
                        after: adims.clone(),
                    });
                } else if bdims != adims {
                    causes.push(RetraceCause::Shape {
                        index: i,
                        before: bdims.clone(),
                        after: adims.clone(),
                    });
                }
            }
            (ArgKey::Var(bid), ArgKey::Var(aid)) => {
                causes.push(RetraceCause::VariableIdentity { index: i, before: *bid, after: *aid })
            }
            (ArgKey::Int(_), ArgKey::Int(_))
            | (ArgKey::Float(_), ArgKey::Float(_))
            | (ArgKey::Bool(_), ArgKey::Bool(_))
            | (ArgKey::Str(_), ArgKey::Str(_)) => {
                let (kind, bv) = static_parts(b);
                let (_, av) = static_parts(a);
                causes.push(RetraceCause::StaticValue { index: i, kind, before: bv, after: av });
            }
            _ => causes.push(RetraceCause::Kind {
                index: i,
                before: key_repr(b),
                after: key_repr(a),
            }),
        }
    }
    causes
}

/// The diff against the closest cached key — fewest differing components
/// (ties broken by insertion-arbitrary order; any closest key explains the
/// miss equally well).
fn closest_diff(prior: &[CacheKey], new_key: &CacheKey) -> Vec<RetraceCause> {
    prior.iter().map(|k| diff_key(k, new_key)).min_by_key(Vec::len).unwrap_or_default()
}

/// One recorded retrace: the concrete function it produced and why the
/// call's signature missed every cached specialization.
#[derive(Debug, Clone)]
pub struct RetraceEvent {
    /// 1-based retrace ordinal for this `Func` (the initial trace is not a
    /// retrace).
    pub ordinal: u64,
    /// Name of the concrete function the retrace produced.
    pub concrete_name: String,
    /// Differences against the closest previously cached signature.
    pub causes: Vec<RetraceCause>,
}

impl fmt::Display for RetraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let causes: Vec<String> = self.causes.iter().map(ToString::to_string).collect();
        write!(
            f,
            "retrace #{} (traced `{}`): {}",
            self.ordinal,
            self.concrete_name,
            causes.join("; ")
        )
    }
}

/// Bounded retrace log: a ring of the most recent diagnosed events plus a
/// count of older events evicted to keep a long-lived server from leaking
/// memory one `RetraceEvent` at a time. Ordinals stay global (eviction does
/// not renumber), so `retrace #37` means the same thing before and after the
/// ring wraps.
#[derive(Debug, Default)]
struct RetraceRing {
    events: std::collections::VecDeque<RetraceEvent>,
    dropped: u64,
}

/// Diagnosed retrace events retained per `Func`.
const RETRACE_LOG_CAP: usize = 64;

/// `TFE_LOG_RETRACES=N`: warn on stderr once a `Func` accumulates `N`
/// retraces (each further retrace also warns). Parsed once; unset, `0` or
/// unparsable disables the warning.
fn retrace_log_threshold() -> Option<u64> {
    static T: OnceLock<Option<u64>> = OnceLock::new();
    *T.get_or_init(|| {
        std::env::var("TFE_LOG_RETRACES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
    })
}

/// Lock-free trace-cache statistics for one [`Func`], backed by the
/// always-on metrics counters — reading them never contends with a trace
/// holding the cache mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuncStats {
    /// Calls that reused a cached concrete function.
    pub hits: u64,
    /// Calls that had to trace (initial traces + retraces).
    pub misses: u64,
    /// Misses that happened after at least one concrete function existed.
    pub retraces: u64,
    /// Concrete functions currently cached.
    pub concrete_functions: u64,
}

impl FuncStats {
    /// Total cache lookups.
    pub fn calls(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of calls served from the cache (0.0 when never called).
    pub fn hit_rate(&self) -> f64 {
        if self.calls() == 0 {
            0.0
        } else {
            self.hits as f64 / self.calls() as f64
        }
    }
}

// The four per-`Func` families, label `func`. A `Func`'s series end with it
// (`Drop for FuncInner`), so the registry holds live functions only.

fn func_hits() -> Arc<tfe_metrics::CounterVec> {
    tfe_metrics::counter_vec("tfe_func_cache_hits_total", "Per-function trace-cache hits", "func")
}

fn func_misses() -> Arc<tfe_metrics::CounterVec> {
    tfe_metrics::counter_vec(
        "tfe_func_cache_misses_total",
        "Per-function trace-cache misses (initial traces + retraces)",
        "func",
    )
}

fn func_retraces() -> Arc<tfe_metrics::CounterVec> {
    tfe_metrics::counter_vec(
        "tfe_func_retraces_total",
        "Per-function retraces (cache misses after the first trace)",
        "func",
    )
}

fn func_concrete() -> Arc<tfe_metrics::GaugeVec> {
    tfe_metrics::gauge_vec(
        "tfe_func_concrete_functions",
        "Per-function count of cached concrete (traced) graph functions",
        "func",
    )
}

fn cached_concrete_functions() -> &'static tfe_metrics::Gauge {
    tfe_metrics::static_gauge!(
        "tfe_trace_cache_concrete_functions",
        "Concrete (traced) graph functions cached across all live Funcs"
    )
}

struct FuncInner {
    name: String,
    /// Value of the `func` label on this function's metric series.
    label: String,
    trace_fn: Box<TraceClosure>,
    input_signature: Option<Vec<TensorSpec>>,
    cache: Mutex<HashMap<CacheKey, Arc<ConcreteFunction>>>,
    ever_traced: AtomicBool,
    counter: AtomicUsize,
    /// Per-func metric handles, fetched once here so the hot path never
    /// takes the labeled-family lock.
    m_hits: Arc<tfe_metrics::Counter>,
    m_misses: Arc<tfe_metrics::Counter>,
    m_retraces: Arc<tfe_metrics::Counter>,
    m_concrete: Arc<tfe_metrics::Gauge>,
    /// Every diagnosed retrace, in order.
    retrace_log: Mutex<RetraceRing>,
}

impl FuncInner {
    fn new(
        name: String,
        label: String,
        trace_fn: Box<TraceClosure>,
        input_signature: Option<Vec<TensorSpec>>,
    ) -> FuncInner {
        FuncInner {
            m_hits: func_hits().with(&label),
            m_misses: func_misses().with(&label),
            m_retraces: func_retraces().with(&label),
            m_concrete: func_concrete().with(&label),
            name,
            label,
            trace_fn,
            input_signature,
            cache: Mutex::new(HashMap::new()),
            ever_traced: AtomicBool::new(false),
            counter: AtomicUsize::new(0),
            retrace_log: Mutex::new(RetraceRing::default()),
        }
    }
}

impl Drop for FuncInner {
    fn drop(&mut self) {
        cached_concrete_functions().sub(self.cache.get_mut().len() as i64);
        for family in [func_hits(), func_misses(), func_retraces()] {
            family.remove(&self.label);
        }
        func_concrete().remove(&self.label);
    }
}

/// A polymorphic staged function: the object returned by [`function`].
///
/// ```
/// use tfe_core::{function, Arg};
/// use tfe_runtime::api;
/// # fn main() -> Result<(), tfe_runtime::RuntimeError> {
/// let square = function("square", |args| {
///     let x = args[0].as_tensor().expect("tensor arg");
///     Ok(vec![api::mul(x, x)?])
/// });
/// let y = square.call(&[Arg::from(&api::scalar(3.0f32))])?;
/// assert_eq!(y[0].scalar_f64()?, 9.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Func {
    inner: Arc<FuncInner>,
}

/// Create a staged function from a closure over [`Arg`]s — the analog of
/// decorating a Python function with `@tf.contrib.eager.function`.
pub fn function(
    name: &str,
    f: impl Fn(&[Arg]) -> Result<Vec<Tensor>> + Send + Sync + 'static,
) -> Func {
    crate::init();
    static ANON: AtomicUsize = AtomicUsize::new(0);
    let name = if name.is_empty() {
        format!("__anon{}", ANON.fetch_add(1, Ordering::Relaxed))
    } else {
        format!("{name}_{}", ANON.fetch_add(1, Ordering::Relaxed))
    };
    let label = name.clone();
    Func { inner: Arc::new(FuncInner::new(name, label, Box::new(f), None)) }
}

/// Single-tensor-in, single-tensor-out convenience wrapper.
pub fn function1(
    name: &str,
    f: impl Fn(&Tensor) -> Result<Tensor> + Send + Sync + 'static,
) -> Func {
    function(name, move |args| {
        let x = args
            .first()
            .and_then(Arg::as_tensor)
            .ok_or_else(|| RuntimeError::Internal("expected one tensor argument".to_string()))?;
        Ok(vec![f(x)?])
    })
}

impl Func {
    /// Constrain this function to an explicit input signature, eliminating
    /// input polymorphism: exactly one concrete function is generated, and
    /// `None` dims accept any size (e.g. a dynamic batch dimension).
    pub fn with_input_signature(self, signature: Vec<TensorSpec>) -> Func {
        let name = self.inner.name.clone();
        // The metric label gets a `#sig` suffix so the constrained variant's
        // series never merges with the original's (the trace name itself is
        // unchanged).
        let label = format!("{name}#sig");
        // Re-wrap the closure by delegating through the Arc.
        let orig = self.inner.clone();
        let trace_fn = Box::new(move |args: &[Arg]| (orig.trace_fn)(args));
        Func { inner: Arc::new(FuncInner::new(name, label, trace_fn, Some(signature))) }
    }

    /// The function's base name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of concrete graph functions traced so far (Listing 6's two
    /// specializations show up here).
    pub fn num_concrete(&self) -> usize {
        self.inner.cache.lock().len()
    }

    /// Invoke with mixed tensor/static arguments.
    ///
    /// # Errors
    /// Trace-time errors (invalid ops), signature mismatches, state-creation
    /// contract violations, or execution failures.
    pub fn call(&self, args: &[Arg]) -> Result<Vec<Tensor>> {
        // A top-level `Func` call is a request entry point: give the whole
        // call (trace-cache lookup, retrace, staged execution) one trace
        // id; nested calls inherit the ambient request instead.
        let _root = tfe_profile::request_scope("func", || format!("call:{}", self.inner.name));
        let concrete = self.concrete_for(args)?;
        let tensor_args: Vec<Tensor> = args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
        concrete.call(&tensor_args)
    }

    /// Invoke with tensor arguments only.
    ///
    /// # Errors
    /// As [`Func::call`].
    pub fn call_tensors(&self, args: &[&Tensor]) -> Result<Vec<Tensor>> {
        let args: Vec<Arg> = args.iter().map(|&t| Arg::from(t)).collect();
        self.call(&args)
    }

    /// Single-tensor convenience call.
    ///
    /// # Errors
    /// As [`Func::call`]; also if the function does not return exactly one
    /// tensor.
    pub fn call1(&self, x: &Tensor) -> Result<Tensor> {
        let mut out = self.call_tensors(&[x])?;
        if out.len() != 1 {
            return Err(RuntimeError::Internal(format!("expected one output, got {}", out.len())));
        }
        Ok(out.remove(0))
    }

    /// Resolve (tracing if needed) the concrete function for `args` — the
    /// `get_concrete_function` analog.
    ///
    /// # Errors
    /// As [`Func::call`].
    pub fn concrete_for(&self, args: &[Arg]) -> Result<Arc<ConcreteFunction>> {
        crate::init();
        if let Some(sig) = &self.inner.input_signature {
            let tensors: Vec<&Tensor> = args.iter().filter_map(Arg::as_tensor).collect();
            if tensors.len() != sig.len() {
                return Err(RuntimeError::Internal(format!(
                    "input signature expects {} tensors, got {}",
                    sig.len(),
                    tensors.len()
                )));
            }
            for (i, (spec, t)) in sig.iter().zip(&tensors).enumerate() {
                if !spec.matches(t) {
                    return Err(RuntimeError::Internal(format!(
                        "tensor argument {i} ({}{}) does not match input signature {}{}",
                        t.dtype(),
                        t.sym_shape(),
                        spec.dtype,
                        spec.shape
                    )));
                }
            }
        }
        let key = self.cache_key(args);
        // One lock acquisition answers both "is it cached?" and, on a miss,
        // "what keys exist to diff against?".
        let (hit, prior_keys) = {
            let cache = self.inner.cache.lock();
            match cache.get(&key) {
                Some(c) => (Some(c.clone()), Vec::new()),
                None => (None, cache.keys().cloned().collect::<Vec<_>>()),
            }
        };
        if let Some(hit) = hit {
            self.inner.m_hits.inc();
            tfe_metrics::static_counter!(
                "tfe_trace_cache_hits_total",
                "Func calls served by an already-traced concrete function"
            )
            .inc();
            tfe_profile::instant("trace", || format!("cache_hit:{}", self.inner.name));
            return Ok(hit);
        }
        self.inner.m_misses.inc();
        tfe_metrics::static_counter!(
            "tfe_trace_cache_misses_total",
            "Func calls that had to trace (initial traces + retraces)"
        )
        .inc();
        // A miss with prior concrete functions is a retrace (§4.6) — the
        // signature drifted. Diff the new key against the closest cached one
        // so the diagnostician can say exactly *what* drifted.
        let retrace_causes = if prior_keys.is_empty() {
            tfe_profile::instant("trace", || format!("cache_miss:{}", self.inner.name));
            None
        } else {
            self.inner.m_retraces.inc();
            tfe_metrics::static_counter!(
                "tfe_trace_cache_retraces_total",
                "Func cache misses that happened after the function was already traced"
            )
            .inc();
            tfe_profile::instant("trace", || format!("retrace:{}", self.inner.name));
            Some(closest_diff(&prior_keys, &key))
        };
        // Trace outside the cache lock so recursive calls don't deadlock.
        let concrete = {
            let _sp = tfe_profile::span("trace", || format!("trace:{}", self.inner.name));
            self.trace(args)?
        };
        if let Some(causes) = retrace_causes {
            self.record_retrace(&concrete.name, causes);
        }
        let mut cache = self.inner.cache.lock();
        let was = cache.len();
        let out = cache.entry(key).or_insert(concrete).clone();
        if cache.len() > was {
            cached_concrete_functions().inc();
        }
        self.inner.m_concrete.set(cache.len() as i64);
        Ok(out)
    }

    fn record_retrace(&self, concrete_name: &str, causes: Vec<RetraceCause>) {
        let mut log = self.inner.retrace_log.lock();
        let event = RetraceEvent {
            ordinal: log.dropped + log.events.len() as u64 + 1,
            concrete_name: concrete_name.to_string(),
            causes,
        };
        if let Some(threshold) = retrace_log_threshold() {
            if event.ordinal >= threshold {
                eprintln!(
                    "[tf-eager] warning: function `{}` keeps retracing \
                     (TFE_LOG_RETRACES={threshold}): {event}",
                    self.inner.name
                );
            }
        }
        log.events.push_back(event);
        while log.events.len() > RETRACE_LOG_CAP {
            log.events.pop_front();
            log.dropped += 1;
        }
    }

    /// Lock-free trace-cache statistics, read straight from the always-on
    /// metrics counters — never blocks on the cache mutex, so it is safe to
    /// poll from a monitoring thread while another thread is mid-trace.
    pub fn stats(&self) -> FuncStats {
        FuncStats {
            hits: self.inner.m_hits.get(),
            misses: self.inner.m_misses.get(),
            retraces: self.inner.m_retraces.get(),
            concrete_functions: self.inner.m_concrete.get().max(0) as u64,
        }
    }

    /// The retained diagnosed retraces, in order of occurrence. At most 64
    /// events are kept; see [`dropped_retraces`](Func::dropped_retraces)
    /// for how many older ones were evicted.
    pub fn retraces(&self) -> Vec<RetraceEvent> {
        self.inner.retrace_log.lock().events.iter().cloned().collect()
    }

    /// How many diagnosed retrace events were evicted from the bounded log.
    pub fn dropped_retraces(&self) -> u64 {
        self.inner.retrace_log.lock().dropped
    }

    /// Human-readable retrace report: per-func cache statistics followed by
    /// one line per retrace naming exactly which argument drifted and how.
    pub fn retrace_report(&self) -> String {
        let stats = self.stats();
        let mut out = format!(
            "function `{}`: {} calls, {} hits, {} misses, {} retraces, {} concrete functions\n",
            self.inner.name,
            stats.calls(),
            stats.hits,
            stats.misses,
            stats.retraces,
            stats.concrete_functions
        );
        let log = self.inner.retrace_log.lock();
        if log.events.is_empty() && log.dropped == 0 {
            out.push_str("  no retraces recorded\n");
        } else {
            if log.dropped > 0 {
                out.push_str(&format!(
                    "  ({} older retraces dropped, log capped at {})\n",
                    log.dropped, RETRACE_LOG_CAP
                ));
            }
            for event in log.events.iter() {
                out.push_str(&format!("  {event}\n"));
            }
        }
        out
    }

    /// Human-readable optimization report: one line per cached concrete
    /// function with the optimizer's replay rounds, executable node counts
    /// before/after, and per-family rewrite totals.
    /// The runtime-wide counterparts are the `tfe_pass_pipeline_*` metrics.
    pub fn optimization_report(&self) -> String {
        let mut entries: Vec<Arc<ConcreteFunction>> =
            self.inner.cache.lock().values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out =
            format!("function `{}`: {} concrete functions\n", self.inner.name, entries.len());
        if entries.is_empty() {
            out.push_str("  none traced yet\n");
        }
        for c in entries {
            let s = &c.opt_stats;
            out.push_str(&format!(
                "  {}: {} -> {} nodes, {} rounds, {} rewrites",
                c.name,
                c.raw.executable_node_count(),
                c.function.executable_node_count(),
                s.sweeps,
                s.total_rewrites(),
            ));
            if !s.rewrites.is_empty() {
                let parts: Vec<String> =
                    s.rewrites.iter().map(|(k, v)| format!("{k}={v}")).collect();
                out.push_str(&format!(" [{}]", parts.join(", ")));
            }
            out.push('\n');
        }
        out
    }

    fn cache_key(&self, args: &[Arg]) -> CacheKey {
        let mut keys = Vec::with_capacity(args.len());
        let mut tensor_idx = 0usize;
        for a in args {
            match (a, &self.inner.input_signature) {
                (Arg::Tensor(_), Some(sig)) => {
                    let spec = &sig[tensor_idx];
                    tensor_idx += 1;
                    keys.push(ArgKey::Tensor {
                        dtype: spec.dtype,
                        dims: spec.shape.dims().to_vec(),
                    });
                }
                _ => keys.push(a.key()),
            }
        }
        // §4.6: the signature is coupled with metadata about the
        // surrounding program state, such as the requested device.
        CacheKey { args: keys, device: context::current_device_name().to_string() }
    }

    fn trace(&self, args: &[Arg]) -> Result<Arc<ConcreteFunction>> {
        let idx = self.inner.counter.fetch_add(1, Ordering::Relaxed);
        let cname = format!("{}__{idx}", self.inner.name);
        let first_ever = !self.inner.ever_traced.load(Ordering::Acquire);
        let mut traced = self.trace_once(&cname, args)?;
        if !traced.created_variables.is_empty() {
            // State-creation contract (§4.6): variables may only be created
            // the first time the function is called; trace a second time
            // and require no creations.
            if !first_ever {
                return Err(RuntimeError::Internal(format!(
                    "function `{}` created variables on a non-first trace; \
                     state must only be created the first time the function is called",
                    self.inner.name
                )));
            }
            traced = self.trace_once(&cname, args)?;
            if !traced.created_variables.is_empty() {
                return Err(RuntimeError::Internal(format!(
                    "function `{}` created variables on its second trace; \
                     state must only be created the first time the function is called",
                    self.inner.name
                )));
            }
        }
        self.inner.ever_traced.store(true, Ordering::Release);

        let raw = Arc::new(traced.raw);
        let var_ids = collect_var_ids(&raw);
        let stateful = raw.is_stateful();
        let n_primary = raw.outputs.len();

        let (optimized, opt_stats) = optimize(&raw);
        let function = context::library().insert(optimized);
        let inference_attrs = ConcreteFunction::call_attrs(&function, stateful, &var_ids);

        let concrete = Arc::new(ConcreteFunction {
            name: cname,
            function,
            raw,
            captures: traced.captures,
            var_ids,
            stateful,
            n_primary,
            opt_stats,
            inference_attrs,
            pairs: Default::default(),
            owners: traced.owners,
        });
        crate::call_grad::index_concrete(&concrete.function.name, &concrete);
        Ok(concrete)
    }

    fn trace_once(&self, cname: &str, args: &[Arg]) -> Result<TraceOut> {
        let frame_id = context::begin_tracing(cname);
        let run = (|| -> Result<Vec<Tensor>> {
            let mut traced_args = Vec::with_capacity(args.len());
            let mut tensor_idx = 0usize;
            for a in args {
                match a {
                    Arg::Tensor(t) => {
                        let shape = match &self.inner.input_signature {
                            Some(sig) => sig[tensor_idx].shape.clone(),
                            None => t.sym_shape(),
                        };
                        tensor_idx += 1;
                        traced_args
                            .push(Arg::Tensor(context::tracing_placeholder(t.dtype(), shape)?));
                    }
                    other => traced_args.push(other.clone()),
                }
            }
            let outs = (self.inner.trace_fn)(&traced_args)?;
            // Returned values must be nodes of this frame; route foreign
            // (eager or outer-frame) tensors through `identity`, which
            // captures them.
            outs.into_iter()
                .map(|t| match &t {
                    Tensor::Symbolic(s) if s.frame_id == frame_id => Ok(t),
                    _ => Ok(context::execute(Op::Identity, &[t], Attrs::new())?.remove(0)),
                })
                .collect()
        })();
        let finished = context::end_tracing()?;
        let outs = run?;
        let out_refs: Vec<TensorRef> = outs
            .iter()
            .map(|t| {
                t.as_symbolic()
                    .map(|s| s.tref)
                    .ok_or_else(|| RuntimeError::Internal("non-symbolic trace output".into()))
            })
            .collect::<Result<_>>()?;
        let raw = finished.builder.finish(out_refs, finished.captures.len());
        Ok(TraceOut {
            raw,
            captures: finished.captures,
            created_variables: finished.created_variables,
            owners: finished.owners,
        })
    }
}

impl std::fmt::Debug for Func {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Func({}, {} concrete)", self.inner.name, self.num_concrete())
    }
}

struct TraceOut {
    raw: GraphFunction,
    captures: Vec<Tensor>,
    created_variables: Vec<u64>,
    owners: Vec<context::Owner>,
}

/// One pipeline for every device and every graph a concrete function owns
/// (inference, forward variants, backward): a replay through the
/// simplifying builder, then elementwise fusion (the compilation role of
/// §4.4).
pub(crate) fn optimize(f: &GraphFunction) -> (GraphFunction, passes::OptimizeStats) {
    let evaluator = |node: &tfe_graph::Node,
                     inputs: &[Arc<TensorData>]|
     -> std::result::Result<Vec<TensorData>, String> {
        tfe_runtime::kernels::run_kernel(node.op, &node.attrs, inputs).map_err(|e| e.to_string())
    };
    passes::optimize_with_stats(f, &passes::OptimizeOptions::default(), Some(&evaluator))
}

/// Every variable id referenced by a graph (including, transitively, by its
/// `call` nodes — which carry their own `var_ids` attribute).
pub(crate) fn collect_var_ids(f: &GraphFunction) -> Vec<i64> {
    let mut set = BTreeSet::new();
    for node in &f.nodes {
        if let Ok(id) = node.attrs.int("var_id") {
            set.insert(id);
        }
        if let Ok(list) = node.attrs.int_list("var_ids") {
            set.extend(list.iter().copied());
        }
    }
    set.into_iter().collect()
}

/// One traced specialization: a graph function plus its captured inputs.
///
/// The single owner of everything traced for it — the inference graph, the
/// raw trace, both lazily built forward/backward pairs — and, through
/// `owners`, of every function its graphs name. Dropping it takes its names
/// out of the function library and the gradient index.
pub struct ConcreteFunction {
    /// Library name of the (optimized) inference graph.
    pub name: String,
    /// The optimized graph function.
    pub function: Arc<GraphFunction>,
    /// The unoptimized trace — the source of truth for building the
    /// forward-with-intermediates and backward functions (§4.2).
    pub raw: Arc<GraphFunction>,
    /// Captured outer tensors, appended to the declared arguments.
    pub captures: Vec<Tensor>,
    /// Variables the graph references (by reference, §4.6 Listing 7).
    pub var_ids: Vec<i64>,
    /// Whether the graph has side effects.
    pub stateful: bool,
    /// Number of user-visible outputs.
    pub n_primary: usize,
    /// What the optimizer did to turn [`raw`](Self::raw) into
    /// [`function`](Self::function): replay rounds and per-family rewrites.
    pub opt_stats: passes::OptimizeStats,
    /// The `call` attributes of [`function`](Self::function), encoded once.
    pub(crate) inference_attrs: Attrs,
    /// The first-order and the any-order forward/backward pair (§4.2), in
    /// that order, each built when first needed.
    pub(crate) pairs: [OnceLock<std::result::Result<Arc<ForwardBundle>, String>>; 2],
    /// What the nodes of `raw` name: the functions it calls or branches to
    /// and the host closures it embeds, collected by the trace. Held, never
    /// read.
    #[allow(dead_code)]
    pub(crate) owners: Vec<context::Owner>,
}

/// The one way a [`ConcreteFunction`] comes to be held by what can still
/// reach it by name, called wherever one of its names (inference, forward
/// variant, backward) has just gone into the attributes of an executed op.
/// The holders are then exactly: the graph being traced, which got a node
/// with the name (and the `ConcreteFunction` built from that trace after
/// it); every active tape, which may have recorded the op and will resolve
/// the name to differentiate it; and, under async dispatch, the dispatch
/// streams until the calls queued so far have run.
pub(crate) fn keep_alive(conc: &Arc<ConcreteFunction>) {
    let owner: context::Owner = conc.clone();
    if context::is_tracing() {
        context::retain_in_trace(&owner);
    } else {
        context::retain_behind_queued_calls(&owner);
    }
    for tape in context::active_tapes() {
        tape.retain(owner.clone());
    }
}

impl Drop for ConcreteFunction {
    /// May run on a dispatch-stream thread (a handle parked behind a queued
    /// call): takes the two table locks, one at a time, and nothing else.
    fn drop(&mut self) {
        let pairs = self.pairs.iter().filter_map(|p| p.get()?.as_ref().ok());
        for f in std::iter::once(&self.function).chain(pairs.map(|p| &p.fwd)) {
            context::library().remove(f);
            crate::call_grad::unindex_concrete(&f.name);
        }
    }
}

impl ConcreteFunction {
    /// Graph attributes for a `call` node invoking function `f`.
    pub(crate) fn call_attrs(f: &GraphFunction, stateful: bool, var_ids: &[i64]) -> Attrs {
        let (d, s) = tfe_ops::catalog::encode_sig(&f.output_sigs());
        Attrs::new()
            .with("function", f.name.clone())
            .with("stateful", stateful)
            .with("out_dtypes", d)
            .with("out_shapes", s)
            .with("var_ids", var_ids.to_vec())
    }

    /// Invoke the graph function on tensor arguments (captures appended
    /// automatically). Works eagerly and inside traces (composition via
    /// `call` nodes, Listing 8).
    ///
    /// When a gradient tape is active a forward variant runs instead, which
    /// also returns the values the backward pass reads, so that pass
    /// recomputes nothing (§4.2): eagerly under one tape the first-order
    /// variant (optimized, returning only what its backward reads), under
    /// two or more, or inside a trace, the any-order one (`call_grad` module
    /// docs say why that rule is sound).
    ///
    /// # Errors
    /// Arity mismatches or execution failures.
    pub fn call(self: &Arc<Self>, tensor_args: &[Tensor]) -> Result<Vec<Tensor>> {
        let declared = self.function.inputs.len() - self.function.num_captures;
        if tensor_args.len() != declared {
            return Err(RuntimeError::Internal(format!(
                "function `{}` expects {declared} tensor arguments, got {}",
                self.name,
                tensor_args.len()
            )));
        }
        let mut all = tensor_args.to_vec();
        all.extend(self.captures.iter().cloned());
        let outs = match context::active_tapes().len() {
            0 => context::execute(Op::Call, &all, self.inference_attrs.clone())?,
            tapes => {
                // The tape that differentiates this call pops itself to do
                // so; the others record the backward call beside this one.
                let pair = self.pair(GradTargets::observed_by(tapes - 1))?;
                let mut outs = context::execute(Op::Call, &all, pair.fwd_attrs.clone())?;
                outs.truncate(self.n_primary);
                outs
            }
        };
        keep_alive(self);
        Ok(outs)
    }

    /// Build (once) the any-order forward/backward pair: the forward returns
    /// every intermediate and the backward takes a gradient for each.
    ///
    /// # Errors
    /// Gradient-construction failures (e.g. an op without a registered
    /// gradient inside the traced function).
    pub fn forward_bundle(self: &Arc<Self>) -> Result<Arc<ForwardBundle>> {
        self.pair(GradTargets::All)
    }

    /// Build (once) the first-order pair: the backward takes a gradient per
    /// primary output and the forward returns, after them, only the
    /// intermediates that backward reads.
    ///
    /// # Errors
    /// As [`ConcreteFunction::forward_bundle`].
    pub fn first_order_bundle(self: &Arc<Self>) -> Result<Arc<ForwardBundle>> {
        self.pair(GradTargets::Primary)
    }

    pub(crate) fn pair(self: &Arc<Self>, targets: GradTargets) -> Result<Arc<ForwardBundle>> {
        self.pairs[targets as usize]
            .get_or_init(|| {
                crate::call_grad::build_pair(self, targets).map(Arc::new).map_err(|e| e.to_string())
            })
            .clone()
            .map_err(RuntimeError::Internal)
    }

    /// The already-built pair whose forward variant is named `fwd_name`.
    pub(crate) fn built_pair(&self, fwd_name: &str) -> Option<Arc<ForwardBundle>> {
        let mut built = self.pairs.iter().filter_map(|p| p.get()?.as_ref().ok());
        built.find(|p| p.fwd_name == fwd_name).cloned()
    }
}

impl std::fmt::Debug for ConcreteFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ConcreteFunction({}, {} nodes optimized / {} raw, {} captures, stateful={})",
            self.name,
            self.function.executable_node_count(),
            self.raw.executable_node_count(),
            self.captures.len(),
            self.stateful
        )
    }
}
