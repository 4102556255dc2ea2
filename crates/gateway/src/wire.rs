//! Request wire format: typed, validated views of the JSON bodies the
//! gateway accepts.
//!
//! Every route takes a JSON object. Work-carrying requests
//! (`/synthesize`, `/sweep`) name their input in exactly one of three
//! ways:
//!
//! * `"trace"` — a trace in the textual interchange format of
//!   `stbus_traffic::io` (the format `stbus generate` writes). The
//!   request designs **one** crossbar direction from that trace,
//!   byte-identical to `stbus synthesize --trace … --json`.
//! * `"suite"` — a named generator (`mat1|mat2|fft|qsort|des|synthetic`)
//!   plus `"seed"` (default `0xDA7E2005`, the CLI's). Both directions
//!   are designed through the staged pipeline and its artifact caches.
//! * `"scaled"` — a scaled synthetic SoC with that many targets, plus
//!   `"seed"`. Both directions, cached, like `"suite"`.
//!
//! Common knobs mirror the CLI flags one-for-one: `"window"` (u64 ≥ 1),
//! `"threshold"` (finite, ≥ 0), `"maxtb"` (≥ 1), `"response_scale"`
//! (finite, > 0), `"solver"` (`exact|heuristic|portfolio`) and `"jobs"`
//! (1 to [`MAX_JOBS`]; only a sweep reads it). `/sweep` adds
//! `"thresholds"`: a non-empty array of valid thresholds, streamed one
//! result line each. `/suite` takes only
//! `"solver"`, `"jobs"` and `"seed"` — the per-application parameters
//! are pinned to the paper's, exactly as in `stbus suite`.
//!
//! Phase 3 runs one exact search, so the removed `"pruning"` and
//! `"search"` knobs are answered `400` on every route rather than
//! silently ignored.
//!
//! Validation happens here, before a request is admitted: anything
//! malformed is answered `400` with an error message instead of ever
//! reaching a worker (the `DesignParams` builders assert on invalid
//! values, and a panicking worker would be a crash a client can cause).

use crate::json::{self, Value};
use stbus_core::{DesignParams, SolverKind};
use stbus_traffic::workloads::{self, Application};
use stbus_traffic::{
    io as trace_io, InitiatorId, TargetEdit, TargetId, Trace, TraceEvent, WorkloadDelta,
};
use std::num::NonZeroUsize;

/// The CLI's default base seed, shared by `/suite` and workload specs.
pub const DEFAULT_SEED: u64 = 0xDA7E_2005;

/// The input an admitted request will design from.
#[derive(Debug, Clone)]
pub enum WorkSpec {
    /// A parsed interchange-format trace: one direction, CLI-identical.
    Trace(Trace),
    /// A generated application: both directions, artifact-cached.
    Workload(WorkloadSpec),
}

/// The generators a `"suite"` spec may name. The first five, in this
/// order, are the paper suite ([`WorkloadSpec::paper_suite`]).
const SUITE_NAMES: [&str; 6] = ["mat1", "mat2", "fft", "qsort", "des", "synthetic"];

/// A deterministic workload generator invocation.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    kind: WorkloadKind,
    seed: u64,
}

#[derive(Debug, Clone, Copy)]
enum WorkloadKind {
    /// Index into [`SUITE_NAMES`].
    Suite(usize),
    Scaled(usize),
}

impl WorkloadSpec {
    /// Generates the application (deterministic per spec).
    #[must_use]
    pub fn build(&self) -> Application {
        match self.kind {
            WorkloadKind::Suite(index) => match SUITE_NAMES[index] {
                "mat1" => workloads::matrix::mat1(self.seed),
                "mat2" => workloads::matrix::mat2(self.seed),
                "fft" => workloads::fft::fft(self.seed),
                "qsort" => workloads::qsort::qsort(self.seed),
                "des" => workloads::des::des(self.seed),
                "synthetic" => workloads::synthetic::synthetic20(self.seed),
                other => unreachable!("suite name `{other}` has no generator"),
            },
            WorkloadKind::Scaled(targets) => workloads::synthetic::scaled_soc(targets, self.seed),
        }
    }

    /// Injective `[generator, seed]` encoding of the spec. [`build`] is a
    /// pure function of it, so the gateway's collect cache keys on it and
    /// a warm request never generates its application again.
    ///
    /// [`build`]: WorkloadSpec::build
    #[must_use]
    pub(crate) fn fingerprint(&self) -> [u64; 2] {
        let generator = match self.kind {
            WorkloadKind::Suite(index) => index,
            WorkloadKind::Scaled(targets) => SUITE_NAMES.len() + targets,
        };
        [generator as u64, self.seed]
    }

    /// The specs whose builds are [`workloads::paper_suite`]`(seed)`, in
    /// its order, each with the name its application carries — the way
    /// `/suite` reaches the spec-keyed caches and the paper parameters
    /// without generating anything.
    #[must_use]
    pub(crate) fn paper_suite(seed: u64) -> Vec<(&'static str, Self)> {
        workloads::PAPER_SUITE_NAMES
            .into_iter()
            .enumerate()
            .map(|(index, name)| {
                let spec = Self {
                    kind: WorkloadKind::Suite(index),
                    seed: seed.wrapping_add(index as u64),
                };
                (name, spec)
            })
            .collect()
    }
}

/// A validated `/synthesize` request.
#[derive(Debug, Clone)]
pub struct SynthesizeRequest {
    /// What to design from.
    pub work: WorkSpec,
    /// Full design parameters (knobs merged over the defaults).
    pub params: DesignParams,
    /// Synthesis strategy.
    pub solver: SolverKind,
}

/// A validated `/sweep` request: the base request plus the θ grid.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The shared input, parameters and strategy.
    pub base: SynthesizeRequest,
    /// Overlap thresholds, streamed in order.
    pub thresholds: Vec<f64>,
    /// How many thresholds evaluate at once (`None` = the executor's
    /// width). Result-invariant.
    pub jobs: Option<NonZeroUsize>,
}

/// A validated `/suite` request.
#[derive(Debug, Clone)]
pub struct SuiteRequest {
    /// Synthesis strategy for all five applications.
    pub solver: SolverKind,
    /// Base seed for the paper suite generators.
    pub seed: u64,
}

/// A validated incremental re-synthesis request: a prior artifact's
/// content address plus the workload delta to apply to it.
///
/// The referenced artifact pins the application, parameters and solver
/// of the base request; a delta request may add only `"jobs"`, which is
/// checked like every route's and has no effect. Everything the delta
/// changes — trace edits, added/removed targets, a new θ — travels in
/// the `"delta"` object (see [`parse_delta_spec`] for the wire shape).
#[derive(Debug, Clone)]
pub struct DeltaRequest {
    /// Content address from a previous workload-mode response's
    /// `"artifact"` field.
    pub artifact: String,
    /// The structural workload change to apply.
    pub delta: WorkloadDelta,
}

/// Any admitted unit of work.
#[derive(Debug, Clone)]
pub enum WorkRequest {
    /// One design request.
    Synthesize(SynthesizeRequest),
    /// A streamed threshold sweep.
    Sweep(SweepRequest),
    /// The five-application paper suite.
    Suite(SuiteRequest),
    /// Warm-started re-synthesis from a cached artifact plus a delta.
    Delta(DeltaRequest),
}

fn parse_object(body: &str) -> Result<Value, String> {
    if body.trim().is_empty() {
        return Ok(Value::Obj(Vec::new()));
    }
    let value = json::parse(body).map_err(|e| e.to_string())?;
    match value {
        Value::Obj(_) => Ok(value),
        _ => Err("request body must be a JSON object".into()),
    }
}

fn field_u64(obj: &Value, key: &str, min: u64) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
            if n < min {
                return Err(format!("`{key}` must be at least {min}"));
            }
            Ok(Some(n))
        }
    }
}

fn field_threshold(v: &Value, key: &str) -> Result<f64, String> {
    let theta = v
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))?;
    if !theta.is_finite() || theta < 0.0 {
        return Err(format!("`{key}` must be finite and non-negative"));
    }
    Ok(theta)
}

fn parse_work(obj: &Value) -> Result<WorkSpec, String> {
    let seed = field_u64(obj, "seed", 0)?.unwrap_or(DEFAULT_SEED);
    let named = [
        obj.get("trace").is_some(),
        obj.get("suite").is_some(),
        obj.get("scaled").is_some(),
    ]
    .iter()
    .filter(|&&x| x)
    .count();
    if named != 1 {
        return Err("name the input with exactly one of `trace`, `suite` or `scaled`".into());
    }
    if let Some(text) = obj.get("trace") {
        let text = text.as_str().ok_or("`trace` must be a string")?;
        let trace = trace_io::read_trace(text.as_bytes()).map_err(|e| format!("trace: {e}"))?;
        return Ok(WorkSpec::Trace(trace));
    }
    if let Some(name) = obj.get("suite") {
        let name = name.as_str().ok_or("`suite` must be a string")?;
        let index = SUITE_NAMES
            .iter()
            .position(|&known| known == name)
            .ok_or_else(|| format!("unknown suite `{name}` ({})", SUITE_NAMES.join("|")))?;
        return Ok(WorkSpec::Workload(WorkloadSpec {
            kind: WorkloadKind::Suite(index),
            seed,
        }));
    }
    let targets = field_u64(obj, "scaled", 1)?.expect("presence checked") as usize;
    if targets > 512 {
        return Err("`scaled` is capped at 512 targets".into());
    }
    Ok(WorkSpec::Workload(WorkloadSpec {
        kind: WorkloadKind::Scaled(targets),
        seed,
    }))
}

/// Solver knobs the wire once accepted. Phase 3 now runs one exact
/// search, so a request naming one is refused instead of being served by
/// a different engine than it asked for.
const REMOVED_KNOBS: [&str; 2] = ["pruning", "search"];

fn reject_removed_knobs(obj: &Value) -> Result<(), String> {
    match REMOVED_KNOBS.iter().find(|&&knob| obj.get(knob).is_some()) {
        Some(knob) => Err(format!(
            "`{knob}` was removed: phase 3 runs one exact search, and only \
             `solver` chooses how it runs"
        )),
        None => Ok(()),
    }
}

fn parse_params(obj: &Value) -> Result<DesignParams, String> {
    reject_removed_knobs(obj)?;
    let mut params = DesignParams::default();
    if let Some(window) = field_u64(obj, "window", 1)? {
        params = params.with_window_size(window);
    }
    if let Some(theta) = obj.get("threshold") {
        params = params.with_overlap_threshold(field_threshold(theta, "threshold")?);
    }
    if let Some(maxtb) = field_u64(obj, "maxtb", 1)? {
        params = params.with_maxtb(maxtb as usize);
    }
    if let Some(scale) = obj.get("response_scale") {
        let scale = scale.as_f64().ok_or("`response_scale` must be a number")?;
        if !scale.is_finite() || scale <= 0.0 {
            return Err("`response_scale` must be finite and positive".into());
        }
        params = params.with_response_scale(scale);
    }
    Ok(params)
}

fn parse_solver(obj: &Value) -> Result<SolverKind, String> {
    match obj.get("solver") {
        None | Some(Value::Null) => Ok(SolverKind::Exact),
        Some(v) => v
            .as_str()
            .ok_or_else(|| "`solver` must be a string".to_string())?
            .parse(),
    }
}

/// The largest `"jobs"` a request may ask for. Every route checks it, so
/// recorded journals that carry it still parse; only a sweep reads it, as
/// how many of its points are queued at once. A request never grows the
/// process-wide executor (only the operator's `--jobs` does).
pub const MAX_JOBS: usize = 256;

fn parse_jobs(obj: &Value) -> Result<Option<NonZeroUsize>, String> {
    match field_u64(obj, "jobs", 1)? {
        Some(n) if n > MAX_JOBS as u64 => Err(format!("`jobs` is capped at {MAX_JOBS}")),
        n => Ok(n.map(|n| NonZeroUsize::new(n as usize).expect("validated at least 1"))),
    }
}

/// Parses one `"events"` entry of an edit: `[initiator, start, duration]`
/// with an optional fourth `true` marking the event critical. The event's
/// target is the edit's target.
fn parse_event(v: &Value, target: TargetId) -> Result<TraceEvent, String> {
    let tuple = v
        .as_array()
        .ok_or("each event must be [initiator, start, duration(, critical)]")?;
    if tuple.len() < 3 || tuple.len() > 4 {
        return Err("each event must be [initiator, start, duration(, critical)]".into());
    }
    let initiator = tuple[0]
        .as_u64()
        .ok_or("event initiator must be a non-negative integer")? as usize;
    let start = tuple[1]
        .as_u64()
        .ok_or("event start must be a non-negative integer")?;
    let duration = tuple[2]
        .as_u64()
        .filter(|&d| d >= 1 && d <= u64::from(u32::MAX))
        .ok_or("event duration must be an integer of at least 1")? as u32;
    let critical = match tuple.get(3) {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("event critical flag must be a boolean".into()),
    };
    let event = if critical {
        TraceEvent::critical(InitiatorId::new(initiator), target, start, duration)
    } else {
        TraceEvent::new(InitiatorId::new(initiator), target, start, duration)
    };
    Ok(event)
}

/// Parses the `"delta"` object of a delta request:
///
/// ```json
/// {"add_targets": 1,
///  "remove": [2],
///  "edits": [{"target": 5, "events": [[0, 100, 8], [1, 120, 4, true]]}],
///  "threshold": 0.2}
/// ```
///
/// Every field is optional (an empty object is the no-op delta, which a
/// client may send to re-run an artifact warm). Structural validation
/// happens here; semantic validation against the artifact's base trace
/// (index ranges, removed-and-edited conflicts, foreign initiators) is
/// [`stbus_traffic::WorkloadDelta::validate`]'s job at execution time,
/// answered `400` with the [`stbus_traffic::DeltaError`] message.
fn parse_delta_spec(obj: &Value) -> Result<WorkloadDelta, String> {
    let delta_obj = match obj.get("delta") {
        None | Some(Value::Null) => return Ok(WorkloadDelta::empty()),
        Some(v @ Value::Obj(_)) => v,
        Some(_) => return Err("`delta` must be an object".into()),
    };
    let mut delta = WorkloadDelta::empty();
    delta.add_targets = field_u64(delta_obj, "add_targets", 0)?.unwrap_or(0) as usize;
    if delta.add_targets > 512 {
        return Err("`add_targets` is capped at 512".into());
    }
    if let Some(remove) = delta_obj.get("remove") {
        let remove = remove
            .as_array()
            .ok_or("`remove` must be an array of target indices")?;
        for v in remove {
            let t = v
                .as_u64()
                .ok_or("`remove` entries must be non-negative integers")?;
            delta.removed.push(TargetId::new(t as usize));
        }
    }
    if let Some(edits) = delta_obj.get("edits") {
        let edits = edits.as_array().ok_or("`edits` must be an array")?;
        for edit in edits {
            let target = edit
                .get("target")
                .and_then(Value::as_u64)
                .ok_or("each edit needs a `target` index")? as usize;
            let target = TargetId::new(target);
            let events = edit
                .get("events")
                .and_then(Value::as_array)
                .ok_or("each edit needs an `events` array")?;
            if events.len() > 100_000 {
                return Err("an edit is capped at 100000 events".into());
            }
            let events = events
                .iter()
                .map(|v| parse_event(v, target))
                .collect::<Result<Vec<_>, String>>()?;
            delta.edits.push(TargetEdit { target, events });
        }
    }
    if let Some(theta) = delta_obj.get("threshold") {
        delta.threshold = Some(field_threshold(theta, "threshold")?);
    }
    Ok(delta)
}

/// Parses and validates a delta request (`/synthesize` body carrying an
/// `"artifact"` reference).
///
/// # Errors
///
/// A client-facing message on any malformed field, including design
/// knobs that conflict with the artifact's pinned parameters.
pub fn parse_delta(body: &str) -> Result<DeltaRequest, String> {
    let obj = parse_object(body)?;
    let artifact = obj
        .get("artifact")
        .and_then(Value::as_str)
        .ok_or("`artifact` must be a content-address string")?;
    if artifact.is_empty()
        || artifact.len() > 128
        || !artifact.bytes().all(|b| b.is_ascii_hexdigit())
    {
        return Err("`artifact` must be a hex content address".into());
    }
    // The artifact pins workload and knobs; a second naming or parameter
    // override would be ambiguous, so reject instead of guessing.
    for conflicting in [
        "trace",
        "suite",
        "scaled",
        "window",
        "threshold",
        "maxtb",
        "response_scale",
        "solver",
        "pruning",
        "search",
        "seed",
    ] {
        if obj.get(conflicting).is_some() {
            return Err(format!(
                "`{conflicting}` conflicts with `artifact` (the artifact pins it; \
                 use `delta.threshold` to move θ)"
            ));
        }
    }
    parse_jobs(&obj)?;
    Ok(DeltaRequest {
        artifact: artifact.to_ascii_lowercase(),
        delta: parse_delta_spec(&obj)?,
    })
}

/// Parses and validates a `/synthesize` body.
///
/// # Errors
///
/// A client-facing message (the `400` body) on any malformed field.
pub fn parse_synthesize(body: &str) -> Result<SynthesizeRequest, String> {
    let obj = parse_object(body)?;
    parse_jobs(&obj)?;
    Ok(SynthesizeRequest {
        work: parse_work(&obj)?,
        params: parse_params(&obj)?,
        solver: parse_solver(&obj)?,
    })
}

/// Routes a `/synthesize` body: an `"artifact"` reference parses as a
/// [`DeltaRequest`], anything else as a fresh [`SynthesizeRequest`].
///
/// # Errors
///
/// A client-facing message on any malformed field.
pub fn parse_synthesize_route(body: &str) -> Result<WorkRequest, String> {
    let obj = parse_object(body)?;
    if obj.get("artifact").is_some() {
        parse_delta(body).map(WorkRequest::Delta)
    } else {
        parse_synthesize(body).map(WorkRequest::Synthesize)
    }
}

/// Parses and validates a `/sweep` body.
///
/// # Errors
///
/// A client-facing message on any malformed field, including an empty
/// or missing `thresholds` array.
pub fn parse_sweep(body: &str) -> Result<SweepRequest, String> {
    let obj = parse_object(body)?;
    let thresholds = obj
        .get("thresholds")
        .and_then(Value::as_array)
        .ok_or("`thresholds` must be an array of numbers")?;
    if thresholds.is_empty() {
        return Err("`thresholds` must not be empty".into());
    }
    if thresholds.len() > 4_096 {
        return Err("`thresholds` is capped at 4096 points".into());
    }
    let thresholds = thresholds
        .iter()
        .map(|v| field_threshold(v, "thresholds"))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(SweepRequest {
        base: SynthesizeRequest {
            work: parse_work(&obj)?,
            params: parse_params(&obj)?,
            solver: parse_solver(&obj)?,
        },
        thresholds,
        jobs: parse_jobs(&obj)?,
    })
}

/// Parses and validates a `/suite` body.
///
/// # Errors
///
/// A client-facing message on any malformed field.
pub fn parse_suite(body: &str) -> Result<SuiteRequest, String> {
    let obj = parse_object(body)?;
    reject_removed_knobs(&obj)?;
    parse_jobs(&obj)?;
    Ok(SuiteRequest {
        solver: parse_solver(&obj)?,
        seed: field_u64(&obj, "seed", 0)?.unwrap_or(DEFAULT_SEED),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_request_round_trips() {
        let req = parse_synthesize(r#"{"suite":"mat2","seed":42,"threshold":0.15}"#).unwrap();
        assert!(matches!(req.work, WorkSpec::Workload(_)));
        assert_eq!(req.params.overlap_threshold, 0.15);
        assert_eq!(req.solver, SolverKind::Exact);
        let WorkSpec::Workload(spec) = &req.work else {
            unreachable!()
        };
        assert_eq!(spec.build().name(), "Mat2");
    }

    #[test]
    fn paper_suite_specs_build_the_paper_suite() {
        let specs = WorkloadSpec::paper_suite(7);
        let apps = workloads::paper_suite(7);
        assert_eq!(specs.len(), apps.len());
        for ((name, spec), app) in specs.iter().zip(&apps) {
            let built = spec.build();
            assert_eq!(*name, app.name());
            assert_eq!(built.name(), app.name());
            assert_eq!(built.content_digest(), app.content_digest());
        }
    }

    #[test]
    fn spec_fingerprints_are_injective() {
        let spec = |body: &str| match parse_synthesize(body).unwrap().work {
            WorkSpec::Workload(spec) => spec.fingerprint(),
            WorkSpec::Trace(_) => unreachable!("workload body"),
        };
        let prints = [
            spec(r#"{"suite":"mat2","seed":1}"#),
            spec(r#"{"suite":"mat2","seed":2}"#),
            spec(r#"{"suite":"mat1","seed":1}"#),
            spec(r#"{"suite":"synthetic","seed":1}"#),
            spec(r#"{"scaled":1,"seed":1}"#),
            spec(r#"{"scaled":2,"seed":1}"#),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            spec(r#"{"suite":"fft","seed":9}"#),
            spec(r#"{"seed":9,"suite":"fft"}"#)
        );
    }

    #[test]
    fn trace_request_parses_interchange_format() {
        let app = workloads::matrix::mat2(42);
        let text = trace_io::trace_to_string(&app.trace);
        let body = format!(
            "{{\"trace\":\"{}\",\"solver\":\"portfolio\",\"jobs\":2}}",
            text.replace('\\', "\\\\").replace('\n', "\\n")
        );
        let req = parse_synthesize(&body).unwrap();
        let WorkSpec::Trace(trace) = &req.work else {
            panic!("expected trace mode")
        };
        assert_eq!(trace.len(), app.trace.len());
        assert_eq!(req.solver, SolverKind::Portfolio);
    }

    #[test]
    fn sweep_needs_a_threshold_grid() {
        assert!(parse_sweep(r#"{"suite":"mat2"}"#).is_err());
        assert!(parse_sweep(r#"{"suite":"mat2","thresholds":[]}"#).is_err());
        assert!(parse_sweep(r#"{"suite":"mat2","thresholds":[0.1,-0.2]}"#).is_err());
        let req = parse_sweep(r#"{"suite":"mat2","thresholds":[0.1,0.2]}"#).unwrap();
        assert_eq!(req.thresholds, vec![0.1, 0.2]);
        assert!(req.jobs.is_none());
        let req = parse_sweep(r#"{"suite":"mat2","thresholds":[0.1],"jobs":2}"#).unwrap();
        assert_eq!(req.jobs.map(NonZeroUsize::get), Some(2));
    }

    #[test]
    fn invalid_fields_become_messages_not_panics() {
        for bad in [
            r#"{"suite":"mat2","window":0}"#,
            r#"{"suite":"mat2","threshold":-0.5}"#,
            r#"{"suite":"mat2","threshold":"high"}"#,
            r#"{"suite":"mat2","maxtb":0}"#,
            r#"{"suite":"mat2","response_scale":0}"#,
            r#"{"suite":"mat2","solver":"oracle"}"#,
            r#"{"suite":"nope"}"#,
            r#"{"scaled":0}"#,
            r#"{"trace":"garbage"}"#,
            r#"{"suite":"mat2","trace":"x"}"#,
            r#"{}"#,
            r#"not json"#,
        ] {
            assert!(parse_synthesize(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn delta_request_parses_all_fields() {
        let body = r#"{"artifact":"ABCDEF0123456789","jobs":4,
            "delta":{"add_targets":1,"remove":[2],
                     "edits":[{"target":5,"events":[[0,100,8],[1,120,4,true]]}],
                     "threshold":0.2}}"#;
        let WorkRequest::Delta(req) = parse_synthesize_route(body).unwrap() else {
            panic!("expected delta route")
        };
        assert_eq!(req.artifact, "abcdef0123456789");
        assert_eq!(req.delta.add_targets, 1);
        assert_eq!(req.delta.removed, vec![TargetId::new(2)]);
        assert_eq!(req.delta.threshold, Some(0.2));
        assert_eq!(req.delta.edits.len(), 1);
        let edit = &req.delta.edits[0];
        assert_eq!(edit.target, TargetId::new(5));
        assert_eq!(
            edit.events,
            vec![
                TraceEvent::new(InitiatorId::new(0), TargetId::new(5), 100, 8),
                TraceEvent::critical(InitiatorId::new(1), TargetId::new(5), 120, 4),
            ]
        );
    }

    #[test]
    fn delta_request_defaults_to_the_noop_delta() {
        let req = parse_delta(r#"{"artifact":"00ff"}"#).unwrap();
        assert_eq!(req.delta, WorkloadDelta::empty());
    }

    #[test]
    fn artifact_requests_reject_conflicting_knobs() {
        for bad in [
            r#"{"artifact":"00ff","suite":"mat2"}"#,
            r#"{"artifact":"00ff","trace":"x"}"#,
            r#"{"artifact":"00ff","threshold":0.2}"#,
            r#"{"artifact":"00ff","solver":"exact"}"#,
            r#"{"artifact":"00ff","pruning":"off"}"#,
            r#"{"artifact":"00ff","search":"standard"}"#,
            r#"{"artifact":"00ff","seed":7}"#,
            r#"{"artifact":""}"#,
            r#"{"artifact":"not hex!"}"#,
            r#"{"artifact":123}"#,
            r#"{"artifact":"00ff","delta":{"threshold":-0.5}}"#,
            r#"{"artifact":"00ff","delta":{"edits":[{"target":0,"events":[[0,0,0]]}]}}"#,
            r#"{"artifact":"00ff","delta":{"edits":[{"target":0,"events":[[0,0]]}]}}"#,
            r#"{"artifact":"00ff","delta":{"edits":[{"events":[[0,0,1]]}]}}"#,
            r#"{"artifact":"00ff","delta":{"remove":"all"}}"#,
            r#"{"artifact":"00ff","delta":[1]}"#,
        ] {
            assert!(parse_delta(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn removed_solver_knobs_are_rejected_on_every_route() {
        for knob in REMOVED_KNOBS {
            for value in [r#""off""#, r#""standard""#, r#""max""#, "7", "null"] {
                let synth = format!(r#"{{"suite":"mat2","{knob}":{value}}}"#);
                let sweep = format!(r#"{{"suite":"mat2","thresholds":[0.1],"{knob}":{value}}}"#);
                let suite = format!(r#"{{"{knob}":{value}}}"#);
                let err = parse_synthesize(&synth).expect_err(&synth);
                assert!(err.contains("was removed"), "{synth}: {err}");
                // `jobs` only sets a sweep's width: it chooses nothing
                // about how phase 3 runs.
                assert!(
                    err.ends_with("only `solver` chooses how it runs"),
                    "{synth}: {err}"
                );
                assert!(parse_synthesize_route(&synth).is_err(), "{synth}");
                assert!(parse_sweep(&sweep).is_err(), "{sweep}");
                assert!(parse_suite(&suite).is_err(), "{suite}");
            }
        }
    }

    #[test]
    fn jobs_is_capped_on_every_route() {
        for jobs in [MAX_JOBS + 1, 1_000_000] {
            for body in [
                format!(r#"{{"suite":"mat2","jobs":{jobs}}}"#),
                format!(r#"{{"artifact":"00ff","jobs":{jobs}}}"#),
            ] {
                let err = parse_synthesize_route(&body).expect_err(&body);
                assert!(err.contains("capped at 256"), "{body}: {err}");
            }
            let sweep = format!(r#"{{"suite":"mat2","thresholds":[0.1],"jobs":{jobs}}}"#);
            assert!(parse_sweep(&sweep).is_err(), "{sweep}");
            let suite = format!(r#"{{"jobs":{jobs}}}"#);
            assert!(parse_suite(&suite).is_err(), "{suite}");
        }
        assert!(parse_suite(&format!(r#"{{"jobs":{}}}"#, u64::MAX)).is_err());
        assert!(parse_suite(&format!(r#"{{"jobs":{MAX_JOBS}}}"#)).is_ok());
        let sweep = format!(r#"{{"suite":"mat2","thresholds":[0.1],"jobs":{MAX_JOBS}}}"#);
        let req = parse_sweep(&sweep).unwrap();
        assert_eq!(req.jobs.map(NonZeroUsize::get), Some(MAX_JOBS));
    }

    #[test]
    fn plain_synthesize_bodies_still_route_to_synthesize() {
        let req = parse_synthesize_route(r#"{"suite":"mat2","seed":42}"#).unwrap();
        assert!(matches!(req, WorkRequest::Synthesize(_)));
    }

    #[test]
    fn suite_defaults_match_the_cli() {
        let req = parse_suite("").unwrap();
        assert_eq!(req.seed, DEFAULT_SEED);
        assert_eq!(req.solver, SolverKind::Exact);
        let req = parse_suite(r#"{"solver":"heuristic","seed":7}"#).unwrap();
        assert_eq!(req.seed, 7);
        assert_eq!(req.solver, SolverKind::Heuristic);
    }
}
