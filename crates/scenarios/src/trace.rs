//! Versioned JSONL trace record/replay.
//!
//! A trace is the full per-decision story of a [`ScenarioDriver`] run: for
//! every decision the work it served (CPU snippet, GPU frame or NoC
//! monitoring window), the configuration the policy chose, and the telemetry
//! the simulator produced.  The format is line-oriented JSON (JSONL):
//!
//! ```text
//! {"format":"soclearn-trace","version":3,"scenarios":2}
//! {"scenario":{"index":0,"name":"user-0","policy":"ondemand","oracle_matches":null,"queue":{"arrival":0,"start":0,"completion":120000,"service":120000},"decisions":3}}
//! {"i":0,"kind":"cpu","profile":{...},"little":0,"big":3,"big_temp":4631166901565532406,...}
//! {"i":1,"kind":"gpu","demand":{...},"deadline":...,"slices":3,"freq":2,...}
//! {"i":2,"kind":"noc","mesh":[4,4],"pattern":"uniform","seed":...,...}
//! ...
//! ```
//!
//! Version 2 added the scenario-level `queue` member: the enqueue (arrival),
//! dequeue (service start), completion and service-duration timestamps of the
//! fleet harness's per-user FIFO queueing model, in integer nanoseconds on
//! the fleet's virtual timeline (`null` for runs without queueing).  Version
//! 3 made decision lines kind-tagged so heterogeneous scenarios record GPU
//! frame decisions and NoC monitoring windows next to CPU snippets; a line
//! without a `kind` member is a CPU decision, which is how v1/v2 traces —
//! CPU-only by construction — still parse unchanged.
//!
//! Every `f64` is stored as its IEEE-754 **bit pattern** (a `u64`), so a
//! parsed trace is bit-identical to the recorded one — no decimal round-trip
//! is involved — and [`replay`] can re-execute the recorded decisions on
//! fresh simulators and verify it reproduces the recorded telemetry
//! bit-for-bit (the simulators are deterministic, so exact-mode recordings
//! always replay bit-identically).  CPU and GPU decisions replay in recorded
//! order on one fresh simulator each (thermal and DVFS-transition state carry
//! across decisions); NoC windows carry their own derived simulator seed, so
//! each replays independently.  [`TraceDiff`] compares two runs over the same
//! work stream, the tool for "what did policy B do differently on this exact
//! workload?".
//!
//! [`ScenarioDriver`]: soclearn_runtime::ScenarioDriver

use std::fmt;

use soclearn_runtime::{
    replay_noc_window, DecisionRecord, FrameDemand, GpuConfig, GpuDecisionRecord, GpuReplayer,
    MeshConfig, NocDecisionRecord, QueueStamp, ScenarioRecord, SubstrateDecision, SubstrateRecord,
    TrafficPattern,
};
use soclearn_soc_sim::{DvfsConfig, SnippetCounters, SocPlatform, SocSimulator};
use soclearn_workloads::{SnippetPhase, SnippetProfile};

use crate::json::{parse, JsonError, JsonValue};

/// Version of the trace format this module writes.
pub const TRACE_VERSION: u32 = 3;

/// Oldest trace version the parser still reads (v1 lacks queue stamps; v1 and
/// v2 lack decision kinds and are implicitly CPU-only).
pub const OLDEST_READABLE_TRACE_VERSION: u32 = 1;

/// One recorded scenario: a named decision stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    /// Stable scenario index from the driver's source.
    pub index: usize,
    /// Scenario name.
    pub name: String,
    /// Policy that served the scenario.
    pub policy: String,
    /// Oracle-agreement matches, when the driver ran with a reference.
    pub oracle_matches: Option<usize>,
    /// Queueing timestamps on the fleet's virtual timeline, when the run used
    /// service-time queueing (format v2+; v1 traces never carry them).
    pub queue: Option<QueueStamp>,
    /// The kind-tagged decisions in execution order.
    pub decisions: Vec<SubstrateRecord>,
}

impl ScenarioTrace {
    /// Total recorded energy across all substrates, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.decisions.iter().map(SubstrateDecision::energy_j).sum()
    }

    /// Total recorded execution time across all substrates, seconds.
    pub fn total_time_s(&self) -> f64 {
        self.decisions.iter().map(SubstrateDecision::service_time_s).sum()
    }

    /// The recorded CPU snippet stream (empty for GPU/NoC-only scenarios).
    pub fn profiles(&self) -> Vec<SnippetProfile> {
        self.decisions
            .iter()
            .filter_map(|d| d.as_cpu().map(|d| d.profile.clone()))
            .collect()
    }
}

/// A full recorded run: every scenario of one `run_recorded_mixed` call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The recorded scenarios, sorted by index.
    pub scenarios: Vec<ScenarioTrace>,
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A line was not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying parse failure.
        error: JsonError,
    },
    /// The JSON was valid but not a well-formed trace.
    Format {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json { line, error } => write!(f, "line {line}: {error}"),
            TraceError::Format { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

fn phase_name(phase: SnippetPhase) -> &'static str {
    match phase {
        SnippetPhase::Compute => "Compute",
        SnippetPhase::Memory => "Memory",
        SnippetPhase::Branchy => "Branchy",
        SnippetPhase::Mixed => "Mixed",
    }
}

fn phase_from(name: &str) -> Option<SnippetPhase> {
    SnippetPhase::ALL.into_iter().find(|&p| phase_name(p) == name)
}

fn pattern_name(pattern: TrafficPattern) -> &'static str {
    match pattern {
        TrafficPattern::Uniform => "uniform",
        TrafficPattern::Hotspot => "hotspot",
        TrafficPattern::Transpose => "transpose",
    }
}

fn pattern_from(name: &str) -> Option<TrafficPattern> {
    match name {
        "uniform" => Some(TrafficPattern::Uniform),
        "hotspot" => Some(TrafficPattern::Hotspot),
        "transpose" => Some(TrafficPattern::Transpose),
        _ => None,
    }
}

/// Field order of the `counters` bit array, part of the v1 format.
const COUNTER_FIELDS: usize = 9;

fn counters_bits(c: &SnippetCounters) -> [u64; COUNTER_FIELDS] {
    [
        c.instructions_retired.to_bits(),
        c.cpu_cycles_total.to_bits(),
        c.branch_mispredictions_per_core.to_bits(),
        c.l2_cache_misses.to_bits(),
        c.data_memory_accesses.to_bits(),
        c.external_memory_requests.to_bits(),
        c.little_cluster_utilization.to_bits(),
        c.big_cluster_utilization.to_bits(),
        c.total_chip_power_w.to_bits(),
    ]
}

fn counters_from_bits(bits: &[u64; COUNTER_FIELDS]) -> SnippetCounters {
    SnippetCounters {
        instructions_retired: f64::from_bits(bits[0]),
        cpu_cycles_total: f64::from_bits(bits[1]),
        branch_mispredictions_per_core: f64::from_bits(bits[2]),
        l2_cache_misses: f64::from_bits(bits[3]),
        data_memory_accesses: f64::from_bits(bits[4]),
        external_memory_requests: f64::from_bits(bits[5]),
        little_cluster_utilization: f64::from_bits(bits[6]),
        big_cluster_utilization: f64::from_bits(bits[7]),
        total_chip_power_w: f64::from_bits(bits[8]),
    }
}

impl From<&ScenarioRecord> for ScenarioTrace {
    fn from(record: &ScenarioRecord) -> Self {
        Self {
            index: record.index,
            name: record.name.clone(),
            policy: record.policy.clone(),
            oracle_matches: record.oracle_matches,
            queue: record.queue,
            decisions: record.decisions.clone(),
        }
    }
}

impl Trace {
    /// Builds a trace from the records a
    /// [`ScenarioDriver::run_recorded_mixed`](soclearn_runtime::ScenarioDriver::run_recorded_mixed)
    /// call returned.
    pub fn from_records(records: &[ScenarioRecord]) -> Self {
        Self { scenarios: records.iter().map(ScenarioTrace::from).collect() }
    }

    /// Serialises the trace to JSONL (ends with a trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"format\":\"soclearn-trace\",\"version\":{TRACE_VERSION},\"scenarios\":{}}}\n",
            self.scenarios.len()
        ));
        for scenario in &self.scenarios {
            let matches = scenario.oracle_matches.map_or("null".to_owned(), |m| m.to_string());
            let queue = scenario.queue.map_or("null".to_owned(), |q| {
                format!(
                    "{{\"arrival\":{},\"start\":{},\"completion\":{},\"service\":{}}}",
                    q.arrival_ns, q.start_ns, q.completion_ns, q.service_ns
                )
            });
            out.push_str(&format!(
                "{{\"scenario\":{{\"index\":{},\"name\":{},\"policy\":{},\"oracle_matches\":{},\"queue\":{},\"decisions\":{}}}}}\n",
                scenario.index,
                serde_json::to_string(&scenario.name).expect("string encodes"),
                serde_json::to_string(&scenario.policy).expect("string encodes"),
                matches,
                queue,
                scenario.decisions.len()
            ));
            for decision in &scenario.decisions {
                match decision {
                    SubstrateRecord::Cpu(d) => encode_cpu(&mut out, d),
                    SubstrateRecord::Gpu(d) => encode_gpu(&mut out, d),
                    SubstrateRecord::Noc(d) => encode_noc(&mut out, d),
                }
            }
        }
        out
    }

    /// Parses a JSONL trace written by [`Trace::to_jsonl`].
    ///
    /// Declared scenario and decision counts are untrusted: no allocation is
    /// sized beyond the lines the input has left, and a count the input
    /// cannot back is a truncated-trace [`TraceError::Format`].  A NoC window
    /// [`replay`] could not simulate (a zero or unallocatable mesh, zero
    /// cycles, a rate outside `(0, 1]`), a GPU frame deadline that is not
    /// finite and positive, and a thread or slice count past `u32::MAX` are
    /// [`TraceError::Format`]s too.
    pub fn from_jsonl(input: &str) -> Result<Self, TraceError> {
        let mut lines = TraceLines::new(input);
        let (line_no, header) = lines
            .next()
            .ok_or(TraceError::Format { line: 1, message: "empty trace".into() })?;
        let header = parse_line(line_no, header)?;
        let version = header
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format_err(line_no, "missing trace version"))?;
        if header.get("format").and_then(JsonValue::as_str) != Some("soclearn-trace") {
            return Err(format_err(line_no, "not a soclearn trace"));
        }
        if version < u64::from(OLDEST_READABLE_TRACE_VERSION) || version > u64::from(TRACE_VERSION)
        {
            return Err(format_err(line_no, &format!("unsupported trace version {version}")));
        }
        let scenario_count = header
            .get("scenarios")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| format_err(line_no, "missing scenario count"))?;

        let mut scenarios = Vec::with_capacity(scenario_count.min(lines.remaining));
        for _ in 0..scenario_count {
            let (line_no, raw) = lines
                .next()
                .ok_or_else(|| format_err(0, "truncated trace: missing scenario header"))?;
            let value = parse_line(line_no, raw)?;
            let header = value
                .get("scenario")
                .ok_or_else(|| format_err(line_no, "expected a scenario header"))?;
            let decisions_count = header
                .get("decisions")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format_err(line_no, "scenario missing decision count"))?;
            let mut scenario = ScenarioTrace {
                index: header
                    .get("index")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| format_err(line_no, "scenario missing index"))?,
                name: header
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format_err(line_no, "scenario missing name"))?
                    .to_owned(),
                policy: header
                    .get("policy")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format_err(line_no, "scenario missing policy"))?
                    .to_owned(),
                oracle_matches: match header.get("oracle_matches") {
                    Some(JsonValue::Null) | None => None,
                    Some(value) => Some(
                        value
                            .as_usize()
                            .ok_or_else(|| format_err(line_no, "bad oracle_matches"))?,
                    ),
                },
                // v1 scenario headers have no queue member; v2+ may carry null.
                queue: match header.get("queue") {
                    Some(JsonValue::Null) | None => None,
                    Some(value) => Some(QueueStamp {
                        arrival_ns: field_u64(value, "arrival", line_no)?,
                        start_ns: field_u64(value, "start", line_no)?,
                        completion_ns: field_u64(value, "completion", line_no)?,
                        service_ns: field_u64(value, "service", line_no)?,
                    }),
                },
                decisions: Vec::with_capacity(decisions_count.min(lines.remaining)),
            };
            for _ in 0..decisions_count {
                let (line_no, raw) = lines
                    .next()
                    .ok_or_else(|| format_err(0, "truncated trace: missing decision"))?;
                scenario.decisions.push(parse_decision(line_no, raw)?);
            }
            scenarios.push(scenario);
        }
        if let Some((line_no, _)) = lines.next() {
            return Err(format_err(
                line_no,
                "trailing data after the declared scenario count (concatenated traces?)",
            ));
        }
        Ok(Self { scenarios })
    }
}

/// The non-blank lines of a JSONL trace, numbered from 1, with a bound on
/// how many are left so a declared count never sizes an allocation beyond
/// them.
struct TraceLines<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// Upper bound on the lines left: the input's line count less the lines
    /// handed out.
    remaining: usize,
}

impl<'a> TraceLines<'a> {
    fn new(input: &'a str) -> Self {
        let remaining = input.lines().count();
        Self { lines: input.lines().enumerate(), remaining }
    }
}

impl<'a> Iterator for TraceLines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let (index, line) = self.lines.find(|(_, l)| !l.trim().is_empty())?;
        self.remaining -= 1;
        Some((index + 1, line))
    }
}

fn encode_cpu(out: &mut String, d: &DecisionRecord) {
    let p = &d.profile;
    let counters = counters_bits(&d.counters);
    out.push_str(&format!(
        "{{\"i\":{},\"kind\":\"cpu\",\"profile\":{{\"instructions\":{},\"phase\":\"{}\",\"memory_access_fraction\":{},\"l2_mpki\":{},\"external_memory_fraction\":{},\"branch_misprediction_pki\":{},\"ilp\":{},\"thread_count\":{},\"parallel_fraction\":{}}},\"little\":{},\"big\":{},\"big_temp\":{},\"little_temp\":{},\"energy\":{},\"time\":{},\"counters\":[{}]}}\n",
        d.index,
        p.instructions,
        phase_name(p.phase),
        p.memory_access_fraction.to_bits(),
        p.l2_mpki.to_bits(),
        p.external_memory_fraction.to_bits(),
        p.branch_misprediction_pki.to_bits(),
        p.ilp.to_bits(),
        p.thread_count,
        p.parallel_fraction.to_bits(),
        d.config.little_idx,
        d.config.big_idx,
        d.big_temp_c.to_bits(),
        d.little_temp_c.to_bits(),
        d.energy_j.to_bits(),
        d.time_s.to_bits(),
        counters.map(|b| b.to_string()).join(","),
    ));
}

fn encode_gpu(out: &mut String, d: &GpuDecisionRecord) {
    out.push_str(&format!(
        "{{\"i\":{},\"kind\":\"gpu\",\"demand\":{{\"work\":{},\"parallel\":{},\"memory\":{}}},\"deadline\":{},\"slices\":{},\"freq\":{},\"energy\":{},\"time\":{},\"power\":{},\"util\":{},\"met\":{}}}\n",
        d.index,
        d.demand.work_cycles.to_bits(),
        d.demand.parallel_fraction.to_bits(),
        d.demand.memory_accesses.to_bits(),
        d.deadline_s.to_bits(),
        d.config.active_slices,
        d.config.freq_idx,
        d.energy_j.to_bits(),
        d.time_s.to_bits(),
        d.gpu_power_w.to_bits(),
        d.utilization.to_bits(),
        d.deadline_met,
    ));
}

fn encode_noc(out: &mut String, d: &NocDecisionRecord) {
    out.push_str(&format!(
        "{{\"i\":{},\"kind\":\"noc\",\"mesh\":[{},{}],\"pattern\":\"{}\",\"seed\":{},\"cycles\":{},\"offered\":{},\"rate\":{},\"predicted\":{},\"analytical\":{},\"measured\":{},\"delivered\":{},\"energy\":{},\"time\":{}}}\n",
        d.index,
        d.mesh.width,
        d.mesh.height,
        pattern_name(d.pattern),
        d.seed,
        d.cycles,
        d.offered_rate.to_bits(),
        d.injection_rate.to_bits(),
        d.predicted_latency_cycles.to_bits(),
        d.analytical_latency_cycles.to_bits(),
        d.measured_latency_cycles.to_bits(),
        d.packets_delivered,
        d.energy_j.to_bits(),
        d.time_s.to_bits(),
    ));
}

fn format_err(line: usize, message: &str) -> TraceError {
    TraceError::Format { line, message: message.to_owned() }
}

fn parse_line(line: usize, raw: &str) -> Result<JsonValue<'_>, TraceError> {
    parse(raw).map_err(|error| TraceError::Json { line, error })
}

fn field_u64(value: &JsonValue, key: &str, line: usize) -> Result<u64, TraceError> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format_err(line, &format!("missing field '{key}'")))
}

fn field_f64_bits(value: &JsonValue, key: &str, line: usize) -> Result<f64, TraceError> {
    Ok(f64::from_bits(field_u64(value, key, line)?))
}

/// A `u32` field: a wider value is an error, never silently truncated.
fn field_u32(value: &JsonValue, key: &str, line: usize) -> Result<u32, TraceError> {
    u32::try_from(field_u64(value, key, line)?)
        .map_err(|_| format_err(line, &format!("field '{key}' exceeds u32")))
}

fn parse_decision(line: usize, raw: &str) -> Result<SubstrateRecord, TraceError> {
    let value = parse_line(line, raw)?;
    // v1/v2 decision lines carry no kind member: they predate heterogeneous
    // serving, so they are CPU decisions.
    match value.get("kind").and_then(JsonValue::as_str) {
        None | Some("cpu") => parse_cpu_decision(&value, line).map(SubstrateRecord::Cpu),
        Some("gpu") => parse_gpu_decision(&value, line).map(SubstrateRecord::Gpu),
        Some("noc") => parse_noc_decision(&value, line).map(SubstrateRecord::Noc),
        Some(other) => Err(format_err(line, &format!("unknown decision kind '{other}'"))),
    }
}

fn parse_cpu_decision(value: &JsonValue, line: usize) -> Result<DecisionRecord, TraceError> {
    let profile = value
        .get("profile")
        .ok_or_else(|| format_err(line, "decision missing profile"))?;
    let phase = profile
        .get("phase")
        .and_then(JsonValue::as_str)
        .and_then(phase_from)
        .ok_or_else(|| format_err(line, "bad snippet phase"))?;
    // Bit patterns restore the exact recorded floats; the clamping constructor
    // must not run here, so the struct is built literally.
    let profile = SnippetProfile {
        instructions: field_u64(profile, "instructions", line)?,
        phase,
        memory_access_fraction: field_f64_bits(profile, "memory_access_fraction", line)?,
        l2_mpki: field_f64_bits(profile, "l2_mpki", line)?,
        external_memory_fraction: field_f64_bits(profile, "external_memory_fraction", line)?,
        branch_misprediction_pki: field_f64_bits(profile, "branch_misprediction_pki", line)?,
        ilp: field_f64_bits(profile, "ilp", line)?,
        thread_count: field_u32(profile, "thread_count", line)?,
        parallel_fraction: field_f64_bits(profile, "parallel_fraction", line)?,
    };
    let counters_raw = value
        .get("counters")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format_err(line, "decision missing counters"))?;
    if counters_raw.len() != COUNTER_FIELDS {
        return Err(format_err(line, "counters array has the wrong arity"));
    }
    let mut bits = [0u64; COUNTER_FIELDS];
    for (slot, value) in bits.iter_mut().zip(counters_raw) {
        *slot = value.as_u64().ok_or_else(|| format_err(line, "bad counter bits"))?;
    }
    Ok(DecisionRecord {
        index: field_u64(value, "i", line)? as usize,
        profile,
        config: DvfsConfig::new(
            field_u64(value, "little", line)? as usize,
            field_u64(value, "big", line)? as usize,
        ),
        big_temp_c: field_f64_bits(value, "big_temp", line)?,
        little_temp_c: field_f64_bits(value, "little_temp", line)?,
        energy_j: field_f64_bits(value, "energy", line)?,
        time_s: field_f64_bits(value, "time", line)?,
        counters: counters_from_bits(&bits),
    })
}

fn parse_gpu_decision(value: &JsonValue, line: usize) -> Result<GpuDecisionRecord, TraceError> {
    let demand = value
        .get("demand")
        .ok_or_else(|| format_err(line, "gpu decision missing demand"))?;
    // Replay renders the frame against this deadline, which the GPU
    // simulator requires to be finite and positive.
    let deadline_s = field_f64_bits(value, "deadline", line)?;
    if !(deadline_s.is_finite() && deadline_s > 0.0) {
        return Err(format_err(line, "gpu frame deadline must be finite and positive"));
    }
    Ok(GpuDecisionRecord {
        index: field_u64(value, "i", line)? as usize,
        // Literal construction: the clamping constructor must not run on the
        // restored bit patterns.
        demand: FrameDemand {
            work_cycles: field_f64_bits(demand, "work", line)?,
            parallel_fraction: field_f64_bits(demand, "parallel", line)?,
            memory_accesses: field_f64_bits(demand, "memory", line)?,
        },
        deadline_s,
        config: GpuConfig {
            active_slices: field_u32(value, "slices", line)?,
            freq_idx: field_u64(value, "freq", line)? as usize,
        },
        energy_j: field_f64_bits(value, "energy", line)?,
        time_s: field_f64_bits(value, "time", line)?,
        gpu_power_w: field_f64_bits(value, "power", line)?,
        utilization: field_f64_bits(value, "util", line)?,
        deadline_met: value
            .get("met")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format_err(line, "gpu decision missing met"))?,
    })
}

fn parse_noc_decision(value: &JsonValue, line: usize) -> Result<NocDecisionRecord, TraceError> {
    let mesh = value
        .get("mesh")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format_err(line, "noc decision missing mesh"))?;
    if mesh.len() != 2 {
        return Err(format_err(line, "mesh must be [width,height]"));
    }
    let width = mesh[0].as_usize().ok_or_else(|| format_err(line, "bad mesh width"))?;
    let height = mesh[1].as_usize().ok_or_else(|| format_err(line, "bad mesh height"))?;
    if width == 0 || height == 0 {
        return Err(format_err(line, "mesh dimensions must be positive"));
    }
    // Replay allocates one u64 per directed link (four per node); a mesh
    // whose link table cannot exist is an error here, not a panic there.
    let link_bytes = width.checked_mul(height).and_then(|nodes| nodes.checked_mul(4 * 8));
    if !link_bytes.is_some_and(|bytes| bytes <= isize::MAX as usize) {
        return Err(format_err(line, "mesh too large to simulate"));
    }
    let pattern = value
        .get("pattern")
        .and_then(JsonValue::as_str)
        .and_then(pattern_from)
        .ok_or_else(|| format_err(line, "bad traffic pattern"))?;
    let cycles = field_u64(value, "cycles", line)?;
    if cycles == 0 {
        return Err(format_err(line, "noc window must simulate at least one cycle"));
    }
    let injection_rate = field_f64_bits(value, "rate", line)?;
    if !(injection_rate > 0.0 && injection_rate <= 1.0) {
        return Err(format_err(line, "noc injection rate must be in (0, 1]"));
    }
    Ok(NocDecisionRecord {
        index: field_u64(value, "i", line)? as usize,
        mesh: MeshConfig { width, height },
        pattern,
        seed: field_u64(value, "seed", line)?,
        cycles,
        offered_rate: field_f64_bits(value, "offered", line)?,
        injection_rate,
        predicted_latency_cycles: field_f64_bits(value, "predicted", line)?,
        analytical_latency_cycles: field_f64_bits(value, "analytical", line)?,
        measured_latency_cycles: field_f64_bits(value, "measured", line)?,
        packets_delivered: field_u64(value, "delivered", line)? as usize,
        energy_j: field_f64_bits(value, "energy", line)?,
        time_s: field_f64_bits(value, "time", line)?,
    })
}

/// Outcome of replaying one recorded scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Decisions replayed.
    pub decisions: usize,
    /// Whether every replayed value matched the recording bit-for-bit.
    pub bit_identical: bool,
    /// First decision index whose replay diverged, if any.
    pub first_divergence: Option<usize>,
    /// Replayed total energy, joules.
    pub total_energy_j: f64,
    /// Replayed total time, seconds.
    pub total_time_s: f64,
}

/// Replays a recorded scenario deterministically: re-executes the recorded
/// work at the recorded configurations, comparing the simulated telemetry
/// against the recording bit-for-bit.  CPU decisions re-execute in order on a
/// fresh [`SocSimulator`] for `platform`; GPU decisions re-render in order on
/// a fresh GPU simulator (both carry state across decisions); each NoC
/// window re-simulates independently from its recorded seed.
///
/// A driver recording replays bit-identically; a recording that diverges
/// (edited, or produced by a different simulator) reports its first
/// divergence instead.  A CPU or GPU configuration the platform does not
/// have is such a divergence: it is reported, not executed.
pub fn replay(scenario: &ScenarioTrace, platform: &SocPlatform) -> ReplayReport {
    let mut sim = SocSimulator::new(platform.clone());
    let mut gpu: Option<GpuReplayer> = None;
    let mut first_divergence = None;
    let mut total_energy_j = 0.0;
    let mut total_time_s = 0.0;
    for decision in &scenario.decisions {
        let matches = match decision {
            SubstrateRecord::Cpu(d) if !platform.is_valid(d.config) => false,
            SubstrateRecord::Cpu(d) => {
                let temps_match = sim.big_temperature_c().to_bits() == d.big_temp_c.to_bits()
                    && sim.little_temperature_c().to_bits() == d.little_temp_c.to_bits();
                let result = sim.execute_snippet(&d.profile, d.config);
                total_energy_j += result.energy_j;
                total_time_s += result.time_s;
                temps_match
                    && result.energy_j.to_bits() == d.energy_j.to_bits()
                    && result.time_s.to_bits() == d.time_s.to_bits()
                    && result.counters == d.counters
            }
            SubstrateRecord::Gpu(d) => {
                match gpu.get_or_insert_with(GpuReplayer::new).replay_frame(d) {
                    Some(outcome) => {
                        total_energy_j += outcome.energy_j;
                        total_time_s += outcome.time_s;
                        outcome.energy_j.to_bits() == d.energy_j.to_bits()
                            && outcome.time_s.to_bits() == d.time_s.to_bits()
                            && outcome.gpu_power_w.to_bits() == d.gpu_power_w.to_bits()
                            && outcome.utilization.to_bits() == d.utilization.to_bits()
                            && outcome.deadline_met == d.deadline_met
                    }
                    None => false,
                }
            }
            SubstrateRecord::Noc(d) => {
                let (latency, delivered, energy) = replay_noc_window(d);
                total_energy_j += energy;
                total_time_s += d.time_s;
                latency.to_bits() == d.measured_latency_cycles.to_bits()
                    && delivered == d.packets_delivered
                    && energy.to_bits() == d.energy_j.to_bits()
            }
        };
        if !matches && first_divergence.is_none() {
            first_divergence = Some(decision.index());
        }
    }
    ReplayReport {
        decisions: scenario.decisions.len(),
        bit_identical: first_divergence.is_none(),
        first_divergence,
        total_energy_j,
        total_time_s,
    }
}

/// Comparison of two policy runs over the same work stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Decisions compared (the shorter of the two runs).
    pub decisions: usize,
    /// Whether both runs executed the identical work stream (same snippets,
    /// frame demands and monitoring windows, kind for kind).
    pub profiles_match: bool,
    /// Decisions where the two runs chose different configurations.
    pub config_mismatches: usize,
    /// First decision index where the chosen configurations diverged.
    pub first_config_divergence: Option<usize>,
    /// Total energy of run A, joules.
    pub energy_a_j: f64,
    /// Total energy of run B, joules.
    pub energy_b_j: f64,
    /// Total time of run A, seconds.
    pub time_a_s: f64,
    /// Total time of run B, seconds.
    pub time_b_s: f64,
}

/// Whether two decisions served the same work (independent of the chosen
/// configuration).
fn work_matches(a: &SubstrateRecord, b: &SubstrateRecord) -> bool {
    match (a, b) {
        (SubstrateRecord::Cpu(x), SubstrateRecord::Cpu(y)) => x.profile == y.profile,
        (SubstrateRecord::Gpu(x), SubstrateRecord::Gpu(y)) => {
            x.demand == y.demand && x.deadline_s.to_bits() == y.deadline_s.to_bits()
        }
        (SubstrateRecord::Noc(x), SubstrateRecord::Noc(y)) => {
            x.mesh == y.mesh
                && x.pattern == y.pattern
                && x.cycles == y.cycles
                && x.offered_rate.to_bits() == y.offered_rate.to_bits()
        }
        _ => false,
    }
}

/// Whether two decisions chose the same configuration.
fn config_matches(a: &SubstrateRecord, b: &SubstrateRecord) -> bool {
    match (a, b) {
        (SubstrateRecord::Cpu(x), SubstrateRecord::Cpu(y)) => x.config == y.config,
        (SubstrateRecord::Gpu(x), SubstrateRecord::Gpu(y)) => x.config == y.config,
        (SubstrateRecord::Noc(x), SubstrateRecord::Noc(y)) => {
            x.injection_rate.to_bits() == y.injection_rate.to_bits()
        }
        _ => false,
    }
}

impl TraceDiff {
    /// Compares two recorded scenarios decision by decision.
    pub fn between(a: &ScenarioTrace, b: &ScenarioTrace) -> Self {
        let decisions = a.decisions.len().min(b.decisions.len());
        let mut config_mismatches = 0;
        let mut first_config_divergence = None;
        let mut profiles_match = a.decisions.len() == b.decisions.len();
        for (i, (da, db)) in a.decisions.iter().zip(&b.decisions).enumerate() {
            if !work_matches(da, db) {
                profiles_match = false;
            }
            if !config_matches(da, db) {
                config_mismatches += 1;
                if first_config_divergence.is_none() {
                    first_config_divergence = Some(i);
                }
            }
        }
        Self {
            decisions,
            profiles_match,
            config_mismatches,
            first_config_divergence,
            energy_a_j: a.total_energy_j(),
            energy_b_j: b.total_energy_j(),
            time_a_s: a.total_time_s(),
            time_b_s: b.total_time_s(),
        }
    }

    /// Relative energy of run B vs run A (`> 1` means B used more energy).
    pub fn energy_ratio(&self) -> f64 {
        self.energy_b_j / self.energy_a_j.max(1e-12)
    }

    /// Human-readable one-paragraph summary.
    pub fn render(&self, a: &str, b: &str) -> String {
        format!(
            "{a} vs {b}: {} decisions, {} config mismatches (first at {}), profiles {}; \
             energy {:.2} J vs {:.2} J ({:.1}%), time {:.2} s vs {:.2} s",
            self.decisions,
            self.config_mismatches,
            self.first_config_divergence.map_or("-".to_owned(), |i| i.to_string()),
            if self.profiles_match { "identical" } else { "DIFFER" },
            self.energy_a_j,
            self.energy_b_j,
            self.energy_ratio() * 100.0,
            self.time_a_s,
            self.time_b_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_governors::OndemandGovernor;
    use soclearn_runtime::{
        GpuSessionSpec, NocSessionSpec, ScenarioDriver, ScenarioSpec, SliceSource,
        SubstratePolicies, SubstrateWork,
    };

    fn recorded_trace() -> (SocPlatform, Trace) {
        let platform = SocPlatform::small();
        let specs = vec![
            ScenarioSpec::new(
                "alpha",
                vec![
                    SnippetProfile::compute_bound(40_000_000),
                    SnippetProfile::memory_bound(40_000_000),
                    SnippetProfile::idle(10_000_000),
                ],
            ),
            ScenarioSpec::new("beta", vec![SnippetProfile::memory_bound(60_000_000)]),
        ];
        let driver = ScenarioDriver::new(platform.clone(), 2);
        let (_, records) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        (platform, Trace::from_records(&records))
    }

    fn mixed_trace() -> (SocPlatform, Trace) {
        let platform = SocPlatform::small();
        let specs = vec![ScenarioSpec::with_segments(
            "hetero",
            vec![
                SubstrateWork::Cpu(vec![SnippetProfile::compute_bound(40_000_000)]),
                SubstrateWork::Gpu(GpuSessionSpec::new(
                    vec![FrameDemand::new(2.0e9, 0.9, 3.0e7), FrameDemand::new(1.2e9, 0.85, 2.0e7)],
                    30.0,
                )),
                SubstrateWork::Noc(NocSessionSpec {
                    mesh: MeshConfig::new(4, 4),
                    pattern: TrafficPattern::Hotspot,
                    seed: 77,
                    train_rates: vec![0.02, 0.06, 0.1],
                    train_cycles: 3_000,
                    query_rates: vec![0.05, 0.2],
                    query_cycles: 2_000,
                    latency_budget_cycles: 30.0,
                }),
            ],
        )];
        let driver = ScenarioDriver::new(platform.clone(), 1);
        let (_, records) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::learned(Box::new(OndemandGovernor::new(&platform)))
        });
        (platform, Trace::from_records(&records))
    }

    #[test]
    fn jsonl_round_trip_is_bit_identical() {
        let (_, trace) = recorded_trace();
        let encoded = trace.to_jsonl();
        let decoded = Trace::from_jsonl(&encoded).expect("round trip parses");
        assert_eq!(decoded, trace);
        // And the re-encoding is byte-identical (stable format).
        assert_eq!(decoded.to_jsonl(), encoded);
    }

    #[test]
    fn replay_reproduces_the_recording() {
        let (platform, trace) = recorded_trace();
        for scenario in &trace.scenarios {
            let report = replay(scenario, &platform);
            assert!(report.bit_identical, "divergence at {:?}", report.first_divergence);
            assert_eq!(report.decisions, scenario.decisions.len());
            let delta = (report.total_energy_j - scenario.total_energy_j()).abs();
            assert_eq!(delta, 0.0);
        }
    }

    #[test]
    fn mixed_substrate_trace_round_trips_and_replays() {
        let (platform, trace) = mixed_trace();
        let scenario = &trace.scenarios[0];
        assert_eq!(scenario.decisions.len(), 5);
        assert_eq!(scenario.policy, "ondemand+gpu-nmpc+noc-svr");
        assert!(scenario.decisions[0].as_cpu().is_some());
        assert!(scenario.decisions[1].as_gpu().is_some());
        assert!(scenario.decisions[4].as_noc().is_some());

        let encoded = trace.to_jsonl();
        assert!(encoded.contains("\"kind\":\"cpu\""));
        assert!(encoded.contains("\"kind\":\"gpu\""));
        assert!(encoded.contains("\"kind\":\"noc\""));
        assert!(encoded.contains("\"pattern\":\"hotspot\""));
        let decoded = Trace::from_jsonl(&encoded).expect("v3 mixed trace parses");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.to_jsonl(), encoded, "re-encoding is byte-stable");

        let report = replay(&decoded.scenarios[0], &platform);
        assert!(report.bit_identical, "mixed replay diverged at {:?}", report.first_divergence);
        let delta = (report.total_energy_j - scenario.total_energy_j()).abs();
        assert_eq!(delta, 0.0);
    }

    #[test]
    fn replay_flags_a_tampered_recording() {
        let (platform, mut trace) = recorded_trace();
        match &mut trace.scenarios[0].decisions[1] {
            SubstrateRecord::Cpu(d) => d.energy_j *= 1.5,
            _ => unreachable!("pure-CPU scenario"),
        }
        let report = replay(&trace.scenarios[0], &platform);
        assert!(!report.bit_identical);
        assert_eq!(report.first_divergence, Some(1));
    }

    #[test]
    fn diff_detects_divergent_policies() {
        let platform = SocPlatform::small();
        let spec = ScenarioSpec::new(
            "shared",
            vec![
                SnippetProfile::compute_bound(40_000_000),
                SnippetProfile::memory_bound(40_000_000),
                SnippetProfile::compute_bound(40_000_000),
            ],
        );
        let driver = ScenarioDriver::new(platform.clone(), 1);
        let specs = vec![spec];
        let (_, a) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        let (_, b) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(soclearn_soc_sim::FixedConfigPolicy::new(
                platform.max_config(),
            )))
        });
        let (a, b) = (ScenarioTrace::from(&a[0]), ScenarioTrace::from(&b[0]));
        let diff = TraceDiff::between(&a, &b);
        assert!(diff.profiles_match, "same snippet stream");
        assert!(diff.config_mismatches > 0, "ondemand must differ from pinned-max");
        assert_eq!(diff.first_config_divergence, Some(0));
        assert!(diff.energy_ratio() > 1.0, "pinned-max burns more energy");
        let rendered = diff.render("ondemand", "fixed-max");
        assert!(rendered.contains("config mismatches"));

        let self_diff = TraceDiff::between(&a, &a);
        assert_eq!(self_diff.config_mismatches, 0);
        assert_eq!(self_diff.energy_ratio(), 1.0);
    }

    #[test]
    fn queue_stamps_round_trip_through_the_current_version() {
        let (_, mut trace) = recorded_trace();
        trace.scenarios[0].queue = Some(soclearn_runtime::QueueStamp {
            arrival_ns: 1_000,
            start_ns: 2_500,
            completion_ns: 9_000,
            service_ns: 6_500,
        });
        // scenario[1] stays queue-less: Some and None must coexist in one file.
        let encoded = trace.to_jsonl();
        assert!(encoded.starts_with("{\"format\":\"soclearn-trace\",\"version\":3"));
        assert!(encoded.contains(
            "\"queue\":{\"arrival\":1000,\"start\":2500,\"completion\":9000,\"service\":6500}"
        ));
        assert!(encoded.contains("\"queue\":null"));
        let decoded = Trace::from_jsonl(&encoded).expect("v3 round trip parses");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.to_jsonl(), encoded);
    }

    #[test]
    fn reads_version_1_traces_without_queue_stamps() {
        // A v1 trace is the current format minus the queue member and the
        // decision kind tags; synthesise one by downgrading the header and
        // stripping both.
        let (platform, trace) = recorded_trace();
        let v1: String = trace
            .to_jsonl()
            .lines()
            .map(|line| {
                let line = line.replace("\"version\":3", "\"version\":1");
                let line = line.replace(",\"queue\":null", "");
                let line = line.replace("\"kind\":\"cpu\",", "");
                format!("{line}\n")
            })
            .collect();
        let decoded = Trace::from_jsonl(&v1).expect("v1 traces still parse");
        assert_eq!(decoded, trace, "queue-less, kind-less v1 content decodes to the same trace");
        for scenario in &decoded.scenarios {
            assert!(scenario.queue.is_none());
            assert!(replay(scenario, &platform).bit_identical);
        }
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"format\":\"other\",\"version\":1,\"scenarios\":0}").is_err());
        assert!(Trace::from_jsonl(
            "{\"format\":\"soclearn-trace\",\"version\":99,\"scenarios\":0}"
        )
        .is_err());
        // Truncated: promises one scenario but the stream ends.
        let err =
            Trace::from_jsonl("{\"format\":\"soclearn-trace\",\"version\":1,\"scenarios\":1}")
                .unwrap_err();
        assert!(err.to_string().contains("truncated"));
        let empty =
            Trace::from_jsonl("{\"format\":\"soclearn-trace\",\"version\":1,\"scenarios\":0}")
                .expect("empty trace is valid");
        assert!(empty.scenarios.is_empty());
    }

    /// A trace header promising `count` scenarios, with nothing after it.
    fn header_promising(count: &str) -> String {
        format!("{{\"format\":\"soclearn-trace\",\"version\":3,\"scenarios\":{count}}}\n")
    }

    fn assert_truncated(result: Result<Trace, TraceError>) {
        match result {
            Err(TraceError::Format { message, .. }) => {
                assert!(message.contains("truncated"), "{message}")
            }
            other => panic!("expected a truncated-trace error, got {other:?}"),
        }
    }

    #[test]
    fn scenario_count_past_usize_capacity_is_a_truncated_trace() {
        assert_truncated(Trace::from_jsonl(&header_promising("100000000000000000")));
    }

    #[test]
    fn scenario_count_past_memory_is_a_truncated_trace() {
        assert_truncated(Trace::from_jsonl(&header_promising("1000000000000")));
    }

    #[test]
    fn decision_count_past_the_input_is_a_truncated_trace() {
        let input = format!(
            "{}{{\"scenario\":{{\"index\":0,\"name\":\"u\",\"policy\":\"p\",\
             \"oracle_matches\":null,\"queue\":null,\"decisions\":100000000000000000}}}}\n",
            header_promising("1")
        );
        assert_truncated(Trace::from_jsonl(&input));
    }

    #[test]
    fn bracket_flood_is_a_json_error_not_a_stack_overflow() {
        match Trace::from_jsonl(&"[".repeat(200_000)) {
            Err(TraceError::Json { line: 1, .. }) => {}
            other => panic!("expected a JSON error on line 1, got {other:?}"),
        }
    }

    /// The mixed recording's JSONL with one hostile edit: `key`'s value on
    /// the first decision line of `kind` becomes `value`.  Returns the
    /// platform, the edited text and the edited line's 1-based number.
    fn edit_first(kind: &str, key: &str, value: &str) -> (SocPlatform, String, usize) {
        let (platform, trace) = mixed_trace();
        let tag = format!("\"kind\":\"{kind}\"");
        let field = format!("\"{key}\":");
        let mut edited_line = 0;
        let mut out = String::new();
        for (number, line) in trace.to_jsonl().lines().enumerate() {
            let mut line = line.to_owned();
            if edited_line == 0 && line.contains(&tag) {
                edited_line = number + 1;
                let start = line.find(&field).expect("field present") + field.len();
                let rest = &line[start..];
                let len = if rest.starts_with('[') {
                    rest.find(']').expect("closed array") + 1
                } else {
                    rest.find([',', '}']).expect("value ends")
                };
                line.replace_range(start..start + len, value);
            }
            out.push_str(&line);
            out.push('\n');
        }
        assert!(edited_line > 0, "no {kind} decision to edit");
        (platform, out, edited_line)
    }

    fn assert_rejected(kind: &str, key: &str, value: &str, expected: &str) {
        let (_, edited, line) = edit_first(kind, key, value);
        match Trace::from_jsonl(&edited) {
            Err(TraceError::Format { line: at, message }) => {
                assert_eq!(at, line);
                assert!(message.contains(expected), "{message}");
            }
            other => panic!("{key}={value}: expected a format error, got {other:?}"),
        }
    }

    /// Decodes, then replays as a divergence at the edited decision.
    fn assert_replays_as_divergence(kind: &str, key: &str, value: &str) {
        let (platform, edited, _) = edit_first(kind, key, value);
        let trace = Trace::from_jsonl(&edited).expect("the edited trace decodes");
        let scenario = &trace.scenarios[0];
        let index = scenario.decisions.iter().find(|d| d.kind().label() == kind).map(|d| d.index());
        let report = replay(scenario, &platform);
        assert!(!report.bit_identical);
        assert_eq!(report.first_divergence, index, "{key}={value}");
    }

    #[test]
    fn noc_rate_of_zero_is_a_format_error() {
        assert_rejected("noc", "rate", &0.0f64.to_bits().to_string(), "injection rate");
    }

    #[test]
    fn noc_rate_above_one_is_a_format_error() {
        assert_rejected("noc", "rate", &2.0f64.to_bits().to_string(), "injection rate");
    }

    #[test]
    fn noc_rate_of_nan_is_a_format_error() {
        assert_rejected("noc", "rate", &f64::NAN.to_bits().to_string(), "injection rate");
    }

    #[test]
    fn gpu_deadline_that_is_not_positive_is_a_format_error() {
        for deadline in [0.0f64, -1.0, f64::NAN] {
            assert_rejected("gpu", "deadline", &deadline.to_bits().to_string(), "deadline");
        }
    }

    #[test]
    fn u32_fields_past_u32_max_are_format_errors() {
        for value in ["4294967296", "4294967297"] {
            assert_rejected("cpu", "thread_count", value, "exceeds u32");
            assert_rejected("gpu", "slices", value, "exceeds u32");
        }
    }

    #[test]
    fn noc_window_of_zero_cycles_is_a_format_error() {
        assert_rejected("noc", "cycles", "0", "at least one cycle");
    }

    #[test]
    fn noc_mesh_whose_link_count_overflows_is_a_format_error() {
        assert_rejected("noc", "mesh", "[4294967296,4294967296]", "too large");
        // Representable link count, but no Vec can hold its link table.
        assert_rejected("noc", "mesh", "[1073741824,1073741824]", "too large");
    }

    #[test]
    fn noc_mesh_with_a_zero_dimension_is_a_format_error() {
        assert_rejected("noc", "mesh", "[0,4]", "must be positive");
        assert_rejected("noc", "mesh", "[4,0]", "must be positive");
    }

    #[test]
    fn cpu_config_off_the_platform_replays_as_a_divergence() {
        assert_replays_as_divergence("cpu", "big", "99");
    }

    #[test]
    fn gpu_frequency_off_the_platform_replays_as_a_divergence() {
        assert_replays_as_divergence("gpu", "freq", "99");
    }

    #[test]
    fn gpu_with_zero_slices_replays_as_a_divergence() {
        assert_replays_as_divergence("gpu", "slices", "0");
    }

    #[test]
    fn rejects_trailing_data_after_the_declared_scenarios() {
        // Concatenating two traces must fail loudly, not silently drop data.
        let (_, trace) = recorded_trace();
        let doubled = format!("{}{}", trace.to_jsonl(), trace.to_jsonl());
        let err = Trace::from_jsonl(&doubled).unwrap_err();
        assert!(err.to_string().contains("trailing data"), "{err}");
    }
}
