//! Job-trace text format and the deterministic load generator.
//!
//! A job trace is the server's input: a set of tenants (name, fair-share
//! weight, optional memory guarantee) and a stream of job requests
//! (tenant, virtual arrival time, workload kind, scale, seed). The format
//! is line-oriented, `#`-commented, and round-trips through
//! [`JobTrace::to_text`] — the same conventions as `faults::FaultPlan`:
//!
//! ```text
//! # tenants first, then jobs
//! tenant batch weight 1 mem 512m
//! tenant t1 weight 2
//! job batch at 0.0 sql scale 0.6 seed 7
//! job t1 at 1.5 wordcount scale 0.1 seed 8
//! ```
//!
//! Arrival times are **virtual seconds** on the server's clock; nothing
//! here reads the host clock, so a trace replays bit-identically.

use numeric::XorShift64;

/// One tenant declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (unique, no whitespace).
    pub name: String,
    /// Weighted-fair share weight (> 0).
    pub weight: f64,
    /// Memory guarantee override in bytes (`None` = server default).
    pub mem: Option<u64>,
}

/// The four workload kinds the load generator mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobKind {
    /// Skewed word histogram (`count_by_key`).
    WordCount,
    /// Aggregate + join (orders revenue joined against customers).
    Sql,
    /// One Lloyd assignment + centroid-update step.
    KMeans,
    /// One logistic-regression gradient step.
    LogReg,
}

impl JobKind {
    /// Parses the trace-file token.
    pub fn parse(s: &str) -> Result<JobKind, String> {
        match s {
            "wordcount" => Ok(JobKind::WordCount),
            "sql" => Ok(JobKind::Sql),
            "kmeans" => Ok(JobKind::KMeans),
            "logreg" => Ok(JobKind::LogReg),
            other => Err(format!(
                "unknown job kind '{other}' (expected wordcount|sql|kmeans|logreg)"
            )),
        }
    }

    /// The trace-file token.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::WordCount => "wordcount",
            JobKind::Sql => "sql",
            JobKind::KMeans => "kmeans",
            JobKind::LogReg => "logreg",
        }
    }
}

/// One job request from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Position in the trace file (stable job id).
    pub id: usize,
    /// Index into [`JobTrace::tenants`].
    pub tenant: usize,
    /// Arrival time in virtual seconds.
    pub at: f64,
    /// Workload kind.
    pub kind: JobKind,
    /// Input-size scale factor in `(0, 1]` relative to the kind's nominal
    /// dataset.
    pub scale: f64,
    /// Dataset seed. Jobs of one tenant sharing `(kind, scale, seed)`
    /// reuse the tenant's cached source RDDs.
    pub seed: u64,
}

/// A parsed job trace: tenants plus an arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Declared tenants, in declaration order.
    pub tenants: Vec<TenantSpec>,
    /// Job requests, in file order (ids are file positions).
    pub jobs: Vec<JobRequest>,
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (e.g. "512m",
/// "2g"). A size that does not fit a `u64` is an error, not a wrap.
pub fn parse_mem(s: &str) -> Result<u64, String> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match lower.as_bytes()[lower.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1u64 << 20,
                _ => 1u64 << 30,
            };
            (d, mult)
        }
        None => (lower.as_str(), 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad memory size '{s}' (expected e.g. 512m, 2g)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("memory size '{s}' overflows"))
}

/// Renders a memory size with the largest exact `k`/`m`/`g` suffix.
fn render_mem(bytes: u64) -> String {
    if bytes > 0 && bytes.is_multiple_of(1 << 30) {
        format!("{}g", bytes >> 30)
    } else if bytes > 0 && bytes.is_multiple_of(1 << 20) {
        format!("{}m", bytes >> 20)
    } else if bytes > 0 && bytes.is_multiple_of(1 << 10) {
        format!("{}k", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// The declaration a [`JobTrace`] check failed on.
enum Item {
    /// The trace as a whole.
    Trace,
    /// `tenants[i]`.
    Tenant(usize),
    /// `jobs[i]`.
    Job(usize),
}

impl JobTrace {
    /// Checks every field a hand-built trace could get wrong: at least one
    /// tenant; unique, non-empty, whitespace-free tenant names; weights
    /// positive and finite; job ids equal to their positions; tenant
    /// indices in range; arrivals `>= 0` and finite; scales in `(0, 1]`.
    /// [`JobTrace::from_text`] applies the same checks.
    pub fn validate(&self) -> Result<(), String> {
        self.check().map_err(|(item, msg)| match item {
            Item::Trace => msg,
            Item::Tenant(t) => format!("tenant {t}: {msg}"),
            Item::Job(j) => format!("job {j}: {msg}"),
        })
    }

    /// The first failed check of [`JobTrace::validate`], with the
    /// declaration it failed on.
    fn check(&self) -> Result<(), (Item, String)> {
        if self.tenants.is_empty() {
            return Err((Item::Trace, "trace declares no tenants".to_string()));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            let fail = |msg: String| Err((Item::Tenant(i), msg));
            if t.name.is_empty() || t.name.contains(char::is_whitespace) {
                return fail(format!(
                    "tenant name must be non-empty with no whitespace, got '{}'",
                    t.name
                ));
            }
            if self.tenants[..i].iter().any(|u| u.name == t.name) {
                return fail(format!("duplicate tenant '{}'", t.name));
            }
            if !(t.weight > 0.0 && t.weight.is_finite()) {
                return fail(format!(
                    "weight must be positive and finite, got {}",
                    t.weight
                ));
            }
        }
        for (i, j) in self.jobs.iter().enumerate() {
            let fail = |msg: String| Err((Item::Job(i), msg));
            if j.id != i {
                return fail(format!("id must be the job's position {i}, got {}", j.id));
            }
            if j.tenant >= self.tenants.len() {
                return fail(format!(
                    "tenant index {} out of range ({} tenants)",
                    j.tenant,
                    self.tenants.len()
                ));
            }
            if !(j.at >= 0.0 && j.at.is_finite()) {
                return fail(format!(
                    "arrival time must be >= 0 and finite, got {}",
                    j.at
                ));
            }
            if !(j.scale > 0.0 && j.scale <= 1.0) {
                return fail(format!("scale must be in (0, 1], got {}", j.scale));
            }
        }
        Ok(())
    }

    /// Parses the text format. Errors carry 1-based line numbers.
    pub fn from_text(text: &str) -> Result<JobTrace, String> {
        let mut tenants: Vec<TenantSpec> = Vec::new();
        let mut jobs: Vec<JobRequest> = Vec::new();
        // The line each tenant and job was declared on.
        let (mut tenant_lines, mut job_lines) = (Vec::new(), Vec::new());
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let fail =
                |msg: String| -> Result<JobTrace, String> { Err(format!("line {line_no}: {msg}")) };
            match toks[0] {
                "tenant" => {
                    // tenant <name> weight <w> [mem <size>]
                    if !(toks.len() == 4 || toks.len() == 6) || toks[2] != "weight" {
                        return fail(format!(
                            "expected 'tenant <name> weight <w> [mem <size>]', got '{line}'"
                        ));
                    }
                    let name = toks[1].to_string();
                    let weight: f64 = match toks[3].parse() {
                        Ok(w) => w,
                        Err(_) => return fail(format!("bad weight '{}'", toks[3])),
                    };
                    let mem = if toks.len() == 6 {
                        if toks[4] != "mem" {
                            return fail(format!("expected 'mem', got '{}'", toks[4]));
                        }
                        match parse_mem(toks[5]) {
                            Ok(m) => Some(m),
                            Err(e) => return fail(e),
                        }
                    } else {
                        None
                    };
                    tenants.push(TenantSpec { name, weight, mem });
                    tenant_lines.push(line_no);
                }
                "job" => {
                    // job <tenant> at <secs> <kind> scale <f> seed <u64>
                    if toks.len() != 9 || toks[2] != "at" || toks[5] != "scale" || toks[7] != "seed"
                    {
                        return fail(format!(
                            "expected 'job <tenant> at <secs> <kind> scale <f> seed <n>', got '{line}'"
                        ));
                    }
                    let tenant = match tenants.iter().position(|t| t.name == toks[1]) {
                        Some(t) => t,
                        None => return fail(format!("unknown tenant '{}'", toks[1])),
                    };
                    let at: f64 = match toks[3].parse() {
                        Ok(a) => a,
                        Err(_) => return fail(format!("bad arrival time '{}'", toks[3])),
                    };
                    let kind = match JobKind::parse(toks[4]) {
                        Ok(k) => k,
                        Err(e) => return fail(e),
                    };
                    let scale: f64 = match toks[6].parse() {
                        Ok(s) => s,
                        Err(_) => return fail(format!("bad scale '{}'", toks[6])),
                    };
                    let seed: u64 = match toks[8].parse() {
                        Ok(s) => s,
                        Err(_) => return fail(format!("bad seed '{}'", toks[8])),
                    };
                    jobs.push(JobRequest {
                        id: jobs.len(),
                        tenant,
                        at,
                        kind,
                        scale,
                        seed,
                    });
                    job_lines.push(line_no);
                }
                other => {
                    return fail(format!("unknown directive '{other}'"));
                }
            }
        }
        let trace = JobTrace { tenants, jobs };
        trace.check().map_err(|(item, msg)| match item {
            Item::Trace => msg,
            Item::Tenant(t) => format!("line {}: {msg}", tenant_lines[t]),
            Item::Job(j) => format!("line {}: {msg}", job_lines[j]),
        })?;
        Ok(trace)
    }

    /// Renders the trace back to the text format (round-trips through
    /// [`JobTrace::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# chopper job trace\n");
        for t in &self.tenants {
            match t.mem {
                Some(m) => out.push_str(&format!(
                    "tenant {} weight {} mem {}\n",
                    t.name,
                    t.weight,
                    render_mem(m)
                )),
                None => out.push_str(&format!("tenant {} weight {}\n", t.name, t.weight)),
            }
        }
        for j in &self.jobs {
            out.push_str(&format!(
                "job {} at {} {} scale {} seed {}\n",
                self.tenants[j.tenant].name,
                j.at,
                j.kind.name(),
                j.scale,
                j.seed
            ));
        }
        out
    }

    /// Job ids sorted by `(arrival, id)` — the server's admission order.
    pub fn arrival_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by(|&a, &b| {
            self.jobs[a]
                .at
                .partial_cmp(&self.jobs[b].at)
                .expect("arrival times are finite")
                .then(a.cmp(&b))
        });
        order
    }
}

/// Generates a mixed multi-tenant trace: tenant 0 (`batch`, weight 1) sends
/// bursts of heavy sql/kmeans jobs; tenants 1.. (`t1`…, weight 2) send a
/// steady trickle of light wordcount/logreg/sql jobs. Same `(tenants,
/// jobs, seed)` always yields the same trace — the generator draws from a
/// seeded [`XorShift64`] only.
pub fn generate(tenants: usize, jobs: usize, seed: u64) -> JobTrace {
    let tenants = tenants.max(1);
    let mut rng = XorShift64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut spec: Vec<TenantSpec> = Vec::with_capacity(tenants);
    spec.push(TenantSpec {
        name: "batch".to_string(),
        weight: 1.0,
        mem: None,
    });
    for t in 1..tenants {
        spec.push(TenantSpec {
            name: format!("t{t}"),
            weight: 2.0,
            mem: None,
        });
    }

    const HEAVY: [JobKind; 3] = [JobKind::Sql, JobKind::KMeans, JobKind::WordCount];
    const LIGHT: [JobKind; 4] = [
        JobKind::WordCount,
        JobKind::LogReg,
        JobKind::Sql,
        JobKind::KMeans,
    ];

    let mut reqs: Vec<JobRequest> = Vec::with_capacity(jobs);
    for i in 0..jobs {
        // Round-robin jobs over tenants so every tenant gets work even in
        // short traces.
        let tenant = i % tenants;
        let round = i / tenants;
        // The batch tenant sends a heavy job every few rounds and fills
        // the gaps with light ones, so heavy jobs stay a small fraction
        // of the trace (they are the tail fairness deliberately trades
        // away). A single tenant mixes both in one stream.
        let heavy = if tenants == 1 {
            i.is_multiple_of(8)
        } else {
            tenant == 0 && round.is_multiple_of(4)
        };
        let (kind, scale, at) = if heavy {
            let kind = HEAVY[(round / 4) % HEAVY.len()];
            let scale = 0.5 + 0.3 * rng.next_f64();
            // Heavy arrivals cluster early in their round: a burst the
            // light trickle then runs into.
            let at = round as f64 * 6.0 + 2.0 * rng.next_f64();
            (kind, scale, at)
        } else {
            let kind = LIGHT[round % LIGHT.len()];
            let scale = 0.05 + 0.1 * rng.next_f64();
            // Steady per-tenant trickle, jittered.
            let at = round as f64 * 6.0 + 5.0 * rng.next_f64();
            (kind, scale, at)
        };
        // Quantize so to_text round-trips exactly through decimal.
        let scale = (scale * 1000.0).round() / 1000.0;
        let at = (at * 1000.0).round() / 1000.0;
        // A small seed pool per tenant so repeat jobs hit the tenant's
        // dataset cache.
        let seed = 100 + (rng.next_u64() % 3) * 17 + tenant as u64;
        reqs.push(JobRequest {
            id: i,
            tenant,
            at,
            kind,
            scale,
            seed,
        });
    }
    JobTrace {
        tenants: spec,
        jobs: reqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let text = "\
# demo
tenant batch weight 1 mem 512m
tenant t1 weight 2
job batch at 0 sql scale 0.6 seed 7
job t1 at 1.5 wordcount scale 0.1 seed 8
";
        let trace = JobTrace::from_text(text).unwrap();
        assert_eq!(trace.tenants.len(), 2);
        assert_eq!(trace.tenants[0].mem, Some(512 << 20));
        assert_eq!(trace.jobs.len(), 2);
        assert_eq!(trace.jobs[1].tenant, 1);
        assert_eq!(trace.jobs[1].kind, JobKind::WordCount);
        let again = JobTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(again, trace);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = JobTrace::from_text("tenant a weight 1\njob b at 0 sql scale 0.5 seed 1\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = JobTrace::from_text("tenant a weight 0\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // The checks `validate` shares name the line of what they reject.
        let err = JobTrace::from_text("tenant a weight 1\n\ntenant a weight 2\n").unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("duplicate"),
            "{err}"
        );
        let err = JobTrace::from_text(
            "tenant a weight 1\njob a at 0 sql scale 0.5 seed 1\njob a at 1 sql scale 0 seed 1\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("scale"), "{err}");
        let err = JobTrace::from_text("# sizes are checked\ntenant a weight 1 mem 99999999999g\n")
            .unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("overflows"),
            "{err}"
        );
        let err = JobTrace::from_text("frob x\n").unwrap_err();
        assert!(err.contains("unknown directive"), "{err}");
        let err = JobTrace::from_text("").unwrap_err();
        assert!(err.contains("no tenants"), "{err}");
    }

    #[test]
    fn generate_is_deterministic_and_round_trips() {
        let a = generate(4, 56, 11);
        let b = generate(4, 56, 11);
        assert_eq!(a, b);
        assert_eq!(a.tenants.len(), 4);
        assert_eq!(a.jobs.len(), 56);
        // Every tenant got jobs; scales are in range.
        for t in 0..4 {
            assert!(a.jobs.iter().any(|j| j.tenant == t));
        }
        for j in &a.jobs {
            assert!(j.scale > 0.0 && j.scale <= 1.0);
            assert!(j.at >= 0.0);
        }
        let round = JobTrace::from_text(&a.to_text()).unwrap();
        assert_eq!(round, a);
        // Different seed, different trace.
        assert_ne!(generate(4, 56, 12), a);
    }

    #[test]
    fn arrival_order_sorts_by_time_then_id() {
        let trace = JobTrace::from_text(
            "tenant a weight 1\n\
             job a at 5 sql scale 0.5 seed 1\n\
             job a at 1 sql scale 0.5 seed 1\n\
             job a at 1 sql scale 0.5 seed 2\n",
        )
        .unwrap();
        assert_eq!(trace.arrival_order(), vec![1, 2, 0]);
    }
}
