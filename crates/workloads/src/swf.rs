//! Standard Workload Format (SWF) import.
//!
//! Real cluster logs — the Parallel Workloads Archive and most
//! production schedulers — ship as SWF: one job per line, 18
//! whitespace-separated fields, `;`-prefixed header comments. Importing
//! them lets the paper's algorithms run on real arrival and size
//! processes.
//!
//! Field usage (1-based SWF numbering):
//!
//! * field 1 — job number (kept for diagnostics),
//! * field 2 — submit time → release date,
//! * field 4 — run time (seconds) → processing time,
//! * field 5 — allocated processors → optionally multiplies the volume
//!   (`procs_scale`), since our model is single-machine-per-job.
//!
//! SWF carries no deadlines; they are synthesized from a [`SlackLaw`]
//! with a seeded RNG (documented substitution: the paper's model needs
//! slack, the trace supplies everything else).

use crate::SlackLaw;
use cslack_kernel::{Instance, InstanceBuilder, KernelError, Time};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// One parsed SWF record (the subset of fields we consume).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwfJob {
    /// SWF job number (field 1).
    pub job_number: i64,
    /// Submit time in seconds (field 2).
    pub submit: f64,
    /// Run time in seconds (field 4); `-1` in SWF means unknown.
    pub run_time: f64,
    /// Allocated processors (field 5); `-1` means unknown.
    pub processors: i64,
}

/// SWF parse errors.
#[derive(Debug, PartialEq)]
pub enum SwfError {
    /// A data line had fewer than 5 fields.
    ShortLine {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed numeric parsing.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 1-based SWF field index.
        field: usize,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::ShortLine { line } => write!(f, "SWF line {line}: fewer than 5 fields"),
            SwfError::BadField { line, field } => {
                write!(f, "SWF line {line}: field {field} is not numeric")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// Parses SWF text: skips `;` comments and blank lines, keeps jobs with
/// positive run time.
pub fn parse_swf(text: &str) -> Result<Vec<SwfJob>, SwfError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() < 5 {
            return Err(SwfError::ShortLine { line });
        }
        let num = |idx: usize| -> Result<f64, SwfError> {
            fields[idx - 1]
                .parse::<f64>()
                .map_err(|_| SwfError::BadField { line, field: idx })
        };
        let job = SwfJob {
            job_number: num(1)? as i64,
            submit: num(2)?,
            run_time: num(4)?,
            processors: num(5)? as i64,
        };
        if job.run_time > 0.0 {
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// Options for turning SWF records into an [`Instance`].
#[derive(Clone, Copy, Debug)]
pub struct SwfImport {
    /// Machine count of the resulting instance.
    pub m: usize,
    /// System slack the synthesized deadlines respect.
    pub eps: f64,
    /// Deadline law for the synthesized deadlines.
    pub slack: SlackLaw,
    /// RNG seed for the deadline synthesis.
    pub seed: u64,
    /// Multiply each job's volume by its processor count (`p = run_time
    /// * procs`); otherwise `p = run_time`.
    pub procs_scale: bool,
    /// Divide all times by this factor (traces are in seconds; the
    /// experiments like O(1) numbers). Must be positive.
    pub time_scale: f64,
}

impl SwfImport {
    /// Reasonable defaults: no processor scaling, time in hours.
    pub fn new(m: usize, eps: f64, seed: u64) -> SwfImport {
        SwfImport {
            m,
            eps,
            slack: SlackLaw::UniformIn { max: 1.0 },
            seed,
            procs_scale: false,
            time_scale: 3600.0,
        }
    }
}

/// Converts parsed SWF records into an instance (jobs sorted by
/// release; deadlines synthesized per the import options).
pub fn swf_to_instance(jobs: &[SwfJob], opts: &SwfImport) -> Result<Instance, KernelError> {
    assert!(opts.time_scale > 0.0);
    Instance::check_params(opts.m, opts.eps)?;
    let mut rng = ChaCha12Rng::seed_from_u64(opts.seed);
    let mut sorted: Vec<&SwfJob> = jobs.iter().collect();
    sorted.sort_by(|a, b| a.submit.total_cmp(&b.submit));
    let mut b = InstanceBuilder::with_capacity(opts.m, opts.eps, sorted.len());
    for j in sorted {
        let release = (j.submit / opts.time_scale).max(0.0);
        let mut p = j.run_time / opts.time_scale;
        if opts.procs_scale && j.processors > 0 {
            p *= j.processors as f64;
        }
        let slack_factor = match opts.slack {
            SlackLaw::Tight => opts.eps,
            SlackLaw::UniformIn { max } => rng.gen_range(opts.eps..=max.max(opts.eps)),
            SlackLaw::Generous { factor } => factor.max(opts.eps),
        };
        b.push(
            Time::new(release),
            p,
            Time::new(release + (1.0 + slack_factor) * p),
        );
    }
    b.build()
}

/// Serializes jobs back to SWF (unused fields written as `-1`), for
/// round trips and synthetic trace files.
pub fn write_swf(jobs: &[SwfJob]) -> String {
    let mut out = String::from("; generated by cslack-workloads (SWF v2 subset)\n");
    for j in jobs {
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n",
            j.job_number, j.submit, j.run_time, j.processors
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; SWF header comment
; MaxJobs: 4

1 0.0 5 3600.0 4 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
2 60.0 1 1800.0 1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
3 120.0 0 -1 2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
4 30.0 2 7200.0 8 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
";

    #[test]
    fn parses_sample_skipping_comments_and_unknown_runtimes() {
        let jobs = parse_swf(SAMPLE).unwrap();
        assert_eq!(jobs.len(), 3); // job 3 has run_time -1
        assert_eq!(jobs[0].job_number, 1);
        assert_eq!(jobs[0].run_time, 3600.0);
        assert_eq!(jobs[2].job_number, 4);
        assert_eq!(jobs[2].processors, 8);
    }

    #[test]
    fn short_and_malformed_lines_are_reported_with_position() {
        assert_eq!(parse_swf("1 2 3"), Err(SwfError::ShortLine { line: 1 }));
        let bad = "\n; c\n1 abc 3 4 5";
        assert_eq!(
            parse_swf(bad),
            Err(SwfError::BadField { line: 3, field: 2 })
        );
    }

    #[test]
    fn conversion_sorts_scales_and_synthesizes_valid_deadlines() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let opts = SwfImport::new(4, 0.25, 7);
        let inst = swf_to_instance(&jobs, &opts).unwrap();
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.machines(), 4);
        // Sorted by submit: job 1 (0s), job 4 (30s), job 2 (60s).
        let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release.raw()).collect();
        assert!(releases.windows(2).all(|w| w[0] <= w[1]));
        assert!((releases[0] - 0.0).abs() < 1e-12);
        assert!((releases[1] - 30.0 / 3600.0).abs() < 1e-12);
        // Hours scaling: 3600 s -> 1.0.
        assert!((inst.jobs()[0].proc_time - 1.0).abs() < 1e-12);
        for j in inst.jobs() {
            assert!(j.satisfies_slack(0.25));
        }
    }

    #[test]
    fn processor_scaling_multiplies_volume() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let opts = SwfImport {
            procs_scale: true,
            ..SwfImport::new(2, 0.25, 7)
        };
        let inst = swf_to_instance(&jobs, &opts).unwrap();
        // Job 1: 1h * 4 procs = 4.0 volume.
        assert!((inst.jobs()[0].proc_time - 4.0).abs() < 1e-12);
    }

    #[test]
    fn swf_round_trip() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let text = write_swf(&jobs);
        let back = parse_swf(&text).unwrap();
        assert_eq!(back, jobs);
    }

    #[test]
    fn same_seed_same_deadlines() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let opts = SwfImport::new(2, 0.1, 42);
        assert_eq!(
            swf_to_instance(&jobs, &opts).unwrap(),
            swf_to_instance(&jobs, &opts).unwrap()
        );
        let other = SwfImport::new(2, 0.1, 43);
        assert_ne!(
            swf_to_instance(&jobs, &opts).unwrap(),
            swf_to_instance(&jobs, &other).unwrap()
        );
    }

    #[test]
    fn imported_trace_runs_through_the_simulator() {
        use cslack_algorithms::{OnlineScheduler, Threshold};
        let jobs = parse_swf(SAMPLE).unwrap();
        let opts = SwfImport::new(2, 0.25, 1);
        let inst = swf_to_instance(&jobs, &opts).unwrap();
        let mut alg = Threshold::new(2, 0.25);
        let mut accepted = 0;
        for j in inst.jobs() {
            if alg.offer(j).is_accept() {
                accepted += 1;
            }
        }
        assert!(accepted > 0);
    }
}
