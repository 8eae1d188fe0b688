//! Argument parsing for the `run_experiment` binary — a tiny hand-rolled
//! flag parser (no external dependency) mapping CLI flags onto
//! [`SystemConfig`].

use jade::adl::J2eeDescription;
use jade::config::SystemConfig;
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;

/// Parsed invocation.
#[derive(Debug, Clone)]
pub struct CliRun {
    /// Experiment configuration.
    pub cfg: SystemConfig,
    /// Virtual-time horizon.
    pub duration: SimDuration,
    /// Prefix for TSV outputs (None = don't write files).
    pub out_prefix: Option<String>,
    /// Record and print a management-plane trace.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "\
usage: run_experiment [flags]
  --clients N        constant workload of N emulated clients (default: paper ramp)
  --duration SECS    virtual-time horizon in seconds (default 3000)
  --seed N           RNG seed (default 42)
  --nodes N          node-pool size (default 9)
  --unmanaged        disable Jade's reconfiguration (baseline runs)
  --adl PATH         deploy the architecture described in an ADL XML file
  --markov           navigate clients through the RUBiS transition table
  --browsing         use the read-only browsing mix instead of bidding
  --patience SECS    clients abandon requests slower than SECS
  --arbitration      route manager decisions through the policy arbitrator
  --self-repair      enable the self-recovery manager
  --adaptive         enable adaptive thresholds
  --latency-driver   drive the loops with response time instead of CPU
  --out PREFIX       write metric series to PREFIX_<series>.tsv
  --trace            record and print the management-plane trace
  --help             this text
";

/// Parse errors carry the message to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn value<'a, I: Iterator<Item = &'a str>>(flag: &str, args: &mut I) -> Result<&'a str, CliError> {
    args.next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError(format!("{flag}: '{s}' is not a valid number")))
}

/// Parses CLI arguments (excluding `argv[0]`). `read_file` abstracts file
/// access so tests need no filesystem.
pub fn parse_args<'a>(
    args: impl IntoIterator<Item = &'a str>,
    read_file: impl Fn(&str) -> Result<String, String>,
) -> Result<CliRun, CliError> {
    let mut cfg = SystemConfig::paper_managed();
    let mut duration = SimDuration::from_secs(3000);
    let mut out_prefix = None;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg {
            "--clients" => {
                let n: u32 = parse_num(arg, value(arg, &mut args)?)?;
                if n == 0 {
                    return Err(CliError("--clients must be >= 1".into()));
                }
                cfg.ramp = WorkloadRamp::constant(n);
            }
            "--duration" => {
                let secs: u64 = parse_num(arg, value(arg, &mut args)?)?;
                duration = SimDuration::from_secs(secs);
            }
            "--seed" => cfg.seed = parse_num(arg, value(arg, &mut args)?)?,
            "--nodes" => {
                cfg.nodes = parse_num(arg, value(arg, &mut args)?)?;
                if cfg.nodes == 0 {
                    return Err(CliError("--nodes must be >= 1".into()));
                }
            }
            "--unmanaged" => cfg.jade.managed = false,
            "--adl" => {
                let path = value(arg, &mut args)?;
                let xml = read_file(path).map_err(CliError)?;
                cfg.description = J2eeDescription::from_xml(&xml)
                    .map_err(|e| CliError(format!("{path}: {e}")))?;
            }
            "--markov" => cfg.markov_navigation = true,
            "--browsing" => cfg.browsing_mix = true,
            "--patience" => {
                let secs: u64 = parse_num(arg, value(arg, &mut args)?)?;
                cfg.client_patience = Some(SimDuration::from_secs(secs));
            }
            "--arbitration" => cfg.jade.arbitration = true,
            "--self-repair" => cfg.jade.self_repair = true,
            "--adaptive" => cfg.jade.adaptive = true,
            "--latency-driver" => cfg.jade.latency_driver = true,
            "--out" => out_prefix = Some(value(arg, &mut args)?.to_owned()),
            "--trace" => trace = true,
            "--help" | "-h" => return Err(CliError(USAGE.to_owned())),
            other => return Err(CliError(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    if cfg.nodes < cfg.description.initial_nodes() {
        return Err(CliError(format!(
            "the described architecture needs {} nodes but the pool has {}",
            cfg.description.initial_nodes(),
            cfg.nodes
        )));
    }
    Ok(CliRun {
        cfg,
        duration,
        out_prefix,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_fs(_: &str) -> Result<String, String> {
        Err("no filesystem in tests".into())
    }

    #[test]
    fn defaults_are_the_paper_run() {
        let run = parse_args([], no_fs).unwrap();
        assert_eq!(run.duration, SimDuration::from_secs(3000));
        assert!(run.cfg.jade.managed);
        assert_eq!(run.cfg.seed, 42);
        assert!(run.out_prefix.is_none());
        assert!(!run.trace);
    }

    #[test]
    fn flags_map_onto_config() {
        let run = parse_args(
            [
                "--clients",
                "120",
                "--duration",
                "600",
                "--seed",
                "7",
                "--unmanaged",
                "--markov",
                "--arbitration",
                "--self-repair",
                "--adaptive",
                "--latency-driver",
                "--out",
                "results/run1",
                "--trace",
                "--browsing",
                "--patience",
                "15",
            ],
            no_fs,
        )
        .unwrap();
        assert_eq!(run.cfg.ramp.base_clients, 120);
        assert_eq!(run.cfg.ramp.peak_clients, 120);
        assert_eq!(run.duration, SimDuration::from_secs(600));
        assert_eq!(run.cfg.seed, 7);
        assert!(!run.cfg.jade.managed);
        assert!(run.cfg.markov_navigation);
        assert!(run.cfg.jade.arbitration);
        assert!(run.cfg.jade.self_repair);
        assert!(run.cfg.jade.adaptive);
        assert!(run.cfg.jade.latency_driver);
        assert_eq!(run.out_prefix.as_deref(), Some("results/run1"));
        assert!(run.trace);
        assert!(run.cfg.browsing_mix);
        assert_eq!(run.cfg.client_patience, Some(SimDuration::from_secs(15)));
    }

    #[test]
    fn adl_flag_reads_and_validates() {
        let read = |path: &str| {
            assert_eq!(path, "arch.xml");
            Ok(r#"<j2ee name="x">
                    <tier kind="application" replicas="2"/>
                    <tier kind="database" replicas="2"/>
                  </j2ee>"#
                .to_owned())
        };
        let run = parse_args(["--adl", "arch.xml"], read).unwrap();
        assert_eq!(run.cfg.description.application.replicas, 2);
        // Bad XML is a parse error, not a panic.
        let bad = parse_args(["--adl", "arch.xml"], |_| Ok("<nope/>".into()));
        assert!(bad.is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_args(["--clients"], no_fs)
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse_args(["--clients", "zero"], no_fs)
            .unwrap_err()
            .0
            .contains("not a valid number"));
        assert!(parse_args(["--wat"], no_fs)
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse_args(["--clients", "0"], no_fs)
            .unwrap_err()
            .0
            .contains(">= 1"));
        assert!(parse_args(["--help"], no_fs)
            .unwrap_err()
            .0
            .contains("usage"));
    }

    #[test]
    fn pool_must_fit_the_architecture() {
        let err = parse_args(["--nodes", "2"], no_fs).unwrap_err();
        assert!(err.0.contains("needs"), "{err}");
    }
}
