//! Minimal dependency-free argument parsing for `chopper-cli`.
//!
//! Grammar: `chopper-cli <command> [--flag [value]]...`. Flags may appear
//! in any order; unknown flags are errors (to catch typos early).

use std::collections::HashMap;

/// A parsed command line: the command word plus its flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional token ("run", "tune", ...).
    pub command: String,
    flags: HashMap<String, String>,
}

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["copartition", "gantt", "serial"];

/// Flags that take a value, over all commands.
const VALUE_FLAGS: &[&str] = &[
    "clock",
    "cluster",
    "conf",
    "db",
    "executor-mem",
    "fault-plan",
    "fault-seed",
    "file",
    "jobs",
    "mem-shared",
    "mem-tenant",
    "out",
    "out-conf",
    "partitions",
    "policy",
    "queue-cap",
    "results-out",
    "scale",
    "scales",
    "seed",
    "slots",
    "summary-out",
    "tables-out",
    "tenants",
    "test-parallelism",
    "test-partitions",
    "topology",
    "trace",
    "trace-out",
    "workers",
    "workload",
];

impl Args {
    /// Parses raw arguments (without the binary name).
    pub fn parse<I, S>(raw: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = raw.into_iter().map(Into::into).peekable();
        let command = iter
            .next()
            .ok_or_else(|| ParseError("missing command (try `chopper-cli help`)".into()))?;
        if command.starts_with("--") {
            return Err(ParseError(format!(
                "expected a command, got flag {command}"
            )));
        }
        let mut flags = HashMap::new();
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ParseError(format!(
                    "unexpected positional argument '{tok}'"
                )));
            };
            if name.is_empty() {
                return Err(ParseError("empty flag name".into()));
            }
            let value = if BOOLEAN_FLAGS.contains(&name) {
                "true".to_string()
            } else if VALUE_FLAGS.contains(&name) {
                iter.next()
                    .ok_or_else(|| ParseError(format!("flag --{name} requires a value")))?
            } else {
                return Err(ParseError(format!("unknown flag --{name}")));
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ParseError(format!("flag --{name} given twice")));
            }
        }
        Ok(Args { command, flags })
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, ParseError> {
        self.get(name)
            .ok_or_else(|| ParseError(format!("missing required flag --{name}")))
    }

    /// A boolean flag (present = true).
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("flag --{name}: cannot parse '{v}'"))),
        }
    }

    /// A comma-separated list of numbers.
    pub fn num_list<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| ParseError(format!("flag --{name}: bad entry '{part}'")))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ParseError> {
        Args::parse(tokens.iter().copied())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["run", "--workload", "kmeans", "--scale", "0.5"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("workload"), Some("kmeans"));
        assert_eq!(a.num::<f64>("scale", 1.0).unwrap(), 0.5);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(&["run", "--copartition", "--workload", "sql"]).unwrap();
        assert!(a.has("copartition"));
        assert_eq!(a.get("workload"), Some("sql"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "x"]).is_err());
    }

    #[test]
    fn value_flag_without_value_is_an_error() {
        assert!(parse(&["run", "--workload"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["run", "--wrokload", "kmeans"]).unwrap_err();
        assert!(err.0.contains("unknown flag --wrokload"), "{err}");
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&["run", "--scale", "1", "--scale", "2"]).is_err());
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert!(parse(&["run", "kmeans"]).is_err());
    }

    #[test]
    fn defaults_and_requires() {
        let a = parse(&["tune", "--workload", "pca"]).unwrap();
        assert_eq!(a.num::<usize>("partitions", 300).unwrap(), 300);
        assert!(a.require("workload").is_ok());
        assert!(a.require("db").is_err());
    }

    #[test]
    fn num_list_parses_csv() {
        let a = parse(&["tune", "--scales", "0.1, 0.3,0.6"]).unwrap();
        assert_eq!(
            a.num_list("scales", vec![1.0]).unwrap(),
            vec![0.1, 0.3, 0.6]
        );
        let bad = parse(&["tune", "--scales", "0.1,zebra"]).unwrap();
        assert!(bad.num_list::<f64>("scales", vec![]).is_err());
    }

    #[test]
    fn bad_number_reports_flag_name() {
        let a = parse(&["run", "--scale", "woof"]).unwrap();
        let err = a.num::<f64>("scale", 1.0).unwrap_err();
        assert!(err.0.contains("--scale"));
    }
}
