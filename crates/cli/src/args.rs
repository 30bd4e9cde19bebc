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

/// The flags one command reads.
struct CommandFlags {
    command: &'static str,
    /// Flags followed by a value.
    values: &'static [&'static str],
    /// Flags that take no value.
    switches: &'static [&'static str],
    /// `(flag, needs)`: `flag` means something only beside `needs`.
    needs: &'static [(&'static str, &'static str)],
}

/// Every command and the flags it reads. The second line of `run`,
/// `tune`, `plan` and `compare` is what `commands::engine_opts` reads;
/// `tune` and `plan` take no `--copartition` because the tuner schedules
/// co-partitioned whatever it says. `serve` reads `fault-plan`,
/// `fault-seed` and `executor-mem` only to reject them with the reason.
#[rustfmt::skip]
const COMMANDS: &[CommandFlags] = &[
    CommandFlags {
        command: "run",
        values: &["workload", "scale", "conf", "trace-out", "clock", "summary-out",
                  "cluster", "topology", "partitions", "executor-mem", "fault-plan", "fault-seed"],
        switches: &["copartition"],
        needs: &[("clock", "trace-out")],
    },
    CommandFlags {
        command: "tune",
        values: &["workload", "db", "out-conf", "scales", "test-partitions", "test-parallelism",
                  "cluster", "topology", "partitions", "executor-mem", "fault-plan", "fault-seed"],
        switches: &[],
        needs: &[],
    },
    CommandFlags {
        command: "plan",
        values: &["workload", "db", "out-conf",
                  "cluster", "topology", "partitions", "executor-mem", "fault-plan", "fault-seed"],
        switches: &[],
        needs: &[],
    },
    CommandFlags {
        command: "compare",
        values: &["workload", "scales", "test-partitions", "test-parallelism",
                  "cluster", "topology", "partitions", "executor-mem", "fault-plan", "fault-seed"],
        switches: &["copartition"],
        needs: &[],
    },
    CommandFlags { command: "inspect", values: &["db"], switches: &[], needs: &[] },
    CommandFlags { command: "conf", values: &["file"], switches: &[], needs: &[] },
    CommandFlags {
        command: "serve",
        values: &["trace", "policy", "slots", "queue-cap", "mem-shared", "mem-tenant", "workers",
                  "partitions", "cluster", "topology", "results-out", "tables-out", "trace-out",
                  "fault-plan", "fault-seed", "executor-mem"],
        switches: &["serial"],
        needs: &[],
    },
    CommandFlags {
        command: "loadgen",
        values: &["out", "tenants", "jobs", "seed"],
        switches: &[],
        needs: &[],
    },
    CommandFlags { command: "help", values: &[], switches: &[], needs: &[] },
];

impl Args {
    /// Parses raw arguments (without the binary name). A flag that is
    /// not in the command's row of [`COMMANDS`] is an error. An unknown
    /// command parses with no flags read: dispatching it is the error.
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
        let Some(spec) = COMMANDS.iter().find(|c| c.command == command) else {
            return Ok(Args { command, flags });
        };
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ParseError(format!(
                    "unexpected positional argument '{tok}'"
                )));
            };
            if name.is_empty() {
                return Err(ParseError("empty flag name".into()));
            }
            let value = if spec.switches.contains(&name) {
                "true".to_string()
            } else if spec.values.contains(&name) {
                iter.next()
                    .ok_or_else(|| ParseError(format!("flag --{name} requires a value")))?
            } else {
                return Err(ParseError(format!("unknown flag --{name} for `{command}`")));
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ParseError(format!("flag --{name} given twice")));
            }
        }
        for (flag, needs) in spec.needs {
            if flags.contains_key(*flag) && !flags.contains_key(*needs) {
                return Err(ParseError(format!(
                    "flag --{flag} of `{command}` needs --{needs}"
                )));
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
        assert_eq!(err.0, "unknown flag --wrokload for `run`");
    }

    /// Each command reads its own flags: one another command reads is
    /// as unknown here as a typo, and the message names the command.
    #[test]
    fn a_flag_of_another_command_is_an_error() {
        for (tokens, flag) in [
            (&["run", "--workload", "sql", "--slots", "4"][..], "--slots"),
            (&["run", "--db", "x.json"], "--db"),
            (&["run", "--gantt"], "--gantt"),
            (&["plan", "--scales", "0.1"], "--scales"),
            (&["serve", "--copartition"], "--copartition"),
            (&["help", "--workload", "sql"], "--workload"),
        ] {
            let err = parse(tokens).unwrap_err();
            assert_eq!(err.0, format!("unknown flag {flag} for `{}`", tokens[0]));
        }
    }

    #[test]
    fn clock_needs_a_trace_file() {
        let err = parse(&["run", "--workload", "sql", "--clock", "wall"]).unwrap_err();
        assert_eq!(err.0, "flag --clock of `run` needs --trace-out");
        let a = parse(&["run", "--clock", "wall", "--trace-out", "t.json"]).unwrap();
        assert_eq!(a.get("clock"), Some("wall"));
    }

    #[test]
    fn every_command_has_one_row_and_no_flag_twice() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|d| d.command != c.command));
            let flags: Vec<&str> = c.values.iter().chain(c.switches).copied().collect();
            for (j, f) in flags.iter().enumerate() {
                assert!(!flags[..j].contains(f), "{}: --{f} twice", c.command);
            }
            for (flag, needs) in c.needs {
                assert!(
                    flags.contains(flag) && flags.contains(needs),
                    "{}",
                    c.command
                );
            }
        }
    }

    /// The `--` flags a piece of usage text names.
    fn named_flags(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect()
    }

    /// `USAGE` lists every flag each command reads, in the command's
    /// entry — its line under `commands:` and the indented lines after it.
    /// The three flags `serve` reads only to reject may be named in its
    /// paragraph instead.
    #[test]
    fn usage_lists_every_flag_each_command_reads() {
        let usage = crate::commands::USAGE;
        let listing = usage
            .split("\n\n")
            .find(|p| p.starts_with("commands:"))
            .expect("a commands section");
        let serve_prose = usage
            .split("\n\n")
            .find(|p| p.starts_with("serve "))
            .expect("a paragraph on serve");
        for c in COMMANDS {
            let mut lines = listing.lines().skip_while(|l| {
                l.strip_prefix("  ").and_then(|l| l.split(' ').next()) != Some(c.command)
            });
            let head = lines
                .next()
                .unwrap_or_else(|| panic!("no entry for `{}`", c.command));
            let entry: Vec<&str> = std::iter::once(head)
                .chain(lines.take_while(|l| l.starts_with("   ")))
                .collect();
            let entry = entry.join("\n");
            let listed = named_flags(&entry);
            for flag in c.values.iter().chain(c.switches) {
                let rejected = c.command == "serve"
                    && ["fault-plan", "fault-seed", "executor-mem"].contains(flag)
                    && named_flags(serve_prose).contains(flag);
                assert!(
                    listed.contains(flag) || rejected,
                    "`{}` reads --{flag}, which its usage entry does not name:\n{entry}",
                    c.command
                );
            }
        }
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
