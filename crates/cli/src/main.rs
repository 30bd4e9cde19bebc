//! `chopper-cli` — drive the CHOPPER reproduction from the command line.
//! The commands, abridged (`chopper-cli help` prints every flag each one
//! reads):
//!
//! ```text
//! chopper-cli run     --workload kmeans [--scale 0.5] [--partitions 300]
//!                     [--copartition] [--conf FILE] [--cluster paper|uniform:N,C,GHz]
//!                     [--trace-out FILE [--clock all|virtual|wall]] [--summary-out FILE]
//! chopper-cli tune    --workload sql --db db.json [--out-conf conf.txt]
//!                     [--scales 0.1,0.3,0.6] [--test-partitions 60,150,300,600,1200]
//! chopper-cli plan    --workload sql --db db.json [--out-conf conf.txt]
//! chopper-cli compare --workload pca [--partitions 300]
//! chopper-cli inspect --db db.json
//! chopper-cli conf    --file conf.txt
//! chopper-cli serve   --trace jobs.trace [--policy fair|fifo] [--slots 8]
//!                     [--queue-cap N] [--mem-shared 1g] [--mem-tenant 256m]
//! chopper-cli loadgen --out jobs.trace [--tenants 4] [--jobs 56] [--seed 11]
//! chopper-cli help | --help | -h
//! ```

mod args;
mod commands;

use args::Args;

/// A `--help` / `-h` anywhere is the `help` command.
fn normalize(raw: Vec<String>) -> Vec<String> {
    if raw.iter().any(|t| t == "--help" || t == "-h") {
        return vec!["help".to_string()];
    }
    raw
}

fn main() {
    let raw = normalize(std::env::args().skip(1).collect());
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "run" => commands::run(&parsed),
        "tune" => commands::tune(&parsed),
        "plan" => commands::plan(&parsed),
        "compare" => commands::compare(&parsed),
        "inspect" => commands::inspect(&parsed),
        "conf" => commands::conf(&parsed),
        "serve" => commands::serve(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "help" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", commands::USAGE)),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::normalize;

    fn norm(tokens: &[&str]) -> Vec<String> {
        normalize(tokens.iter().map(|t| t.to_string()).collect())
    }

    /// Only the help spellings are rewritten; a positional is left for
    /// the parser to reject.
    #[test]
    fn flag_form_and_other_commands_pass_through() {
        assert_eq!(
            norm(&["run", "--workload", "sql"]),
            ["run", "--workload", "sql"]
        );
        assert_eq!(norm(&["run", "kmeans"]), ["run", "kmeans"]);
        assert_eq!(norm(&["run", "kmeans", "-h"]), ["help"]);
    }
}
