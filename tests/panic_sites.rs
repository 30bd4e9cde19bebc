//! The ratchet on ROADMAP item 3 ("errors, not panics"): the panic sites
//! of non-test library code, counted by a line grep, may fall but not
//! rise.
//!
//! The grep reads each `.rs` file under a crate's `src/` up to its first
//! `#[cfg(test)]`, skips comment lines, and counts the occurrences of
//! `.unwrap()`, `.expect(`, `panic!(` and `unreachable!(`. It skips the
//! `bench` and `cli` crates and the in-repo stand-ins for registry crates
//! (`parking_lot`, `proptest`, `serde*`).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The count this test holds the code to. Lower it when a change removes
/// a site; never raise it.
const PINNED: usize = 60;

const SITES: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];

/// Crates the grep skips.
fn skipped(name: &str) -> bool {
    matches!(name, "bench" | "cli" | "parking_lot" | "proptest") || name.starts_with("serde")
}

/// The panic sites of one source file's non-test lines.
fn sites_in(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| SITES.iter().map(|s| line.matches(s).count()).sum::<usize>())
        .sum()
}

/// Adds the sites of every `.rs` file under `dir` to `counts`.
fn walk(dir: &Path, counts: &mut BTreeMap<String, usize>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, counts);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = fs::read_to_string(&path).expect("a readable source file");
            let n = sites_in(&source);
            if n > 0 {
                counts.insert(path.display().to_string(), n);
            }
        }
    }
}

#[test]
fn library_panic_sites_do_not_rise() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut counts = BTreeMap::new();
    let mut names: Vec<_> = fs::read_dir(&crates)
        .expect("the crates directory")
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    names.sort();
    for dir in names {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !skipped(name) && dir.join("src").is_dir() {
            walk(&dir.join("src"), &mut counts);
        }
    }
    let total: usize = counts.values().sum();
    let per_file: String = counts
        .iter()
        .map(|(f, n)| format!("\n  {n:3} {f}"))
        .collect();
    assert!(
        total <= PINNED,
        "{total} panic sites in library code, above the pinned {PINNED}:{per_file}"
    );
    assert!(
        total == PINNED,
        "{total} panic sites in library code, below the pinned {PINNED}: lower `PINNED`"
    );
}

#[test]
fn the_grep_skips_comments_and_tests() {
    let source = "let a = x.unwrap();\n// y.unwrap()\n  /// panic!(\"doc\")\n\
                  let b = z.expect(\"z\").unwrap();\n#[cfg(test)]\nfn t() { panic!() }\n";
    assert_eq!(sites_in(source), 3);
}
