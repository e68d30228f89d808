//! The `repro lint` entry point: scan, render, exit code.

use crate::rules::{self, Diagnostic};
use crate::scan::{find_root, Workspace};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Parsed command line for `repro lint`.
#[derive(Debug, Default)]
pub struct LintArgs {
    /// Restrict reporting to one rule id.
    pub rule: Option<String>,
    /// Workspace root override (default: walk up from the current dir).
    pub root: Option<PathBuf>,
    /// Print the rule catalog and exit.
    pub list: bool,
}

impl LintArgs {
    /// Parse `repro lint`'s arguments.
    pub fn parse(args: &[String]) -> Result<LintArgs, String> {
        let mut out = LintArgs::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--list" => out.list = true,
                "--rule" => {
                    let id = it.next().ok_or("--rule needs a rule id")?;
                    if !rules::is_known_rule(id) {
                        return Err(format!("unknown rule `{id}` (see --list)"));
                    }
                    out.rule = Some(id.clone());
                }
                "--root" => {
                    let p = it.next().ok_or("--root needs a path")?;
                    out.root = Some(PathBuf::from(p));
                }
                "--help" | "-h" => {
                    return Err("usage: repro lint [--rule ID] [--root PATH] [--list]".into())
                }
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
        }
        Ok(out)
    }
}

/// The result of one lint run, ready to render.
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub manifests_scanned: usize,
    /// Justified `lint: allow` escape hatches in effect, as
    /// `(file, line, rule, reason)`.
    pub allows: Vec<(String, u32, String, String)>,
}

/// Scan `root` and collect the report (every rule; filtering happens at
/// render time).
pub fn run(root: &std::path::Path) -> std::io::Result<Report> {
    let ws = Workspace::collect(root)?;
    let diagnostics = rules::check_workspace(&ws);
    let mut allows = Vec::new();
    for f in &ws.files {
        for a in &f.allows {
            allows.push((f.rel_path.clone(), a.line, a.rule.clone(), a.reason.clone()));
        }
    }
    Ok(Report {
        diagnostics,
        files_scanned: ws.files.len(),
        manifests_scanned: ws.manifests.len(),
        allows,
    })
}

/// CLI driver. Returns the process exit code: 0 clean, 1 diagnostics
/// found; argument errors are `Err`.
pub fn cli(args: &[String]) -> Result<i32, String> {
    let args = LintArgs::parse(args)?;
    if args.list {
        for r in rules::RULES {
            println!("{:26} {}", r.id, r.summary);
        }
        return Ok(0);
    }
    let root = match &args.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_root(&cwd).ok_or("no workspace root found above the current directory")?
        }
    };
    let mut report = run(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    if let Some(rule) = &args.rule {
        report.diagnostics.retain(|d| d.rule == rule);
    }
    print!("{}", render(&report));
    Ok(if report.diagnostics.is_empty() { 0 } else { 1 })
}

/// The text report: each diagnostic, a summary line, then each justified
/// allow in force as `file:line: [rule] reason`.
fn render(report: &Report) -> String {
    let mut s = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(s, "{d}");
    }
    let head = match report.diagnostics.len() {
        0 => "lint clean: 0 diagnostics".to_string(),
        n => format!("{n} diagnostic(s)"),
    };
    let (files, manifests) = (report.files_scanned, report.manifests_scanned);
    let allows = report.allows.len();
    let _ = writeln!(
        s,
        "{head} ({files} files + {manifests} manifests scanned, {allows} justified allows)"
    );
    for (file, line, rule, reason) in &report.allows {
        let _ = writeln!(s, "  {file}:{line}: [{rule}] {reason}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let ok = LintArgs::parse(&["--rule".into(), "no-raw-spawn".into()]).unwrap();
        assert_eq!(ok.rule.as_deref(), Some("no-raw-spawn"));
        assert!(LintArgs::parse(&["--rule".into(), "nope".into()]).is_err());
        assert!(LintArgs::parse(&["--wat".into()]).is_err());
        assert!(LintArgs::parse(&["--json".into()]).is_err());
    }

    #[test]
    fn the_report_lists_every_allow_under_its_summary() {
        let mut report = Report {
            diagnostics: Vec::new(),
            files_scanned: 2,
            manifests_scanned: 1,
            allows: vec![
                ("a.rs".into(), 9, "no-raw-spawn".into(), "why".into()),
                (
                    "b.rs".into(),
                    3,
                    "no-panic-hot-path".into(),
                    "because".into(),
                ),
            ],
        };
        let clean =
            "lint clean: 0 diagnostics (2 files + 1 manifests scanned, 2 justified allows)\n\
                     \x20 a.rs:9: [no-raw-spawn] why\n\
                     \x20 b.rs:3: [no-panic-hot-path] because\n";
        assert_eq!(render(&report), clean);
        report.diagnostics.push(Diagnostic {
            rule: "no-raw-spawn",
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "raw `thread::spawn`".into(),
            hint: "use audb_par",
        });
        let text = render(&report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert!(
            lines[0].starts_with("crates/x/src/lib.rs:3:7: [no-raw-spawn]"),
            "{text}"
        );
        assert_eq!(
            lines[2],
            "1 diagnostic(s) (2 files + 1 manifests scanned, 2 justified allows)"
        );
        assert_eq!(lines[3..], clean.lines().skip(1).collect::<Vec<_>>()[..]);
    }
}
