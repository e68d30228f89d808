//! Workspace scanning: which files the linter reads, how `#[cfg(test)]`
//! code is masked out, and how `// lint: allow(rule) -- reason` escape
//! hatches are parsed.
//!
//! ## Scope
//!
//! The linter checks *shipped* code: `src/` trees of every workspace
//! crate (plus the umbrella crate's `src/`) and each crate's
//! `Cargo.toml`. Integration tests, benches, examples and the vendored
//! dependency shims are deliberately out of scope — tests exercise
//! panics and raw threads on purpose, and `vendor/` is frozen upstream
//! code. `#[cfg(test)]` items inside scanned files are skipped for the
//! same reason.
//!
//! ## The escape hatch
//!
//! `// lint: allow(rule-id) -- reason` suppresses diagnostics of
//! `rule-id` on the comment's own line(s) and the line immediately
//! after it (so it works both as a trailing comment and on its own
//! line). The reason is mandatory: an allow without ` -- reason`, or
//! naming an unknown rule, is itself a diagnostic (`allow-malformed`).

use crate::lexer::{tokenize, Tok};
use crate::rules;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One parsed `// lint: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// First line the allow covers (the comment's first line).
    pub line: u32,
    /// Last line the allow covers (the line after the comment).
    pub end_line: u32,
    /// The mandatory justification after ` -- `.
    pub reason: String,
}

/// A scanned source file, pre-digested for the rules.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Code tokens (comments stripped, `#[cfg(test)]`/`#[test]` items
    /// masked out), in source order.
    pub code: Vec<Tok>,
    /// Every comment token in the file, in source order.
    pub comments: Vec<Tok>,
    /// Lines (1-based) that contain at least one code token.
    pub code_lines: BTreeSet<u32>,
    /// Well-formed allows, ready for suppression matching.
    pub allows: Vec<Allow>,
    /// Malformed allow diagnostics produced during parsing:
    /// `(line, col, message)`.
    pub bad_allows: Vec<(u32, u32, String)>,
}

impl SourceFile {
    /// Lex and digest one file.
    pub fn parse(rel_path: &str, source: &str) -> SourceFile {
        let toks = tokenize(source);
        let comments: Vec<Tok> = toks.iter().filter(|t| t.is_comment()).cloned().collect();
        let code = mask_test_items(toks.iter().filter(|t| !t.is_comment()).cloned().collect());
        let code_lines = code.iter().map(|t| t.line).collect();
        let (allows, bad_allows) = parse_allows(&comments);
        SourceFile {
            rel_path: rel_path.to_string(),
            code,
            comments,
            code_lines,
            allows,
            bad_allows,
        }
    }

    /// Whether a diagnostic of `rule` at `line` is suppressed by an allow.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.line <= line && line <= a.end_line)
    }

    /// Whether any comment near `line` (same line or up to `lookback`
    /// lines above) satisfies `pred` on its text.
    pub fn comment_near(&self, line: u32, lookback: u32, pred: impl Fn(&str) -> bool) -> bool {
        let lo = line.saturating_sub(lookback);
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= line && pred(c.comment_text()))
    }

    /// Whether the contiguous run of comment-only lines directly above
    /// `line` (or a comment trailing on `line` itself) contains a comment
    /// line satisfying `pred`. Used for `// SAFETY:` adjacency: the
    /// comment must touch the construct it justifies, with no code in
    /// between.
    pub fn adjacent_comment(&self, line: u32, pred: impl Fn(&str) -> bool) -> bool {
        // Trailing comment on the same line.
        if self
            .comments
            .iter()
            .any(|c| c.line == line && pred(c.comment_text()))
        {
            return true;
        }
        // Walk upward over comment-only lines.
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if self.code_lines.contains(&l) {
                return false;
            }
            let Some(c) = self
                .comments
                .iter()
                .find(|c| c.line <= l && c.end_line >= l)
            else {
                return false; // blank line breaks adjacency
            };
            if pred(c.comment_text()) {
                return true;
            }
            l = c.line.saturating_sub(1);
            if l == 0 {
                return false;
            }
        }
        false
    }
}

/// Remove tokens belonging to `#[cfg(test)]` / `#[test]` items: the
/// attribute itself, any further attributes, and the item through its
/// closing `}` (or `;`).
fn mask_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let (attr, after) = attribute_tokens(&toks, i);
            if attr == ["cfg", "(", "test", ")"] || attr == ["test"] {
                i = skip_attributed_item(&toks, after);
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Starting at `#`, return the attribute's inner token texts and the
/// index just past the closing `]`.
fn attribute_tokens(toks: &[Tok], at: usize) -> (Vec<String>, usize) {
    let mut inner = Vec::new();
    let mut depth = 0usize;
    let mut i = at + 1; // at `[`
    while i < toks.len() {
        match toks[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (inner, i + 1);
                }
            }
            t => inner.push(t.to_string()),
        }
        i += 1;
    }
    (inner, toks.len())
}

/// From the token after a test attribute, skip any further attributes and
/// then the item itself (balanced `{...}` body, or through a `;`).
fn skip_attributed_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len()
        && toks[i].text == "#"
        && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[")
    {
        let (_, after) = attribute_tokens(toks, i);
        i = after;
    }
    while i < toks.len() {
        match toks[i].text.as_str() {
            ";" => return i + 1,
            "{" => {
                let mut depth = 0usize;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => i += 1,
        }
    }
    i
}

/// Extract `lint: allow(rule) -- reason` directives from comments.
/// Returns well-formed allows and `(line, col, message)` for malformed
/// ones.
#[allow(clippy::type_complexity)]
fn parse_allows(comments: &[Tok]) -> (Vec<Allow>, Vec<(u32, u32, String)>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // A directive is a comment that *starts* with `lint:` — prose
        // that merely mentions the syntax (docs, this comment) is not one.
        let text = c.comment_text();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad.push((
                c.line,
                c.col,
                "malformed lint directive: expected `lint: allow(rule-id) -- reason`".to_string(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad.push((
                c.line,
                c.col,
                "malformed lint directive: unclosed `allow(`".to_string(),
            ));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !rules::is_known_rule(&rule) {
            bad.push((
                c.line,
                c.col,
                format!("allow names unknown rule `{rule}` (see `repro lint --list`)"),
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad.push((
                c.line,
                c.col,
                format!("allow({rule}) is missing its reason: write `lint: allow({rule}) -- why this is sound`"),
            ));
            continue;
        }
        allows.push(Allow {
            rule,
            line: c.line,
            end_line: c.end_line + 1,
            reason: reason.to_string(),
        });
    }
    (allows, bad)
}

/// A crate manifest to check against the dependency allowlist.
pub struct Manifest {
    /// Path relative to the workspace root.
    pub rel_path: String,
    /// Raw contents.
    pub source: String,
}

/// Everything one lint run looks at.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    /// Collect the scanned file set under `root` (a workspace checkout).
    pub fn collect(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut manifests = Vec::new();

        let mut rs_roots: Vec<PathBuf> = vec![root.join("src")];
        let mut manifest_paths: Vec<PathBuf> = vec![root.join("Cargo.toml")];
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                rs_roots.push(dir.join("src"));
                manifest_paths.push(dir.join("Cargo.toml"));
            }
        }

        for src_root in rs_roots {
            let mut rs_files = Vec::new();
            walk_rs(&src_root, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                let source = std::fs::read_to_string(&path)?;
                files.push(SourceFile::parse(&rel(root, &path), &source));
            }
        }
        for path in manifest_paths {
            if path.is_file() {
                let source = std::fs::read_to_string(&path)?;
                manifests.push(Manifest {
                    rel_path: rel(root, &path),
                    source,
                });
            }
        }
        Ok(Workspace { files, manifests })
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs") == Some(true) {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::TokKind;

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n\
                   fn also_live() {}";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let idents: Vec<&str> = f
            .code
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"live"));
        assert!(idents.contains(&"also_live"));
        assert_eq!(idents.iter().filter(|t| **t == "unwrap").count(), 1);
    }

    #[test]
    fn test_attr_with_following_attrs_is_masked() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn gone() { a.unwrap() }\nfn kept() {}";
        let f = SourceFile::parse("x.rs", src);
        let idents: Vec<&str> = f.code.iter().map(|t| t.text.as_str()).collect();
        assert!(!idents.contains(&"gone"));
        assert!(idents.contains(&"kept"));
    }

    #[test]
    fn other_attributes_survive() {
        let src = "#[derive(Debug)]\nstruct S;\n#[cfg(feature = \"x\")]\nfn f() {}";
        let f = SourceFile::parse("x.rs", src);
        let idents: Vec<&str> = f.code.iter().map(|t| t.text.as_str()).collect();
        assert!(idents.contains(&"S"));
        assert!(idents.contains(&"f"));
    }

    #[test]
    fn allow_parsing_happy_and_sad_paths() {
        let src = "\
// lint: allow(no-raw-spawn) -- the probe needs raw client threads\n\
// lint: allow(no-raw-spawn)\n\
// lint: allow(not-a-rule) -- whatever\n\
// lint: deny(x)\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "no-raw-spawn");
        assert_eq!(f.allows[0].line, 1);
        assert_eq!(f.allows[0].end_line, 2);
        assert_eq!(f.bad_allows.len(), 3);
        assert!(f.bad_allows[0].2.contains("missing its reason"));
        assert!(f.bad_allows[1].2.contains("unknown rule"));
        assert!(f.bad_allows[2].2.contains("malformed"));
    }

    #[test]
    fn allowed_covers_own_and_next_line() {
        let src = "// lint: allow(no-raw-spawn) -- reason here\nstd::thread::spawn(f);\n\nstd::thread::spawn(g);";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allowed("no-raw-spawn", 1));
        assert!(f.allowed("no-raw-spawn", 2));
        assert!(!f.allowed("no-raw-spawn", 4));
        assert!(!f.allowed("unsafe-safety-comment", 2));
    }

    #[test]
    fn adjacent_comment_walks_contiguous_block() {
        let src = "\
// SAFETY: the first line\n\
// continues here\n\
unsafe { x() };\n\
let y = 1;\n\
unsafe { z() };";
        let f = SourceFile::parse("x.rs", src);
        let is_safety = |t: &str| t.starts_with("SAFETY:");
        assert!(f.adjacent_comment(3, is_safety));
        assert!(!f.adjacent_comment(5, is_safety));
    }

    #[test]
    fn adjacent_comment_blocked_by_blank_line() {
        let src = "// SAFETY: too far away\n\nunsafe { x() };";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.adjacent_comment(3, |t| t.starts_with("SAFETY:")));
    }

    #[test]
    fn trailing_comment_counts() {
        let src = "unsafe { x() }; // SAFETY: inline";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.adjacent_comment(1, |t| t.starts_with("SAFETY:")));
    }
}
