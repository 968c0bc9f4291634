//! Markdown link check for the human-facing docs: every **relative** link
//! in `README.md` and `docs/*.md` must point at a file that exists in the
//! repository, and every `#fragment` — on a relative link or alone — at a
//! heading in the target document. External (`http(s)://`, `mailto:`)
//! links are out of scope — this guards against the common failure of
//! renaming a file or a heading and stranding the docs that point at it.
//! The CI `docs` job runs exactly this test as its link-check step.

use std::path::{Path, PathBuf};

/// The lines of `markdown` outside fenced code blocks (```…```), where
/// `](…)` is usually Rust and `#` starts a shell comment.
fn prose_lines(markdown: &str) -> impl Iterator<Item = &str> {
    let mut in_fence = false;
    markdown.lines().filter(move |line| {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            return false;
        }
        !in_fence
    })
}

/// Extracts `](target)` link targets from one markdown document,
/// ignoring fenced code blocks.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in prose_lines(markdown) {
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            rest = &rest[open + 2..];
            let Some(close) = rest.find(')') else { break };
            out.push(rest[..close].to_string());
            rest = &rest[close + 1..];
        }
    }
    out
}

/// GitHub's anchor slug for a heading: lowercase; drop everything except
/// letters, digits, spaces, `-` and `_`; spaces become `-`.
fn slug(heading: &str) -> String {
    heading
        .chars()
        .flat_map(char::to_lowercase)
        .filter(|c| c.is_alphanumeric() || matches!(c, ' ' | '-' | '_'))
        .map(|c| if c == ' ' { '-' } else { c })
        .collect()
}

/// The anchors of every ATX heading outside fenced blocks, in order; a
/// repeated slug gets `-1`, `-2`, … as on GitHub.
fn anchors(markdown: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in prose_lines(markdown) {
        let text = line.trim_start_matches('#');
        let level = line.len() - text.len();
        if !(1..=6).contains(&level) || !text.starts_with(' ') {
            continue;
        }
        let base = slug(text.trim().trim_end_matches('#').trim_end());
        let mut anchor = base.clone();
        for n in 1.. {
            if !out.contains(&anchor) {
                break;
            }
            anchor = format!("{base}-{n}");
        }
        out.push(anchor);
    }
    out
}

fn check_doc(repo_root: &Path, doc: &Path, failures: &mut Vec<String>) {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    };
    let text = read(doc);
    let shown = doc.strip_prefix(repo_root).unwrap_or(doc).display();
    for target in link_targets(&text) {
        // External links are not this test's job.
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with("mailto:")
        {
            continue;
        }
        // Strip a trailing query; split off the fragment.
        let target_no_query = target.split('?').next().unwrap_or_default();
        let (path_part, fragment) = target_no_query
            .split_once('#')
            .unwrap_or((target_no_query, ""));
        // Relative links resolve against the linking document's directory.
        let resolved = if path_part.is_empty() {
            doc.to_path_buf()
        } else {
            doc.parent().unwrap_or(repo_root).join(path_part)
        };
        if !resolved.exists() {
            failures.push(format!(
                "{shown}: broken relative link `{target}` (resolved to {})",
                resolved.display(),
            ));
        } else if !fragment.is_empty()
            && resolved.extension().is_some_and(|e| e == "md")
            && !anchors(&read(&resolved)).iter().any(|a| a == fragment)
        {
            failures.push(format!(
                "{shown}: link `{target}` names no heading in {}",
                resolved.display(),
            ));
        }
    }
}

#[test]
fn readme_and_docs_have_no_broken_relative_links() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![repo_root.join("README.md")];
    let docs_dir = repo_root.join("docs");
    if let Ok(entries) = std::fs::read_dir(&docs_dir) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "md") {
                docs.push(p);
            }
        }
    }
    assert!(
        docs.len() >= 3,
        "expected README.md plus at least docs/ARCHITECTURE.md and docs/BENCH_FORMAT.md, found {docs:?}"
    );
    let mut failures = Vec::new();
    for doc in &docs {
        check_doc(&repo_root, doc, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "broken links:\n{}",
        failures.join("\n")
    );
}

#[test]
fn link_extractor_understands_the_markdown_we_write() {
    let md = "see [a](docs/A.md) and [b](https://x.y) and [c](other.md#frag)\n\
              ```rust\nlet x = a[0](1); // not a link\n```\n\
              [anchor](#local) [d](sub/d.md?q=1)";
    let targets = link_targets(md);
    assert_eq!(
        targets,
        vec![
            "docs/A.md",
            "https://x.y",
            "other.md#frag",
            "#local",
            "sub/d.md?q=1"
        ]
    );
}

#[test]
fn slugs_and_anchors_match_github() {
    assert_eq!(
        slug("Request-scoped tracing (`hemlock-obs::trace`)"),
        "request-scoped-tracing-hemlock-obstrace"
    );
    assert_eq!(
        slug("Figure/table binaries ↔ paper artifacts"),
        "figuretable-binaries--paper-artifacts"
    );
    assert_eq!(
        slug("Why `LockMeta` bits_and_words"),
        "why-lockmeta-bits_and_words"
    );
    let md = "# Top\n## Tests\n```bash\n# a shell comment, not a heading\n```\n\
              ### Tests ###\n#no-space is not a heading\n####### seven is not\n## Tests";
    assert_eq!(anchors(md), vec!["top", "tests", "tests-1", "tests-2"]);
}
