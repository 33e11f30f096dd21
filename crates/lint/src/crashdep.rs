//! Rule L6 — interprocedural durability-ordering analysis
//! (`eos-crashdep`).
//!
//! The crash-consistency of the commit path hangs on a handful of
//! hand-placed ordering barriers: the undo image must be forced before
//! the committed page it protects is overwritten in place, shadowed
//! data must be forced before the commit/abort frame that publishes it,
//! and the superblock may only ever be published into the *inactive*
//! slot. The 266-scenario crash sweep exercises these at runtime; L6 is
//! the static half, so a refactor that silently drops a `sync` fails
//! `eos lint` in seconds instead of a release-mode sweep in minutes.
//!
//! The moving parts mirror L5 (`lockdep.rs`):
//!
//! * **Durability classes.** A global table declared in comments:
//!
//!   ```text
//!   // durability-class: committed-page requires = undo-image
//!   ```
//!
//!   `requires = <class>` means: a write mutating this class is only
//!   safe after a sync *sealing* the required class (and the required
//!   class has not been re-dirtied since). Root classes use
//!   `requires = none`. The table must agree with the
//!   `<!-- durability-class: … -->` anchors in DESIGN.md §15.
//!
//! * **Contract annotations.** Each volume-write site in the commit
//!   path declares the class it mutates; each sync site declares what
//!   it seals; a function may declare classes it assumes sealed at
//!   entry:
//!
//!   ```text
//!   // durability: mutates(undo-image)
//!   wal.append(entry)?;
//!   // durability: seals(undo-image)
//!   wal.sync()?;
//!   // durability: requires(commit-frame)   ← directly above a fn
//!   ```
//!
//!   An annotation covers its own line when trailing, the line below
//!   when standalone (same binding as `lint: allow`). A `seals`/
//!   `mutates` line must contain a call; a `requires` line must be a
//!   `fn` header — anything else is a *dangling annotation* finding, so
//!   contracts cannot drift away from the code they describe.
//!
//! * **Replay + fixed point.** Function bodies are replayed linearly
//!   (conditionals are taken in order — the analysis models the
//!   `sync_on_commit = true` configuration, and branch-sensitive
//!   escapes are the runtime harness's job). Replay tracks the set of
//!   *sealed-and-clean* classes: `seals(c)` inserts `c`, `mutates(c)`
//!   removes it. Resolvable calls (bare `name(…)`, `self.name(…)`,
//!   `Self::name(…)` — the same resolution as L5) propagate callee
//!   summaries: the classes a callee can dirty (`kills`) and the
//!   classes it leaves sealed (`gens`), iterated to a fixed point.
//!
//! * **Findings.**
//!   - a write mutating class `C` with `C requires = R` while `R` is
//!     not sealed (the undo-before-overwrite / data-before-log bugs);
//!   - a resolved call into a function whose declared `requires(…)` is
//!     not satisfied at the call site;
//!   - a `mutates(superblock)` write with no slot-alternation witness
//!     (a literal `1 - …` flip) earlier in the body — the publish could
//!     hit the live slot;
//!   - declaration/annotation hygiene: malformed or conflicting
//!     declarations, unknown classes, dangling annotations, DESIGN.md
//!     §15 anchor drift (both directions).
//!
//! Suppression: `// lint: allow(durability, reason = "…")` on or above
//! the offending line. Known blind spots (documented, covered by the
//! `FaultVolume` barrier-mutation harness): unresolved receivers,
//! branch-dependent barriers, cross-crate calls.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::annotations::{allowed_lines, AllowRule};
use crate::lexer::{lex, Kind, Tok};
use crate::lockdep::{call_resolvable, CrateInput, KEYWORDS};
use crate::test_filter::strip_test_code;

/// The class name that additionally demands a slot-alternation witness
/// before any write mutating it (DESIGN.md §15: the superblock is the
/// one structure updated in place at a fixed address, so the only safe
/// publish is into the inactive slot, `1 - <live>`).
pub const SLOT_ALTERNATING_CLASS: &str = "superblock";

/// A declared durability class, aggregated over declaration sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuraClassRow {
    /// Global class name (`commit-frame`).
    pub name: String,
    /// Class whose seal must precede any mutation of this one.
    pub requires: Option<String>,
    /// First declaration site, `path:line`.
    pub decl: String,
    /// Crate the first declaration lives in.
    pub krate: String,
}

/// One annotated contract site (a write and/or sync line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractRow {
    /// `path:line` of the annotated call.
    pub location: String,
    /// Classes the line's sync seals.
    pub seals: Vec<String>,
    /// Classes the line's write mutates.
    pub mutates: Vec<String>,
    /// Crate the site lives in.
    pub krate: String,
}

/// One L6 finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuraSite {
    /// `path:line` of the write / call / declaration.
    pub location: String,
    /// What is wrong and how to fix it.
    pub detail: String,
    /// Suppressed by `// lint: allow(durability, …)`?
    pub annotated: bool,
    /// Crate the site lives in (for the per-crate ratchet pins).
    pub krate: String,
}

/// Everything the analysis produced.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Global class table, sorted by name.
    pub classes: Vec<DuraClassRow>,
    /// Annotated contract sites, sorted by location.
    pub contracts: Vec<ContractRow>,
    /// Findings.
    pub sites: Vec<DuraSite>,
}

impl Analysis {
    /// Unannotated findings attributed to `krate` (the pin quantity).
    pub fn unannotated_in(&self, krate: &str) -> usize {
        self.sites
            .iter()
            .filter(|s| !s.annotated && s.krate == krate)
            .count()
    }

    /// Classes first declared in `krate` (the anti-defusal quantity).
    pub fn classes_in(&self, krate: &str) -> usize {
        self.classes.iter().filter(|c| c.krate == krate).count()
    }

    /// Contract sites in `krate` that seal at least one class — the
    /// static sync-site census the barrier-mutation harness pins.
    pub fn seal_sites_in(&self, krate: &str) -> Vec<&ContractRow> {
        self.contracts
            .iter()
            .filter(|c| c.krate == krate && !c.seals.is_empty())
            .collect()
    }
}

// ---------------------------------------------------------------------
// Declaration and annotation parsing
// ---------------------------------------------------------------------

/// A parsed `// durability-class:` declaration comment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decl {
    class: String,
    requires: Option<String>,
    line: u32,
}

/// Parse every `durability-class:` comment in a token stream.
/// Malformed declarations are findings, not silent skips.
fn parse_decls(toks: &[Tok]) -> (Vec<Decl>, Vec<(u32, String)>) {
    let mut decls = Vec::new();
    let mut problems = Vec::new();
    for t in toks {
        let Kind::Comment(text) = &t.kind else {
            continue;
        };
        let body = comment_body(text);
        let Some(rest) = body.strip_prefix("durability-class:") else {
            continue;
        };
        match parse_decl_body(rest) {
            Ok((class, requires)) => decls.push(Decl {
                class,
                requires,
                line: t.line,
            }),
            Err(msg) => problems.push((t.line, msg)),
        }
    }
    (decls, problems)
}

fn comment_body(text: &str) -> &str {
    text.trim_start_matches('/')
        .trim_start_matches('*')
        .trim()
        .trim_end_matches("*/")
        .trim()
}

/// `<class> requires = <class>|none`.
fn parse_decl_body(rest: &str) -> Result<(String, Option<String>), String> {
    let err = || {
        "malformed durability-class declaration — expected \
         `durability-class: <class> requires = <class>|none`"
            .to_string()
    };
    let mut parts = rest.split_whitespace();
    let class = parts.next().ok_or_else(err)?;
    if parts.next() != Some("requires") || parts.next() != Some("=") {
        return Err(err());
    }
    let req = parts.next().ok_or_else(err)?;
    if parts.next().is_some() {
        return Err(err());
    }
    let requires = if req == "none" {
        None
    } else {
        Some(req.to_string())
    };
    Ok((class.to_string(), requires))
}

/// A `<!-- durability-class: <class> requires = … -->` anchor from
/// DESIGN.md §15.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocAnchor {
    /// Class the doc row documents.
    pub class: String,
    /// Documented prerequisite class.
    pub requires: Option<String>,
    /// 1-based line in the doc.
    pub line: u32,
}

/// Parse the doc side of the contract. Malformed anchors are problems.
pub fn parse_doc_anchors(md: &str) -> (Vec<DocAnchor>, Vec<(u32, String)>) {
    let mut anchors = Vec::new();
    let mut problems = Vec::new();
    for (idx, line) in md.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let Some(start) = line.find("<!-- durability-class:") else {
            continue;
        };
        let rest = &line[start + "<!-- durability-class:".len()..];
        let Some(end) = rest.find("-->") else {
            problems.push((lineno, "unterminated durability-class anchor".to_string()));
            continue;
        };
        match parse_decl_body(rest[..end].trim()) {
            Ok((class, requires)) => anchors.push(DocAnchor {
                class,
                requires,
                line: lineno,
            }),
            Err(msg) => problems.push((lineno, msg)),
        }
    }
    (anchors, problems)
}

/// The clauses one or more `// durability:` comments bind to a line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Clauses {
    seals: Vec<String>,
    mutates: Vec<String>,
    requires: Vec<String>,
}

impl Clauses {
    fn has_site(&self) -> bool {
        !self.seals.is_empty() || !self.mutates.is_empty()
    }
}

/// Parse every `// durability:` annotation in a token stream into a
/// line → clauses map, using the same trailing/standalone binding as
/// `lint: allow`.
fn parse_annotations(toks: &[Tok]) -> (BTreeMap<u32, Clauses>, Vec<(u32, String)>) {
    let code_lines: HashSet<u32> = toks
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment(_)))
        .map(|t| t.line)
        .collect();
    let mut by_line: BTreeMap<u32, Clauses> = BTreeMap::new();
    let mut problems = Vec::new();
    for t in toks {
        let Kind::Comment(text) = &t.kind else {
            continue;
        };
        let body = comment_body(text);
        let Some(rest) = body.strip_prefix("durability:") else {
            continue;
        };
        let bound = if code_lines.contains(&t.line) {
            t.line
        } else {
            t.line + 1
        };
        match parse_ann_body(rest) {
            Ok(c) => {
                let e = by_line.entry(bound).or_default();
                e.seals.extend(c.seals);
                e.mutates.extend(c.mutates);
                e.requires.extend(c.requires);
            }
            Err(msg) => problems.push((t.line, msg)),
        }
    }
    (by_line, problems)
}

/// `mutates(<c>[, <c>…])` / `seals(…)` / `requires(…)`, any mix, in
/// any order.
fn parse_ann_body(rest: &str) -> Result<Clauses, String> {
    let err = || {
        "malformed durability annotation — expected \
         `durability: [seals(<class>,…)] [mutates(<class>,…)] [requires(<class>,…)]`"
            .to_string()
    };
    let mut out = Clauses::default();
    let mut rest = rest.trim();
    if rest.is_empty() {
        return Err(err());
    }
    while !rest.is_empty() {
        let Some(open) = rest.find('(') else {
            return Err(err());
        };
        let kw = rest[..open].trim();
        let after = &rest[open + 1..];
        let Some(close) = after.find(')') else {
            return Err(err());
        };
        let args: Vec<String> = after[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .collect();
        if args.iter().any(String::is_empty) {
            return Err(err());
        }
        match kw {
            "seals" => out.seals.extend(args),
            "mutates" => out.mutates.extend(args),
            "requires" => out.requires.extend(args),
            _ => return Err(err()),
        }
        rest = after[close + 1..].trim_start();
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Per-function event extraction
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum EvKind {
    /// A sync sealing these classes (by class id).
    Seal(Vec<usize>),
    /// A write dirtying these classes (by class id).
    Mutate(Vec<usize>),
    /// A possibly-resolvable call.
    Call(String),
}

#[derive(Debug, Clone)]
struct Event {
    kind: EvKind,
    line: u32,
    /// Was a `1 - …` slot flip seen earlier in this body?
    slot_witness: bool,
}

#[derive(Debug)]
struct FnBody {
    name: String,
    file: usize,
    /// Declared `requires(…)` classes, by id.
    requires: Vec<usize>,
    events: Vec<Event>,
}

/// Extract every function body in `code` (comments stripped), binding
/// `requires` clauses on the header line, and replay it. Lines whose
/// annotations fired are recorded in `consumed`.
#[allow(clippy::too_many_arguments)]
fn extract_functions(
    code: &[&Tok],
    file: usize,
    anns: &BTreeMap<u32, Clauses>,
    class_ids: &BTreeMap<String, usize>,
    consumed: &mut HashSet<u32>,
    unknown: &mut Vec<(u32, String)>,
    out: &mut Vec<FnBody>,
) {
    let resolve_list = |names: &[String], line: u32, unknown: &mut Vec<(u32, String)>| {
        let mut ids = Vec::new();
        for n in names {
            match class_ids.get(n) {
                Some(&id) => ids.push(id),
                None => unknown.push((
                    line,
                    format!("durability annotation names undeclared class `{n}`"),
                )),
            }
        }
        ids
    };
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(Kind::Ident(name)) = code.get(i + 1).map(|t| &t.kind) else {
            i += 1;
            continue;
        };
        let header_line = code[i].line;
        let requires = match anns.get(&header_line) {
            Some(c) if !c.requires.is_empty() => {
                consumed.insert(header_line);
                resolve_list(&c.requires, header_line, unknown)
            }
            _ => Vec::new(),
        };
        // Find the body's `{` — or a `;` first (trait signature).
        let mut j = i + 2;
        let open = loop {
            match code.get(j).map(|t| &t.kind) {
                None => break None,
                Some(Kind::Punct('{')) => break Some(j),
                Some(Kind::Punct(';')) => break None,
                _ => j += 1,
            }
        };
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut k = open;
        let close = loop {
            match code.get(k).map(|t| &t.kind) {
                None => break code.len(),
                Some(Kind::Punct('{')) => depth += 1,
                Some(Kind::Punct('}')) => {
                    depth -= 1;
                    if depth == 0 {
                        break k;
                    }
                }
                _ => {}
            }
            k += 1;
        };
        let events = replay_body(&code[open + 1..close], anns, class_ids, consumed, unknown);
        out.push(FnBody {
            name: name.clone(),
            file,
            requires,
            events,
        });
        i = close + 1;
    }
}

/// Replay one body in token order: annotated call lines fire their
/// seal/mutate events (seals first), resolvable calls become call
/// events, and a literal `1 - …` flip arms the slot witness.
fn replay_body(
    code: &[&Tok],
    anns: &BTreeMap<u32, Clauses>,
    class_ids: &BTreeMap<String, usize>,
    consumed: &mut HashSet<u32>,
    unknown: &mut Vec<(u32, String)>,
) -> Vec<Event> {
    let mut events = Vec::new();
    let mut fired: HashSet<u32> = HashSet::new();
    let mut slot_witness = false;
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        if matches!(&t.kind, Kind::Int { value: Some(1), .. })
            && code.get(i + 1).is_some_and(|n| n.is_punct('-'))
        {
            slot_witness = true;
        }
        if let Kind::Ident(id) = &t.kind {
            if code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                // Annotated line: the first call-shaped token fires it.
                if let Some(c) = anns.get(&t.line) {
                    if c.has_site() && !fired.contains(&t.line) {
                        fired.insert(t.line);
                        consumed.insert(t.line);
                        let seals = resolve_classes(&c.seals, t.line, class_ids, unknown);
                        let mutates = resolve_classes(&c.mutates, t.line, class_ids, unknown);
                        if !seals.is_empty() {
                            events.push(Event {
                                kind: EvKind::Seal(seals),
                                line: t.line,
                                slot_witness,
                            });
                        }
                        if !mutates.is_empty() {
                            events.push(Event {
                                kind: EvKind::Mutate(mutates),
                                line: t.line,
                                slot_witness,
                            });
                        }
                    }
                }
                if !KEYWORDS.contains(&id.as_str()) && id != "drop" && call_resolvable(code, i) {
                    events.push(Event {
                        kind: EvKind::Call(id.clone()),
                        line: t.line,
                        slot_witness,
                    });
                }
            }
        }
        i += 1;
    }
    events
}

fn resolve_classes(
    names: &[String],
    line: u32,
    class_ids: &BTreeMap<String, usize>,
    unknown: &mut Vec<(u32, String)>,
) -> Vec<usize> {
    let mut ids = Vec::new();
    for n in names {
        match class_ids.get(n) {
            Some(&id) => ids.push(id),
            None => unknown.push((
                line,
                format!("durability annotation names undeclared class `{n}`"),
            )),
        }
    }
    ids
}

// ---------------------------------------------------------------------
// The analysis proper
// ---------------------------------------------------------------------

/// Run the full L6 analysis over `crates`, cross-checking the class
/// table against `design` (the DESIGN.md text) when given.
pub fn analyze(crates: &[CrateInput], design: Option<&str>) -> Analysis {
    struct CrateBodies {
        ci: usize,
        bodies: Vec<FnBody>,
        allowed_per_file: Vec<HashSet<u32>>,
        paths: Vec<String>,
    }
    let mut analysis = Analysis::default();
    let mut class_ids: BTreeMap<String, usize> = BTreeMap::new();
    let mut classes: Vec<DuraClassRow> = Vec::new();

    // Pass 1: declarations — the class table must be global before any
    // annotation can resolve.
    let mut lexed: Vec<Vec<Vec<Tok>>> = Vec::new();
    for krate in crates {
        let mut per_file = Vec::new();
        for file in &krate.files {
            let toks = lex(&file.src);
            let allowed = allowed_lines(&toks, AllowRule::Durability);
            let (decls, problems) = parse_decls(&toks);
            for (line, msg) in problems {
                analysis.sites.push(DuraSite {
                    location: format!("{}:{line}", file.path),
                    detail: msg,
                    annotated: allowed.contains(&line),
                    krate: krate.name.clone(),
                });
            }
            for d in &decls {
                match class_ids.get(&d.class) {
                    Some(&id) => {
                        if classes[id].requires != d.requires {
                            analysis.sites.push(DuraSite {
                                location: format!("{}:{}", file.path, d.line),
                                detail: format!(
                                    "durability class `{}` redeclared with requires = {} \
                                     (first declared at {} with requires = {})",
                                    d.class,
                                    fmt_req(&d.requires),
                                    classes[id].decl,
                                    fmt_req(&classes[id].requires),
                                ),
                                annotated: allowed.contains(&d.line),
                                krate: krate.name.clone(),
                            });
                        }
                    }
                    None => {
                        class_ids.insert(d.class.clone(), classes.len());
                        classes.push(DuraClassRow {
                            name: d.class.clone(),
                            requires: d.requires.clone(),
                            decl: format!("{}:{}", file.path, d.line),
                            krate: krate.name.clone(),
                        });
                    }
                }
            }
            per_file.push(toks);
        }
        lexed.push(per_file);
    }

    // A `requires = <class>` naming an undeclared class is drift.
    for c in &classes {
        if let Some(req) = &c.requires {
            if !class_ids.contains_key(req) {
                analysis.sites.push(DuraSite {
                    location: c.decl.clone(),
                    detail: format!(
                        "durability class `{}` requires undeclared class `{req}`",
                        c.name
                    ),
                    annotated: false,
                    krate: c.krate.clone(),
                });
            }
        }
    }

    // Doc cross-check (DESIGN.md §15), both directions.
    if let Some(md) = design {
        let (anchors, problems) = parse_doc_anchors(md);
        for (line, msg) in problems {
            analysis.sites.push(DuraSite {
                location: format!("DESIGN.md:{line}"),
                detail: msg,
                annotated: false,
                krate: String::new(),
            });
        }
        for c in &classes {
            match anchors.iter().find(|a| a.class == c.name) {
                None => analysis.sites.push(DuraSite {
                    location: c.decl.clone(),
                    detail: format!(
                        "durability class `{}` has no `<!-- durability-class: … -->` \
                         anchor in DESIGN.md §15 — document it or remove the declaration",
                        c.name
                    ),
                    annotated: false,
                    krate: c.krate.clone(),
                }),
                Some(a) if a.requires != c.requires => analysis.sites.push(DuraSite {
                    location: c.decl.clone(),
                    detail: format!(
                        "durability class `{}` drifted from DESIGN.md §15: code says \
                         requires = {}, doc (line {}) says requires = {}",
                        c.name,
                        fmt_req(&c.requires),
                        a.line,
                        fmt_req(&a.requires),
                    ),
                    annotated: false,
                    krate: c.krate.clone(),
                }),
                Some(_) => {}
            }
        }
        for a in &anchors {
            if !class_ids.contains_key(&a.class) {
                analysis.sites.push(DuraSite {
                    location: format!("DESIGN.md:{}", a.line),
                    detail: format!(
                        "DESIGN.md §15 documents durability class `{}` but no source \
                         file declares it",
                        a.class
                    ),
                    annotated: false,
                    krate: String::new(),
                });
            }
        }
    }

    // Pass 2: annotations, bodies, contract rows.
    let mut per_crate: Vec<CrateBodies> = Vec::new();
    for (ci, krate) in crates.iter().enumerate() {
        let mut bodies = Vec::new();
        let mut allowed_per_file = Vec::new();
        let mut paths = Vec::new();
        for (fi, file) in krate.files.iter().enumerate() {
            let toks = &lexed[ci][fi];
            let allowed = allowed_lines(toks, AllowRule::Durability);
            let (anns, problems) = parse_annotations(toks);
            for (line, msg) in problems {
                analysis.sites.push(DuraSite {
                    location: format!("{}:{line}", file.path),
                    detail: msg,
                    annotated: allowed.contains(&line),
                    krate: krate.name.clone(),
                });
            }
            let stripped = strip_test_code(toks.clone());
            let code: Vec<&Tok> = stripped
                .iter()
                .filter(|t| !matches!(t.kind, Kind::Comment(_)))
                .collect();
            let mut consumed = HashSet::new();
            let mut unknown = Vec::new();
            extract_functions(
                &code,
                fi,
                &anns,
                &class_ids,
                &mut consumed,
                &mut unknown,
                &mut bodies,
            );
            for (line, msg) in unknown {
                analysis.sites.push(DuraSite {
                    location: format!("{}:{line}", file.path),
                    detail: msg,
                    annotated: allowed.contains(&line),
                    krate: krate.name.clone(),
                });
            }
            for (line, c) in &anns {
                if consumed.contains(line) {
                    if c.has_site() {
                        analysis.contracts.push(ContractRow {
                            location: format!("{}:{line}", file.path),
                            seals: c.seals.clone(),
                            mutates: c.mutates.clone(),
                            krate: krate.name.clone(),
                        });
                    }
                    continue;
                }
                let what = if c.has_site() {
                    "durability annotation binds to no call site — move it onto \
                     (or directly above) the write/sync it describes"
                } else {
                    "durability requires(…) annotation does not annotate a function \
                     header — move it directly above the `fn` line"
                };
                analysis.sites.push(DuraSite {
                    location: format!("{}:{line}", file.path),
                    detail: what.to_string(),
                    annotated: allowed.contains(line),
                    krate: krate.name.clone(),
                });
            }
            allowed_per_file.push(allowed);
            paths.push(file.path.clone());
        }
        per_crate.push(CrateBodies {
            ci,
            bodies,
            allowed_per_file,
            paths,
        });
    }

    // Fixed point + findings, per crate.
    for cb in &per_crate {
        let krate = &crates[cb.ci];
        // Per-crate resolution: a call resolves iff exactly one fn of
        // that name exists in the crate (same rule as L5).
        let mut name_count: HashMap<&str, usize> = HashMap::new();
        for b in &cb.bodies {
            *name_count.entry(b.name.as_str()).or_insert(0) += 1;
        }
        let resolve: HashMap<&str, usize> = cb
            .bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| name_count[b.name.as_str()] == 1)
            .map(|(i, b)| (b.name.as_str(), i))
            .collect();

        let n = cb.bodies.len();
        let mut kills: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut gens: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        // Linear replays to a fixed point; the iteration cap covers
        // call-graph cycles, where gens may not be monotone.
        for _round in 0..n + 2 {
            let mut changed = false;
            for (bi, b) in cb.bodies.iter().enumerate() {
                let mut sealed: BTreeSet<usize> = BTreeSet::new();
                let mut k = kills[bi].clone();
                for ev in &b.events {
                    match &ev.kind {
                        EvKind::Seal(cs) => sealed.extend(cs.iter().copied()),
                        EvKind::Mutate(cs) => {
                            for c in cs {
                                sealed.remove(c);
                                k.insert(*c);
                            }
                        }
                        EvKind::Call(name) => {
                            if let Some(&callee) = resolve.get(name.as_str()) {
                                k.extend(kills[callee].iter().copied());
                                sealed = &sealed - &kills[callee];
                                sealed.extend(gens[callee].iter().copied());
                            }
                        }
                    }
                }
                if k != kills[bi] {
                    kills[bi] = k;
                    changed = true;
                }
                if sealed != gens[bi] {
                    gens[bi] = sealed;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Final emission pass.
        for b in &cb.bodies {
            let path = &cb.paths[b.file];
            let allowed = &cb.allowed_per_file[b.file];
            let fn_req: BTreeSet<usize> = b.requires.iter().copied().collect();
            let mut sealed: BTreeSet<usize> = BTreeSet::new();
            let push = |line: u32, detail: String, analysis: &mut Analysis| {
                analysis.sites.push(DuraSite {
                    location: format!("{path}:{line}"),
                    detail,
                    annotated: allowed.contains(&line),
                    krate: krate.name.clone(),
                });
            };
            for ev in &b.events {
                match &ev.kind {
                    EvKind::Seal(cs) => sealed.extend(cs.iter().copied()),
                    EvKind::Mutate(cs) => {
                        for &c in cs {
                            if let Some(req) = &classes[c].requires {
                                if let Some(&rid) = class_ids.get(req) {
                                    if !sealed.contains(&rid) && !fn_req.contains(&rid) {
                                        push(
                                            ev.line,
                                            format!(
                                                "`{}` write reachable before its `{req}` seal \
                                                 in `{}` — sync `{req}` first, or declare \
                                                 `durability: requires({req})` on the fn \
                                                 (DESIGN.md §15)",
                                                classes[c].name, b.name
                                            ),
                                            &mut analysis,
                                        );
                                    }
                                }
                            }
                            if classes[c].name == SLOT_ALTERNATING_CLASS && !ev.slot_witness {
                                push(
                                    ev.line,
                                    format!(
                                        "`{}` publish in `{}` has no slot-alternation \
                                         witness (`1 - <live slot>`) before the write — \
                                         it may hit the live slot (DESIGN.md §15)",
                                        classes[c].name, b.name
                                    ),
                                    &mut analysis,
                                );
                            }
                            sealed.remove(&c);
                        }
                    }
                    EvKind::Call(name) => {
                        if let Some(&callee) = resolve.get(name.as_str()) {
                            for &r in &cb.bodies[callee].requires {
                                if !sealed.contains(&r) && !fn_req.contains(&r) {
                                    push(
                                        ev.line,
                                        format!(
                                            "call to `{name}` requires `{}` sealed at entry, \
                                             but no `{}` seal precedes it in `{}` \
                                             (DESIGN.md §15)",
                                            classes[r].name, classes[r].name, b.name
                                        ),
                                        &mut analysis,
                                    );
                                }
                            }
                            sealed = &sealed - &kills[callee];
                            sealed.extend(gens[callee].iter().copied());
                        }
                    }
                }
            }
        }
    }

    analysis.classes = classes;
    analysis.classes.sort_by(|a, b| a.name.cmp(&b.name));
    analysis.contracts.sort_by(|a, b| {
        let key = |loc: &str| -> (String, u32) {
            match loc.rsplit_once(':') {
                Some((p, l)) => (p.to_string(), l.parse().unwrap_or(0)),
                None => (loc.to_string(), 0),
            }
        };
        key(&a.location).cmp(&key(&b.location))
    });
    analysis
}

fn fmt_req(r: &Option<String>) -> String {
    r.clone().unwrap_or_else(|| "none".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockdep::SourceFile;

    fn one_crate(files: Vec<(&str, &str)>) -> Vec<CrateInput> {
        vec![CrateInput {
            name: "fixture".to_string(),
            files: files
                .into_iter()
                .map(|(path, src)| SourceFile {
                    path: path.to_string(),
                    src: src.to_string(),
                })
                .collect(),
        }]
    }

    const DECLS: &str = "// durability-class: undo-image requires = none\n\
                         // durability-class: committed-page requires = undo-image\n";

    #[test]
    fn decl_comment_parses_and_registers() {
        let crates = one_crate(vec![("a.rs", DECLS)]);
        let a = analyze(&crates, None);
        assert_eq!(a.classes.len(), 2);
        assert_eq!(a.classes[0].name, "committed-page");
        assert_eq!(a.classes[0].requires.as_deref(), Some("undo-image"));
        assert_eq!(a.classes[1].requires, None);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn malformed_decl_is_a_finding() {
        let crates = one_crate(vec![(
            "a.rs",
            "// durability-class: undo-image needs = x\n",
        )]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(a.sites[0].detail.contains("malformed durability-class"));
    }

    #[test]
    fn conflicting_redeclaration_is_a_finding() {
        let crates = one_crate(vec![
            ("a.rs", "// durability-class: undo-image requires = none\n"),
            (
                "b.rs",
                "// durability-class: undo-image requires = undo-image\n",
            ),
        ]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("redeclared"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn requires_of_undeclared_class_is_a_finding() {
        let crates = one_crate(vec![(
            "a.rs",
            "// durability-class: commit-frame requires = shadow-data\n",
        )]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0]
                .detail
                .contains("requires undeclared class `shadow-data`"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn sealed_write_in_order_is_clean_and_exports_contracts() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn replace(&mut self) {{\n\
                     // durability: mutates(undo-image)\n\
                     self.wal.append(e);\n\
                     // durability: seals(undo-image)\n\
                     self.wal.sync();\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
        assert_eq!(a.contracts.len(), 3);
        assert_eq!(a.seal_sites_in("fixture").len(), 1);
        assert_eq!(a.contracts[0].mutates, vec!["undo-image".to_string()]);
    }

    #[test]
    fn unsealed_write_fires() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn replace(&mut self) {{\n\
                     // durability: mutates(undo-image)\n\
                     self.wal.append(e);\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0]
                .detail
                .contains("`committed-page` write reachable before its `undo-image` seal"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn mutating_the_guard_reopens_the_window() {
        // seal, dirty the guard again, then overwrite: must fire.
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn replace(&mut self) {{\n\
                     // durability: seals(undo-image)\n\
                     self.wal.sync();\n\
                     // durability: mutates(undo-image)\n\
                     self.wal.append(e);\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
    }

    #[test]
    fn interprocedural_seal_satisfies_requirement() {
        // The seal happens in a resolved callee; the write after the
        // call is safe (gens propagation).
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn outer(&mut self) {{\n\
                     self.force_undo();\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
                 fn force_undo(&mut self) {{\n\
                     // durability: seals(undo-image)\n\
                     self.wal.sync();\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn call_requires_violation_fires() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 // durability: requires(undo-image)\n\
                 fn overwrite(&mut self) {{\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
                 fn outer(&mut self) {{\n\
                     self.overwrite();\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0]
                .detail
                .contains("call to `overwrite` requires `undo-image` sealed at entry"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn satisfied_call_requires_is_clean() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 // durability: requires(undo-image)\n\
                 fn overwrite(&mut self) {{\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
                 fn outer(&mut self) {{\n\
                     // durability: seals(undo-image)\n\
                     self.wal.sync();\n\
                     self.overwrite();\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn callee_kills_invalidate_the_seal() {
        // A resolved call that dirties the guard class re-opens the
        // window for a later overwrite.
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn outer(&mut self) {{\n\
                     // durability: seals(undo-image)\n\
                     self.wal.sync();\n\
                     self.log_more();\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf);\n\
                 }}\n\
                 fn log_more(&mut self) {{\n\
                     // durability: mutates(undo-image)\n\
                     self.wal.append(e);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("before its `undo-image` seal"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn superblock_without_slot_flip_fires() {
        let decls = "// durability-class: superblock requires = none\n";
        let src = format!(
            "{decls}\
             impl S {{\n\
                 fn publish(&mut self) {{\n\
                     // durability: mutates(superblock)\n\
                     self.vol.write_pages(self.base, &sb);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("may hit the live slot"),
            "{}",
            a.sites[0].detail
        );

        let good = format!(
            "{decls}\
             impl S {{\n\
                 fn publish(&mut self) {{\n\
                     let slot = 1 - self.sb_slot;\n\
                     // durability: mutates(superblock)\n\
                     self.vol.write_pages(self.base + u64::from(slot), &sb);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &good)]);
        let a = analyze(&crates, None);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn allow_annotation_suppresses_but_site_remains() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn replace(&mut self) {{\n\
                     // durability: mutates(committed-page)\n\
                     self.vol.write_pages(0, &buf); \
                     // lint: allow(durability, reason = \"format-time: nothing is live\")\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(a.sites[0].annotated);
        assert_eq!(a.unannotated_in("fixture"), 0);
    }

    #[test]
    fn dangling_site_annotation_fires() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn f(&mut self) {{\n\
                     // durability: seals(undo-image)\n\
                     let x = 3;\n\
                     self.use_x(x);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("binds to no call site"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn dangling_requires_annotation_fires() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn f(&mut self) {{\n\
                     // durability: requires(undo-image)\n\
                     let x = 3;\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("does not annotate a function"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn malformed_annotation_is_a_finding() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn f(&mut self) {{\n\
                     // durability: seals undo-image\n\
                     self.wal.sync();\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0]
                .detail
                .contains("malformed durability annotation"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn unknown_class_in_annotation_is_a_finding() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 fn f(&mut self) {{\n\
                     // durability: seals(commit-frame)\n\
                     self.wal.sync();\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0]
                .detail
                .contains("undeclared class `commit-frame`"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn combined_seal_and_mutate_applies_seals_first() {
        // The data barrier and the frame append collapsed onto one
        // call — seals apply before mutates.
        let decls = "// durability-class: shadow-data requires = none\n\
                     // durability-class: commit-frame requires = shadow-data\n";
        let src = format!(
            "{decls}\
             impl S {{\n\
                 fn commit(&mut self) {{\n\
                     // durability: seals(shadow-data) mutates(commit-frame)\n\
                     st.barrier_and_append(t);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
        assert_eq!(a.contracts.len(), 1);
        assert_eq!(a.contracts[0].seals, vec!["shadow-data".to_string()]);
        assert_eq!(a.contracts[0].mutates, vec!["commit-frame".to_string()]);
    }

    #[test]
    fn self_qualified_call_propagates() {
        let src = format!(
            "{DECLS}\
             impl S {{\n\
                 // durability: requires(undo-image)\n\
                 fn overwrite(s: &mut S) {{\n\
                     // durability: mutates(committed-page)\n\
                     s.vol.write_pages(0, &buf);\n\
                 }}\n\
                 fn outer(&mut self) {{\n\
                     Self::overwrite(self);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("call to `overwrite`"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn doc_drift_fires_both_directions() {
        let crates = one_crate(vec![(
            "a.rs",
            "// durability-class: undo-image requires = none\n",
        )]);
        let md = "<!-- durability-class: ghost-class requires = none -->\n";
        let a = analyze(&crates, Some(md));
        assert_eq!(a.sites.len(), 2, "{:?}", a.sites);
        assert!(a
            .sites
            .iter()
            .any(|s| s.detail.contains("no `<!-- durability-class:") && s.location == "a.rs:1"));
        assert!(a
            .sites
            .iter()
            .any(|s| s.detail.contains("no source file declares") && s.location == "DESIGN.md:1"));
    }

    #[test]
    fn doc_requires_mismatch_is_drift() {
        let crates = one_crate(vec![("a.rs", DECLS)]);
        let md = "<!-- durability-class: undo-image requires = none -->\n\
                  <!-- durability-class: committed-page requires = none -->\n";
        let a = analyze(&crates, Some(md));
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(
            a.sites[0].detail.contains("drifted"),
            "{}",
            a.sites[0].detail
        );
    }

    #[test]
    fn matching_doc_is_clean() {
        let crates = one_crate(vec![("a.rs", DECLS)]);
        let md = "<!-- durability-class: undo-image requires = none -->\n\
                  <!-- durability-class: committed-page requires = undo-image -->\n";
        let a = analyze(&crates, Some(md));
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn test_code_is_stripped() {
        let src = format!(
            "{DECLS}\
             #[cfg(test)]\n\
             mod tests {{\n\
                 fn f(s: &mut S) {{\n\
                     // durability: mutates(committed-page)\n\
                     s.vol.write_pages(0, &buf);\n\
                 }}\n\
             }}\n"
        );
        let crates = one_crate(vec![("a.rs", &src)]);
        let a = analyze(&crates, None);
        // The annotation inside test code binds to nothing after the
        // strip — it must surface as dangling, not as an ordering bug.
        assert_eq!(a.sites.len(), 1, "{:?}", a.sites);
        assert!(a.sites[0].detail.contains("binds to no call site"));
    }
}
