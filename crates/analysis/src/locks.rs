//! Lock-order analysis over every workspace source file.
//!
//! The repo declares one total acquisition order — `state → stream-entry →
//! inflight-slot`, with the worker-pool budget tokens as a leaf class that
//! never nests — and this pass checks every function against it with a
//! scope-nesting approximation of guard lifetimes:
//!
//! * An acquisition site is either the blessed wrapper
//!   `lock_ranked(&…, Rank::X)` (classified by the rank identifier) or a raw
//!   `recv.lock()` call (classified by the receiver's last path segment).
//!   A receiver the pass cannot classify is itself a finding.
//! * A `let`-bound guard lives to the end of its enclosing brace scope; an
//!   `if let` / `while let` / `match` binding attaches to the block that
//!   follows; an unbound (temporary) guard lives to the end of its
//!   statement; `drop(guard)` kills a guard early.
//! * Acquiring class `B` while a guard of class `A` is live records edge
//!   `A → B`. Any edge that does not strictly increase in rank is an
//!   inversion finding, and the cross-function edge graph is searched for
//!   cycles — the PR-7 ABBA deadlock shows up as both.
//!
//! Limitation (by design): guards are tracked per function body, so an
//! inversion split across a call boundary is invisible here — that is what
//! the runtime lockdep witness in `serve.rs` is for.

use crate::lexer::{Tok, TokKind};
use crate::source::{Finding, FnItem, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Lock classes in declared acquisition order (rank = discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    State = 0,
    StreamEntry = 1,
    InflightSlot = 2,
    /// `ConcurrencyBudget.tokens` in `pool.rs`: a leaf — nothing may be held
    /// while it is taken, and it ranks after everything else.
    BudgetTokens = 3,
}

impl LockClass {
    fn name(self) -> &'static str {
        match self {
            LockClass::State => "state",
            LockClass::StreamEntry => "stream-entry",
            LockClass::InflightSlot => "inflight-slot",
            LockClass::BudgetTokens => "budget-tokens",
        }
    }

    fn rank(self) -> u8 {
        self as u8
    }
}

pub const DECLARED_ORDER: &str = "state → stream-entry → inflight-slot → budget-tokens";

/// Receiver last-segment → class, for raw `recv.lock()` sites. A suffix like
/// `entry_a` classifies as `entry`.
const RECEIVER_CLASSES: &[(&str, LockClass)] = &[
    ("state", LockClass::State),
    ("entry", LockClass::StreamEntry),
    ("slot", LockClass::InflightSlot),
    ("tokens", LockClass::BudgetTokens),
];

/// `Rank::X` identifier → class, for `lock_ranked(&…, Rank::X)` sites.
const RANK_CLASSES: &[(&str, LockClass)] = &[
    ("State", LockClass::State),
    ("StreamEntry", LockClass::StreamEntry),
    ("InflightSlot", LockClass::InflightSlot),
];

#[derive(Debug, Clone)]
struct Guard {
    class: LockClass,
    var: Option<String>,
    /// Brace depth whose closing `}` releases this guard.
    scope_depth: usize,
    /// Waiting for the next `{` (an `if let` / `while let` / `match` head).
    pending_block: bool,
    /// Unbound temporary: released at the end of the statement.
    temp: bool,
    line: usize,
}

/// A held-while-acquiring observation, kept for cycle reporting.
#[derive(Debug, Clone)]
struct Edge {
    held: LockClass,
    acquired: LockClass,
    file: String,
    func: String,
    line: usize,
}

pub fn lock_order_pass(files: &[&SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for file in files {
        for func in file.production_fns() {
            // The wrapper is the one blessed site whose raw `.lock()` has a
            // generic receiver; its discipline is the witness's job.
            if func.name == "lock_ranked" {
                continue;
            }
            analyze_fn(file, func, &mut findings, &mut edges);
        }
    }
    findings.extend(cycle_findings(&edges));
    findings
}

fn analyze_fn(
    file: &SourceFile,
    func: &FnItem,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<Edge>,
) {
    let toks = file.toks();
    let body = func.body.clone();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = body.start;
    while i < body.end {
        let tok = &toks[i];
        match tok.kind {
            TokKind::Punct('{') => {
                depth += 1;
                for g in &mut guards {
                    if g.pending_block {
                        g.scope_depth = depth;
                        g.pending_block = false;
                    }
                }
            }
            TokKind::Punct('}') => {
                guards.retain(|g| g.pending_block || g.scope_depth < depth);
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') => {
                guards.retain(|g| !g.temp);
            }
            TokKind::Ident => {
                if let Some((class, span)) = acquisition_at(file, func, toks, i, findings) {
                    record_acquisition(
                        file,
                        func,
                        toks,
                        body.start,
                        i,
                        class,
                        depth,
                        &mut guards,
                        findings,
                        edges,
                    );
                    i = span;
                    continue;
                }
                if tok.is_ident("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    if let (Some(var), Some(close)) = (toks.get(i + 2), toks.get(i + 3)) {
                        if var.kind == TokKind::Ident && close.is_punct(')') {
                            if let Some(pos) = guards
                                .iter()
                                .rposition(|g| g.var.as_deref() == Some(var.text.as_str()))
                            {
                                guards.remove(pos);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Classifies an acquisition site at token `i`, if any. Returns the class
/// and the token index to resume scanning from.
fn acquisition_at(
    file: &SourceFile,
    func: &FnItem,
    toks: &[Tok],
    i: usize,
    findings: &mut Vec<Finding>,
) -> Option<(LockClass, usize)> {
    let tok = &toks[i];
    if tok.is_ident("lock_ranked") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        let close = matching_paren(toks, i + 1);
        for j in i + 2..close {
            if toks[j].is_ident("Rank") {
                if let Some(rank_ident) = toks.get(j + 3) {
                    if let Some(&(_, class)) = RANK_CLASSES
                        .iter()
                        .find(|(name, _)| rank_ident.is_ident(name))
                    {
                        return Some((class, close));
                    }
                }
            }
        }
        findings.push(Finding {
            file: file.rel.clone(),
            line: tok.line,
            lint: "lock-order",
            message: format!(
                "lock_ranked call in `{}` has no recognizable Rank::… argument",
                func.name
            ),
        });
        return None;
    }
    // recv.lock(…)
    if tok.is_ident("lock")
        && i >= 2
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
    {
        let recv = &toks[i - 2];
        if recv.kind != TokKind::Ident {
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                lint: "lock-order",
                message: format!(
                    "`.lock()` in `{}` on an expression receiver the lock pass cannot classify; \
                     bind the mutex to a named local first",
                    func.name
                ),
            });
            return None;
        }
        let classified = RECEIVER_CLASSES.iter().find(|(key, _)| {
            recv.text == *key
                || recv
                    .text
                    .strip_prefix(key)
                    .is_some_and(|r| r.starts_with('_'))
        });
        match classified {
            Some(&(_, class)) => return Some((class, i + 1)),
            None => {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: tok.line,
                    lint: "lock-order",
                    message: format!(
                        "`.lock()` in `{}` on receiver `{}` which maps to no declared lock class \
                         (known: state, entry, slot, tokens)",
                        func.name, recv.text
                    ),
                });
                return None;
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn record_acquisition(
    file: &SourceFile,
    func: &FnItem,
    toks: &[Tok],
    body_start: usize,
    i: usize,
    class: LockClass,
    depth: usize,
    guards: &mut Vec<Guard>,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<Edge>,
) {
    let line = toks[i].line;
    for g in guards.iter() {
        edges.push(Edge {
            held: g.class,
            acquired: class,
            file: file.rel.clone(),
            func: func.name.clone(),
            line,
        });
        if g.class.rank() >= class.rank() {
            findings.push(Finding {
                file: file.rel.clone(),
                line,
                lint: "lock-order",
                message: format!(
                    "`{}` acquires '{}' while holding '{}' (taken line {}); declared order: {}",
                    func.name,
                    class.name(),
                    g.class.name(),
                    g.line,
                    DECLARED_ORDER
                ),
            });
        }
    }
    // Statement shape: walk back to the nearest `;` / `{` / `}`.
    let mut stmt_first = i;
    let mut j = i;
    while j > body_start {
        j -= 1;
        if matches!(toks[j].kind, TokKind::Punct(';' | '{' | '}')) {
            break;
        }
        stmt_first = j;
    }
    let head = &toks[stmt_first];
    let conditional = head.is_ident("if") || head.is_ident("while") || head.is_ident("match");
    let var = (stmt_first..i)
        .find(|&k| toks[k].is_ident("let"))
        .and_then(|let_at| bound_var(toks, let_at, i));
    let bound = var.is_some();
    guards.push(Guard {
        class,
        var,
        scope_depth: depth,
        pending_block: conditional,
        temp: !bound && !conditional,
        line,
    });
}

/// The variable a `let` at `let_at` binds, unwrapping one layer of
/// `Ok(…)` / `Some(…)` / `Err(…)` patterns and skipping `mut`.
fn bound_var(toks: &[Tok], let_at: usize, limit: usize) -> Option<String> {
    let mut k = let_at + 1;
    while k < limit && (toks[k].is_ident("mut") || toks[k].kind != TokKind::Ident) {
        k += 1;
    }
    let first = toks.get(k)?;
    if matches!(first.text.as_str(), "Ok" | "Some" | "Err")
        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
    {
        let mut inner = k + 2;
        while inner < limit && toks[inner].is_ident("mut") {
            inner += 1;
        }
        return toks.get(inner).map(|t| t.text.clone());
    }
    Some(first.text.clone())
}

fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Reports each elementary cycle in the class-level edge graph once, with an
/// example site per edge.
fn cycle_findings(edges: &[Edge]) -> Vec<Finding> {
    let mut adjacency: BTreeMap<LockClass, BTreeSet<LockClass>> = BTreeMap::new();
    let mut example: BTreeMap<(LockClass, LockClass), &Edge> = BTreeMap::new();
    for e in edges {
        if e.held == e.acquired {
            continue; // self-edges are already inversion findings
        }
        adjacency.entry(e.held).or_default().insert(e.acquired);
        example.entry((e.held, e.acquired)).or_insert(e);
    }
    let nodes: Vec<LockClass> = adjacency.keys().copied().collect();
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<LockClass>> = BTreeSet::new();
    for &start in &nodes {
        let mut path = vec![start];
        dfs_cycles(&adjacency, start, start, &mut path, &mut reported);
    }
    for cycle in reported {
        let mut names: Vec<&str> = cycle.iter().map(|c| c.name()).collect();
        names.push(cycle[0].name());
        let sites: Vec<String> = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(a, b)| example.get(&(*a, *b)))
            .map(|e| format!("{}:{} in `{}`", e.file, e.line, e.func))
            .collect();
        let first = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(a, b)| example.get(&(*a, *b)))
            .map(|e| e.line)
            .min()
            .unwrap_or(0);
        findings.push(Finding {
            file: example
                .get(&(cycle[0], cycle[1 % cycle.len()]))
                .map(|e| e.file.clone())
                .unwrap_or_default(),
            line: first,
            lint: "lock-order",
            message: format!(
                "lock-order cycle: {} (edges: {})",
                names.join(" → "),
                sites.join(", ")
            ),
        });
    }
    findings
}

fn dfs_cycles(
    adjacency: &BTreeMap<LockClass, BTreeSet<LockClass>>,
    start: LockClass,
    at: LockClass,
    path: &mut Vec<LockClass>,
    reported: &mut BTreeSet<Vec<LockClass>>,
) {
    let Some(nexts) = adjacency.get(&at) else {
        return;
    };
    for &next in nexts {
        if next == start {
            // Canonicalize: rotate so the smallest class leads.
            let min_at = path
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut canon = path[min_at..].to_vec();
            canon.extend_from_slice(&path[..min_at]);
            reported.insert(canon);
        } else if !path.contains(&next) {
            path.push(next);
            dfs_cycles(adjacency, start, next, path, reported);
            path.pop();
        }
    }
}
