//! Determinism taint: source→sink propagation over the workspace call graph.
//!
//! The repo pins byte-identical exports (CSV/JSON reports, rule books,
//! protocol payloads, cache keys). Instead of a hand-maintained list of
//! "result-affecting modules", this pass computes which functions can feed
//! those exports and flags nondeterminism *sources* inside them:
//!
//! * **Sources** — hash-container iteration (`map.iter()`, `for … in set`),
//!   wall-clock/thread-id reads, and unseeded RNG construction
//!   (`thread_rng()`, `from_entropy()`, `rand::random()`).
//! * **Sinks** — [`ReportTable`] cell writes (`push_row`), protocol response
//!   encoding (`Response::ok` / `Response::encode`, `encode_params`,
//!   `encode_request`), `cache_key`, and rule-book construction
//!   (`RuleBook::streamed` / `push_output` / `push`).
//!
//! A function is **covered** when a sink transitively reaches it through the
//! call graph in either direction: it can *reach a sink* (its return value
//! or side effects feed an export) or it is *called beneath* such a function
//! (its output flows upward into one). Every source site in a covered
//! function is a finding, reported with the full chain — e.g.
//! `HashMap::iter in X → called by Y → feeds push_row` — so a new module is
//! covered the moment any export path touches it, with no list to maintain.
//!
//! Suppression stays per-site: `// lint:allow(hash-iter|wall-clock|
//! unseeded-rng): reason`.
//!
//! [`ReportTable`]: ../../spade_core/report/struct.ReportTable.html

use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::source::{Finding, SourceFile};
use crate::symbols::SymbolIndex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Unseeded RNG constructors: all randomness in this repo must come from
/// seeded SplitMix64 streams.
const RNG_SOURCES: &[&str] = &["thread_rng", "from_entropy", "from_os_rng"];

/// `(receiver type constraint, callee name)` pairs that count as export
/// sinks. A `None` constraint matches any receiver.
const SINK_CALLS: &[(Option<&str>, &str)] = &[
    (None, "push_row"),
    (None, "cache_key"),
    (None, "encode_params"),
    (None, "encode_request"),
    (Some("Response"), "ok"),
    (Some("Response"), "encode"),
    (Some("RuleBook"), "streamed"),
    (Some("RuleBook"), "push_output"),
    (Some("RuleBook"), "push"),
];

/// How a covered function connects to a sink, for chain rendering.
struct Coverage {
    /// `sym → (next sym toward the sink, sink callee name if this sym holds
    /// the sink site itself)`.
    toward_sink: BTreeMap<usize, (Option<usize>, Option<String>)>,
    /// For descendants of sink-reaching functions: the caller one step
    /// closer to the sink-reaching set.
    via_caller: BTreeMap<usize, usize>,
}

pub fn taint_pass(files: &[SourceFile], index: &SymbolIndex, graph: &CallGraph) -> Vec<Finding> {
    let coverage = compute_coverage(index, graph);
    let mut findings = Vec::new();
    for (si, sym) in index.syms.iter().enumerate() {
        if sym.is_test || !is_covered(&coverage, si) {
            continue;
        }
        let chain = render_chain(index, &coverage, si);
        source_sites(&files[sym.file], sym.fn_idx, &chain, &mut findings);
    }
    findings
}

fn is_covered(coverage: &Coverage, si: usize) -> bool {
    coverage.toward_sink.contains_key(&si) || coverage.via_caller.contains_key(&si)
}

fn compute_coverage(index: &SymbolIndex, graph: &CallGraph) -> Coverage {
    let mut coverage = Coverage {
        toward_sink: BTreeMap::new(),
        via_caller: BTreeMap::new(),
    };
    // Seed: functions containing a sink call site.
    let mut queue: VecDeque<usize> = VecDeque::new();
    for site in &graph.sites {
        let matches = SINK_CALLS.iter().any(|(ty, name)| {
            site.name == *name && ty.is_none_or(|t| site.recv_type.as_deref() == Some(t))
        });
        if matches && !coverage.toward_sink.contains_key(&site.caller) {
            coverage
                .toward_sink
                .insert(site.caller, (None, Some(site.name.clone())));
            queue.push_back(site.caller);
        }
    }
    // Backward over callers: anything that calls a sink-reaching fn reaches
    // the sink itself.
    while let Some(at) = queue.pop_front() {
        for &caller in &graph.callers[at] {
            if let std::collections::btree_map::Entry::Vacant(e) =
                coverage.toward_sink.entry(caller)
            {
                e.insert((Some(at), None));
                queue.push_back(caller);
            }
        }
    }
    // Forward over callees: helpers invoked beneath a sink-reaching fn feed
    // their results upward into it.
    let mut fwd: VecDeque<usize> = coverage.toward_sink.keys().copied().collect();
    while let Some(at) = fwd.pop_front() {
        for &callee in &graph.callees[at] {
            if index.syms[callee].is_test {
                continue;
            }
            if !coverage.toward_sink.contains_key(&callee)
                && !coverage.via_caller.contains_key(&callee)
            {
                coverage.via_caller.insert(callee, at);
                fwd.push_back(callee);
            }
        }
    }
    coverage
}

/// Renders the call chain from `si` to the sink it is covered by, e.g.
/// `collect_rows → called by export_table → feeds push_row`.
fn render_chain(index: &SymbolIndex, coverage: &Coverage, si: usize) -> String {
    let mut parts: Vec<String> = vec![format!("`{}`", index.syms[si].name)];
    let mut at = si;
    let mut hops = 0;
    // Climb callers until we land in the sink-reaching set.
    while let Some(&caller) = coverage.via_caller.get(&at) {
        parts.push(format!("called by `{}`", index.syms[caller].name));
        at = caller;
        hops += 1;
        if hops > 12 {
            break;
        }
    }
    // Walk the sink-reaching chain forward to the sink site.
    loop {
        match coverage.toward_sink.get(&at) {
            Some((_, Some(sink_name))) => {
                parts.push(format!("feeds `{sink_name}`"));
                break;
            }
            Some((Some(next), None)) => {
                parts.push(format!("calls `{}`", index.syms[*next].name));
                at = *next;
            }
            _ => break,
        }
        hops += 1;
        if hops > 24 {
            parts.push("…".to_string());
            break;
        }
    }
    parts.join(" → ")
}

/// Scans one production fn body for nondeterminism source sites.
fn source_sites(file: &SourceFile, fn_idx: usize, chain: &str, findings: &mut Vec<Finding>) {
    let names = hash_names(file);
    let toks = file.toks();
    let body = file.fns[fn_idx].body.clone();
    // Skip tokens belonging to nested local fns: they are covered (or not)
    // as their own symbols.
    let nested: Vec<std::ops::Range<usize>> = file
        .fns
        .iter()
        .enumerate()
        .filter(|(gi, f)| *gi != fn_idx && body.contains(&f.body.start) && f.body.end <= body.end)
        .map(|(_, f)| f.body.clone())
        .collect();
    for i in body.clone() {
        if nested.iter().any(|r| r.contains(&i)) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let tok = &toks[i];
        // name.iter() / recv.name.keys() / …
        if ITER_METHODS.contains(&tok.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks[i - 2].kind == TokKind::Ident
            && names.contains(&toks[i - 2].text)
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                lint: "hash-iter",
                message: format!(
                    "`{}.{}()` iterates a HashMap/HashSet in nondeterministic order on an \
                     export-feeding path: {chain}",
                    toks[i - 2].text,
                    tok.text
                ),
            });
        }
        // for pat in name { … }
        if tok.is_ident("for") {
            if let Some((name, line)) = for_loop_over(file, i, &names) {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line,
                    lint: "hash-iter",
                    message: format!(
                        "`for … in {name}` iterates a HashMap/HashSet in nondeterministic order \
                         on an export-feeding path: {chain}"
                    ),
                });
            }
        }
        // SystemTime::now() / Instant::now()
        if (tok.is_ident("SystemTime") || tok.is_ident("Instant"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                lint: "wall-clock",
                message: format!(
                    "`{}::now()` read on an export-feeding path ({chain}); annotate timing-only \
                     uses",
                    tok.text
                ),
            });
        }
        // thread::current().id()
        if tok.is_ident("current")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("thread")
            && toks.get(i + 4).is_some_and(|t| t.is_ident("id"))
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                lint: "wall-clock",
                message: format!("thread-id read on an export-feeding path: {chain}"),
            });
        }
        // thread_rng() / from_entropy() / rand::random()
        if (RNG_SOURCES.contains(&tok.text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
            || (tok.is_ident("random")
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("rand")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                lint: "unseeded-rng",
                message: format!(
                    "`{}()` constructs an unseeded RNG on an export-feeding path ({chain}); use \
                     a seeded stream",
                    tok.text
                ),
            });
        }
    }
}

/// If the `for` at token `i` loops directly over a hash-named variable,
/// returns (name, line of the name token).
fn for_loop_over(file: &SourceFile, i: usize, names: &BTreeSet<String>) -> Option<(String, usize)> {
    let toks = file.toks();
    let mut nest = 0i64;
    let mut j = i + 1;
    // Find the `in` of this loop header (patterns may contain parens).
    loop {
        let t = toks.get(j)?;
        match t.kind {
            TokKind::Punct('(' | '[') => nest += 1,
            TokKind::Punct(')' | ']') => nest -= 1,
            TokKind::Punct('{' | ';') => return None,
            TokKind::Ident if nest == 0 && t.is_ident("in") => break,
            _ => {}
        }
        j += 1;
        if j > i + 32 {
            return None;
        }
    }
    let mut k = j + 1;
    while toks
        .get(k)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        k += 1;
    }
    let name = toks.get(k)?;
    if name.kind == TokKind::Ident
        && names.contains(&name.text)
        && toks.get(k + 1).is_some_and(|t| t.is_punct('{'))
    {
        return Some((name.text.clone(), name.line));
    }
    None
}

/// Names whose type or initializer mentions `HashMap`/`HashSet`, outside
/// test modules: struct fields, typed bindings/params, and `let` inits.
fn hash_names(file: &SourceFile) -> BTreeSet<String> {
    let toks = file.toks();
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if file.in_tests(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name: …HashMap…` up to a delimiter at angle-depth zero.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut angle = 0i64;
            for j in i + 2..(i + 64).min(toks.len()) {
                match toks[j].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct(',' | ';' | '{' | '}' | ')' | '=') if angle <= 0 => break,
                    TokKind::Ident
                        if toks[j].is_ident("HashMap") || toks[j].is_ident("HashSet") =>
                    {
                        names.insert(toks[i].text.clone());
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `let [mut] name = … HashMap/HashSet …;`
        if toks[i].is_ident("let") {
            let mut k = i + 1;
            while toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = toks.get(k) else { continue };
            if name.kind != TokKind::Ident {
                continue;
            }
            for t in &toks[k + 1..(k + 128).min(toks.len())] {
                match t.kind {
                    TokKind::Punct(';') => break,
                    TokKind::Ident if t.is_ident("HashMap") || t.is_ident("HashSet") => {
                        names.insert(name.text.clone());
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    names
}
