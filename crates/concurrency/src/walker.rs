//! A small, dependency-free Rust-source walker.
//!
//! This is deliberately **not** a Rust parser. The lint needs exactly four
//! things from a source file: where functions begin and end, where lock
//! guards are acquired and released (every acquisition in the serve tier
//! goes through the `sync::lock`/`read`/`write`/`wait` helpers, plus the
//! handful of raw `.lock()`-style leaf mutexes elsewhere), which calls are
//! made while guards are held, and which hazard boundaries
//! (`catch_unwind`, fsync, pool scopes) a guard is held across. A
//! line-and-brace-level scan over comment- and string-blanked text
//! recovers all four reliably on rustfmt'd code; anything it cannot
//! attribute it drops on the floor rather than guessing.

/// How a lock is acquired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOp {
    /// `sync::lock(&m)` / `m.lock()` — exclusive mutex guard.
    Mutex,
    /// `sync::read(&l)` / `l.read()` — shared rwlock guard.
    Read,
    /// `sync::write(&l)` / `l.write()` — exclusive rwlock guard.
    Write,
}

impl LockOp {
    pub fn as_str(self) -> &'static str {
        match self {
            LockOp::Mutex => "lock",
            LockOp::Read => "read",
            LockOp::Write => "write",
        }
    }
}

/// A guard live at some program point.
#[derive(Clone, Debug)]
pub struct HeldLock {
    pub lock: String,
    pub op: LockOp,
    pub line: u32,
}

/// One lock acquisition site.
#[derive(Clone, Debug)]
pub struct Acquire {
    pub op: LockOp,
    pub lock: String,
    pub line: u32,
    /// `let g = …` bound the guard (it stays live to end of scope);
    /// unbound acquisitions are statement temporaries.
    pub bound: bool,
}

/// A call made while zero or more guards are held.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Last path segment of the callee (`self.refresh_epoch(…)` →
    /// `refresh_epoch`, `Durability::open(…)` → `open`).
    pub callee: String,
    /// The method receiver chain (`self.inner.root.drop_view(…)` →
    /// `["self", "inner", "root"]`); empty for free-function calls.
    pub receiver: Vec<String>,
    pub line: u32,
    pub held: Vec<HeldLock>,
}

impl CallSite {
    /// A plain `self.method(…)` call — resolvable within the defining
    /// file (one type's methods live in one file in this workspace).
    pub fn is_self_call(&self) -> bool {
        self.receiver.len() == 1 && self.receiver[0] == "self"
    }
}

/// Hazards a guard should not (or only deliberately) be held across.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryKind {
    /// `catch_unwind(…)` — a panic inside poisons every held lock.
    CatchUnwind,
    /// `.sync(…)` / `.sync_all(…)` / `.sync_data(…)` — an fsync turns the
    /// guard hold time into disk latency.
    Fsync,
    /// `run_on_pool(…)` / `.run_slots(…)` / `thread::scope(…)` — worker
    /// threads run while the guard is held; any worker touching the same
    /// lock deadlocks.
    PoolScope,
}

/// A hazard boundary crossed while guards were held.
#[derive(Clone, Debug)]
pub struct Boundary {
    pub kind: BoundaryKind,
    pub token: String,
    pub line: u32,
    pub held: Vec<HeldLock>,
}

/// A condvar wait performed while holding guards other than the one the
/// wait releases.
#[derive(Clone, Debug)]
pub struct WaitSite {
    pub line: u32,
    pub held_other: Vec<HeldLock>,
}

/// Everything the walker extracted from one function body.
#[derive(Clone, Debug, Default)]
pub struct FnScan {
    pub file: String,
    pub name: String,
    pub line: u32,
    /// All acquisitions (bound and temporary).
    pub acquires: Vec<Acquire>,
    /// (held guard, new acquisition) pairs: the raw material for
    /// acquisition-order edges and same-lock reacquisition findings.
    pub acquired_while_held: Vec<(HeldLock, Acquire)>,
    pub calls: Vec<CallSite>,
    pub boundaries: Vec<Boundary>,
    pub waits: Vec<WaitSite>,
    /// The function itself performs an fsync (used for interprocedural
    /// "guard held across fsync" propagation).
    pub direct_fsync: bool,
}

// ---------------------------------------------------------------------------
// Pass 1: blank comments and literal contents, preserving line structure.
// ---------------------------------------------------------------------------

/// Replace comments and string/char-literal contents with spaces so the
/// brace/token scan never trips over `{`/`}`/`"` inside them. Newlines are
/// preserved; the result has identical line numbering.
pub fn clean_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let n = b.len();
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"…" / r#"…"#.
        if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                out.push(' '); // the `r`
                for _ in 0..hashes {
                    out.push(' ');
                }
                out.push('"');
                j += 1;
                'raw: while j < n {
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut h = 0;
                        while k < n && b[k] == '#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push(' ');
                            }
                            j = k;
                            break 'raw;
                        }
                    }
                    blank(&mut out, b[j]);
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        // String literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                }
                blank(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'a (no
        // closing quote within two chars) is a lifetime.
        if c == '\'' && i + 1 < n {
            if b[i + 1] == '\\' {
                // Escaped char literal: find closing quote.
                out.push('\'');
                i += 1;
                while i < n && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                if i < n {
                    out.push('\'');
                    i += 1;
                }
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' {
                out.push('\'');
                out.push(' ');
                out.push('\'');
                i += 3;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Blank `#[cfg(test)]` / `#[test]`-attributed items (including whole
/// `mod tests { … }` blocks) so test-only lock usage never pollutes the
/// production acquisition graph. Operates on cleaned text.
pub fn blank_test_items(cleaned: &str) -> String {
    let mut s: Vec<char> = cleaned.chars().collect();
    let pats = ["#[cfg(test)]", "#[test]"];
    loop {
        let text: String = s.iter().collect();
        let hit = pats
            .iter()
            .filter_map(|p| text.find(p).map(|at| (at, p.len())))
            .min();
        let Some((at, plen)) = hit else { break };
        // From the end of the attribute, find the item's extent: the first
        // `{` → matching `}`, unless a `;` comes first (e.g. `mod tests;`).
        let mut j = at + plen;
        let mut end = s.len();
        while j < s.len() {
            match s[j] {
                ';' => {
                    end = j + 1;
                    break;
                }
                '{' => {
                    let mut depth = 0usize;
                    while j < s.len() {
                        match s[j] {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end = (j + 1).min(s.len());
                    break;
                }
                _ => j += 1,
            }
        }
        for c in s[at..end].iter_mut() {
            if *c != '\n' {
                *c = ' ';
            }
        }
    }
    s.iter().collect()
}

// ---------------------------------------------------------------------------
// Pass 2: tokenize.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Clone, Debug)]
pub(crate) struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Tokenize cleaned source: identifiers absorb `::` path segments
/// (`sync::lock` and `std::panic::catch_unwind` are single tokens);
/// everything else is single-char punctuation.
pub(crate) fn tokenize(cleaned: &str) -> Vec<Token> {
    let b: Vec<char> = cleaned.chars().collect();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    let n = b.len();
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start_line = line;
            let mut s = String::new();
            loop {
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    s.push(b[i]);
                    i += 1;
                }
                // Absorb a `::segment` continuation.
                if i + 2 < n
                    && b[i] == ':'
                    && b[i + 1] == ':'
                    && (b[i + 2].is_ascii_alphabetic() || b[i + 2] == '_')
                {
                    s.push_str("::");
                    i += 2;
                } else {
                    break;
                }
            }
            toks.push(Token {
                tok: Tok::Ident(s),
                line: start_line,
            });
            continue;
        }
        toks.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    toks
}

// ---------------------------------------------------------------------------
// Pass 3: function extraction + event scan.
// ---------------------------------------------------------------------------

/// Scan one file into per-function event records.
pub fn scan_file(file: &str, src: &str) -> Vec<FnScan> {
    let cleaned = blank_test_items(&clean_source(src));
    let toks = tokenize(&cleaned);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok == Tok::Ident("fn".to_string()) {
            let Some(Token {
                tok: Tok::Ident(name),
                line,
            }) = toks.get(i + 1).cloned()
            else {
                i += 1;
                continue;
            };
            // Find the body's opening brace; a `;` first means no body
            // (trait method declaration).
            let mut j = i + 2;
            let mut body_open = None;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('{') => {
                        body_open = Some(j);
                        break;
                    }
                    Tok::Punct(';') => break,
                    _ => j += 1,
                }
            }
            let Some(open) = body_open else {
                i = j + 1;
                continue;
            };
            // Matching close.
            let mut depth = 0usize;
            let mut k = open;
            while k < toks.len() {
                match toks[k].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let close = k.min(toks.len().saturating_sub(1));
            out.push(scan_body(file, &name, line, &toks[open..=close]));
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

const SYNC_HELPERS: [(&str, LockOp); 3] = [
    ("sync::lock", LockOp::Mutex),
    ("sync::read", LockOp::Read),
    ("sync::write", LockOp::Write),
];

fn method_op(name: &str) -> Option<LockOp> {
    match name {
        "lock" | "try_lock" => Some(LockOp::Mutex),
        "read" | "try_read" => Some(LockOp::Read),
        "write" | "try_write" => Some(LockOp::Write),
        _ => None,
    }
}

/// Normalize a lock path expression (`& self . shared . queue`) into a
/// stable identity: identifier segments joined by `.`, with a leading
/// `self.` stripped. Returns `None` for expressions with no identifier
/// (nothing to name) or a bare `self`.
fn lock_id(toks: &[Token]) -> Option<String> {
    let mut parts = Vec::new();
    for t in toks {
        match &t.tok {
            Tok::Ident(s) => parts.push(s.clone()),
            Tok::Punct('.') | Tok::Punct('&') | Tok::Punct('*') => {}
            // A call or index inside the expression (`self.views[i].lock`)
            // — keep what we have; identity stays the prefix path.
            _ => break,
        }
    }
    if parts.first().map(String::as_str) == Some("self") {
        parts.remove(0);
    }
    if parts.is_empty() {
        return None;
    }
    Some(parts.join("."))
}

struct Guard {
    depth: usize,
    binding: Option<String>,
    held: HeldLock,
}

/// Look backwards from an acquisition for `let [mut] name =` /
/// `let (name, _) =` / `name =` and return the bound guard name.
fn binding_before(toks: &[Token], at: usize) -> Option<String> {
    // The token just before the acquisition must be `=`.
    let mut j = at.checked_sub(1)?;
    if toks[j].tok != Tok::Punct('=') {
        return None;
    }
    // Scan back over the pattern (at most a few tokens) looking for `let`;
    // collect identifiers seen on the way.
    let mut idents = Vec::new();
    let mut steps = 0;
    loop {
        j = match j.checked_sub(1) {
            Some(v) => v,
            None => break,
        };
        steps += 1;
        if steps > 8 {
            break;
        }
        match &toks[j].tok {
            Tok::Ident(s) if s == "let" => {
                // First ident after skipping `mut`.
                let name = idents
                    .iter()
                    .rev()
                    .find(|s: &&String| s.as_str() != "mut" && s.as_str() != "_")
                    .cloned();
                return name;
            }
            Tok::Ident(s) => idents.push(s.clone()),
            Tok::Punct('(') | Tok::Punct(')') | Tok::Punct(',') | Tok::Punct('_') => {}
            // Statement boundary without `let`: plain reassignment.
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => {
                return idents.last().cloned();
            }
            _ => break,
        }
    }
    idents.last().cloned()
}

/// Is the expression ending at `close` (a `)` index) chained into a
/// further method call? `let p = sync::read(&r).views.get(n)` binds the
/// chain *result*, not the guard — the guard is a statement temporary.
/// `.unwrap()` / `.expect(…)` chains still yield the guard itself.
fn is_chained(toks: &[Token], close: usize) -> bool {
    let mut k = close + 1;
    loop {
        let dot = matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Punct('.')));
        if !dot {
            return false;
        }
        match toks.get(k + 1).map(|t| &t.tok) {
            Some(Tok::Ident(m)) if m == "unwrap" || m == "expect" => {
                if matches!(toks.get(k + 2).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    k = match_paren(toks, k + 2) + 1;
                    continue;
                }
                return true;
            }
            _ => return true,
        }
    }
}

/// Split the tokens of a parenthesized argument list (`toks[0]` is the
/// opening paren, last token its close) into per-argument slices on
/// top-level commas.
fn split_args(toks: &[Token]) -> Vec<&[Token]> {
    let inner = &toks[1..toks.len().saturating_sub(1)];
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (k, t) in inner.iter().enumerate() {
        match t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
            Tok::Punct(',') if depth == 0 => {
                out.push(&inner[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < inner.len() {
        out.push(&inner[start..]);
    }
    out
}

/// Find the matching `)` for the `(` at `open` and return its index.
fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    toks.len() - 1
}

fn scan_body(file: &str, name: &str, line: u32, toks: &[Token]) -> FnScan {
    let mut scan = FnScan {
        file: file.to_string(),
        name: name.to_string(),
        line,
        ..FnScan::default()
    };
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let tline = toks[i].line;
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                i += 1;
            }
            Tok::Ident(id) => {
                let next_is_paren =
                    matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
                let next_is_bang = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')));
                if next_is_bang {
                    // Macro invocation — skip the name; its arguments are
                    // scanned as ordinary tokens.
                    i += 2;
                    continue;
                }
                if !next_is_paren {
                    i += 1;
                    continue;
                }
                // `drop(g)` releases a bound guard early.
                if id == "drop" || id.ends_with("::drop") {
                    if let Some(Token {
                        tok: Tok::Ident(g), ..
                    }) = toks.get(i + 2)
                    {
                        guards.retain(|k| k.binding.as_deref() != Some(g.as_str()));
                    }
                    i = match_paren(toks, i + 1) + 1;
                    continue;
                }
                // sync:: helper acquisitions.
                if let Some((_, op)) = SYNC_HELPERS.iter().find(|(h, _)| id.ends_with(h)) {
                    let close = match_paren(toks, i + 1);
                    if let Some(lock) = lock_id(&toks[i + 2..close]) {
                        let chained = is_chained(toks, close);
                        record_acquire(
                            &mut scan,
                            &mut guards,
                            depth,
                            toks,
                            i,
                            *op,
                            lock,
                            tline,
                            chained,
                        );
                    }
                    i += 2; // keep scanning inside the argument list
                    continue;
                }
                // sync::wait / sync::wait_timeout: releases its own guard,
                // but any *other* held guard is held across the wait.
                if id.ends_with("sync::wait") || id.ends_with("sync::wait_timeout") {
                    let close = match_paren(toks, i + 1);
                    // Signature: `wait(&cv, &mutex, guard)` /
                    // `wait_timeout(&cv, &mutex, guard, dur)`. The released
                    // guard is the third argument; the second names the
                    // mutex it belongs to. A held guard is excluded if its
                    // binding matches the guard argument's last ident, or
                    // its lock matches the mutex argument's lock path.
                    let args = split_args(&toks[i + 1..=close]);
                    let waited: Option<String> = args.get(2).and_then(|arg| {
                        arg.iter().rev().find_map(|t| match &t.tok {
                            Tok::Ident(s) => Some(s.clone()),
                            _ => None,
                        })
                    });
                    let waited_lock: Option<String> = args.get(1).and_then(|arg| lock_id(arg));
                    let held_other: Vec<HeldLock> = guards
                        .iter()
                        .filter(|g| {
                            g.binding.as_deref() != waited.as_deref()
                                && Some(g.held.lock.as_str()) != waited_lock.as_deref()
                        })
                        .map(|g| g.held.clone())
                        .collect();
                    if !held_other.is_empty() {
                        scan.waits.push(WaitSite {
                            line: tline,
                            held_other,
                        });
                    }
                    i = close + 1;
                    continue;
                }
                // Raw `.lock()` / `.read()` / `.write()` with no arguments.
                if let Some(op) = method_op(id) {
                    let prev_is_dot = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
                    let empty_args =
                        matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')')));
                    if prev_is_dot && empty_args {
                        // Walk the receiver chain backwards: `. ident`*.
                        let mut j = i - 1;
                        let mut chain: Vec<Token> = Vec::new();
                        while let Some(prev) = j.checked_sub(1) {
                            if let Tok::Ident(_) = toks[prev].tok {
                                chain.push(toks[prev].clone());
                                let Some(pp) = prev.checked_sub(1) else {
                                    break;
                                };
                                if matches!(toks[pp].tok, Tok::Punct('.')) {
                                    j = pp;
                                    continue;
                                }
                            }
                            break;
                        }
                        chain.reverse();
                        if let Some(lock) = lock_id(&chain) {
                            // `binding_before` looks back from the start of
                            // the receiver chain, not the method name.
                            let expr_start = i - 1 - chain.len() * 2 + 1;
                            let chained = is_chained(toks, i + 2);
                            record_acquire(
                                &mut scan,
                                &mut guards,
                                depth,
                                toks,
                                expr_start,
                                op,
                                lock,
                                tline,
                                chained,
                            );
                        }
                        i += 3;
                        continue;
                    }
                }
                // Hazard boundaries.
                let boundary = if id.ends_with("catch_unwind") {
                    Some((BoundaryKind::CatchUnwind, id.clone()))
                } else if (id == "sync" || id == "sync_all" || id == "sync_data")
                    && i > 0
                    && matches!(toks[i - 1].tok, Tok::Punct('.'))
                {
                    scan.direct_fsync = true;
                    Some((BoundaryKind::Fsync, format!(".{id}()")))
                } else if id.ends_with("run_on_pool")
                    || id.ends_with("run_slots")
                    || id.ends_with("thread::scope")
                    || (id == "scope" && i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.')))
                {
                    Some((BoundaryKind::PoolScope, id.clone()))
                } else {
                    None
                };
                if let Some((kind, token)) = boundary {
                    if !guards.is_empty() {
                        scan.boundaries.push(Boundary {
                            kind,
                            token,
                            line: tline,
                            held: guards.iter().map(|g| g.held.clone()).collect(),
                        });
                    }
                    i += 1;
                    continue;
                }
                // Ordinary call: record callee + receiver chain + held set
                // for the interprocedural pass.
                let callee = id.rsplit("::").next().unwrap_or(id).to_string();
                let mut receiver = Vec::new();
                if i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.')) {
                    let mut j = i - 1;
                    while let Some(prev) = j.checked_sub(1) {
                        if let Tok::Ident(r) = &toks[prev].tok {
                            receiver.push(r.clone());
                            let Some(pp) = prev.checked_sub(1) else {
                                break;
                            };
                            if matches!(toks[pp].tok, Tok::Punct('.')) {
                                j = pp;
                                continue;
                            }
                        }
                        break;
                    }
                    receiver.reverse();
                }
                scan.calls.push(CallSite {
                    callee,
                    receiver,
                    line: tline,
                    held: guards.iter().map(|g| g.held.clone()).collect(),
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    scan
}

#[allow(clippy::too_many_arguments)]
fn record_acquire(
    scan: &mut FnScan,
    guards: &mut Vec<Guard>,
    depth: usize,
    toks: &[Token],
    expr_start: usize,
    op: LockOp,
    lock: String,
    line: u32,
    chained: bool,
) {
    let binding = if chained {
        None
    } else {
        binding_before(toks, expr_start)
    };
    let acq = Acquire {
        op,
        lock: lock.clone(),
        line,
        bound: binding.is_some(),
    };
    for g in guards.iter() {
        scan.acquired_while_held.push((g.held.clone(), acq.clone()));
    }
    scan.acquires.push(acq);
    if let Some(b) = binding {
        // A rebinding (`q = sync::wait(...)`, or shadowing `let`) replaces
        // the previous guard of the same name.
        guards.retain(|g| g.binding.as_deref() != Some(b.as_str()));
        guards.push(Guard {
            depth,
            binding: Some(b),
            held: HeldLock { lock, op, line },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaning_blanks_comments_and_strings() {
        let src =
            "let a = \"{ not a brace }\"; // { nor this }\n/* { nested /* { */ } */ let b = '{';\n";
        let c = clean_source(src);
        assert_eq!(c.lines().count(), src.lines().count());
        assert!(!c.contains("not a brace"));
        assert!(!c.contains("nor this"));
        assert!(!c.contains("nested"));
        // The char literal '{' is blanked.
        assert_eq!(c.matches('{').count(), 0);
        assert_eq!(c.matches('}').count(), 0);
    }

    #[test]
    fn test_items_are_blanked() {
        let src = r#"
fn real(&self) { let _g = sync::lock(&self.shared.queue); }
#[cfg(test)]
mod tests {
    fn fake(&self) { let _g = sync::lock(&self.shared.bogus); }
}
"#;
        let scans = scan_file("x.rs", src);
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].name, "real");
        assert_eq!(scans[0].acquires[0].lock, "shared.queue");
    }

    #[test]
    fn bound_guards_create_held_pairs_and_scopes_release() {
        let src = r#"
fn f(&self) {
    let _gate = sync::lock(&self.shared.gate);
    {
        let q = sync::lock(&self.shared.queue);
        q.push(1);
    }
    let mut m = sync::lock(&self.shared.metrics);
    m.bump();
}
"#;
        let scans = scan_file("x.rs", src);
        let s = &scans[0];
        let pairs: Vec<(String, String)> = s
            .acquired_while_held
            .iter()
            .map(|(h, a)| (h.lock.clone(), a.lock.clone()))
            .collect();
        // gate→queue and gate→metrics, but NOT queue→metrics (queue's
        // scope closed first).
        assert!(pairs.contains(&("shared.gate".into(), "shared.queue".into())));
        assert!(pairs.contains(&("shared.gate".into(), "shared.metrics".into())));
        assert!(!pairs.contains(&("shared.queue".into(), "shared.metrics".into())));
    }

    #[test]
    fn drop_releases_a_guard_early() {
        let src = r#"
fn f(&self) {
    let state = sync::read(&self.shared.state);
    drop(state);
    let mut w = sync::write(&self.shared.state);
}
"#;
        let s = &scan_file("x.rs", src)[0];
        assert!(
            s.acquired_while_held.is_empty(),
            "dropped guard must not be held: {:?}",
            s.acquired_while_held
        );
    }

    #[test]
    fn temporaries_acquire_but_do_not_hold() {
        let src = r#"
fn f(&self) {
    sync::lock(&self.shared.queue).pending_rows();
    let _m = sync::lock(&self.shared.metrics);
}
"#;
        let s = &scan_file("x.rs", src)[0];
        assert_eq!(s.acquires.len(), 2);
        assert!(!s.acquires[0].bound);
        assert!(s.acquired_while_held.is_empty());
    }

    #[test]
    fn raw_lock_calls_are_seen() {
        let src = r#"
fn f(&self) {
    let g = self.state.lock();
    let h = self.index.read();
}
"#;
        let s = &scan_file("x.rs", src)[0];
        assert_eq!(s.acquires.len(), 2);
        assert_eq!(s.acquires[0].lock, "state");
        assert_eq!(s.acquires[0].op, LockOp::Mutex);
        assert_eq!(s.acquires[1].lock, "index");
        assert_eq!(s.acquires[1].op, LockOp::Read);
        assert_eq!(s.acquired_while_held.len(), 1);
    }

    #[test]
    fn wait_records_other_held_guards_only() {
        let src = r#"
fn f(&self) {
    let mut q = sync::lock(&self.shared.queue);
    q = sync::wait(&self.shared.space, &self.shared.queue, q);
}
fn g(&self) {
    let _m = sync::lock(&self.shared.metrics);
    let mut q = sync::lock(&self.shared.queue);
    q = sync::wait(&self.shared.space, &self.shared.queue, q);
}
fn h(&self) {
    let mut guard = sync::lock(&self.shared.queue);
    let (g, _) = sync::wait_timeout(&self.shared.space, &self.shared.queue, guard, dur);
    guard = g;
}
"#;
        let scans = scan_file("x.rs", src);
        assert!(scans[0].waits.is_empty(), "{:?}", scans[0].waits);
        assert_eq!(scans[1].waits.len(), 1);
        assert_eq!(scans[1].waits[0].held_other[0].lock, "shared.metrics");
        // wait_timeout places the guard at the same index as wait.
        assert!(scans[2].waits.is_empty(), "{:?}", scans[2].waits);
    }

    #[test]
    fn boundaries_and_calls_capture_held_sets() {
        let src = r#"
fn f(&self) {
    let _gate = sync::lock(&self.shared.gate);
    let out = run_on_pool(items, n, worker);
    let r = std::panic::catch_unwind(op);
    self.helper(1);
    let slots = self.shared.pool.run_slots(items, worker);
}
"#;
        let s = &scan_file("x.rs", src)[0];
        let kinds: Vec<BoundaryKind> = s.boundaries.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BoundaryKind::PoolScope));
        let pool_tokens: Vec<&str> = s
            .boundaries
            .iter()
            .filter(|b| b.kind == BoundaryKind::PoolScope)
            .map(|b| b.token.as_str())
            .collect();
        assert_eq!(pool_tokens, ["run_on_pool", "run_slots"]);
        assert!(kinds.contains(&BoundaryKind::CatchUnwind));
        assert!(s
            .calls
            .iter()
            .any(|c| c.callee == "helper" && c.held.len() == 1));
    }

    #[test]
    fn fsync_methods_mark_direct_fsync() {
        let src = r#"
fn sync(&self, context: &str) -> Result<(), WalError> {
    let w = sync::lock(&self.wal);
    w.file.sync_all()
}
"#;
        let s = &scan_file("x.rs", src)[0];
        assert!(s.direct_fsync);
        assert!(s
            .boundaries
            .iter()
            .any(|b| b.kind == BoundaryKind::Fsync && b.held[0].lock == "wal"));
    }
}
