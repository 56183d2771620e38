//! Source rules: structural choices of the paper's design that a compiler
//! cannot see, checked by scanning the workspace's non-test source.
//!
//! Each row of [`RULES`] names the files it scans, one forbidden match, the
//! `file:fn` sites where that match is allowed, and the DESIGN.md section
//! that gives the reason. One scanner serves every row: it blanks comments
//! and literals, stops a file at its inline `#[cfg(test)] mod … {`, skips
//! out-of-line `tests.rs` modules, and attributes each match to the `fn`
//! whose braces enclose it (`-` outside any fn).
//!
//! The table cannot go stale silently: an allowed site that matches nothing,
//! a file entry that names no file, and a DESIGN.md section that does not
//! exist each fail. The planted violations below run through the same
//! [`check`] as the tree.

use std::fs;
use std::path::Path;

/// One source rule.
#[derive(Clone, Copy)]
struct Rule {
    name: &'static str,
    /// Files, or directories whose `.rs` files are all scanned.
    files: &'static [&'static str],
    /// Byte offsets of the forbidden matches in blanked source.
    find: fn(&str) -> Vec<usize>,
    /// `(file, fn)` sites where a match is allowed; fn `-` is outside any fn.
    allowed: &'static [(&'static str, &'static str)],
    /// The DESIGN.md section that gives the reason.
    design: &'static str,
}

/// The files that hold the device's Table-1 query engine and rollback body.
const QUERY_ENGINE: [&str; 2] = [
    "crates/core/src/timessd/engine.rs",
    "crates/core/src/timessd/table1.rs",
];

/// The sources of the crates on the device side of the paper's §4 split.
const DEVICE_SIDE: [&str; 3] = ["crates/core/src", "crates/nvme/src", "crates/oracle/src"];

/// The files that hold the FTL skeleton or a `Retention` impl.
const HOST_PATH: &[&str] = &[
    "crates/core/src/ftl.rs",
    "crates/core/src/regular.rs",
    "crates/core/src/flashguard.rs",
    "crates/core/src/timessd/gc.rs",
    "crates/core/src/timessd/mod.rs",
];

const RULES: &[Rule] = &[
    // `(addr, cnt)` arithmetic is checked once, by `almanac_flash::LpaSpan`.
    Rule {
        name: "no_raw_lpa_sum",
        files: &[
            "crates/kits/src",
            QUERY_ENGINE[0],
            QUERY_ENGINE[1],
            "crates/nvme/src",
            "crates/trace/src",
            "crates/oracle/src",
        ],
        find: raw_lpa_sum,
        allowed: &[],
        design: "5g",
    },
    // Victim, wear-spread and expired-delta lookups read maintained state; a
    // sweep here is paid by every host op. The two allowed sweeps are
    // rate-limited.
    Rule {
        name: "no_host_path_sweep",
        files: HOST_PATH,
        find: bst_sweep,
        allowed: &[
            ("crates/core/src/ftl.rs", "wear_level_victim"),
            ("crates/core/src/timessd/mod.rs", "space_utilization"),
        ],
        design: "5h",
    },
    // A block's pages are found by the PVT|PRT word scan or bounded by its
    // `written`, never by visiting every page.
    Rule {
        name: "no_page_probe",
        files: HOST_PATH,
        find: page_probe,
        allowed: &[],
        design: "5h",
    },
    // `version_chain` and `version_content` walk the chain again; a query
    // decodes what its own walk yielded.
    Rule {
        name: "one_walk_per_lpa",
        files: &[
            "crates/kits/src",
            QUERY_ENGINE[0],
            QUERY_ENGINE[1],
            "crates/fs/src",
        ],
        find: |src| offsets(src, &["version_chain(", "version_content("]).collect(),
        allowed: &[],
        design: "5g",
    },
    // A block's next page is its BST `written`, moved only by a successful
    // program of a data page or a delta page.
    Rule {
        name: "one_write_pointer",
        files: &["crates/core/src"],
        find: written_move,
        allowed: &[
            ("crates/core/src/ftl.rs", "program"),
            ("crates/core/src/timessd/deltas.rs", "flush_filter"),
        ],
        design: "5h",
    },
    // ... so there is no cursor beside it, and nothing to rewind.
    Rule {
        name: "no_second_cursor",
        files: &["crates/core/src"],
        find: |src| offsets(src, &["next_off", "unreserve"]).collect(),
        allowed: &[],
        design: "5h",
    },
    // The partition width is the scan engine's schedule; it touches no table,
    // which is why the oracle checks it with one device.
    Rule {
        name: "width_is_a_query_schedule",
        files: &[
            "crates/core/src",
            "crates/flash/src",
            "crates/nvme/src",
            "crates/trace/src",
            "crates/fs/src",
            "crates/kits/src",
        ],
        find: |src| offsets(src, &["amt_shards"]).collect(),
        allowed: &[
            ("crates/core/src/config.rs", "-"),
            ("crates/core/src/config.rs", "new"),
            ("crates/core/src/config.rs", "with_amt_shards"),
            ("crates/core/src/timessd/mod.rs", "amt_shards"),
            (QUERY_ENGINE[0], "scan"),
        ],
        design: "5g",
    },
    // A command's bookkeeping is a cid bitmap, an ordered in-flight set and
    // a table indexed by cid: nothing on the per-command path hashes.
    Rule {
        name: "no_hashed_command_path",
        files: &[
            "crates/nvme/src/controller.rs",
            "crates/nvme/src/queue.rs",
            "crates/nvme/src/driver.rs",
            "crates/trace/src/qdreplay.rs",
        ],
        find: |src| offsets(src, &["HashMap"]).collect(),
        allowed: &[],
        design: "5f",
    },
    // The NVMe controller and driver are generic over the device: a TimeSSD
    // is only the default type parameter and what `NvmeController::new`
    // takes.
    Rule {
        name: "one_host_path",
        files: &["crates/nvme/src"],
        find: names_time_ssd,
        allowed: &[("crates/nvme/src/controller.rs", "new")],
        design: "5f",
    },
    // A version-chain hop follows a back-pointer only in the walk's one step
    // function. The other sites build a link: the walk's first one from the
    // head, a standalone delta's record, and the rebuild's trim replay.
    Rule {
        name: "one_chain_step",
        files: &["crates/core/src/timessd"],
        find: back_ptr_read,
        allowed: &[
            ("crates/core/src/timessd/query.rs", "chain_start"),
            ("crates/core/src/timessd/query.rs", "step"),
            ("crates/core/src/timessd/gc.rs", "compress_single"),
            ("crates/core/src/timessd/rebuild.rs", "recover_from_flash"),
        ],
        design: "5g",
    },
    // The device answers the Table-1 vendor commands itself; TimeKits is
    // the host library that issues them, so no device-side crate calls it.
    Rule {
        name: "device_side_needs_no_host_library",
        files: &DEVICE_SIDE,
        find: |src| offsets(src, &["almanac_kits"]).collect(),
        allowed: &[],
        design: "6",
    },
    // The flash array answers a bad address or a free page with a
    // `FlashError`, so no FTL input can make the array itself panic.
    Rule {
        name: "no_panic_in_flash",
        files: &["crates/flash/src"],
        find: |src| offsets(src, &[".expect(", ".unwrap("]).collect(),
        allowed: &[],
        design: "8",
    },
];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Offsets of every occurrence of each of `pats`.
fn offsets<'a>(src: &'a str, pats: &'a [&str]) -> impl Iterator<Item = usize> + 'a {
    pats.iter()
        .flat_map(move |p| src.match_indices(p).map(|(i, _)| i))
}

/// `Lpa(` with a `+` before its matching `)`.
fn raw_lpa_sum(src: &str) -> Vec<usize> {
    offsets(src, &["Lpa("])
        .filter(|&i| {
            let mut depth = 0;
            for b in src[i + 3..].bytes() {
                match b {
                    b'(' => depth += 1,
                    b')' if depth == 1 => return false,
                    b')' => depth -= 1,
                    b'+' => return true,
                    _ => {}
                }
            }
            false
        })
        .collect()
}

/// `bst` / `blocks` (or `blocks()`) `.iter()`, also split across lines.
fn bst_sweep(src: &str) -> Vec<usize> {
    offsets(src, &[".iter()"])
        .filter(|&i| {
            let receiver = src[..i].trim_end();
            let receiver = receiver.strip_suffix("()").unwrap_or(receiver);
            receiver.ends_with("bst") || receiver.ends_with("blocks")
        })
        .collect()
}

/// A `for … in 0..` loop bounded by a block's page count.
fn page_probe(src: &str) -> Vec<usize> {
    offsets(src, &["for "])
        .filter(|&i| {
            let head = &src[i..];
            let head: Vec<&str> = head[..head.find('{').unwrap_or(head.len())]
                .split_whitespace()
                .collect();
            head.iter().position(|&t| t == "in").is_some_and(|p| {
                let bound = head[p + 1..].concat();
                bound.starts_with("0..")
                    && (bound.contains("ppb") || bound.contains("pages_per_block"))
            })
        })
        .collect()
}

/// The identifier `TimeSsd`, unless it is a default type parameter
/// (`<D = TimeSsd` or `, D = TimeSsd`, the path optional).
fn names_time_ssd(src: &str) -> Vec<usize> {
    offsets(src, &["TimeSsd"])
        .filter(|&i| {
            let end = i + "TimeSsd".len();
            let whole = !src[..i].bytes().last().is_some_and(is_ident)
                && !src[end..].bytes().next().is_some_and(is_ident);
            let before = src[..i].trim_end();
            let before = before.strip_suffix("almanac_core::").unwrap_or(before);
            let default = before.trim_end().strip_suffix('=').is_some_and(|b| {
                let b = b.trim_end();
                let param = b.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
                param.len() < b.len() && param.trim_end().ends_with(['<', ','])
            });
            whole && !default
        })
        .collect()
}

/// A read of a `.back_ptr` field.
fn back_ptr_read(src: &str) -> Vec<usize> {
    offsets(src, &[".back_ptr"])
        .filter(|&i| {
            !src[i + ".back_ptr".len()..]
                .bytes()
                .next()
                .is_some_and(is_ident)
        })
        .collect()
}

/// `.written` assigned by `=`, `+=` or `-=`.
fn written_move(src: &str) -> Vec<usize> {
    offsets(src, &[".written"])
        .filter(|&i| {
            let rest = src[i + ".written".len()..].trim_start_matches([' ', '\t']);
            let rest = rest.strip_prefix(['+', '-']).unwrap_or(rest);
            rest.starts_with('=') && !rest.starts_with("==") && !rest.starts_with("=>")
        })
        .collect()
}

/// `src` with every comment, string literal and char literal replaced by
/// spaces. Newlines stay, so line numbers do; lifetimes stay too.
fn blank(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let ident = |i: usize| at(i).is_alphanumeric() || at(i) == '_';
    // Blanks `c[from..to]`, keeping newlines, and returns where to go on.
    let skip = |out: &mut String, from: usize, to: usize| {
        let to = to.min(c.len());
        out.extend(
            c[from..to]
                .iter()
                .map(|&ch| if ch == '\n' { ch } else { ' ' }),
        );
        to
    };
    let token_start = |i: usize| i == 0 || !ident(i - 1);
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < c.len() {
        let hashes = (i + 1..c.len()).take_while(|&j| c[j] == '#').count();
        // `r` opens a raw string only as a token of its own or after `b`.
        let raw = token_start(i) || at(i - 1) == 'b' && token_start(i - 1);
        i = match (c[i], at(i + 1)) {
            ('/', '/') => {
                let end = (i..c.len()).find(|&j| c[j] == '\n').unwrap_or(c.len());
                skip(&mut out, i, end)
            }
            ('/', '*') => {
                let (mut j, mut depth) = (i + 2, 1);
                while j < c.len() && depth > 0 {
                    match (c[j], at(j + 1)) {
                        ('/', '*') => (depth, j) = (depth + 1, j + 2),
                        ('*', '/') => (depth, j) = (depth - 1, j + 2),
                        _ => j += 1,
                    }
                }
                skip(&mut out, i, j)
            }
            ('"', _) => {
                let mut j = i + 1;
                while j < c.len() && c[j] != '"' {
                    j += if c[j] == '\\' { 2 } else { 1 };
                }
                skip(&mut out, i, j + 1)
            }
            ('r', _) if raw && at(i + 1 + hashes) == '"' => {
                let body = i + 2 + hashes;
                let end = (body..c.len())
                    .find(|&j| c[j] == '"' && (1..=hashes).all(|k| at(j + k) == '#'))
                    .map_or(c.len(), |j| j + 1 + hashes);
                skip(&mut out, i, end)
            }
            ('\'', '\\') => {
                let end = (i + 3..c.len()).find(|&j| c[j] == '\'').unwrap_or(c.len());
                skip(&mut out, i, end + 1)
            }
            ('\'', _) if at(i + 2) == '\'' => skip(&mut out, i, i + 3),
            (ch, _) => {
                out.push(ch);
                i + 1
            }
        };
    }
    out
}

/// Cuts blanked source at the `#[cfg(test)]` that opens an inline
/// `mod … {`. A `#[cfg(test)] mod tests;` or a single test-only item does
/// not end the scan.
fn strip_test_module(src: &str) -> &str {
    for (i, _) in src.match_indices("#[cfg(test)]") {
        let mut rest = src[i + "#[cfg(test)]".len()..].trim_start();
        while rest.starts_with("#[") {
            rest = rest[rest.find(']').map_or(rest.len(), |k| k + 1)..].trim_start();
        }
        let Some(rest) = rest.strip_prefix("mod ") else {
            continue;
        };
        let rest = rest
            .trim_start()
            .trim_start_matches(|ch: char| is_ident(ch as u8));
        if rest.trim_start().starts_with('{') {
            return &src[..i];
        }
    }
    src
}

/// `(start, end, name)` of every `fn` item with a body, from its `fn`
/// keyword to its closing brace.
fn fn_spans(src: &str) -> Vec<(usize, usize, &str)> {
    let b = src.as_bytes();
    let (mut depth, mut nest) = (0usize, 0usize);
    // A `fn name` whose body has not opened yet, and the `(`/`[` nesting
    // it was declared at: a `;` there means it has no body.
    let mut pending: Option<(usize, &str, usize)> = None;
    let mut open: Vec<(usize, &str, usize)> = Vec::new();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident(b[i]) && (i == 0 || !is_ident(b[i - 1])) {
            let end = (i..b.len()).find(|&j| !is_ident(b[j])).unwrap_or(b.len());
            if &src[i..end] == "fn" {
                let rest = src[end..].trim_start();
                let name = &rest[..rest.bytes().take_while(|&ch| is_ident(ch)).count()];
                if !name.is_empty() {
                    pending = Some((i, name, nest));
                }
            }
            i = end;
            continue;
        }
        match b[i] {
            b'(' | b'[' => nest += 1,
            b')' | b']' => nest = nest.saturating_sub(1),
            b';' if pending.is_some_and(|p| p.2 == nest) => pending = None,
            b'{' => {
                depth += 1;
                if let Some((start, name, _)) = pending.take() {
                    open.push((start, name, depth));
                }
            }
            b'}' => {
                if open.last().is_some_and(|f| f.2 == depth) {
                    let (start, name, _) = open.pop().expect("checked non-empty");
                    spans.push((start, i + 1, name));
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// One forbidden match: its line, the innermost enclosing fn (or `-`), and
/// whether the rule allows it there.
struct Hit {
    line: usize,
    owner: String,
    allowed: bool,
}

/// Every match of `rule` in the non-test part of `src`, the file at `path`.
fn check(rule: &Rule, path: &str, src: &str) -> Vec<Hit> {
    let blanked = blank(src);
    let code = strip_test_module(&blanked);
    let spans = fn_spans(code);
    (rule.find)(code)
        .into_iter()
        .map(|at| {
            let owner = spans
                .iter()
                .filter(|(start, end, _)| (*start..*end).contains(&at))
                .max_by_key(|(start, _, _)| *start)
                .map_or("-", |(_, _, name)| name);
            Hit {
                line: code[..at].matches('\n').count() + 1,
                allowed: rule.allowed.contains(&(path, owner)),
                owner: owner.to_string(),
            }
        })
        .collect()
}

/// Every `.rs` file under `entry` (or `entry` itself), without out-of-line
/// `tests.rs` modules.
fn rust_files(root: &Path, entry: &str, out: &mut Vec<String>) {
    match fs::read_dir(root.join(entry)) {
        Ok(dir) => {
            for e in dir {
                let name = e.expect("readable directory entry").file_name();
                rust_files(root, &format!("{entry}/{}", name.to_string_lossy()), out);
            }
        }
        Err(_) if root.join(entry).is_file() => {
            if entry.ends_with(".rs") && !entry.ends_with("/tests.rs") {
                out.push(entry.to_string());
            }
        }
        Err(_) => {}
    }
}

/// Everything wrong with `rule` over the tree at `root`: its violations and
/// the ways its row went stale.
fn audit(rule: &Rule, root: &Path, design: &str) -> Vec<String> {
    let name = rule.name;
    let mut problems = Vec::new();
    let heading = format!(" {}. ", rule.design);
    if !design
        .lines()
        .any(|l| l.starts_with('#') && l.contains(&heading))
    {
        problems.push(format!("{name}: DESIGN.md has no section {}", rule.design));
    }
    let mut hit_sites = Vec::new();
    for entry in rule.files {
        let mut files = Vec::new();
        rust_files(root, entry, &mut files);
        if files.is_empty() {
            problems.push(format!("{name}: `{entry}` names no file"));
        }
        for file in files {
            let src = fs::read_to_string(root.join(&file)).expect("readable source file");
            let lines: Vec<&str> = src.lines().collect();
            for hit in check(rule, &file, &src) {
                if hit.allowed {
                    hit_sites.push((file.clone(), hit.owner));
                } else {
                    let code = lines[hit.line - 1].trim();
                    problems.push(format!(
                        "{name}: {file}:{}: in `{}`: {code} (see DESIGN.md §{})",
                        hit.line, hit.owner, rule.design
                    ));
                }
            }
        }
    }
    for &(file, owner) in rule.allowed {
        if !hit_sites.iter().any(|(f, o)| f == file && o == owner) {
            problems.push(format!(
                "{name}: allowed site {file}:{owner} matches nothing"
            ));
        }
    }
    problems
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md")
}

fn rule(name: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.name == name)
        .expect("a rule of that name")
}

#[test]
fn the_tree_keeps_every_source_rule() {
    let design = design();
    let problems: Vec<String> = RULES
        .iter()
        .flat_map(|r| audit(r, root(), &design))
        .collect();
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// `SsdConfig::amt_cache_pages` is inert — its type admits only `None` —
/// and stays only because the frozen benchmark's device builder asserts it.
#[test]
fn the_inert_cache_field_still_has_its_reader() {
    let path = "benchmark/src/device.rs";
    let src = fs::read_to_string(root().join(path)).expect("readable source file");
    assert!(
        blank(&src).contains("amt_cache_pages"),
        "{path} no longer names `amt_cache_pages`: delete the inert field from `SsdConfig`"
    );
}

/// The lines of `src`, the file at `path`, that break rule `name`.
fn violations(name: &str, path: &str, src: &str) -> Vec<usize> {
    let hits = check(rule(name), path, src);
    hits.into_iter()
        .filter(|h| !h.allowed)
        .map(|h| h.line)
        .collect()
}

/// `(rule, file, source)`: each must fail its rule.
#[rustfmt::skip]
const PLANTED: &[(&str, &str, &str)] = &[
    // A sweep that counts the BST on every host op; the same sweep as
    // rustfmt splits it after the receiver; and one after an out-of-line
    // test module, which does not end the scan.
    ("no_host_path_sweep", MOD, "fn maintain(&self) { self.bst.iter().count(); }"),
    ("no_host_path_sweep", MOD, "fn maintain(&self) {\n    self.bst\n        .iter()\n}"),
    ("no_host_path_sweep", MOD, "#[cfg(test)]\nmod tests;\nfn maintain(&self) { self.bst.iter(); }"),
    // A per-page probe of a block, also where a sweep is allowed.
    ("no_page_probe", MOD, "fn maintain(ppb: u32) { for off in 0..ppb {} }"),
    ("no_page_probe", MOD, "fn space_utilization(ppb: u32) { for off in 0..ppb {} }"),
    // A second cursor rewound by an erase, the cursor itself, and a rewind
    // where `written` may move.
    ("one_write_pointer", FTL, "fn erase_block(&mut self) { self.bst.update(b, |info| info.written = 0); }"),
    ("no_second_cursor", "crates/core/src/alloc.rs", "struct OpenBlock { next_off: u32 }"),
    ("no_second_cursor", FTL, "fn program(&mut self) { self.alloc.unreserve(ppa); }"),
    ("no_raw_lpa_sum", "crates/kits/src/kits.rs", "fn at(a: u64, i: u64) -> Lpa { Lpa(a + i) }"),
    ("one_walk_per_lpa", "crates/fs/src/forensic.rs", "fn walk(s: &TimeSsd) { s.version_chain(Lpa(0)); }"),
    ("width_is_a_query_schedule", "crates/nvme/src/controller.rs", "fn width(s: &TimeSsd) -> u32 { s.amt_shards() }"),
    // The controller's and the oracle's calls into the host library, as
    // they were before the engine moved into core.
    ("device_side_needs_no_host_library", "crates/nvme/src/controller.rs", "use almanac_kits::{roll_back, roll_back_all, time_scan, AddrQuery};"),
    ("device_side_needs_no_host_library", "crates/oracle/src/harness.rs", "fn roll_back(&mut self) -> Result<()> { almanac_kits::roll_back(self, addr, cnt, t, now)?; Ok(()) }"),
    // The driver's in-flight record as it was: a map keyed by ticket.
    ("no_hashed_command_path", "crates/nvme/src/driver.rs", "struct HostDriver { inflight: std::collections::HashMap<Ticket, NvmeOpcode> }"),
    // The device the controller and driver owned before they were generic,
    // a device accessor naming it, and its import; a device built, aliased
    // or compared where an `=` is not a default type parameter's.
    ("one_host_path", "crates/nvme/src/controller.rs", "pub struct NvmeController { ssd: TimeSsd }"),
    ("one_host_path", "crates/nvme/src/controller.rs", "impl<D> NvmeController<D> { pub fn ssd(&self) -> &almanac_core::TimeSsd { todo!() } }"),
    ("one_host_path", "crates/nvme/src/driver.rs", "use almanac_core::{SsdDevice, TimeSsd};"),
    ("one_host_path", "crates/nvme/src/driver.rs", "fn f() { let s = TimeSsd::new(cfg); }"),
    ("one_host_path", "crates/nvme/src/driver.rs", "type Dev = almanac_core::TimeSsd;"),
    ("one_host_path", "crates/nvme/src/driver.rs", "fn f(x: u8) -> bool { x == TimeSsd }"),
    // A second chain walker in GC, following a page's back-pointer itself.
    ("one_chain_step", "crates/core/src/timessd/gc.rs", "fn older(&self, oob: Oob) -> Option<Ppa> { oob.back_ptr }"),
    // The OOB of a page the state byte calls written, as `read` took it; a
    // block looked up by id.
    ("no_panic_in_flash", "crates/flash/src/array.rs", "fn read(&self) { let oob = page.oob.expect(\"written page always has OOB\"); }"),
    ("no_panic_in_flash", "crates/flash/src/array.rs", "fn erase_count(&self, b: BlockId) -> u32 { self.blocks.get(b.0 as usize).unwrap().erase_count }"),
];

const MOD: &str = "crates/core/src/timessd/mod.rs";
const FTL: &str = "crates/core/src/ftl.rs";

#[test]
fn planted_violations_fail() {
    for &(name, path, src) in PLANTED {
        assert!(
            !violations(name, path, src).is_empty(),
            "{name} passed:\n{src}"
        );
    }
}

#[test]
fn comments_literals_and_inline_test_modules_pass() {
    let all = "bst.iter() blocks().iter() for p in 0..ppb {} info.written = 0 next_off unreserve \
               Lpa(a + 1) version_chain( version_content( amt_shards HashMap .expect( .unwrap( \
               TimeSsd oob.back_ptr almanac_kits";
    let in_comments_and_literals = format!(
        "fn maintain() {{\n    // {all}\n    /* {all} /* nested */ {all} */\n    \
         let _ = (\"{all}\", r#\"{all}\"#, b\"\\\"{all}\");\n}}\n"
    );
    let in_test_module = format!(
        "#[cfg(test)]\n#[allow(unused)]\nmod tests {{\n    fn maintain() {{ {all} }}\n}}\n"
    );
    for rule in RULES {
        for src in [&in_comments_and_literals, &in_test_module] {
            let found = violations(rule.name, MOD, src);
            assert!(found.is_empty(), "{}: lines {found:?} of\n{src}", rule.name);
        }
    }
    // A comparison is not a move, and braces or quotes in literals do not
    // move a match out of the fn that holds it.
    let src = "fn erase_block(info: &BlockInfo) -> bool {\n    info.written == 0\n}\n\
               fn program<'a>(info: &'a mut BlockInfo) {\n    \
               let _ = ('}', \"}\", '\\'');\n    info.written += 1;\n}\n";
    let found = violations("one_write_pointer", FTL, src);
    assert!(found.is_empty(), "lines {found:?}");
}

/// The crates a manifest's `[dependencies]` table names, in order, also as
/// `[dependencies.<name>]` tables.
fn dependencies(toml: &str) -> Vec<&str> {
    let (mut in_table, mut names) = (false, Vec::new());
    for line in toml.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            in_table = header == "dependencies]";
            if let Some(name) = header.strip_prefix("dependencies.") {
                names.push(name.trim_end_matches(']').trim());
            }
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            names.push(line.split(['.', '=']).next().unwrap_or_default().trim());
        }
    }
    names
}

/// The device side's manifests do not name the host library either, so
/// the crate graph has no edge from a device-side crate to it.
#[test]
fn device_side_manifests_name_no_host_library() {
    for dir in DEVICE_SIDE {
        let path = format!("{}Cargo.toml", dir.trim_end_matches("src"));
        let toml = fs::read_to_string(root().join(&path)).expect("readable manifest");
        let deps = dependencies(&toml);
        assert!(
            deps.contains(&"almanac-flash"),
            "{path}: read no [dependencies]"
        );
        assert!(
            !deps.contains(&"almanac-kits"),
            "{path} depends on almanac-kits (see DESIGN.md §6)"
        );
    }
    let planted = "[package]\nname = \"x\"\n\n[dependencies]\nalmanac-core.workspace = true\n\
                   # almanac-bloom\nalmanac-kits = { path = \"../kits\" }\n\n\
                   [dev-dependencies]\nalmanac-fs.workspace = true\n";
    assert_eq!(dependencies(planted), ["almanac-core", "almanac-kits"]);
    let table = "[dependencies.almanac-kits]\npath = \"../kits\"\n";
    assert_eq!(dependencies(table), ["almanac-kits"]);
}

/// The variants of `pub enum {name}` in `src`, in declaration order.
fn variants(src: &str, name: &str) -> Vec<String> {
    let code = blank(src);
    let head = format!("pub enum {name} {{");
    let Some(at) = code.find(&head) else {
        return Vec::new();
    };
    let (mut depth, mut names, mut expect) = (1, Vec::new(), true);
    let body = &code[at + head.len()..];
    let mut i = 0;
    while i < body.len() && depth > 0 {
        let b = body.as_bytes()[i];
        if depth == 1 && expect && is_ident(b) {
            let end = i + body[i..].bytes().take_while(|&ch| is_ident(ch)).count();
            names.push(body[i..end].to_string());
            (i, expect) = (end, false);
            continue;
        }
        match b {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => depth -= 1,
            b',' if depth == 1 => expect = true,
            _ => {}
        }
        i += 1;
    }
    names
}

/// The `Violation` variants of `src` that DESIGN.md does not name.
fn undocumented_violations(src: &str, design: &str) -> Vec<String> {
    let named = |v: &str| {
        design.match_indices(v).any(|(i, _)| {
            let (before, after) = (
                design[..i].bytes().last(),
                design[i + v.len()..].bytes().next(),
            );
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    };
    variants(src, "Violation")
        .into_iter()
        .filter(|v| !named(v))
        .collect()
}

const CHECK: &str = "crates/core/src/check.rs";

/// Every audit finding has its line in DESIGN.md's audit table (§5h).
#[test]
fn design_names_every_violation() {
    let src = fs::read_to_string(root().join(CHECK)).expect("readable source file");
    assert!(
        variants(&src, "Violation").len() > 1,
        "no `Violation` in {CHECK}"
    );
    let missing = undocumented_violations(&src, &design());
    assert!(missing.is_empty(), "DESIGN.md does not name {missing:?}");
}

#[test]
fn a_planted_undocumented_violation_fails() {
    let src = "/// One detected inconsistency.\n#[derive(Debug)]\npub enum Violation {\n    \
               /// Documented.\n    Drift { index: &'static str, kept: u64 },\n    \
               DoubleMapped(Ppa),\n    // NotAVariant,\n    PlantedMismatch(Lpa, Ppa),\n}\n";
    assert_eq!(
        variants(src, "Violation"),
        ["Drift", "DoubleMapped", "PlantedMismatch"]
    );
    // A longer word that contains the name does not name it.
    let design = "| `Drift` | `DoubleMapped` | `PlantedMismatches` |";
    assert_eq!(undocumented_violations(src, design), ["PlantedMismatch"]);
}

#[test]
fn a_stale_row_fails() {
    let design = design();
    // A row that is clean on the tree and allows nothing, so each change
    // below is its only problem.
    let base = *rule("one_walk_per_lpa");
    let stale_site = Rule {
        allowed: &[("crates/kits/src/kits.rs", "no_such_fn")],
        ..base
    };
    let no_files = Rule {
        files: &["crates/no_such_crate/src"],
        ..base
    };
    let no_section = Rule {
        design: "99z",
        ..base
    };
    for (what, row) in [
        ("stale site", stale_site),
        ("empty file set", no_files),
        ("missing section", no_section),
    ] {
        let problems = audit(&row, root(), &design);
        assert_eq!(problems.len(), 1, "{what}: {problems:?}");
    }
}
