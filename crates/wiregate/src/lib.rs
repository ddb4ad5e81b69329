//! Shared measurement harness for the DFI performance gates
//! (`dfi-wiregate`, `dfi-decidegate`, `dfi-scalegate`): a counting
//! `GlobalAlloc` over [`System`], a best-of-repetitions timing loop, and
//! the provenance every gate report records beside its config.
//!
//! Each gate binary installs the allocator itself:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: dfi_wiregate::CountingAlloc = dfi_wiregate::CountingAlloc;
//! ```
//!
//! This crate is deliberately NOT opted into the workspace lint set: the
//! counting allocator must implement `GlobalAlloc` (an `unsafe` trait),
//! and the workspace forbids `unsafe_code`. The unsafety is confined to
//! the forwarding methods here; every other library crate stays under the
//! workspace `forbid`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Global allocation counter incremented by [`CountingAlloc`].
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Global allocated-bytes counter incremented by [`CountingAlloc`].
pub static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting every allocation and reallocation.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// One measured workload: mean wall time and allocation count per op.
#[derive(Clone, Copy)]
pub struct Measure {
    /// Nanoseconds per operation (best repetition).
    pub ns_per_op: f64,
    /// Allocations per operation (best repetition).
    pub allocs_per_op: f64,
}

/// Runs `f` for `iters` iterations, three repetitions after a warmup, and
/// keeps the best (least-noisy) repetition for both metrics.
pub fn measure<F: FnMut()>(iters: u64, mut f: F) -> Measure {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let mut best = Measure {
        ns_per_op: f64::INFINITY,
        allocs_per_op: f64::INFINITY,
    };
    for _ in 0..3 {
        let m = time_block(iters, &mut f);
        best.ns_per_op = best.ns_per_op.min(m.ns_per_op);
        best.allocs_per_op = best.allocs_per_op.min(m.allocs_per_op);
    }
    best
}

/// One timed block of `iters` calls of `f`, no warmup: wall time and
/// allocations per call.
pub fn time_block<F: FnMut()>(iters: u64, mut f: F) -> Measure {
    let a0 = ALLOCS.load(Relaxed);
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    Measure {
        ns_per_op: t0.elapsed().as_nanos() as f64 / iters as f64,
        allocs_per_op: (ALLOCS.load(Relaxed) - a0) as f64 / iters as f64,
    }
}

/// Renders a [`Measure`] as the gates' JSON object fragment.
pub fn fmt_measure(m: Measure) -> String {
    format!(
        "{{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.3}}}",
        m.ns_per_op, m.allocs_per_op
    )
}

/// Where a gate result came from, as the JSON members `"git_rev": …,
/// "hardware": {"nproc": …, "cpu_model": …}` (no enclosing braces) that
/// each gate prints next to its own `config`.
///
/// The revision is read from the `.git` directory of the working
/// directory or its nearest ancestor, without spawning git; it names the
/// checked-out commit (uncommitted edits do not show) and is `"unknown"`
/// outside a repository. `nproc` counts the cores this process may run on;
/// the CPU model is the first `model name` of `/proc/cpuinfo`.
#[must_use]
pub fn provenance_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rev = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.ancestors().find_map(|d| git_rev(&d.join(".git"))))
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"git_rev\": \"{}\", \"hardware\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\"}}",
        json_escape(&rev),
        json_escape(&cpu)
    )
}

/// The commit `HEAD` names in the git directory `git`: a detached hash, or
/// the hash of the branch it points at (loose ref or `packed-refs`).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars().filter(|c| !c.is_control()) {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out
}
