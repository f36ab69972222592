//! Cross-process determinism for experiment output.
//!
//! The byte-identical-replay guarantee (slice-check, DESIGN.md §9) only
//! holds if nothing in the simulation keys behavior on per-process state.
//! Before the fixed-seed hasher, `std::collections::HashMap`'s random
//! seed made iteration order — and through it the attr-cache write-back
//! sweep, retransmission scans, and storage-map walks — differ between
//! two runs of the *same binary*. This test spawns `fig3` twice as real
//! separate processes and requires every stdout byte, including the
//! trailing obs JSON snapshot, to match exactly.

use std::process::Command;

fn run_fig3(extra: &[&str]) -> String {
    let mut args = vec!["--files", "100"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(&args)
        .output()
        .expect("spawn fig3");
    assert!(
        out.status.success(),
        "fig3 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("fig3 stdout is UTF-8")
}

#[test]
fn fig3_is_byte_identical_across_processes() {
    let a = run_fig3(&[]);
    let b = run_fig3(&[]);
    assert!(
        a == b,
        "fig3 stdout differs between two separate processes:\n--- run 1\n{a}\n--- run 2\n{b}"
    );
    // The last line is the machine-readable obs JSON; assert it is present
    // (so a future format change can't silently gut this test) and equal.
    let ja = a.lines().rev().find(|l| l.starts_with('{'));
    let jb = b.lines().rev().find(|l| l.starts_with('{'));
    assert!(ja.is_some(), "fig3 stdout lost its obs JSON line");
    assert_eq!(ja, jb, "obs JSON differs across processes");
}

/// The sharded engine's determinism contract at figure scale: the whole
/// fig3 grid — every cell an N-MFS or Slice ensemble partitioned across
/// S time-synchronized shards — must print byte-identical output at any
/// shard count, because every counter and latency is merged in the same
/// deterministic (time, src, seq) order regardless of which thread ran
/// which node.
#[test]
fn fig3_is_byte_identical_across_shard_counts() {
    let serial = run_fig3(&["--shards", "1"]);
    for shards in ["2", "4"] {
        let sharded = run_fig3(&["--shards", shards]);
        assert!(
            serial == sharded,
            "fig3 stdout differs between --shards 1 and --shards {shards}:\n--- shards 1\n{serial}\n--- shards {shards}\n{sharded}"
        );
    }
}

fn run_reconfigure(extra: &[&str]) -> String {
    let mut args = vec!["--mb", "4", "--reads", "1"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_reconfigure"))
        .args(&args)
        .output()
        .expect("spawn reconfigure");
    assert!(
        out.status.success(),
        "reconfigure failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("reconfigure stdout is UTF-8")
}

/// The reconfiguration bench — hot-set detection, widening, join
/// rebalance, drain — must be byte-identical across thread counts (the
/// parallel tasks are independent ensembles merged by input index) and
/// across two separate processes of the same arguments.
#[test]
fn reconfigure_is_byte_identical_across_thread_counts() {
    let one = run_reconfigure(&["--threads", "1"]);
    let four = run_reconfigure(&["--threads", "4"]);
    assert!(
        one == four,
        "reconfigure stdout differs between --threads 1 and --threads 4:\n--- threads 1\n{one}\n--- threads 4\n{four}"
    );
    let again = run_reconfigure(&["--threads", "1"]);
    assert_eq!(one, again, "reconfigure differs across processes");
    assert!(
        one.lines().rev().any(|l| l.starts_with('{')),
        "reconfigure stdout lost its obs JSON line"
    );
}

/// Same contract across engine shard counts: every ensemble in the bench
/// partitioned across 2 time-synchronized shards must reproduce the
/// serial timeline exactly — reconfiguration actions (join, drain,
/// widen) are injected shard-aware.
#[test]
fn reconfigure_is_byte_identical_across_shard_counts() {
    let serial = run_reconfigure(&["--shards", "1"]);
    let sharded = run_reconfigure(&["--shards", "2"]);
    assert!(
        serial == sharded,
        "reconfigure stdout differs between --shards 1 and --shards 2:\n--- shards 1\n{serial}\n--- shards 2\n{sharded}"
    );
}

/// Same contract for the consistency checker under the chaos pool: the
/// deterministic sweep report (crash, loss, duplication, reordering
/// injections included) is identical whether each run's engine is serial
/// or sharded.
#[test]
fn chaos_checker_report_is_shard_count_invariant() {
    let run = |shards: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_checker"))
            .args([
                "--seeds",
                "2",
                "--schedules",
                "3",
                "--chaos",
                "--threads",
                "2",
                "--shards",
                shards,
            ])
            .output()
            .expect("spawn checker");
        assert!(
            out.status.success(),
            "checker --shards {shards} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("checker stdout is UTF-8");
        // Compare the deterministic JSON report line, not the banner
        // (which names the shard count).
        stdout
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .expect("checker stdout lost its report JSON line")
            .to_string()
    };
    let serial = run("1");
    let sharded = run("4");
    assert_eq!(
        serial, sharded,
        "chaos sweep report differs between --shards 1 and --shards 4"
    );
}
