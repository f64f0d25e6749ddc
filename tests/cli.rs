//! Integration tests for the `rankhow` CLI binary.

use std::io::Write;
use std::process::Command;

fn write_csv(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rankhow_cli_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 12-row dataset whose `score` column is a hidden linear function.
fn data_csv() -> String {
    let mut out = String::from("a,b,score\n");
    for i in 0..12 {
        let a = ((i * 7) % 12) as f64;
        let b = ((i * 5) % 12) as f64;
        let score = 0.7 * a + 0.3 * b;
        out.push_str(&format!("{a},{b},{score}\n"));
    }
    out
}

#[test]
fn solves_from_score_column() {
    let dir = temp_dir("score");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "6",
            "--budget",
            "10",
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("position error: 0"), "{stdout}");
    assert!(stdout.contains("exact verification: PASS"), "{stdout}");
}

#[test]
fn solves_from_ranking_file() {
    let dir = temp_dir("ranking");
    // Attributes only (score column dropped manually here).
    let mut data = String::from("a,b\n");
    let mut ranking = String::from("position\n");
    for i in 0..8 {
        let a = (8 - i) as f64;
        let b = i as f64;
        data.push_str(&format!("{a},{b}\n"));
        // Rank by `a` descending: tuple i has position i+1; bottom 3 ⊥.
        if i < 5 {
            ranking.push_str(&format!("{}\n", i + 1));
        } else {
            ranking.push_str("0\n");
        }
    }
    let data = write_csv(&dir, "data.csv", &data);
    let ranking = write_csv(&dir, "ranking.csv", &ranking);
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--ranking",
            ranking.to_str().unwrap(),
            "--budget",
            "10",
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("position error: 0"), "{stdout}");
}

#[test]
fn weight_constraints_respected() {
    let dir = temp_dir("constraints");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "4",
            "--min-weight",
            "b=0.4",
            "--budget",
            "10",
        ])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Extract the reported weight of `b` and check the bound.
    let b_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("b "))
        .expect("b row");
    let w: f64 = b_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(w >= 0.4 - 1e-6, "{stdout}");
}

#[test]
fn symgd_mode_runs() {
    let dir = temp_dir("symgd");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "6",
            "--symgd",
            "0.2",
            "--budget",
            "10",
        ])
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("position error:"), "{stdout}");
}

#[test]
fn batch_mode_solves_multiple_queries_on_one_scheduler() {
    let dir = temp_dir("batch");
    let data = write_csv(&dir, "data.csv", &data_csv());
    // Second query: same hidden function over a permuted row subset.
    let mut data2 = String::from("a,b,score\n");
    for i in 0..10 {
        let a = ((i * 3) % 10) as f64;
        let b = ((i * 7) % 10) as f64;
        let score = 0.6 * a + 0.4 * b;
        data2.push_str(&format!("{a},{b},{score}\n"));
    }
    let data2 = write_csv(&dir, "data2.csv", &data2);
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "# two concurrent queries, one pool\n\
             {} --score-col score --k 6 --budget 10\n\
             \n\
             {} --score-col score --k 5 --budget 10\n",
            data.to_str().unwrap(),
            data2.to_str().unwrap()
        ),
    );
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_rankhow"))
            .args(["--batch", batch.to_str().unwrap(), "--threads", "1"])
            .output()
            .expect("run cli")
    };
    let out = run();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("=== query 1/2:"), "{stdout}");
    assert!(stdout.contains("=== query 2/2:"), "{stdout}");
    assert_eq!(
        stdout.matches("position error: 0 (proved optimal)").count(),
        2,
        "{stdout}"
    );
    assert_eq!(stdout.matches("status: optimal").count(), 2, "{stdout}");
    assert_eq!(
        stdout.matches("exact verification: PASS").count(),
        2,
        "{stdout}"
    );
    // threads=1 batch output is deterministic: a re-run is bit-identical.
    let again = run();
    assert!(again.status.success());
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&again.stdout),
        "threads=1 batch output must be deterministic"
    );
}

#[test]
fn batch_mode_runs_symgd_chains_on_the_pool() {
    let dir = temp_dir("batch_symgd");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{d} --score-col score --k 6 --budget 10\n\
             {d} --score-col score --k 6 --symgd 0.2 --budget 10\n",
            d = data.to_str().unwrap()
        ),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args(["--batch", batch.to_str().unwrap(), "--threads", "1"])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("status: optimal"), "{stdout}");
    assert!(stdout.contains("status: symgd ("), "{stdout}");
}

#[test]
fn batch_mode_routes_over_multiple_pools_deterministically() {
    let dir = temp_dir("batch_pools");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let mut data2 = String::from("a,b,score\n");
    for i in 0..10 {
        let a = ((i * 3) % 10) as f64;
        let b = ((i * 7) % 10) as f64;
        let score = 0.6 * a + 0.4 * b;
        data2.push_str(&format!("{a},{b},{score}\n"));
    }
    let data2 = write_csv(&dir, "data2.csv", &data2);
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{} --score-col score --k 6 --budget 10\n\
             {} --score-col score --k 5 --budget 10\n",
            data.to_str().unwrap(),
            data2.to_str().unwrap()
        ),
    );
    // Two pools, one worker each: routed solves must be bit-identical
    // to the single-pool run, and re-runs bit-identical to each other.
    let run = |pools: &str| {
        Command::new(env!("CARGO_BIN_EXE_rankhow"))
            .args([
                "--batch",
                batch.to_str().unwrap(),
                "--threads",
                "1",
                "--pools",
                pools,
            ])
            .output()
            .expect("run cli")
    };
    let sharded = run("2");
    assert!(
        sharded.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    let stdout = String::from_utf8_lossy(&sharded.stdout).to_string();
    assert_eq!(stdout.matches("status: optimal").count(), 2, "{stdout}");
    assert!(
        String::from_utf8_lossy(&sharded.stderr).contains("2 pool(s)"),
        "stderr: {}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    let again = run("2");
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&again.stdout),
        "threads=1 output must be deterministic for any pool count"
    );
    let single = run("1");
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&single.stdout),
        "routing must not change results"
    );
}

#[test]
fn batch_mode_reports_the_malformed_line_number() {
    let dir = temp_dir("batch_lineno");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "# comment line\n\
             {d} --score-col score --k 6\n\
             {d} --score-col score --bogus-flag\n",
            d = data.to_str().unwrap()
        ),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args(["--batch", batch.to_str().unwrap()])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // 1-based: the bad flag sits on line 3 (after the comment line).
    assert!(stderr.contains("queries.txt:3:"), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag"), "stderr: {stderr}");
}

#[test]
fn batch_mode_rejects_malformed_lines_with_usage_exit() {
    let dir = temp_dir("batch_bad");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{} --score-col score --bogus-flag\n",
            data.to_str().unwrap()
        ),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args(["--batch", batch.to_str().unwrap()])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn malformed_flags_exit_with_usage_code() {
    let dir = temp_dir("badflag");
    let data = write_csv(&dir, "data.csv", &data_csv());
    // Unknown flag.
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([data.to_str().unwrap(), "--score-col", "score", "--bogus"])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    // Non-numeric value for a numeric flag.
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "many",
        ])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));
    // Flag at the end with its value missing.
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([data.to_str().unwrap(), "--score-col"])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn router_flags_require_batch_mode() {
    // --pools / --queue-cap / --no-cache / --cache-cap / --retries /
    // --retry-backoff-ms shape the --batch serving topology; on a
    // single query they must be refused, not silently ignored.
    let dir = temp_dir("router_flags");
    let data = write_csv(&dir, "data.csv", &data_csv());
    for flag in [
        &["--pools", "2"][..],
        &["--queue-cap", "4"],
        &["--no-cache"],
        &["--cache-cap", "8"],
        &["--retries", "2"],
        &["--retry-backoff-ms", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
            .args([data.to_str().unwrap(), "--score-col", "score"])
            .args(flag)
            .output()
            .expect("run cli");
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("only applies to --batch"),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn batch_retry_flags_are_inert_on_healthy_runs() {
    // --retries / --retry-backoff-ms arm the router's re-admission
    // policy; with nothing failing they must not change results, and
    // the --stats fault counters must stay silent.
    let dir = temp_dir("batch_retry");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{} --score-col score --k 6 --budget 10\n",
            data.to_str().unwrap()
        ),
    );
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rankhow"))
            .args(["--batch", batch.to_str().unwrap(), "--threads", "1"])
            .args(extra)
            .output()
            .expect("run cli")
    };
    let plain = run(&["--stats"]);
    let retried = run(&["--retries", "3", "--retry-backoff-ms", "5", "--stats"]);
    for out in [&plain, &retried] {
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("faults:"),
            "healthy runs must not print fault counters: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&retried.stdout),
        "retry policy must not change healthy results"
    );
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Missing file.
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args(["/nonexistent.csv", "--score-col", "x"])
        .output()
        .expect("run cli");
    assert!(!out.status.success());

    // Unknown column.
    let dir = temp_dir("bad");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([data.to_str().unwrap(), "--score-col", "nope"])
        .output()
        .expect("run cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no column"));
}

#[test]
fn measure_flag_optimizes_the_requested_objective() {
    let dir = temp_dir("measure");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "6",
            "--budget",
            "10",
            "--measure",
            "kendall",
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The hidden function is linear, so the tau optimum is 0, and the
    // CLI reports the objective under its proper name plus the plain
    // position error for comparability.
    assert!(stdout.contains("kendall-tau error: 0"), "{stdout}");
    assert!(stdout.contains("position error:"), "{stdout}");
    assert!(stdout.contains("exact verification: PASS"), "{stdout}");
}

#[test]
fn stats_flag_prints_lp_telemetry() {
    let dir = temp_dir("stats");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "6",
            "--budget",
            "10",
            "--stats",
        ])
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The telemetry line carries the LP warm-starting counters.
    assert!(stderr.contains("stats:"), "{stderr}");
    assert!(stderr.contains("warm /"), "{stderr}");
    assert!(stderr.contains("pivots"), "{stderr}");

    // Without the flag, no telemetry is printed.
    let quiet = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "6",
            "--budget",
            "10",
        ])
        .output()
        .expect("run cli");
    assert!(quiet.status.success());
    let stderr = String::from_utf8_lossy(&quiet.stderr);
    assert!(!stderr.contains("stats:"), "{stderr}");
}

#[test]
fn stats_flag_prints_batch_aggregate() {
    let dir = temp_dir("stats_batch");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let queries = format!(
        "{d} --score-col score --k 6 --budget 10\n{d} --score-col score --k 4 --budget 10\n",
        d = data.to_str().unwrap()
    );
    let batch = write_csv(&dir, "queries.txt", &queries);
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            "--batch",
            batch.to_str().unwrap(),
            "--threads",
            "1",
            "--stats",
        ])
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("router:"), "{stderr}");
    assert!(stderr.contains("stats:"), "{stderr}");
    assert!(stderr.contains("2 job(s)"), "{stderr}");
}

#[test]
fn batch_duplicate_queries_are_cache_invariant() {
    // A batch with repeated identical lines must print byte-identical
    // stdout at --threads 1 whether the cross-query cache serves the
    // repeats or every line solves cold (--no-cache): an exact hit
    // returns the stored solution bit for bit, so caching can never
    // change what the user sees — only how fast it arrives.
    let dir = temp_dir("batch_cache_dup");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let mut data2 = String::from("a,b,score\n");
    for i in 0..10 {
        let a = ((i * 3) % 10) as f64;
        let b = ((i * 7) % 10) as f64;
        let score = 0.6 * a + 0.4 * b;
        data2.push_str(&format!("{a},{b},{score}\n"));
    }
    let data2 = write_csv(&dir, "data2.csv", &data2);
    // Three copies of one query interleaved with a distinct one.
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{d} --score-col score --k 6 --budget 10\n\
             {d} --score-col score --k 6 --budget 10\n\
             {e} --score-col score --k 5 --budget 10\n\
             {d} --score-col score --k 6 --budget 10\n",
            d = data.to_str().unwrap(),
            e = data2.to_str().unwrap()
        ),
    );
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rankhow"))
            .args(["--batch", batch.to_str().unwrap(), "--threads", "1"])
            .args(extra)
            .output()
            .expect("run cli")
    };
    let cached = run(&["--stats"]);
    assert!(
        cached.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cached.stderr)
    );
    let cached_stdout = String::from_utf8_lossy(&cached.stdout).to_string();
    assert_eq!(
        cached_stdout.matches("status: optimal").count(),
        4,
        "{cached_stdout}"
    );
    let cold = run(&["--no-cache", "--stats"]);
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(
        cached_stdout,
        String::from_utf8_lossy(&cold.stdout),
        "cache on/off must not change batch output"
    );
    // The cold run's telemetry must not claim any cache traffic.
    let cold_stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(!cold_stderr.contains("cache:"), "{cold_stderr}");
    // Cache-on re-run: still byte-identical (hit timing may vary — the
    // whole batch is spawned before the first completion at tight
    // interleavings — but output never does).
    let again = run(&["--stats"]);
    assert_eq!(cached_stdout, String::from_utf8_lossy(&again.stdout));
}

/// Pull `"key":<integer>` out of a JSON payload without a parser (the
/// build is serde-free; `rankhow::obs::json::validate` checks
/// well-formedness, this digs out the few counters the tests compare).
fn json_u64(payload: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = payload
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {payload}"));
    payload[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer value")
}

#[test]
fn observability_outputs_are_valid_and_reconcile() {
    let dir = temp_dir("obs_single");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let stats_json = dir.join("stats.json");
    let metrics = dir.join("metrics.json");
    let traces = dir.join("traces");
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            data.to_str().unwrap(),
            "--score-col",
            "score",
            "--k",
            "6",
            "--stats",
            "--stats-json",
            stats_json.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            traces.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stats:"), "{stderr}");

    let stats_payload = std::fs::read_to_string(&stats_json).expect("stats json written");
    assert!(
        rankhow::obs::json::validate(&stats_payload),
        "{stats_payload}"
    );
    let metrics_payload = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        rankhow::obs::json::validate(&metrics_payload),
        "{metrics_payload}"
    );
    let trace_payload =
        std::fs::read_to_string(traces.join("query-0001.json")).expect("trace written");
    assert!(
        rankhow::obs::json::validate(&trace_payload),
        "{trace_payload}"
    );

    // The histogram summary rides --stats.
    assert!(stderr.contains("lp solve"), "{stderr}");
    // The reconciliation invariant, end to end through the CLI: the
    // LP-time histogram saw exactly SolverStats::lp_solves entries.
    let lp_solves = json_u64(&stats_payload, "lp_solves");
    assert!(lp_solves > 0);
    let lp_hist = metrics_payload
        .split("\"lp_solve\":")
        .nth(1)
        .expect("lp_solve histogram in metrics");
    assert_eq!(json_u64(lp_hist, "count"), lp_solves);
    // One completed query, one latency entry.
    let latency = metrics_payload
        .split("\"latency\":")
        .nth(1)
        .expect("latency histogram in metrics");
    assert_eq!(json_u64(latency, "count"), 1);
    assert!(
        trace_payload.contains("\"event\":\"admitted\""),
        "{trace_payload}"
    );
    assert!(
        trace_payload.contains("\"event\":\"completed\""),
        "{trace_payload}"
    );
}

#[test]
fn batch_observability_outputs_cover_every_query() {
    let dir = temp_dir("obs_batch");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{0} --score-col score --k 6 --budget 10\n\
             {0} --score-col score --k 5 --budget 10\n",
            data.to_str().unwrap()
        ),
    );
    let stats_json = dir.join("stats.json");
    let metrics = dir.join("metrics.json");
    let traces = dir.join("traces");
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args([
            "--batch",
            batch.to_str().unwrap(),
            "--threads",
            "1",
            "--stats-json",
            stats_json.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            traces.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats_payload = std::fs::read_to_string(&stats_json).expect("stats json written");
    assert!(
        rankhow::obs::json::validate(&stats_payload),
        "{stats_payload}"
    );
    assert!(stats_payload.contains("\"router\":"), "{stats_payload}");
    assert!(stats_payload.contains("\"cache\":"), "{stats_payload}");
    let metrics_payload = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        rankhow::obs::json::validate(&metrics_payload),
        "{metrics_payload}"
    );
    // One trace file per direct query, each well-formed.
    for name in ["query-0001.json", "query-0002.json"] {
        let payload = std::fs::read_to_string(traces.join(name)).expect(name);
        assert!(rankhow::obs::json::validate(&payload), "{payload}");
    }
    let latency = metrics_payload
        .split("\"latency\":")
        .nth(1)
        .expect("latency histogram in metrics");
    assert_eq!(
        json_u64(latency, "count"),
        2,
        "one latency entry per completed query"
    );
}

#[test]
fn observability_flags_are_process_level_not_batch_line_level() {
    let dir = temp_dir("obs_flags");
    let data = write_csv(&dir, "data.csv", &data_csv());
    let batch = write_csv(
        &dir,
        "queries.txt",
        &format!(
            "{} --score-col score --k 6 --metrics-out nope.json\n",
            data.to_str().unwrap()
        ),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rankhow"))
        .args(["--batch", batch.to_str().unwrap()])
        .output()
        .expect("run cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed batch line is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--metrics-out cannot appear inside a batch file"),
        "{stderr}"
    );
}
