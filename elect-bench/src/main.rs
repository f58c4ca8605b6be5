//! Election-throughput benchmark for the ule workspace.
//!
//! ```text
//! elect-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's inputs from the seed (several times, to time
//! set-up), runs its reference elections outside the timed phase, then
//! elects in complete passes over the workload's cases until `--seconds`
//! have passed. Every outcome is checked. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates plain and traced
//! passes on the round engine and reports the per-layer metrics. The last
//! line of standard output is one JSON object; the lines before it say the
//! same in text, with provenance and per-family / per-algorithm detail.
//! See README.md for every metric's definition.

mod procfs;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use ule_core::Algorithm;
use ule_graph::gen::{fnv1a64, FNV_OFFSET_BASIS};
use ule_graph::NodeId;
use ule_sim::{Adversary, Parallelism, RunOutcome, SimConfig};

use procfs::ProcSample;
use trace::{Exec, StepCounters};
use workloads::{Case, Setup, Topo, Workload, DEFAULT_SEED, MAX_DELAY, SHARD_THREADS};

/// Set-up is repeated at least this many times per run, and until
/// [`SETUP_MIN_S`] have passed (at most [`SETUP_MAX_REPEATS`] times);
/// `setup_s` is the median repeat. Set-up is mostly first-touch page
/// faults on the flood workloads, whose cost follows the host's memory
/// traffic for seconds at a time, so the repeats span several seconds.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 1000;
const SETUP_MIN_S: f64 = 5.0;
/// Layer probes skip larger elections, which leaves out the flood
/// workloads' cycle: the async runtime crosses each of its n/2 rounds with
/// a cross-thread handshake, whose cost follows the host, not the code.
const PROBE_MAX_N: usize = 10_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 45.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "{e}\nusage: elect-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("# {}", procfs::provenance());
    let probe_before = procfs::host_probe_ns();
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (setup, setup_times) = set_up(args.workload, args.seed);
    let mut checker = Checker::new(&setup);
    run_references(args.workload, &setup, &mut checker);
    let budget = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        traced(&setup, &setup_times, &mut checker, budget)
    } else {
        untraced(
            args.workload,
            args.seed,
            &setup,
            &setup_times,
            &mut checker,
            budget,
        )
    };

    println!(
        "# host speed probe {probe_before:.3} ns/step before set-up, {:.3} at the end",
        procfs::host_probe_ns()
    );
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "# checked {} elections: {} failed (failed_frac {failed_frac})",
        checker.attempted, checker.failed
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", result_json(&checker, &metrics));
    ExitCode::SUCCESS
}

/// Builds the workload repeatedly; returns the last build and every
/// repeat's `[build, diameter, config]` seconds.
fn set_up(w: Workload, seed: u64) -> (Setup, Vec<[f64; 3]>) {
    let mut times = Vec::new();
    let mut setup = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && start.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        drop(setup.take()); // free the previous build before making the next
        let s = w.setup(seed);
        times.push([s.build_s, s.diameter_s, s.config_s]);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let sizes: Vec<String> = setup
        .topos
        .iter()
        .zip(&setup.diameters)
        .map(|(t, d)| {
            let kind = if matches!(t, Topo::Implicit(_)) {
                " implicit"
            } else {
                ""
            };
            format!("n={} D={d}{kind}", t.n())
        })
        .collect();
    println!(
        "# set-up x{}: {} graphs ({}), {} elections per pass",
        times.len(),
        setup.topos.len(),
        sizes.join(", "),
        setup.cases.len()
    );
    (setup, times)
}

/// One election's outcome (`None` if it panicked) and wall time.
struct Election {
    outcome: Option<RunOutcome>,
    wall_s: f64,
}

fn run(setup: &Setup, case: &Case, cfg: &SimConfig, exec: Exec, traced: bool) -> Election {
    let topo = &setup.topos[case.topo];
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        trace::elect(case.alg, exec, topo, cfg, traced)
    }))
    .ok();
    Election {
        outcome,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Counts elections and checks each outcome: no panic, exactly one leader
/// (where the algorithm guarantees one), the leader the algorithm pins,
/// and equality with the case's reference outcome.
struct Checker {
    refs: Vec<Option<RunOutcome>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(setup: &Setup) -> Checker {
        Checker {
            refs: setup.cases.iter().map(|_| None).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one election and checks its outcome; returns whether it passed.
    fn check(
        &mut self,
        case: &Case,
        out: Option<&RunOutcome>,
        reference: Option<&RunOutcome>,
    ) -> bool {
        self.attempted += 1;
        let verdict = verdict(case, out, reference);
        if let Err(why) = &verdict {
            self.failed += 1;
            eprintln!("FAILED {}: {why}", case.label);
        }
        verdict.is_ok()
    }

    /// Counts one election that must reproduce `reference` exactly.
    fn same(&mut self, case: &Case, out: Option<&RunOutcome>, reference: &RunOutcome) {
        self.attempted += 1;
        if out != Some(reference) {
            self.failed += 1;
            eprintln!(
                "FAILED {}: outcome differs from the reference run",
                case.label
            );
        }
    }

    /// Checks case `i`'s outcome against the case's reference; the first
    /// good outcome of a case without one becomes its reference.
    fn record(&mut self, i: usize, case: &Case, outcome: Option<RunOutcome>) {
        let reference = self.refs[i].take();
        let ok = self.check(case, outcome.as_ref(), reference.as_ref());
        self.refs[i] = reference.or(outcome.filter(|_| ok));
    }

    /// Records a failed check not tied to one election.
    fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {why}");
    }
}

fn verdict(
    case: &Case,
    out: Option<&RunOutcome>,
    reference: Option<&RunOutcome>,
) -> Result<(), String> {
    let out = out.ok_or("panicked")?;
    if case.must_elect() && out.leader().is_none() {
        return Err(format!("{} leaders", out.leader_count()));
    }
    if let Some(v) = case.expected_leader() {
        if out.leader() != Some(v) {
            return Err(format!("elected {:?}, expected node {v}", out.leader()));
        }
    }
    match reference {
        Some(r) if r != out => Err("outcome differs from the reference run".into()),
        _ => Ok(()),
    }
}

/// Runs each case's reference election, if the workload has them.
fn run_references(w: Workload, setup: &Setup, checker: &mut Checker) {
    for (i, case) in setup.cases.iter().enumerate() {
        if let Some((cfg, exec)) = w.reference(case) {
            let e = run(setup, case, &cfg, exec, false);
            checker.record(i, case, e.outcome);
        }
    }
}

/// The digest fields of one outcome.
#[derive(Clone, Copy)]
struct Summary {
    messages: u64,
    rounds: u64,
    bits: u64,
    leader: Option<NodeId>,
}

impl Summary {
    fn of(out: &RunOutcome) -> Summary {
        Summary {
            messages: out.messages,
            rounds: out.rounds,
            bits: out.bits,
            leader: out.leader(),
        }
    }
}

/// One checked election of a pass.
struct Record {
    wall_s: f64,
    summary: Option<Summary>,
    counters: StepCounters,
}

impl Record {
    fn messages(&self) -> u64 {
        self.summary.map_or(0, |s| s.messages)
    }
}

/// Elects every case once on `exec(case)`, checking each outcome.
fn pass(
    setup: &Setup,
    checker: &mut Checker,
    exec: fn(&Case) -> Exec,
    traced: bool,
) -> Vec<Record> {
    let mut records = Vec::with_capacity(setup.cases.len());
    for (i, case) in setup.cases.iter().enumerate() {
        trace::take_counters();
        let e = run(setup, case, &case.cfg, exec(case), traced);
        let counters = trace::take_counters();
        let summary = e.outcome.as_ref().map(Summary::of);
        checker.record(i, case, e.outcome);
        records.push(Record {
            wall_s: e.wall_s,
            summary,
            counters,
        });
    }
    records
}

/// FNV-1a over each election's label, messages, rounds, bits and leader.
fn outcome_digest(setup: &Setup, records: &[Record]) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    for (case, r) in setup.cases.iter().zip(records) {
        h = fnv1a64(h, case.label.as_bytes());
        let s = r.summary.map_or([u64::MAX; 4], |s| {
            [
                s.messages,
                s.rounds,
                s.bits,
                s.leader.map_or(u64::MAX, |v| v as u64),
            ]
        });
        for x in s {
            h = fnv1a64(h, &x.to_le_bytes());
        }
    }
    h
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The measured phase with tracing off: complete passes until the budget
/// is spent, then the end-to-end metrics.
fn untraced(
    w: Workload,
    seed: u64,
    setup: &Setup,
    setup_times: &[[f64; 3]],
    checker: &mut Checker,
    budget: Duration,
) -> Metrics {
    let reset = procfs::reset_peak_rss();
    let before = ProcSample::now();
    let start = Instant::now();
    let mut passes: Vec<Vec<Record>> = Vec::new();
    let mut pass_walls = Vec::new();
    // Complete passes until the budget is spent, stopping at the pass end
    // nearest to it, so a run lasts about `budget` whatever a pass costs.
    while passes.is_empty()
        || start.elapsed() + Duration::from_secs_f64(median(&pass_walls) / 2.0) < budget
    {
        let t = Instant::now();
        let batch = pass(setup, checker, |c| c.exec, false);
        pass_walls.push(t.elapsed().as_secs_f64());
        if passes.is_empty() {
            check_digest(w, seed, setup, &batch, checker);
        }
        passes.push(batch);
    }
    let phase_s = start.elapsed().as_secs_f64();
    let proc = ProcSample::now().since(&before);
    let peak = procfs::peak_rss_mb();

    // Every pass elects the same outcomes (each is checked against its
    // reference), so every repeat of an election does the same work: a
    // slower repeat only adds time taken by something else on the host.
    // An election's time is its fastest repeat, and the first pass's
    // messages stand for every pass's.
    let case_walls: Vec<Vec<f64>> = (0..setup.cases.len())
        .map(|i| passes.iter().map(|p| p[i].wall_s).collect())
        .collect();
    let case_s: Vec<f64> = case_walls.iter().map(|w| fastest(w)).collect();
    let pass_s: f64 = case_s.iter().sum();
    let msgs: u64 = passes[0].iter().map(Record::messages).sum();

    // Per cell (one algorithm on one graph, over seeds): the median of its
    // elections' fastest times, and the tail of all its samples. A workload
    // mixes graph sizes, so its figures are geometric means over cells,
    // not percentiles of the pooled samples, which would jump between
    // sizes as the pass count changes.
    let mut cells: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (i, case) in setup.cases.iter().enumerate() {
        let (fastest_s, samples) = cells.entry(case.cell()).or_default();
        fastest_s.push(case_s[i]);
        samples.extend(&case_walls[i]);
    }
    let (mut p50s, mut tails, mut sizes, mut pcts) = (vec![], vec![], vec![], vec![]);
    for (cell, (fastest_s, samples)) in &mut cells {
        samples.sort_by(f64::total_cmp);
        let (pct, tail) = tail(samples);
        p50s.push(median(fastest_s));
        tails.push(tail);
        sizes.push(samples.len());
        pcts.push(pct);
        if setup.cases.len() <= 8 {
            println!(
                "# {cell}: {} elections, p50 {:.4} s, p{pct} {tail:.4} s",
                samples.len(),
                median(fastest_s)
            );
        }
    }
    let walls: Vec<String> = pass_walls.iter().map(|s| format!("{s:.3}")).collect();
    println!("# pass walls (s): {}", walls.join(" "));
    println!(
        "# measured {} passes: {} elections in {} cells in {phase_s:.3} s; \
         cpu {:.2} s, main-thread run-queue wait {:.3} s, host steal {:.2} s, minflt {}; \
         peak-RSS reset {}",
        passes.len(),
        passes.len() * setup.cases.len(),
        cells.len(),
        proc.cpu_s,
        proc.runq_wait_s,
        proc.steal_s,
        proc.minflt,
        if reset {
            "ok"
        } else {
            "unavailable (process-lifetime peak)"
        },
    );
    // Printed, not in the JSON: its run-to-run spread on a shared host is
    // too wide to gate (see README.md).
    let span = |v: &[usize]| format!("{}–{}", v.iter().min().unwrap(), v.iter().max().unwrap());
    println!(
        "# elect_s_tail {} s (cells of {} samples, p{})",
        geomean(&tails),
        span(&sizes),
        span(&pcts.iter().map(|&p| p as usize).collect::<Vec<_>>())
    );
    let setup_totals: Vec<f64> = setup_times.iter().map(|t| t.iter().sum()).collect();
    vec![
        ("msgs_per_s".into(), msgs as f64 / pass_s, "msg/s"),
        (
            "elections_per_s".into(),
            setup.cases.len() as f64 / pass_s,
            "1/s",
        ),
        ("elect_s_p50".into(), geomean(&p50s), "s"),
        ("peak_rss_mb".into(), peak, "MB"),
        ("setup_s".into(), median(&setup_totals), "s"),
    ]
}

/// Compares the first pass's digest with the stored one at the default
/// seed; a mismatch counts as one failed check.
fn check_digest(w: Workload, seed: u64, setup: &Setup, first: &[Record], checker: &mut Checker) {
    let digest = outcome_digest(setup, first);
    if seed != DEFAULT_SEED {
        println!("# outcome digest {digest:#018x} (pinned only at seed {DEFAULT_SEED})");
        return;
    }
    let pinned = w.digest();
    let verdict = if digest == pinned {
        "matches"
    } else {
        "MISMATCH"
    };
    println!("# outcome digest {digest:#018x} {verdict} pinned {pinned:#018x}");
    if digest != pinned {
        checker.fail("outcome digest differs from the pinned one");
    }
}

/// The traced run: set-up phases, alternating plain and traced passes on
/// the round engine, then the layer probes.
fn traced(
    setup: &Setup,
    setup_times: &[[f64; 3]],
    checker: &mut Checker,
    budget: Duration,
) -> Metrics {
    let phase = |k: usize| median(&setup_times.iter().map(|t| t[k]).collect::<Vec<_>>());
    let mut m: Metrics = vec![
        ("graph.build_s".into(), phase(0), "s"),
        ("graph.diameter_s".into(), phase(1), "s"),
        ("core.config_s".into(), phase(2), "s"),
    ];

    let before = ProcSample::now();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed() < budget {
        plain.push(pass(setup, checker, |_| Exec::Sim, false));
        traced.push(pass(setup, checker, |_| Exec::Sim, true));
    }
    let proc = ProcSample::now().since(&before);

    let wall = |p: &Vec<Record>| p.iter().map(|r| r.wall_s).sum::<f64>();
    let step = |p: &Vec<Record>| p.iter().map(|r| r.counters.step_s).sum::<f64>();
    let engine = |p: &Vec<Record>| wall(p) - step(p);
    let per_pass = |f: &dyn Fn(&Vec<Record>) -> f64, passes: &[Vec<Record>]| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let totals = LayerTotals::of(traced.iter().flatten());
    m.extend([
        ("core.step_s".into(), per_pass(&step, &traced), "s"),
        (
            "core.activations".into(),
            totals.activations as f64 / traced.len() as f64,
            "count",
        ),
        ("engine.self_s".into(), per_pass(&engine, &traced), "s"),
        ("engine.ns_per_msg".into(), totals.ns_per_msg(), "ns"),
        (
            "engine.ns_per_active_round".into(),
            totals.ns_per_active_round(),
            "ns",
        ),
        (
            "engine.msgs_per_active_round".into(),
            totals.msgs_per_active_round(),
            "count",
        ),
    ]);

    // Per-family engine detail and per-algorithm election time, as text.
    let mut by_family: BTreeMap<&str, Vec<&Record>> = BTreeMap::new();
    for p in &traced {
        for (case, r) in setup.cases.iter().zip(p) {
            by_family.entry(case.family.name()).or_default().push(r);
        }
    }
    for (family, records) in by_family {
        let t = LayerTotals::of(records);
        println!("layer engine.ns_per_msg.{family} {} ns", t.ns_per_msg());
        println!(
            "layer engine.ns_per_active_round.{family} {} ns",
            t.ns_per_active_round()
        );
        println!(
            "layer engine.msgs_per_active_round.{family} {} count",
            t.msgs_per_active_round()
        );
    }
    for alg in Algorithm::ALL {
        let walls: Vec<f64> = plain
            .iter()
            .flat_map(|p| setup.cases.iter().zip(p))
            .filter(|(c, _)| c.alg == alg)
            .map(|(_, r)| r.wall_s)
            .collect();
        if !walls.is_empty() {
            let key = alg.spec().name;
            println!(
                "layer core.run_s.{key} {} s",
                walls.iter().sum::<f64>() / walls.len() as f64
            );
        }
    }

    m.extend(probes(setup, checker));
    m.extend([
        ("proc.cpu_s".into(), proc.cpu_s, "s"),
        ("proc.runq_wait_s".into(), proc.runq_wait_s, "s"),
        ("proc.minflt".into(), proc.minflt as f64, "count"),
        (
            "trace.overhead".into(),
            per_pass(&wall, &traced) / per_pass(&wall, &plain),
            "ratio",
        ),
    ]);
    m
}

/// Engine self time, messages and active rounds summed over traced
/// elections.
struct LayerTotals {
    self_ns: f64,
    messages: f64,
    active_rounds: f64,
    activations: u64,
}

impl LayerTotals {
    fn of<'a>(records: impl IntoIterator<Item = &'a Record>) -> LayerTotals {
        let mut t = LayerTotals {
            self_ns: 0.0,
            messages: 0.0,
            active_rounds: 0.0,
            activations: 0,
        };
        for r in records {
            t.self_ns += (r.wall_s - r.counters.step_s) * 1e9;
            t.messages += r.messages() as f64;
            t.active_rounds += r.counters.active_rounds as f64;
            t.activations += r.counters.activations;
        }
        t
    }

    fn ns_per_msg(&self) -> f64 {
        ratio(self.self_ns, self.messages)
    }

    fn ns_per_active_round(&self) -> f64 {
        ratio(self.self_ns, self.active_rounds)
    }

    fn msgs_per_active_round(&self) -> f64 {
        ratio(self.messages, self.active_rounds)
    }
}

/// Layer probes on the workload's FloodMax elections of at most
/// [`PROBE_MAX_N`] nodes, each run from its lockstep sequential
/// configuration: lockstep, bounded delay, bounded delay on
/// [`SHARD_THREADS`] shards, the async runtime, and traced copies of the
/// first two. The sharded run must equal the sequential delayed one, the
/// async run and the traced copies the plain run they copy.
fn probes(setup: &Setup, checker: &mut Checker) -> Metrics {
    #[derive(Default)]
    struct Sums {
        lock_s: f64,
        delay_s: f64,
        shard_s: f64,
        shard_cpu_s: f64,
        async_s: f64,
        async_cpu_s: f64,
        lock_rounds: f64,
        delay_rounds: f64,
        async_msgs: f64,
        elections: f64,
    }
    let mut sums = Sums::default();
    let mut rt_by_family: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let probe_cases = setup
        .cases
        .iter()
        .filter(|c| c.alg == Algorithm::FloodMax && setup.topos[c.topo].n() <= PROBE_MAX_N);
    for case in probe_cases {
        let lockstep = case
            .cfg
            .clone()
            .with_adversary(Adversary::Lockstep)
            .with_parallelism(Parallelism::Off);
        let delayed = lockstep.clone().with_adversary(Adversary::BoundedDelay {
            max_delay: MAX_DELAY,
        });
        let sharded = delayed
            .clone()
            .with_parallelism(Parallelism::Threads(SHARD_THREADS));

        let lock = run(setup, case, &lockstep, Exec::Sim, false);
        let delay = run(setup, case, &delayed, Exec::Sim, false);
        let p = ProcSample::now();
        let shard = run(setup, case, &sharded, Exec::Sim, false);
        let shard_cpu = ProcSample::now().since(&p).cpu_s;
        let p = ProcSample::now();
        let asyn = run(setup, case, &lockstep, Exec::Async, false);
        let async_cpu = ProcSample::now().since(&p).cpu_s;

        // The plain lockstep and delayed runs are the others' references.
        // FloodMax's deadline assumes synchrony, so a delayed run need not
        // elect; only its copies' equality with it is checked.
        checker.check(case, lock.outcome.as_ref(), None);
        let Some(delay_out) = &delay.outcome else {
            checker.fail(&format!("{}: delayed run panicked", case.label));
            continue;
        };
        let Some(lock_out) = &lock.outcome else {
            continue;
        };
        checker.same(case, shard.outcome.as_ref(), delay_out);
        checker.check(case, asyn.outcome.as_ref(), Some(lock_out));
        // FloodMax's `rounds` is its deadline whatever the delays, so the
        // stretch is taken from the active rounds of traced copies.
        let rounds = (
            traced_rounds(setup, case, &lockstep, checker, lock_out),
            traced_rounds(setup, case, &delayed, checker, delay_out),
        );
        let async_msgs = asyn.outcome.as_ref().map_or(0, |o| o.messages) as f64;

        sums.lock_s += lock.wall_s;
        sums.delay_s += delay.wall_s;
        sums.shard_s += shard.wall_s;
        sums.shard_cpu_s += shard_cpu;
        sums.async_s += asyn.wall_s;
        sums.async_cpu_s += async_cpu;
        sums.lock_rounds += rounds.0;
        sums.delay_rounds += rounds.1;
        sums.async_msgs += async_msgs;
        sums.elections += 1.0;
        let e = rt_by_family.entry(case.family.name()).or_default();
        e.0 += asyn.wall_s * 1e9;
        e.1 += async_msgs;
    }
    for (family, (ns, msgs)) in rt_by_family {
        println!("layer rt.ns_per_msg.{family} {} ns", ratio(ns, msgs));
    }
    println!(
        "# layer probes: {} FloodMax elections, each run six ways",
        sums.elections
    );
    vec![
        (
            "adversary.delay_cost_s".into(),
            ratio(sums.delay_s - sums.lock_s, sums.elections),
            "s",
        ),
        (
            "adversary.round_stretch".into(),
            ratio(sums.delay_rounds, sums.lock_rounds),
            "ratio",
        ),
        (
            "shard.speedup".into(),
            ratio(sums.delay_s, sums.shard_s),
            "ratio",
        ),
        (
            "shard.cpu_per_wall".into(),
            ratio(sums.shard_cpu_s, sums.shard_s),
            "ratio",
        ),
        (
            "rt.ns_per_msg".into(),
            ratio(sums.async_s * 1e9, sums.async_msgs),
            "ns",
        ),
        (
            "rt.slowdown".into(),
            ratio(sums.async_s, sums.lock_s),
            "ratio",
        ),
        (
            "rt.cpu_per_wall".into(),
            ratio(sums.async_cpu_s, sums.async_s),
            "ratio",
        ),
    ]
}

/// Active rounds of a traced rerun of `case` under `cfg`, whose outcome
/// must equal `reference`.
fn traced_rounds(
    setup: &Setup,
    case: &Case,
    cfg: &SimConfig,
    checker: &mut Checker,
    reference: &RunOutcome,
) -> f64 {
    trace::take_counters();
    let e = run(setup, case, cfg, Exec::Sim, true);
    let rounds = trace::take_counters().active_rounds;
    checker.same(case, e.outcome.as_ref(), reference);
    rounds as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The smallest sample (infinite when empty).
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of sorted or unsorted samples (0 when empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile with at least ten samples above it, but
/// not below the median, and its nearest-rank value. Below 20 samples that
/// is the median itself.
fn tail(sorted: &[f64]) -> (u32, f64) {
    let n = sorted.len();
    let pct = (100.0 * (1.0 - 10.0 / n as f64)).floor().max(50.0) as u32;
    let rank = (pct as f64 / 100.0 * n as f64).ceil() as usize;
    (pct, sorted[rank.clamp(1, n) - 1])
}

fn result_json(checker: &Checker, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}
