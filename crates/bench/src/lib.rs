//! # dcn-bench
//!
//! The reproduction harness: one binary per table/figure of the paper
//! (see DESIGN.md §3 for the full index), plus harness-free perf benches
//! over the hot paths (`bench_case`). Every binary prints its figure's
//! series as TSV on stdout and
//! also writes `results/<name>.json` when `--out <dir>` is given.
//!
//! Common flags: `--scale tiny|small|paper` (default `small`) selects the
//! experiment size (DESIGN.md §4, substitution 4) and `--seed N` the RNG
//! seed. A missing or bad value, or a switch the binary does not accept,
//! is a one-line `error: …` and exit code 1.
//!
//! Every packet-level binary describes its sweep as a list of
//! [`PacketPoint`]s and runs them with [`run_points`]: one [`fct_point`]
//! per point, spread over `available_parallelism` workers by
//! [`supervise::run_queue`], results folded back in point order. So every
//! one of them honours `--trace <path>` (structured simulator events as
//! JSONL), `--telemetry <path>` (time-series fabric samples) and
//! `--manifest <path>` (run manifest), writing one file of each per
//! point, with the point's label inserted before the extension.

pub mod perf;
pub mod supervise;

use dcn_json::Json;

/// Parsed common CLI options.
#[derive(Clone, Debug)]
pub struct Cli {
    pub scale: dcn_core::Scale,
    pub seed: u64,
    pub out_dir: Option<String>,
    /// `--trace <path>`: JSONL event-trace destination; every packet point
    /// derives its own path from it (see [`Cli::trace_path`]).
    pub trace: Option<String>,
    /// `--telemetry <path>`: time-series telemetry JSONL destination,
    /// per-point derived like `--trace`.
    pub telemetry: Option<String>,
    /// `--manifest <path>`: run-manifest JSON destination, per-point
    /// derived like `--trace`.
    pub manifest: Option<String>,
    /// The binary's own boolean switches that were passed (e.g.
    /// `--dynamic` for the failure ablation); checked with
    /// [`Cli::has_flag`].
    pub flags: Vec<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: dcn_core::Scale::Small,
            seed: 1,
            out_dir: None,
            trace: None,
            telemetry: None,
            manifest: None,
            flags: Vec::new(),
        }
    }
}

impl Cli {
    /// Whether a binary-specific boolean switch (e.g. `--dynamic`) was
    /// passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The `--trace` destination for one named run: `events.jsonl` +
    /// `"dctcp"` → `events.dctcp.jsonl` (the suffix lands before a final
    /// extension, if any). `None` when tracing is off.
    pub fn trace_path(&self, run: &str) -> Option<String> {
        self.trace.as_deref().map(|b| derive_run_path(b, run))
    }

    /// The `--telemetry` destination for one named run (same derivation as
    /// [`Cli::trace_path`]).
    pub fn telemetry_path(&self, run: &str) -> Option<String> {
        self.telemetry.as_deref().map(|b| derive_run_path(b, run))
    }

    /// The `--manifest` destination for one named run (same derivation as
    /// [`Cli::trace_path`]).
    pub fn manifest_path(&self, run: &str) -> Option<String> {
        self.manifest.as_deref().map(|b| derive_run_path(b, run))
    }
}

/// Inserts a run label before the final extension: `events.jsonl` +
/// `"dctcp"` → `events.dctcp.jsonl`.
fn derive_run_path(base: &str, run: &str) -> String {
    match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{run}.{ext}"),
        _ => format!("{base}.{run}"),
    }
}

/// Parses the shared flags from `std::env::args`, plus the boolean
/// `switches` this binary accepts (e.g. `&["dynamic"]`). A bad command
/// line prints one `error: …` line and exits with code 1.
pub fn parse_cli(switches: &[&str]) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, switches).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// [`parse_cli`]'s pure half: parses `args` (program name excluded).
fn parse_args(args: &[String], switches: &[&str]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                cli.scale = dcn_core::Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale '{v}' (tiny|small|paper)"))?;
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got '{v}'"))?;
            }
            "--out" => cli.out_dir = Some(value()?),
            "--trace" => cli.trace = Some(value()?),
            "--telemetry" => cli.telemetry = Some(value()?),
            "--manifest" => cli.manifest = Some(value()?),
            other => match other.strip_prefix("--") {
                Some(name) if switches.contains(&name) => cli.flags.push(name.to_string()),
                Some(_) => return Err(format!("unknown flag '{other}'")),
                None => return Err(format!("unexpected argument '{other}'")),
            },
        }
    }
    Ok(cli)
}

/// A figure's data: named columns over a shared x-axis.
#[derive(Clone, Debug)]
pub struct Series {
    pub figure: String,
    pub x_label: String,
    pub columns: Vec<String>,
    /// Each row: (x, one value per column); NaN marks a missing point.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl Series {
    pub fn new(figure: &str, x_label: &str, columns: &[&str]) -> Self {
        Series {
            figure: figure.to_string(),
            x_label: x_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((x, values));
    }

    /// The panels of one figure: one `Series` per name, all over the same
    /// x-axis and columns.
    pub fn panels<const N: usize>(
        figures: [&str; N],
        x_label: &str,
        columns: &[&str],
    ) -> [Series; N] {
        figures.map(|f| Series::new(f, x_label, columns))
    }

    /// Pushes a row holding `metric` of each point result, one per column.
    pub fn push_metric(
        &mut self,
        x: f64,
        results: &[PointResult],
        metric: impl Fn(&dcn_sim::Metrics) -> f64,
    ) {
        self.push(x, results.iter().map(|(m, _)| metric(m)).collect());
    }

    /// Prints the TSV block the harness emits for every figure.
    pub fn print(&self) {
        println!("# {}", self.figure);
        print!("{}", self.x_label);
        for c in &self.columns {
            print!("\t{c}");
        }
        println!();
        for (x, vals) in &self.rows {
            print!("{x:.6}");
            for v in vals {
                if v.is_nan() {
                    print!("\t-");
                } else {
                    print!("\t{v:.6}");
                }
            }
            println!();
        }
    }

    /// The JSON form written by [`Series::write_json`].
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("figure", Json::from(self.figure.as_str())),
            ("x_label", Json::from(self.x_label.as_str())),
            (
                "columns",
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|c| Json::from(c.as_str()))
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(x, vals)| {
                            let mut row = vec![Json::Num(*x)];
                            row.extend(vals.iter().map(|v| {
                                if v.is_nan() {
                                    Json::Null
                                } else {
                                    Json::Num(*v)
                                }
                            }));
                            Json::Arr(row)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `<out_dir>/<figure>.json` atomically (temporary + rename).
    pub fn write_json(&self, out_dir: &str) {
        std::fs::create_dir_all(out_dir).expect("create out dir");
        let path = format!("{out_dir}/{}.json", self.figure);
        dcn_core::write_atomic(&path, self.to_json().pretty().as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    /// Print and optionally persist, in one call.
    pub fn finish(&self, cli: &Cli) {
        self.print();
        if let Some(dir) = &cli.out_dir {
            self.write_json(dir);
        }
    }
}

/// Pushes one row to the three panels of figs 9–11 — average FCT, p99
/// short-flow FCT, long-flow goodput — one column per point result.
pub fn push_fct_panels(panels: &mut [Series; 3], x: f64, row: &[PointResult]) {
    let [avg, p99_short, long_tput] = panels;
    avg.push_metric(x, row, |m| m.avg_fct_ms);
    p99_short.push_metric(x, row, |m| m.p99_short_fct_ms);
    long_tput.push_metric(x, row, |m| m.avg_long_tput_gbps);
}

/// Minimal timing harness for the `cargo bench` targets (all declared
/// `harness = false`): one warmup call, then `iters` timed runs, printing
/// the mean wall-clock per iteration in a unit matched to its magnitude.
pub fn bench_case<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    if per >= 1.0 {
        println!("{name}\t{per:.3} s/iter");
    } else if per >= 1e-3 {
        println!("{name}\t{:.3} ms/iter", per * 1e3);
    } else {
        println!("{name}\t{:.3} us/iter", per * 1e6);
    }
}

/// The flow-arrival sweep used in load figures: `n` evenly spaced rates up
/// to `max_rate` (flow starts per second, aggregate).
pub fn rate_sweep(max_rate: f64, n: usize) -> Vec<f64> {
    (1..=n).map(|i| max_rate * i as f64 / n as f64).collect()
}

/// The fraction-of-active-servers sweep of Figs 5/6/9/10.
pub fn fraction_sweep(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64 / n as f64).collect()
}

/// Per-scale Garg–Könemann options: tight on small instances, bracketed
/// (certified lower/upper) on paper-scale ones where tight ε is too slow.
pub fn gk_opts_for(n_racks: usize) -> dcn_maxflow::GkOptions {
    if n_racks <= 128 {
        dcn_maxflow::GkOptions {
            epsilon: 0.05,
            target: Some(1.0),
            gap: 0.04,
            max_phases: 2_000_000,
        }
    } else {
        dcn_maxflow::GkOptions {
            epsilon: 0.2,
            target: Some(1.0),
            gap: 0.1,
            max_phases: 2_000_000,
        }
    }
}

/// One point of a fluid-flow throughput curve with its certified bracket.
#[derive(Clone, Copy, Debug)]
pub struct FluidPoint {
    pub x: f64,
    /// Feasible (primal) per-server throughput, clamped to 1.
    pub lower: f64,
    /// Dual upper bound, clamped to 1.
    pub upper: f64,
}

/// Throughput-vs-fraction curve for a static topology under
/// longest-matching TMs (§5): one Garg–Könemann solve per x, run in
/// parallel by [`par_map`].
pub fn fluid_curve(t: &dcn_topology::Topology, xs: &[f64], seed: u64) -> Vec<FluidPoint> {
    let racks = t.tors_with_servers();
    let opts = gk_opts_for(racks.len());
    let net = dcn_maxflow::FlowNetwork::from_topology(t);
    par_map(xs.len(), |i| {
        let x = xs[i];
        let pairs = dcn_workloads::longest_matching(t, &racks, x, seed);
        let commodities: Vec<dcn_maxflow::Commodity> = pairs
            .iter()
            .map(|&(a, b)| dcn_maxflow::Commodity {
                src: a,
                dst: b,
                demand: t.servers_at(a) as f64,
            })
            .collect();
        let r = dcn_maxflow::max_concurrent_flow(&net, &commodities, opts);
        FluidPoint {
            x,
            lower: r.throughput.min(1.0),
            upper: r.upper_bound.min(1.0),
        }
    })
}

/// Runs `f(0..n)` through [`supervise::run_queue`] on
/// `available_parallelism` workers and returns the results in index
/// order, so a sweep's output does not depend on which worker finished
/// first.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (done, _) = supervise::run_queue(n, workers, |i| (f(i), true));
    done.into_iter().map(|(_, r)| r).collect()
}

/// Per-scale packet-experiment timing: measurement window, flow-generation
/// horizon (a little past the window so load persists while window flows
/// drain), and a hard simulation-time cap.
#[derive(Clone, Copy, Debug)]
pub struct PacketSetup {
    pub window: (dcn_sim::Ns, dcn_sim::Ns),
    pub horizon_s: f64,
    pub max_time: dcn_sim::Ns,
}

pub fn packet_setup(scale: dcn_core::Scale) -> PacketSetup {
    let window = dcn_core::default_window(scale);
    PacketSetup {
        window,
        horizon_s: window.1 as f64 / 1e9 * 1.3,
        max_time: window.1.saturating_mul(40),
    }
}

/// What one packet point yields: the FCT metrics and the drop/mark
/// counters.
pub type PointResult = (dcn_sim::Metrics, dcn_core::SimCounters);

/// One packet-level data point of a figure: a network, its routing and
/// engine config, and the traffic offered to it.
pub struct PacketPoint<'a> {
    /// Names the point in progress lines and in its `--trace`,
    /// `--telemetry` and `--manifest` paths; unique within a binary.
    pub label: String,
    pub topology: &'a dcn_topology::Topology,
    pub routing: dcn_core::Routing,
    pub cfg: dcn_sim::SimConfig,
    pub pattern: &'a (dyn dcn_workloads::TrafficPattern + Sync),
    /// Aggregate flow starts per second.
    pub lambda: f64,
    pub faults: Option<dcn_sim::FaultPlan>,
}

impl<'a> PacketPoint<'a> {
    /// A point on the default [`dcn_sim::SimConfig`] with no faults.
    pub fn new(
        label: impl Into<String>,
        topology: &'a dcn_topology::Topology,
        routing: dcn_core::Routing,
        pattern: &'a (dyn dcn_workloads::TrafficPattern + Sync),
        lambda: f64,
    ) -> Self {
        PacketPoint {
            label: label.into(),
            topology,
            routing,
            cfg: dcn_sim::SimConfig::default(),
            pattern,
            lambda,
            faults: None,
        }
    }

    pub fn with_cfg(self, cfg: dcn_sim::SimConfig) -> Self {
        PacketPoint { cfg, ..self }
    }

    pub fn with_faults(self, plan: dcn_sim::FaultPlan) -> Self {
        PacketPoint {
            faults: Some(plan),
            ..self
        }
    }
}

/// Runs one packet point at `cli`'s scale and seed: generates the
/// workload with flow sizes from `sizes`, runs it (with the point's fault
/// plan, if any), and writes the point's trace, telemetry and manifest
/// when `cli` asks for them.
pub fn fct_point(
    cli: &Cli,
    sizes: &dyn dcn_workloads::FlowSizeDist,
    p: &PacketPoint,
) -> PointResult {
    let setup = packet_setup(cli.scale);
    let label = p.label.as_str();
    eprintln!("{label}: λ = {}", p.lambda);
    let flows =
        dcn_workloads::generate_flows(p.pattern, sizes, p.lambda, setup.horizon_s, cli.seed);
    let trace_path = cli.trace_path(label);
    let tracer: Option<Box<dyn dcn_sim::Tracer>> = trace_path.as_deref().map(|path| {
        eprintln!("tracing events to {path}");
        Box::new(
            dcn_sim::JsonlTracer::create(path).unwrap_or_else(|e| panic!("open trace {path}: {e}")),
        ) as Box<dyn dcn_sim::Tracer>
    });
    let telemetry = cli.telemetry_path(label).map(|path| {
        eprintln!("sampling telemetry to {path}");
        dcn_sim::Telemetry::to_file(&path, dcn_sim::DEFAULT_SAMPLE_EVERY_NS)
            .unwrap_or_else(|e| panic!("open telemetry {path}: {e}"))
    });
    let manifest_path = cli.manifest_path(label);
    let spec = manifest_path.as_ref().map(|_| {
        let mut s = dcn_core::ManifestSpec::new(label, cli.seed);
        s.trace_path = trace_path.clone();
        s
    });
    let opts = dcn_core::RunOptions {
        faults: p.faults.as_ref(),
        tracer,
        telemetry,
        manifest: spec.as_ref(),
    };
    let (m, counters, manifest) = dcn_core::run_fct_experiment(
        p.topology,
        p.routing,
        p.cfg,
        &flows,
        setup.window,
        setup.max_time,
        opts,
    );
    if let (Some(path), Some(man)) = (manifest_path, manifest) {
        man.write(&path)
            .unwrap_or_else(|e| panic!("write manifest {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if m.completed + m.failed < m.flows {
        eprintln!(
            "warning: {}/{} window flows unfinished at max_time ({label}: {} {:?} λ={})",
            m.flows - m.completed - m.failed,
            m.flows,
            p.topology.name(),
            p.routing,
            p.lambda
        );
    }
    (m, counters)
}

/// Runs every point with [`fct_point`], in parallel via [`par_map`];
/// results come back in point order. All points draw flow sizes from
/// `sizes`.
///
/// # Panics
/// If two points share a label (their observability files would
/// overwrite each other).
pub fn run_points(
    cli: &Cli,
    sizes: &(dyn dcn_workloads::FlowSizeDist + Sync),
    points: &[PacketPoint],
) -> Vec<PointResult> {
    let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    labels.sort_unstable();
    if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
        panic!("duplicate packet-point label '{}'", w[0]);
    }
    par_map(points.len(), |i| fct_point(cli, sizes, &points[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_rows_align() {
        let mut s = Series::new("figX", "x", &["a", "b"]);
        s.push(0.1, vec![1.0, 2.0]);
        s.push(0.2, vec![3.0, f64::NAN]);
        assert_eq!(s.rows.len(), 2);
    }

    #[test]
    #[should_panic]
    fn series_rejects_mismatched_row() {
        let mut s = Series::new("figX", "x", &["a", "b"]);
        s.push(0.1, vec![1.0]);
    }

    #[test]
    fn trace_path_suffixes_before_extension() {
        let mut cli = Cli::default();
        assert_eq!(cli.trace_path("dctcp"), None);
        cli.trace = Some("events.jsonl".to_string());
        assert_eq!(cli.trace_path("dctcp"), Some("events.dctcp.jsonl".into()));
        cli.trace = Some("trace".to_string());
        assert_eq!(cli.trace_path("pfabric"), Some("trace.pfabric".into()));
    }

    #[test]
    fn telemetry_and_manifest_paths_derive_like_trace() {
        let mut cli = Cli::default();
        assert_eq!(cli.telemetry_path("ft"), None);
        assert_eq!(cli.manifest_path("ft"), None);
        cli.telemetry = Some("ts.jsonl".to_string());
        cli.manifest = Some("results/run.json".to_string());
        assert_eq!(cli.telemetry_path("ft"), Some("ts.ft.jsonl".into()));
        assert_eq!(cli.manifest_path("ft"), Some("results/run.ft.json".into()));
    }

    #[test]
    fn sweeps() {
        assert_eq!(fraction_sweep(10).len(), 10);
        assert_eq!(fraction_sweep(10)[9], 1.0);
        let r = rate_sweep(1000.0, 4);
        assert_eq!(r, vec![250.0, 500.0, 750.0, 1000.0]);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_args_reads_shared_flags_and_declared_switches() {
        let cli = parse_args(
            &args("--scale tiny --seed 7 --out r --trace t.jsonl --manifest m.json --dynamic"),
            &["dynamic"],
        )
        .unwrap();
        assert_eq!(cli.scale, dcn_core::Scale::Tiny);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.out_dir.as_deref(), Some("r"));
        assert_eq!(cli.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(cli.manifest.as_deref(), Some("m.json"));
        assert!(cli.has_flag("dynamic"));
        assert!(!parse_args(&[], &[]).unwrap().has_flag("dynamic"));
    }

    #[test]
    fn parse_args_rejects_bad_command_lines() {
        let err = |line: &str| parse_args(&args(line), &["check"]).unwrap_err();
        assert_eq!(err("--seed"), "--seed needs a value");
        assert_eq!(err("--scale tiny --out"), "--out needs a value");
        assert_eq!(err("--seed x"), "--seed takes an integer, got 'x'");
        assert_eq!(
            err("--scale huge"),
            "unknown scale 'huge' (tiny|small|paper)"
        );
        assert_eq!(err("--sede 3"), "unknown flag '--sede'");
        assert_eq!(err("--dynamic"), "unknown flag '--dynamic'");
        assert_eq!(err("tiny"), "unexpected argument 'tiny'");
    }

    fn tiny_point<'a>(
        t: &'a dcn_topology::Topology,
        pattern: &'a dcn_workloads::AllToAll,
        label: &str,
    ) -> PacketPoint<'a> {
        PacketPoint::new(label, t, dcn_core::Routing::Ecmp, pattern, 300.0)
    }

    fn tiny_fat_tree() -> (dcn_topology::Topology, dcn_workloads::AllToAll) {
        let t = dcn_topology::fattree::FatTree::full(4).build();
        let pattern = dcn_workloads::AllToAll::new(&t, t.tors_with_servers());
        (t, pattern)
    }

    #[test]
    fn fct_point_writes_every_artifact_at_its_label_path() {
        let dir = std::env::temp_dir().join(format!("dcn_bench_point_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = |name: &str| Some(dir.join(name).to_str().unwrap().to_string());
        let cli = Cli {
            scale: dcn_core::Scale::Tiny,
            trace: base("ev.jsonl"),
            telemetry: base("ts.jsonl"),
            manifest: base("m.json"),
            ..Cli::default()
        };
        let (t, pattern) = tiny_fat_tree();
        let sizes = dcn_workloads::PFabricWebSearch::new();
        let (m, c) = fct_point(&cli, &sizes, &tiny_point(&t, &pattern, "ft_p050"));
        assert!(m.flows > 0 && c.events > 0);
        for name in ["ev.ft_p050.jsonl", "ts.ft_p050.jsonl", "m.ft_p050.json"] {
            let len = std::fs::metadata(dir.join(name)).map_or(0, |md| md.len());
            assert!(len > 0, "{name} missing or empty");
        }
        let manifest = std::fs::read_to_string(dir.join("m.ft_p050.json")).unwrap();
        assert!(
            manifest.contains("ev.ft_p050.jsonl"),
            "manifest names its trace"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_points_keeps_point_order() {
        let cli = Cli {
            scale: dcn_core::Scale::Tiny,
            ..Cli::default()
        };
        let (t, pattern) = tiny_fat_tree();
        let sizes = dcn_workloads::PFabricWebSearch::new();
        let points: Vec<_> = [100.0, 400.0, 200.0]
            .iter()
            .map(|&l| PacketPoint {
                lambda: l,
                ..tiny_point(&t, &pattern, &format!("l{l}"))
            })
            .collect();
        let parallel = run_points(&cli, &sizes, &points);
        for (p, (m, _)) in points.iter().zip(&parallel) {
            assert_eq!(fct_point(&cli, &sizes, p).0.flows, m.flows, "{}", p.label);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate packet-point label 'x'")]
    fn run_points_rejects_duplicate_labels() {
        let (t, pattern) = tiny_fat_tree();
        let sizes = dcn_workloads::PFabricWebSearch::new();
        let points = [tiny_point(&t, &pattern, "x"), tiny_point(&t, &pattern, "x")];
        run_points(&Cli::default(), &sizes, &points);
    }
}
