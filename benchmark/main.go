// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload for a given seed, output-checks every repetition against
// a sequential reference, and prints every metric by name with its unit;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (makespan_s,
// setup_s, alloc_mb). With --trace 1 a separate run records spans around
// every call into the system's layers, writes them as Chrome trace-event
// JSON, and reports the per-layer metrics instead. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload mm-aot-loaded --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/aot"
	"repro/internal/dlb"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

const (
	// Setup is sampled in fresh child processes, each timing source text
	// to a ready first run: at least setupMin of them and at least
	// setupBudget of wall time, at most setupMax. One more, untimed, runs
	// first so the Go toolchain's own build cache is warm for AOT builds.
	setupMin    = 5
	setupMax    = 50
	setupBudget = 3 * time.Second
	// repDeadline bounds one repetition; a repetition past it is counted
	// failed and abandoned (the library calls take no context).
	repDeadline = 20 * time.Second
	minReps     = 3
	childLimit  = 120 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: mm-aot-loaded, jacobi-tcp or sor-sim-wave")
	seed := flag.Int64("seed", 1, "input seed: picks the hash(k) salts of the program's arrays")
	seconds := flag.Int("seconds", 20, "how long the timed repetitions run")
	traceMode := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for private caches and trace files")
	child := flag.String("setup-child", "", "internal: time one setup into this empty AOT cache directory, print its spans, exit")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *child != "" {
		if err := setupChild(w, *seed, *child); err != nil {
			fail(err)
		}
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	outDir, err := filepath.Abs(*out)
	if err != nil {
		fail(err)
	}
	b := &bench{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceMode == 1, outDir: outDir, reasons: map[string]int{},
	}
	rep, err := b.run()
	aot.ClearMemory()
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
	if err != nil {
		fail(err)
	}
	rep.print(os.Stdout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string
	dir     string // private per-invocation directory, removed at exit
	tr      *tracer

	attempted, failed int
	wedged            int // TCP teardowns that missed closeDeadline
	mismatch          bool
	reasons           map[string]int
}

// childSetup is what a setup child process prints.
type childSetup struct {
	Origin int64  `json:"origin_unix_ns"`
	Spans  []span `json:"spans"`
}

func (c childSetup) stage(name string) time.Duration {
	for _, s := range c.Spans {
		if s.Name == name {
			return s.dur()
		}
	}
	return 0
}

// setupChild times one setup in this fresh process into an empty AOT
// cache directory and prints its spans.
func setupChild(w *workload, seed int64, dir string) error {
	if err := os.Setenv("DLB_AOT_CACHE", dir); err != nil {
		return err
	}
	src := w.source(seed)
	tr := newTracer()
	if _, err := w.setup(src, tr, -1); err != nil {
		return err
	}
	aot.ClearMemory()
	return json.NewEncoder(os.Stdout).Encode(childSetup{Origin: tr.origin.UnixNano(), Spans: tr.closed()})
}

func (b *bench) setupChildren() ([]childSetup, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []childSetup
	var start time.Time
	for k := 0; len(out) < setupMax && (k == 0 || len(out) < setupMin || time.Since(start) < setupBudget); k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("aot-setup-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), childLimit)
		cmd := exec.CommandContext(ctx, exe, "--setup-child", dir,
			"--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup child %d: %w", k, err)
		}
		var cs childSetup
		if err := json.Unmarshal(bytes.TrimSpace(stdout), &cs); err != nil {
			return nil, fmt.Errorf("setup child %d: %w", k, err)
		}
		if k == 0 {
			start = time.Now()
			continue
		}
		out = append(out, cs)
		if b.tr != nil {
			b.tr.merge(cs.Spans, k+1, time.Unix(0, cs.Origin).Sub(b.tr.origin))
		}
	}
	return out, nil
}

// withDeadline runs one repetition, giving up after repDeadline.
func withDeadline(f func() repOut) repOut {
	ch := make(chan repOut, 1)
	go func() { ch <- f() }()
	select {
	case o := <-ch:
		return o
	case <-time.After(repDeadline):
		return repOut{err: fmt.Errorf("repetition missed its %v deadline", repDeadline)}
	}
}

// account output-checks a repetition and counts it; it reports whether the
// repetition succeeded. Every run of the program goes through here.
func (b *bench) account(o repOut, ref map[string]*loopir.Array) bool {
	b.attempted++
	if o.wedged {
		b.wedged++
	}
	err := o.err
	if o.res != nil {
		if cerr := checkOutputs(ref, o.res.Final); cerr != nil {
			b.mismatch = true
			err = cerr
		}
		// Only counters and timings are kept; holding every repetition's
		// arrays would grow the live heap, and with it GC work, as the run
		// goes on.
		o.res.Final = nil
	} else if err == nil {
		err = fmt.Errorf("run returned no result")
	}
	if err != nil {
		b.failed++
		msg := err.Error()
		if len(msg) > 120 {
			msg = msg[:120]
		}
		b.reasons[msg]++
		return false
	}
	return true
}

// sample is one successful timed repetition.
type sample struct {
	repOut
	traced bool
}

func (b *bench) run() (*report, error) {
	b.dir = filepath.Join(b.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	if b.traced {
		b.tr = newTracer()
	}
	tr, w := b.tr, b.w
	src := w.source(b.seed)

	setups, err := b.setupChildren()
	if err != nil {
		return nil, err
	}
	if err := os.Setenv("DLB_AOT_CACHE", filepath.Join(b.dir, "aot-main")); err != nil {
		return nil, err
	}
	r, err := w.setup(src, tr, -1)
	if err != nil {
		return nil, err
	}
	s := tr.begin("loopir.Instance.Run", -1)
	t0 := time.Now()
	ref, err := reference(r.plan.Prog, w.params)
	seqWall := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	var seqVirtual time.Duration
	if w.backend == backendSim {
		if seqVirtual, _, err = dlb.SequentialTime(r.plan, w.params, 0); err != nil {
			return nil, err
		}
	}

	rep := func(traced bool) repOut {
		var t *tracer
		if traced {
			t = tr
		}
		runtime.GC()
		return withDeadline(func() repOut {
			s := t.begin("repetition", -1)
			defer t.end(s)
			return w.run(r, t, s)
		})
	}
	b.account(rep(b.traced), ref) // warm-up, untimed

	var samples []sample
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < b.seconds; i++ {
		traced := b.traced && i%2 == 0
		o := rep(traced)
		if b.account(o, ref) {
			samples = append(samples, sample{o, traced})
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("every repetition failed: %v", b.reasons)
	}

	rp := &report{b: b, samples: samples, setups: setups, seqWall: seqWall, seqVirtual: seqVirtual}
	if b.traced {
		if err := b.layers(r, ref, rp); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// layers runs the traced run's extra measurements: the same-tier
// baseline, the transport delta, and the wire and balancer
// microbenchmarks; then it writes the trace file.
func (b *bench) layers(r *ready, ref map[string]*loopir.Array, rp *report) error {
	tr, w := b.tr, b.w
	s := tr.begin("baseline.same_tier", -1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		o := withDeadline(func() repOut { return w.sameTier(r, tr, s) })
		if b.account(o, ref) {
			rp.sameTier = append(rp.sameTier, o.wall.Seconds())
		}
	}
	tr.end(s)
	if w.backend == backendTCP {
		s := tr.begin("baseline.in_process", -1)
		for i := 0; i < 5; i++ {
			runtime.GC()
			o := withDeadline(func() repOut { return w.inProcess(r, tr, s) })
			if b.account(o, ref) {
				rp.inProcess = append(rp.inProcess, o.wall.Seconds())
			}
		}
		tr.end(s)
	}
	s = tr.begin("micro.wire", -1)
	enc, dec, err := wireThroughput(b.seed)
	tr.end(s)
	if err != nil {
		return err
	}
	rp.wireEnc, rp.wireDec = enc, dec
	s = tr.begin("micro.core.Balancer.Step", -1)
	restricted := r.plan.Restricted
	rp.stepP2 = balancerStep(2, r.units, restricted, b.seed)
	rp.stepP8 = balancerStep(8, r.units, restricted, b.seed)
	tr.end(s)

	dir := filepath.Join(b.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rp.tracePath = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, b.seed))
	return writeChrome(rp.tracePath, tr.closed(), map[string]any{
		"workload": w.name, "seed": b.seed, "go": runtime.Version(), "cpus": runtime.NumCPU(),
	})
}

// report turns the samples into metrics.
type report struct {
	b          *bench
	samples    []sample
	setups     []childSetup
	seqWall    time.Duration
	seqVirtual time.Duration

	sameTier, inProcess []float64
	wireEnc, wireDec    float64
	stepP2, stepP8      float64
	tracePath           string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// per collects one value per sample and returns the median.
func (rp *report) per(f func(sample) float64) float64 {
	vals := make([]float64, len(rp.samples))
	for i, s := range rp.samples {
		vals[i] = f(s)
	}
	return median(vals)
}

func (rp *report) counter(name string) float64 {
	return rp.per(func(s sample) float64 { return float64(s.res.Counters.Get(name)) })
}

func (rp *report) setupStage(name string) float64 {
	vals := make([]float64, len(rp.setups))
	for i, c := range rp.setups {
		vals[i] = c.stage(name).Seconds()
	}
	return median(vals)
}

func (rp *report) makespan() float64 {
	return rp.per(func(s sample) float64 { return s.wall.Seconds() })
}

func (rp *report) endToEnd() map[string]metric {
	return map[string]metric{
		"makespan_s": {rp.makespan(), "s"},
		"setup_s":    {rp.setupStage("setup"), "s"},
		"alloc_mb":   {rp.per(func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB"},
	}
}

func (rp *report) perLayer() map[string]metric {
	w := rp.b.w
	sim := w.backend == backendSim
	wall := func(f func(sample) float64) float64 {
		if sim {
			return 0 // the simulator's clock is virtual: see the sim.* metrics
		}
		return rp.per(f)
	}
	virt := func(f func(sample) float64) float64 {
		if !sim {
			return 0
		}
		return rp.per(f)
	}
	var traced, plain []float64
	var closes []float64
	for _, s := range rp.samples {
		if s.traced {
			traced = append(traced, s.wall.Seconds())
		} else {
			plain = append(plain, s.wall.Seconds())
		}
		if w.backend == backendTCP {
			closes = append(closes, s.closeDur.Seconds())
		}
	}
	makespan := rp.makespan()
	sameTier := median(rp.sameTier)
	transport := 0.0
	if len(rp.inProcess) > 0 {
		transport = makespan - median(rp.inProcess)
	}
	ms := map[string]metric{
		"lang.parse_s":      {rp.setupStage("lang.Parse"), "s"},
		"compile.compile_s": {rp.setupStage("compile.Compile"), "s"},
		"dlb.prepare_s":     {rp.setupStage(w.prepareSpan()), "s"},
		"aot.emit_s":        {rp.setupStage("aot.emit"), "s"},
		"aot.build_s":       {rp.setupStage("aot.build"), "s"},
		"aot.load_s":        {rp.setupStage("aot.load"), "s"},

		"dlb.aot_units":         {rp.counter("aot_units"), "count"},
		"dlb.kernel_units":      {rp.counter("kernel_units"), "count"},
		"dlb.fallback_units":    {rp.counter("fallback_units"), "count"},
		"loopir.seq_s":          {rp.seqWall.Seconds(), "s"},
		"dlb.seq_same_tier_s":   {sameTier, "s"},
		"dlb.speedup_same_tier": {ratio(sameTier, makespan), "ratio"},

		"dlb.compute_s":               {wall(func(s sample) float64 { return s.res.ComputeElapsed.Seconds() }), "s"},
		"dlb.scatter_gather_s":        {wall(func(s sample) float64 { return (s.res.Elapsed - s.res.ComputeElapsed).Seconds() }), "s"},
		"dlb.outside_engine_s":        {wall(func(s sample) float64 { return (s.wall - s.res.Elapsed).Seconds() }), "s"},
		"dlb.slave_busy_frac":         {rp.per(busyFrac), "ratio"},
		"dlb.slave_busy_max_over_min": {rp.per(busySpread), "ratio"},
		"dlb.rounds":                  {rp.counter("rounds"), "count"},
		"dlb.status_reports":          {rp.counter("status_reports"), "count"},
		"dlb.instr_bytes":             {rp.counter("instr_bytes"), "bytes"},
		"dlb.moves":                   {rp.counter("moves"), "count"},
		"dlb.units_moved":             {rp.counter("units_moved"), "count"},
		"dlb.weighted_imbalance":      {rp.per(imbalance), "ratio"},
		"core.step_us_p2":             {rp.stepP2, "us"},
		"core.step_us_p8":             {rp.stepP8, "us"},

		"dlb.scatter_bytes": {rp.counter("scatter_bytes"), "bytes"},
		"wire.encode_mb_s":  {rp.wireEnc, "MB/s"},
		"wire.decode_mb_s":  {rp.wireDec, "MB/s"},

		"sim.makespan_vs":    {virt(func(s sample) float64 { return s.res.Elapsed.Seconds() }), "vs"},
		"sim.compute_vs":     {virt(func(s sample) float64 { return s.res.ComputeElapsed.Seconds() }), "vs"},
		"sim.master_busy_vs": {virt(func(s sample) float64 { return s.res.MasterUsage.BusyElapsed.Seconds() }), "vs"},
		"cluster.competing_vs": {virt(func(s sample) float64 {
			var c time.Duration
			for _, u := range s.res.Usage {
				c += u.CompetingCPU
			}
			return c.Seconds()
		}), "vs"},
		"sim.efficiency": {virt(func(s sample) float64 {
			return metrics.Efficiency(rp.seqVirtual, s.res.Elapsed, s.res.Usage)
		}), "ratio"},
		"vtime.wall_per_virtual": {virt(func(s sample) float64 { return ratio(s.wall.Seconds(), s.res.Elapsed.Seconds()) }), "ratio"},

		"trace.overhead_frac": {ratio(median(traced), median(plain)) - 1, "ratio"},
	}
	if w.backend == backendTCP {
		// Off every other workload's path, and so 0 there.
		for k, v := range map[string]metric{
			"netrun.close_s":              {median(closes), "s"},
			"netrun.wedged_teardowns":     {float64(rp.b.wedged), "count"},
			"netrun.transport_overhead_s": {transport, "s"},
			"dlb.overlap_rounds":          {rp.counter("overlap_rounds"), "count"},
			"dlb.overlap_fallback":        {rp.counter("overlap_fallback"), "count"},
			"dlb.checkpoints":             {rp.counter("checkpoints"), "count"},
		} {
			ms[k] = v
		}
	}
	return ms
}

func busyFrac(s sample) float64 {
	var busy time.Duration
	for _, u := range s.res.Usage {
		busy += u.BusyElapsed
	}
	return ratio(busy.Seconds(), float64(len(s.res.Usage))*s.res.Elapsed.Seconds())
}

func busySpread(s sample) float64 {
	if len(s.res.Usage) == 0 {
		return 0
	}
	lo, hi := s.res.Usage[0].BusyElapsed, s.res.Usage[0].BusyElapsed
	for _, u := range s.res.Usage {
		lo, hi = min(lo, u.BusyElapsed), max(hi, u.BusyElapsed)
	}
	return ratio(hi.Seconds(), lo.Seconds())
}

func imbalance(s sample) float64 {
	var sum float64
	n := 0
	for _, l := range s.res.Loads {
		if l.Mean > 0 {
			sum += l.Max / l.Mean
			n++
		}
	}
	return ratio(sum, float64(n))
}

// print writes the human-readable table and then, as the last line, the
// JSON result.
func (rp *report) print(f *os.File) {
	b := rp.b
	bw := bufio.NewWriter(f)
	defer bw.Flush()
	mode := "end-to-end"
	ms := rp.endToEnd()
	if b.traced {
		mode = "traced per-layer"
		ms = rp.perLayer()
	}
	fmt.Fprintf(bw, "workload %s seed %d (%s run, %d timed repetitions over %v, %d setup samples, %s, %d CPUs)\n",
		b.w.name, b.seed, mode, len(rp.samples), b.seconds, len(rp.setups), runtime.Version(), runtime.NumCPU())
	errRate := ratio(float64(b.failed), float64(b.attempted))
	fmt.Fprintf(bw, "  %-30s %14.6f %s  (%d failed of %d attempted)\n", "error_rate", errRate, "ratio", b.failed, b.attempted)
	for msg, c := range b.reasons {
		fmt.Fprintf(bw, "    failure x%d: %s\n", c, msg)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "  %-30s %14.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if !b.traced && b.w.backend == backendSim {
		s := rp.samples[0].res
		fmt.Fprintf(bw, "  %-30s %14.6f %s\n", "virtual_makespan_s", s.Elapsed.Seconds(), "virtual s")
		fmt.Fprintf(bw, "  %-30s %14.6f %s\n", "efficiency", metrics.Efficiency(rp.seqVirtual, s.Elapsed, s.Usage), "ratio")
	}
	if rp.tracePath != "" {
		fmt.Fprintf(bw, "  trace: %s\n", rp.tracePath)
	}
	for k, v := range ms {
		if v.Value != v.Value || v.Value > 1e300 || v.Value < -1e300 {
			ms[k] = metric{0, v.Unit} // JSON has no NaN or infinity
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   !b.mismatch,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   ms,
	})
	fmt.Fprintln(bw, string(line))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
