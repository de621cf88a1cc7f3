package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/loopir"
)

// The kernel experiment: how much of the slave's per-unit compute cost the
// compiled loop kernels remove, and how the multicore range kernels scale.
// Each library program is run three ways — the tree-walking interpreter
// (the differential oracle), the compiled VM kernel, and the AOT-built
// native kernel — plus a worker-count sweep of the parallel range kernel
// (VM and AOT) on the jacobi stencil, and a cold/warm start-latency table
// for the AOT build cache. The same
// comparisons exist as go benchmarks (BenchmarkKernel,
// BenchmarkRangeKernelWorkers in internal/loopir); this driver renders them
// as an experiment artifact plus machine-readable JSON.

// KernelRow is one benchmark measurement.
type KernelRow struct {
	Bench   string  `json:"bench"`   // e.g. "kernel/jacobi" or "workers/jacobi-sweep"
	Variant string  `json:"variant"` // "interp"/"kernel"/"aot" or "w=1".."aot-w=4"
	NsPerOp float64 `json:"ns_per_op"`
	Flops   int64   `json:"flops_per_op"`
	MFlops  float64 `json:"mflops"`
}

// AotStartRow is one AOT start-latency measurement: how long Build takes to
// hand back runnable kernels from each cache state.
type AotStartRow struct {
	// Phase is "cold" (toolchain runs), "warm-disk" (artifact reloaded
	// from the on-disk cache) or "warm-memo" (in-process memo hit).
	Phase string `json:"phase"`
	// Mode is the artifact kind, "plugin" or "exec".
	Mode   string  `json:"mode"`
	Millis float64 `json:"millis"`
}

// KernelReport is the experiment's result: all rows plus the
// baseline-over-optimized time ratios (">1" means the optimized tier wins).
// For "kernel/*" benches the baseline is the interpreter (and aot-vs-*
// entries compare the AOT tier to the interpreter and the VM kernel); for
// "workers/*" it is the single-worker kernel.
type KernelReport struct {
	// CPUs is runtime.NumCPU() on the measuring host. Worker-scaling rows
	// are meaningless without it: on a single-CPU box every w>1 row
	// flatlines at the w=1 rate, by construction rather than by defect.
	CPUs     int                `json:"cpus"`
	Note     string             `json:"note,omitempty"`
	Rows     []KernelRow        `json:"rows"`
	AotStart []AotStartRow      `json:"aot_start"`
	Speedups map[string]float64 `json:"speedups"`
}

// kernelRow runs fn under testing.Benchmark and records it.
func kernelRow(bench, variant string, flops int64, fn func(b *testing.B)) KernelRow {
	r := testing.Benchmark(fn)
	ns := float64(r.NsPerOp())
	mf := 0.0
	if ns > 0 {
		mf = float64(flops) / ns * 1e9 / 1e6
	}
	return KernelRow{Bench: bench, Variant: variant, NsPerOp: ns, Flops: flops, MFlops: mf}
}

// Kernel runs the loop-kernel microbenchmarks: interpreter vs VM kernel vs
// AOT kernel on the stencil (jacobi), pipelined (sor) and matrix-product
// (mm) programs, and the parallel range kernel's worker scaling on the
// jacobi sweep.
func Kernel(s Scale) (*KernelReport, error) {
	type bcase struct {
		name   string
		params map[string]int
	}
	cases := []bcase{
		{"jacobi", map[string]int{"n": 96, "maxiter": 2}},
		{"sor", map[string]int{"n": 96, "maxiter": 2}},
		{"mm", map[string]int{"n": 64}},
	}
	sweepN := 256
	if s.MM <= Quick.MM { // reduced scale for tests
		cases = []bcase{
			{"jacobi", map[string]int{"n": 32, "maxiter": 2}},
			{"sor", map[string]int{"n": 32, "maxiter": 2}},
			{"mm", map[string]int{"n": 24}},
		}
		sweepN = 64
	}
	rep := &KernelReport{CPUs: runtime.NumCPU(), Speedups: map[string]float64{}}
	switch {
	case rep.CPUs == 1:
		rep.Note = "single-CPU host: workers/* rows cannot scale and flatline at the w=1 rate"
	case rep.CPUs < 4:
		rep.Note = fmt.Sprintf("%d-CPU host: workers/* rows above w=%d cannot scale past the w=%d rate",
			rep.CPUs, rep.CPUs, rep.CPUs)
	}

	for _, c := range cases {
		prog := loopir.Library()[c.name]
		if prog == nil {
			return nil, fmt.Errorf("exp: unknown program %q", c.name)
		}
		flops := loopir.ExactFlops(prog.Body, c.params)
		bench := "kernel/" + c.name

		interpIn, err := loopir.NewInstance(prog, c.params)
		if err != nil {
			return nil, err
		}
		interp := kernelRow(bench, "interp", flops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := interpIn.Interpret(); err != nil {
					b.Fatal(err)
				}
			}
		})

		kernIn, err := loopir.NewInstance(prog, c.params)
		if err != nil {
			return nil, err
		}
		k, err := kernIn.CompileKernel(kernIn.Prog.Body)
		if err != nil {
			return nil, err
		}
		kernel := kernelRow(bench, "kernel", flops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Run(nil)
			}
		})

		aotIn, err := loopir.NewInstance(prog, c.params)
		if err != nil {
			return nil, err
		}
		ap, err := aot.Build(aot.Spec{Prog: prog, Params: c.params, WholeBody: true})
		if err != nil {
			return nil, fmt.Errorf("exp: aot build %s: %w", c.name, err)
		}
		bk, err := ap.Kernels[0].Bind(aotIn.Arrays)
		if err != nil {
			return nil, err
		}
		aotRow := kernelRow(bench, "aot", flops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bk.Run(0, 0, nil)
			}
		})

		rep.Rows = append(rep.Rows, interp, kernel, aotRow)
		if kernel.NsPerOp > 0 {
			rep.Speedups[bench] = interp.NsPerOp / kernel.NsPerOp
		}
		if aotRow.NsPerOp > 0 {
			rep.Speedups[bench+" aot-vs-interp"] = interp.NsPerOp / aotRow.NsPerOp
			rep.Speedups[bench+" aot-vs-kernel"] = kernel.NsPerOp / aotRow.NsPerOp
		}
	}

	// Worker scaling of the parallel range kernel on one jacobi sweep.
	params := map[string]int{"n": sweepN, "maxiter": 1}
	prog := loopir.Library()["jacobi"]
	in, err := loopir.NewInstance(prog, params)
	if err != nil {
		return nil, err
	}
	iter := in.Prog.Body[0].(*loopir.Loop)
	sweep := iter.Body[0].(*loopir.Loop)
	rk, err := in.CompileRangeKernel(sweep.Var, sweep.Body)
	if err != nil {
		return nil, err
	}
	if !rk.ParallelSafe() {
		return nil, fmt.Errorf("exp: jacobi sweep not parallel-safe: %s", rk.SeqReason())
	}
	sweepFlops := loopir.ExactFlops(sweep.Body, params) * int64(sweepN-2)
	bench := "workers/jacobi-sweep"
	var base, best float64
	for _, w := range []int{1, 2, 4} {
		w := w
		row := kernelRow(bench, fmt.Sprintf("w=%d", w), sweepFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rk.RunParallel(1, sweepN-1, nil, w)
			}
		})
		rep.Rows = append(rep.Rows, row)
		if w == 1 {
			base = row.NsPerOp
		}
		if best == 0 || row.NsPerOp < best {
			best = row.NsPerOp
		}
	}
	if best > 0 {
		rep.Speedups[bench] = base / best
	}

	// The same sweep through the AOT range kernel, to show the native
	// parallel path next to the VM one.
	sp, err := aot.Build(aot.Spec{
		Prog:    prog,
		Params:  params,
		Regions: []aot.Region{{DistVar: sweep.Var, Body: sweep.Body}},
	})
	if err != nil {
		return nil, fmt.Errorf("exp: aot build jacobi sweep: %w", err)
	}
	sbk, err := sp.Kernels[0].Bind(in.Arrays)
	if err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2, 4} {
		w := w
		row := kernelRow(bench, fmt.Sprintf("aot-w=%d", w), sweepFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sbk.RunParallel(1, sweepN-1, nil, w)
			}
		})
		rep.Rows = append(rep.Rows, row)
		if w == 1 && row.NsPerOp > 0 {
			rep.Speedups[bench+" aot-vs-kernel"] = base / row.NsPerOp
		}
	}

	if err := aotStartLatency(rep, prog, params); err != nil {
		return nil, err
	}
	return rep, nil
}

// aotStartLatency measures how long aot.Build takes from each cache state:
// cold (fresh cache directory, the toolchain runs), warm-disk (same
// directory, in-process memo cleared, artifact reloaded from disk) and
// warm-memo (repeat Build in the same process).
func aotStartLatency(rep *KernelReport, prog *loopir.Program, params map[string]int) error {
	dir, err := os.MkdirTemp("", "dlb-aot-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spec := aot.Spec{Prog: prog, Params: params, WholeBody: true, CacheDir: dir}
	for _, phase := range []string{"cold", "warm-disk", "warm-memo"} {
		if phase == "warm-disk" {
			aot.ClearMemory()
		}
		t0 := time.Now()
		p, err := aot.Build(spec)
		if err != nil {
			return fmt.Errorf("exp: aot start latency (%s): %w", phase, err)
		}
		rep.AotStart = append(rep.AotStart, AotStartRow{
			Phase:  phase,
			Mode:   p.Info.Mode,
			Millis: float64(time.Since(t0).Microseconds()) / 1e3,
		})
	}
	return nil
}

// RenderKernel formats the report as the experiment's text artifact.
func RenderKernel(rep *KernelReport) string {
	var sb strings.Builder
	sb.WriteString("Compiled loop kernels: interpreter vs VM kernel vs AOT, and worker scaling\n")
	sb.WriteString("(kernel/* speedup = interp/kernel; aot-vs-* = AOT over that tier; workers/* = one worker over the best)\n")
	fmt.Fprintf(&sb, "host CPUs: %d", rep.CPUs)
	if rep.Note != "" {
		fmt.Fprintf(&sb, " — %s", rep.Note)
	}
	sb.WriteString("\n\n")
	fmt.Fprintf(&sb, "%-22s %-8s %14s %16s %10s\n",
		"bench", "variant", "ns/op", "flops/op", "MFLOPS")
	prev := ""
	for _, r := range rep.Rows {
		if prev != "" && r.Bench != prev {
			sb.WriteString("\n")
		}
		prev = r.Bench
		fmt.Fprintf(&sb, "%-22s %-8s %14.0f %16d %10.1f\n",
			r.Bench, r.Variant, r.NsPerOp, r.Flops, r.MFlops)
	}
	sb.WriteString("\nspeedups:\n")
	keys := make([]string, 0, len(rep.Speedups))
	for k := range rep.Speedups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-38s %.2fx\n", k, rep.Speedups[k])
	}
	if len(rep.AotStart) > 0 {
		sb.WriteString("\naot start latency (build + load until kernels are runnable):\n")
		fmt.Fprintf(&sb, "  %-10s %-8s %10s\n", "phase", "mode", "ms")
		for _, r := range rep.AotStart {
			fmt.Fprintf(&sb, "  %-10s %-8s %10.2f\n", r.Phase, r.Mode, r.Millis)
		}
	}
	return sb.String()
}

// KernelJSON renders the machine-readable artifact (BENCH_kernel.json).
func KernelJSON(rep *KernelReport) string {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b) + "\n"
}
