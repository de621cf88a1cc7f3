package exp

import (
	"fmt"
	"time"

	"repro/internal/dlb"
	"repro/internal/loopir"
	"repro/internal/metrics"
	"repro/internal/netrun"
)

// NetRow is one (application, backend) measurement of the transport
// overhead comparison: the same compiled plan driven by the same master
// protocol over in-process goroutine channels versus real TCP sockets on
// loopback, against a timed one-slave run on the same kernel tier.
type NetRow struct {
	App     string
	Backend string // "goroutines" or "tcp-loopback"
	Slaves  int
	Seq     time.Duration // wall-clock same-tier one-slave baseline
	Par     time.Duration // wall-clock parallel run
	Speedup float64
	Phases  int
	Moves   int
	MaxDiff float64 // vs the sequential reference (must be 0)
}

// NetOverhead measures what moving from channels to sockets costs: each
// calibrated application runs once under dlb.RunReal (goroutine workers,
// the PR-1 runtime) and once under netrun (separate TCP endpoints over
// loopback, the distributed runtime's transport without the process
// boundary). Problem sizes at these scales are protocol-dominated, so the
// gap between the two backends is mostly framing, copying, and syscalls —
// the table quantifies the runtime's networking overhead, not the
// applications' scalability.
func NetOverhead(s Scale) ([]NetRow, error) {
	const slaves = 4
	apps := []struct {
		name string
		app  func(Scale) (*App, error)
	}{
		{"mm", MMApp},
		{"sor", SORApp},
	}
	var rows []NetRow
	for _, a := range apps {
		app, err := a.app(s)
		if err != nil {
			return nil, err
		}
		cfg := dlb.Config{
			Plan:        app.Plan,
			Params:      app.Params,
			DLB:         true,
			RealQuantum: 2 * time.Millisecond,
		}
		seq, ref, err := timedSequential(app, cfg)
		if err != nil {
			return nil, err
		}

		t0 := time.Now()
		gor, err := dlb.RunReal(cfg, slaves)
		if err != nil {
			return nil, err
		}
		realWall := time.Since(t0)
		rows = append(rows, netRow(a.name, "goroutines", slaves, seq, realWall, gor, ref))

		var srvs []*netrun.Server
		addrs := make([]string, slaves)
		for i := 0; i < slaves; i++ {
			srv, err := netrun.NewServer(netrun.ServerOptions{})
			if err != nil {
				return nil, err
			}
			go srv.Serve()
			srvs = append(srvs, srv)
			addrs[i] = srv.Addr()
		}
		t0 = time.Now()
		net, err := netrun.RunMaster(cfg, addrs, netrun.MasterOptions{})
		netWall := time.Since(t0)
		for _, srv := range srvs {
			srv.Close()
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, netRow(a.name, "tcp-loopback", slaves, seq, netWall, net, ref))
	}
	return rows, nil
}

// timedSequential times cfg's same-tier one-slave baseline under the wall
// clock and returns it with the sequential reference arrays.
func timedSequential(app *App, cfg dlb.Config) (time.Duration, map[string]*loopir.Array, error) {
	inst, err := loopir.NewInstance(app.Plan.Prog, app.Params)
	if err != nil {
		return 0, nil, err
	}
	if err := inst.Run(); err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if _, err := dlb.RunReal(cfg.SameTierBaseline(), 1); err != nil {
		return 0, nil, err
	}
	return time.Since(t0), inst.Arrays, nil
}

func netRow(name, backend string, slaves int, seq, wall time.Duration, res *dlb.Result, ref map[string]*loopir.Array) NetRow {
	worst := 0.0
	for arr, want := range ref {
		if got := res.Final[arr]; got != nil {
			if d := want.MaxAbsDiff(got); d > worst {
				worst = d
			}
		}
	}
	return NetRow{
		App:     name,
		Backend: backend,
		Slaves:  slaves,
		Seq:     seq,
		Par:     wall,
		Speedup: metrics.Speedup(seq, wall),
		Phases:  res.Phases,
		Moves:   res.Moves,
		MaxDiff: worst,
	}
}

// RenderNetOverhead formats the comparison.
func RenderNetOverhead(rows []NetRow) string {
	t := &metrics.Table{
		Title:   "Transport overhead — identical protocol over goroutine channels vs TCP loopback (wall clock)",
		Headers: []string{"app", "backend", "slaves", "t_seq", "t_par", "speedup", "phases", "moves", "maxdiff"},
	}
	for _, r := range rows {
		t.AddRowf(r.App, r.Backend, r.Slaves, r.Seq, r.Par, r.Speedup, r.Phases, r.Moves, fmt.Sprintf("%g", r.MaxDiff))
	}
	return t.String()
}
