package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
)

// Microbenchmarks of single layers for the traced run. Each runs for a
// fixed wall budget and reports a median over batches.

const microBudget = 300 * time.Millisecond

// wireShapes are the data-plane messages the workloads ship: a jacobi-tcp
// ghost row (one SliceMsg of n=256 values) and an mm-aot-loaded work
// movement (a WorkMsg of 16 columns of b and c, n=384).
func wireShapes(rng *rand.Rand) []wire.Envelope {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	ghost := dlb.SliceMsg{Unit: 17, RowLo: -1, RowHi: -1, Vals: vals(256)}
	work := dlb.WorkMsg{Data: map[string][][]float64{}}
	for u := 0; u < 16; u++ {
		work.Units = append(work.Units, 100+u)
	}
	for _, arr := range []string{"b", "c"} {
		for range work.Units {
			work.Data[arr] = append(work.Data[arr], vals(384))
		}
	}
	return []wire.Envelope{
		{Tag: "ghost:a", From: 0, Payload: ghost},
		{Tag: "work", From: 1, Payload: work},
	}
}

// sink is a connection end that discards writes.
type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }
func (sink) Read([]byte) (int, error)    { return 0, fmt.Errorf("sink: not readable") }

// replay is a connection end whose reads return one recorded frame over
// and over.
type replay struct {
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	if r.off == len(r.frame) {
		r.off = 0
	}
	n := copy(p, r.frame[r.off:])
	r.off += n
	return n, nil
}

func (r *replay) Write(p []byte) (int, error) { return len(p), nil }

// wireThroughput measures binary-codec Send (encode + frame) and Recv
// (read + decode) over in-memory connections, in MB/s of frame bytes
// across both message shapes. Every decoded message is checked against
// what was sent.
func wireThroughput(seed int64) (encMBs, decMBs float64, err error) {
	var encBytes, decBytes float64
	var encTime, decTime time.Duration
	for _, env := range wireShapes(rand.New(rand.NewSource(seed))) {
		var buf bytes.Buffer
		rec := wire.NewConn(&buf)
		rec.SetBinary(true)
		if err := rec.Send(env); err != nil {
			return 0, 0, err
		}
		frame := append([]byte(nil), buf.Bytes()...)

		enc := wire.NewConn(sink{})
		enc.SetBinary(true)
		t0 := time.Now()
		for time.Since(t0) < microBudget {
			if err := enc.Send(env); err != nil {
				return 0, 0, err
			}
			encBytes += float64(len(frame))
		}
		encTime += time.Since(t0)

		dec := wire.NewConn(&replay{frame: frame})
		t0 = time.Now()
		var got wire.Envelope
		for time.Since(t0) < microBudget {
			if got, err = dec.Recv(); err != nil {
				return 0, 0, err
			}
			decBytes += float64(len(frame))
		}
		decTime += time.Since(t0)
		if err := sameEnvelope(env, got); err != nil {
			return 0, 0, err
		}
	}
	return encBytes / 1e6 / encTime.Seconds(), decBytes / 1e6 / decTime.Seconds(), nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameEnvelope(want, got wire.Envelope) error {
	bad := fmt.Errorf("wire: %s message decoded differently from what was sent", want.Tag)
	if got.Tag != want.Tag || got.From != want.From {
		return bad
	}
	switch w := want.Payload.(type) {
	case dlb.SliceMsg:
		g, ok := got.Payload.(dlb.SliceMsg)
		if !ok || g.Unit != w.Unit || g.RowLo != w.RowLo || g.RowHi != w.RowHi || !sameFloats(g.Vals, w.Vals) {
			return bad
		}
	case dlb.WorkMsg:
		g, ok := got.Payload.(dlb.WorkMsg)
		if !ok || fmt.Sprint(g.Units) != fmt.Sprint(w.Units) || len(g.Data) != len(w.Data) {
			return bad
		}
		for arr, cols := range w.Data {
			if len(g.Data[arr]) != len(cols) {
				return bad
			}
			for i := range cols {
				if !sameFloats(g.Data[arr][i], cols[i]) {
					return bad
				}
			}
		}
	}
	return nil
}

// balancerStep times core.Balancer.Step on a block distribution of units
// over slaves with random rates, in microseconds per step.
func balancerStep(slaves, units int, restricted bool, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	bal := core.NewBalancer(core.DefaultConfig(slaves, restricted),
		core.NewBlockOwnership(units, slaves),
		core.NewMoveCostModel(time.Millisecond, 10*time.Microsecond))
	const batch = 100
	inputs := make([][]core.Status, batch)
	for i := range inputs {
		inputs[i] = make([]core.Status, slaves)
		for s := range inputs[i] {
			inputs[i][s] = core.Status{Rate: 50 + 100*rng.Float64(), InteractionCost: 100 * time.Microsecond}
		}
	}
	var per []float64
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		b0 := time.Now()
		for _, st := range inputs {
			bal.Step(st, float64(units))
		}
		per = append(per, time.Since(b0).Seconds()*1e6/batch)
	}
	return median(per)
}
