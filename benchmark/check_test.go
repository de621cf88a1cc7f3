package main

import (
	"math"
	"testing"

	"repro/internal/loopir"
)

func referenceFor(t *testing.T, w *workload) map[string]*loopir.Array {
	t.Helper()
	src := w.source(7)
	plan, err := w.compile(src, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(plan.Prog, w.params)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func cloneArrays(in map[string]*loopir.Array) map[string]*loopir.Array {
	out := map[string]*loopir.Array{}
	for k, a := range in {
		out[k] = a.Clone()
	}
	return out
}

// A single flipped bit anywhere in a copied result must fail the check,
// including the lowest mantissa bit, which a tolerance would hide.
func TestCheckCatchesOneFlippedBit(t *testing.T) {
	ref := referenceFor(t, workloadByName("sor-sim-wave"))
	if err := checkOutputs(ref, cloneArrays(ref)); err != nil {
		t.Fatalf("identical copy rejected: %v", err)
	}
	for _, bit := range []uint{0, 31, 52, 63} {
		got := cloneArrays(ref)
		b := got["b"]
		i := len(b.Data) / 3
		b.Data[i] = math.Float64frombits(math.Float64bits(b.Data[i]) ^ 1<<bit)
		if err := checkOutputs(ref, got); err == nil {
			t.Errorf("bit %d flipped in b[%d] not caught", bit, i)
		}
	}
}

func TestCheckCatchesMissingAndShortArrays(t *testing.T) {
	ref := referenceFor(t, workloadByName("mm-aot-loaded"))
	got := cloneArrays(ref)
	delete(got, "c")
	if err := checkOutputs(ref, got); err == nil {
		t.Error("missing array c not caught")
	}
	got = cloneArrays(ref)
	got["a"].Data = got["a"].Data[:len(got["a"].Data)-1]
	if err := checkOutputs(ref, got); err == nil {
		t.Error("truncated array a not caught")
	}
	if err := checkOutputs(nil, got); err == nil {
		t.Error("empty reference accepted")
	}
}

// The seed must reach the program: different seeds give different
// inputs, the same seed the same inputs.
func TestSeedPicksSalts(t *testing.T) {
	w := workloadByName("jacobi-tcp")
	if w.source(1) != w.source(1) {
		t.Error("same seed gave different sources")
	}
	if w.source(1) == w.source(2) {
		t.Error("different seeds gave the same source")
	}
}
