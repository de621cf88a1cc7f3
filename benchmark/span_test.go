package main

import (
	"testing"
	"time"
)

// Self time subtracts the union of the children's intervals, clipped to
// the parent, so overlapping children are not counted twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 90, End: 120},
		{ID: 4, Parent: 2, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: 50, 1: 20, 2: 20, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
}

// Merged child spans get fresh ids and keep their parent links.
func TestMergeRemapsIDs(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	tr.end(root)
	tr.merge([]span{
		{ID: 0, Parent: -1, Name: "setup", Start: 0, End: 10},
		{ID: 2, Parent: 0, Name: "lang.Parse", Start: 1, End: 2},
	}, 2, time.Microsecond)
	next := tr.begin("after", -1)
	tr.end(next)
	got := tr.closed()
	if len(got) != 4 || next != 3 {
		t.Fatalf("got %d spans, next id %d", len(got), next)
	}
	for i, s := range got {
		if s.ID != i {
			t.Errorf("span %s has id %d at index %d", s.Name, s.ID, i)
		}
	}
	if got[2].Parent != 1 || got[1].Parent != -1 || got[2].Proc != 2 {
		t.Errorf("parent links or track lost: %+v", got[1:3])
	}
	if got[1].Start != int64(time.Microsecond) {
		t.Errorf("offset not applied: start %d", got[1].Start)
	}
}
