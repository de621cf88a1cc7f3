package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's origin, and the span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Proc is the process track: 1 for this process, 2.. for the setup
	// child processes whose spans were merged in.
	Proc int `json:"proc"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced repetitions pass nil. Spans may be ended from a
// repetition goroutine the benchmark has abandoned, hence the mutex.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.origin)), End: -1, Proc: 1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.origin))
}

// add records an already measured interval [start, start+d) under parent:
// the AOT emit/build/load phases are timed inside aot.Build and reported
// on its BuildInfo.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := int64(start.Sub(t.origin))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s, End: s + int64(d), Proc: 1})
	return id
}

// merge adopts a child process's spans, parents first, onto process track
// proc. offset is the child's origin relative to ours.
func (t *tracer) merge(child []span, proc int, offset time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := map[int]int{} // child span id -> index here
	for _, s := range child {
		ids[s.ID] = len(t.spans)
		s.ID = len(t.spans)
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = -1
		}
		s.Start += int64(offset)
		s.End += int64(offset)
		s.Proc = proc
		t.spans = append(t.spans, s)
	}
}

// closed returns a copy of the finished spans (an abandoned repetition's
// spans may still be open).
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[int]time.Duration{}
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open. Each event carries its self time and parent in args.
func writeChrome(path string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "benchmark"}},
	}
	procs := map[int]bool{}
	for _, s := range spans {
		if s.Proc > 1 && !procs[s.Proc] {
			procs[s.Proc] = true
			events = append(events, event{Name: "process_name", Ph: "M", Pid: s.Proc,
				Args: map[string]any{"name": "setup child"}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: s.Proc, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"self_us": float64(self[s.ID]) / 1e3,
				"parent":  s.Parent,
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
