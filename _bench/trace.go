package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself records nothing). Start and End
// are offsets from the tracer's origin; Parent is the ID of the span
// that caused this one (0 for a root); Flow is shared by every span of
// one flow, engine run, job or lint pass.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Flow   string        `json:"flow"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use (serve_mixed records from two client goroutines).
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(parent int, flow, name string) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Flow: flow, Name: name, Start: now, End: -1})
	return id
}

// End closes the span with the given ID.
func (t *Tracer) End(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Add records an already-measured span, for intervals the benchmark
// reads from the program's own timestamps (a job's queue and run time).
func (t *Tracer) Add(parent int, flow, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Flow: flow, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// Time runs fn inside a span.
func (t *Tracer) Time(parent int, flow, name string, fn func(id int) error) error {
	id := t.Begin(parent, flow, name)
	defer t.End(id)
	return fn(id)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap (parallel work under one parent), so coverage is
// the length of the union, clipped to the parent.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, v := range ivs {
		if curB < curA || v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfByName sums self time (seconds) per span name.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// durByName sums wall duration (seconds) per span name.
func durByName(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Dur().Seconds()
	}
	return out
}
