package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 for a root span
	Req    uint64 `json:"req,omitempty"`    // request, wave or day id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// aggregate stands in for spans too frequent to keep one by one.
type aggregate struct {
	Count   uint64 `json:"count"`    // calls
	TotalNS int64  `json:"total_ns"` // summed call time
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
	aggs   map[string]*aggregate
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: make(map[string]*aggregate)}
}

// id reserves a span id so children can name their parent before the
// parent has ended.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add folds n calls totalling d into the named aggregate.
func (t *tracer) add(name string, n uint64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &aggregate{}
		t.aggs[name] = a
	}
	a.Count += n
	a.TotalNS += int64(d)
	t.mu.Unlock()
}

// durations returns every span duration of the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Name    string  `json:"name"`     // span name
	Count   int     `json:"count"`    // spans of that name
	TotalMS float64 `json:"total_ms"` // summed durations
	SelfMS  float64 `json:"self_ms"`  // summed durations less child coverage
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of its interval that
// its children's intervals cover.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// report prints every layer's self time and writes the spans and
// aggregates to path.
func (t *tracer) report(path string) error {
	layers := t.selfTimes()
	for _, lt := range layers {
		fmt.Printf("trace: %-34s count %7d  total %10.3f ms  self %10.3f ms\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	names := make([]string, 0, len(t.aggs))
	for n := range t.aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := t.aggs[n]
		fmt.Printf("trace: %-34s count %7d  total %10.3f ms  (aggregated, no per-call spans)\n", n, a.Count, float64(a.TotalNS)/1e6)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Spans      []span                `json:"spans"`
		Aggregates map[string]*aggregate `json:"aggregates"`
		Layers     []layerTime           `json:"layers"`
	}{t.spans, t.aggs, layers})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("trace: %d spans written to %s\n", len(t.spans), path)
	}
	return err
}
