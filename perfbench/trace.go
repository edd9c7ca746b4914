package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans the benchmark records around its calls into the
// program's layers. Spans stay in memory until the run ends and are then
// written out as one JSON file; nothing is printed while measuring.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span, or
// -1; Trace groups the spans of one search (or one job).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index. A nil tracer records
// nothing, so wrappers call it unconditionally.
func (t *tracer) add(name string, trace int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Trace: trace, Parent: -1,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// link makes every span of the given child names that lies inside a
// parent span of the same trace a child of it. Spans are recorded by
// different wrappers that cannot see one another, so parents are
// assigned by containment once the run is over.
func (t *tracer) link(parent string, children ...string) {
	isChild := map[string]bool{}
	for _, c := range children {
		isChild[c] = true
	}
	var parents []int
	for i, s := range t.spans {
		if s.Name == parent {
			parents = append(parents, i)
		}
	}
	sort.Slice(parents, func(a, b int) bool { return t.spans[parents[a]].Start < t.spans[parents[b]].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if !isChild[s.Name] {
			continue
		}
		// The last parent starting at or before the child.
		k := sort.Search(len(parents), func(j int) bool { return t.spans[parents[j]].Start > s.Start }) - 1
		if k < 0 {
			continue
		}
		p := t.spans[parents[k]]
		if p.Trace == s.Trace && s.End <= p.End {
			s.Parent = parents[k]
		}
	}
}

// selfTimes returns, per span name, the total time its spans spent
// outside their child spans, and the number of spans of that name.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self = map[string]time.Duration{}
	count = map[string]int{}
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		d -= covered(s, kids[i])
		self[s.Name] += time.Duration(d)
		count[s.Name]++
	}
	return self, count
}

// childTime returns, per child span name, the total duration of the spans
// whose parent is a span of the given name. Run link first.
func (t *tracer) childTime(parent string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// covered returns how much of p's interval the children cover (overlaps
// counted once).
func covered(p span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
	var total int64
	curS, curE := max(cs[0].Start, p.Start), min(cs[0].End, p.End)
	for _, c := range cs[1:] {
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if s > curE {
			total += max(0, curE-curS)
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + max(0, curE-curS)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
