package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one host-time interval around a call into a layer. Spans of one
// simulated world share World; Parent is the ID of the enclosing span (0 at
// the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	World  int    `json:"world"`
	Name   string `json:"name"`
	// StartNs and EndNs are host nanoseconds since the recorder was made.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// spans times layer calls and keeps every span in memory. The untraced run
// takes its end-to-end numbers from the same spans; only a traced run
// writes them out.
type spans struct {
	base  time.Time
	list  []span
	world int
}

func newSpans() *spans { return &spans{base: time.Now()} }

// newWorld returns a fresh identifier for the spans of one simulated world.
func (s *spans) newWorld() int {
	s.world++
	return s.world
}

// start opens a span and returns its ID.
func (s *spans) start(name string, parent, world int) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, World: world, Name: name})
	sp := &s.list[len(s.list)-1]
	sp.StartNs = time.Since(s.base).Nanoseconds()
	return sp.ID
}

// stop closes span id and returns its duration.
func (s *spans) stop(id int) time.Duration {
	sp := &s.list[id-1]
	sp.EndNs = time.Since(s.base).Nanoseconds()
	return time.Duration(sp.EndNs - sp.StartNs)
}

// selfTime is one span name's total and self time: self is the total minus
// the part of each span's interval that its children cover.
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes aggregates the spans by name, largest self time first.
func (s *spans) selfTimes() []selfTime {
	children := make(map[int][]span)
	for _, sp := range s.list {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	agg := make(map[string]*selfTime)
	for _, sp := range s.list {
		st := agg[sp.Name]
		if st == nil {
			st = &selfTime{Name: sp.Name}
			agg[sp.Name] = st
		}
		total := sp.EndNs - sp.StartNs
		st.Count++
		st.TotalNs += total
		st.SelfNs += total - covered(sp, children[sp.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	cur := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, cur), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// spanFile is the document written at the end of a traced run.
type spanFile struct {
	Stamp stamp      `json:"stamp"`
	Self  []selfTime `json:"self_times"`
	Spans []span     `json:"spans"`
}

// write stores the spans and their self times as JSON at path.
func (s *spans) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(spanFile{Stamp: st, Self: s.selfTimes(), Spans: s.list}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// printSelf writes the self-time table to w, one span name a line.
func (s *spans) printSelf(w io.Writer) {
	fmt.Fprintf(w, "%-34s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range s.selfTimes() {
		fmt.Fprintf(w, "%-34s %6d %12.3f %12.3f\n", st.Name, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
	}
}
