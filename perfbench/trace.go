package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. The recorder is the benchmark's own and
// shares no code with the program's internal/obs, so tracing never runs
// code that is itself under measurement.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs call the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Since(r.t0)})
	return len(r.spans)
}

// end closes the span with the given id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0)
}

// add records a span whose bounds were taken by the caller.
func (r *recorder) add(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent int, fn func() error) error {
	id := r.begin(name, parent)
	err := fn()
	r.end(id)
	return err
}

// durations returns the durations, in seconds, of every span with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// unattributed is the share of the named root spans' time that their
// direct children do not account for. A child named in opaque accounts for
// its time less the given share of it.
func (r *recorder) unattributed(root string, opaque map[string]float64) float64 {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, covered time.Duration
	for _, s := range r.spans {
		if s.Name != root {
			continue
		}
		total += s.dur()
		covered += union(children[s.ID])
		for _, c := range children[s.ID] {
			covered -= time.Duration(float64(c.dur()) * opaque[c.Name])
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(covered)/float64(total)
}

// union is the length of the union of the spans' intervals.
func union(spans []span) time.Duration {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, end time.Duration
	for _, s := range spans {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
