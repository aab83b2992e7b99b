package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (-1 for a root).
// Times are nanoseconds since the trace began.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once, at exit. The
// spans are recorded by the benchmark around its calls into each layer —
// the product carries no tracing of its own yet. A nil tracer records
// nothing, which is how the overhead of tracing is measured.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, request, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed self time and the span
// count. A span's self time is its duration minus the part of it that its
// child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]selfTime)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.SelfNS += s.End - s.Start - covered
		st.TotalNS += s.End - s.Start
		out[s.Name] = st
	}
	return out
}

// selfTime aggregates the spans of one name.
type selfTime struct {
	Count   int   `json:"count"`
	SelfNS  int64 `json:"self_ns"`
	TotalNS int64 `json:"total_ns"`
}

// meanTotalUS is the mean duration of the named spans in microseconds.
func (s selfTime) meanTotalUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNS) / float64(s.Count) / 1e3
}

// meanSelfUS is the mean self time of the named spans in microseconds.
func (s selfTime) meanSelfUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SelfNS) / float64(s.Count) / 1e3
}

// writeTrace stores the spans and their per-name summary as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"summary": selfTimes(spans), "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
