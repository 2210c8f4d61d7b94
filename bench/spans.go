package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Parent is the id
// of the span that caused it (0 = none); ids are unique within a recorder.
type span struct {
	ID     int
	Parent int
	TID    int
	Name   string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
}

// recorder is the bench's own span recorder. It is not obs.Trace: every
// goroutine appends to a buffer of its own (no lock, no shared clock read
// order to get wrong), and buffers are merged and sorted by start time once,
// when the run is over. A nil recorder and a nil track record nothing, so
// the same code runs untraced.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	tracks []*track
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// track is one goroutine's span buffer.
type track struct {
	rec   *recorder
	tid   int
	name  string
	spans []span
	stack []int // indices into spans of the open spans
}

// track registers a new per-goroutine buffer.
func (r *recorder) track(name string) *track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &track{rec: r, tid: len(r.tracks) + 1, name: name}
	r.tracks = append(r.tracks, t)
	return t
}

// begin opens a span under the innermost open span of this track and
// returns its id.
func (t *track) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	// Track number in the high bits keeps ids unique without a shared counter.
	id := t.tid<<24 | (len(t.spans) + 1)
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, TID: t.tid, Name: name, Start: time.Since(t.rec.origin)})
	return id
}

// end closes the innermost open span.
func (t *track) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = time.Since(t.rec.origin)
	t.stack = t.stack[:n]
}

// do runs f inside a span, closing it on every path.
func (t *track) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// all merges every track's closed spans, ordered by start time. Call it
// only after the goroutines that own the tracks have finished.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, t := range r.tracks {
		out = append(out, t.spans...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// spanSums reduces spans to total duration and total self time per name.
// Self time is a span's duration minus the duration of its direct children.
func spanSums(spans []span) (total, self map[string]time.Duration) {
	children := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		children[s.Parent] += s.End - s.Start
	}
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - children[s.ID]
	}
	return total, self
}

// chromeEvent is one "complete" event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// ui.perfetto.dev). Each event carries its span id and parent id in args.
func (r *recorder) writeChrome(w io.Writer) error {
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: []chromeEvent{}}
	if r != nil {
		r.mu.Lock()
		for _, t := range r.tracks {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: t.tid, Args: map[string]any{"name": t.name},
			})
		}
		r.mu.Unlock()
	}
	for _, s := range r.all() {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.TID,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
