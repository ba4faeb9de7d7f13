package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run: a call into a layer,
// or a group of such calls. Spans of one run share the tracer's run
// ID; Parent links a span to the span that caused it (0 = root).
type span struct {
	ID, Parent int
	Name, Cat  string
	// Lane separates concurrent timelines (one per section or rank) in
	// the trace viewer.
	Lane       int
	Start, End time.Time
	Args       map[string]any
}

// tracer keeps spans in memory and writes them out once, at the end of
// the run, so recording costs two clock reads and an append. It is used
// from one goroutine at a time.
type tracer struct {
	runID  string
	origin time.Time
	spans  []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, origin: time.Now()}
}

// add records a finished span and returns its ID.
func (t *tracer) add(name, cat string, parent, lane int, start, end time.Time, args map[string]any) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cat: cat, Lane: lane,
		Start: start, End: end, Args: args})
	return id
}

// begin opens a span that end closes; the pair brackets one call.
func (t *tracer) begin(name, cat string, parent, lane int) int {
	return t.add(name, cat, parent, lane, time.Now(), time.Time{}, nil)
}

// end closes the span begin opened and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Now()
	return s.End.Sub(s.Start)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto). Each event's args carry the span's
// id, parent and run ID next to its own arguments; meta lands in the
// file's metadata object.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "run": t.runID}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: encoding %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
