package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public function,
// or one HTTP round trip. The program itself is not instrumented: every span
// is recorded from outside, around the call.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`  // 0: a root span
	Request int64   `json:"request"` // operation index the span belongs to; -1: a layer probe
	Name    string  `json:"name"`
	StartUS float64 `json:"startUs"` // since the tracer's epoch
	EndUS   float64 `json:"endUs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int, request int64) int {
	if t == nil {
		return 0
	}
	now := us(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartUS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := us(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = now
}

// selfMS sums, per span name, each span's duration minus the time its child
// spans cover (children of one parent never overlap here: each parent issues
// its calls one after another).
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndUS - s.StartUS
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += (s.EndUS - s.StartUS - covered[s.ID]) / 1000
	}
	return self
}

// write dumps the spans and the per-name self times as one JSON document.
func (t *tracer) write(path string, header runHeader) error {
	doc := struct {
		Header runHeader          `json:"header"`
		SelfMS map[string]float64 `json:"selfMs"`
		Spans  []span             `json:"spans"`
	}{header, t.selfMS(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
