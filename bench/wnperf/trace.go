package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whatsnext/internal/sweep"
)

// span is one timed interval of a traced run, written as one JSONL line.
// Times are nanoseconds since the tracer was created.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory. A nil *tracer records nothing, so
// the untraced path pays only a nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent int64, attrs map[string]string) *openSpan {
	if t == nil {
		return nil
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name, Attrs: attrs}
	s.Start = int64(time.Since(t.t0))
	return &openSpan{t: t, s: s}
}

// id is the span's identifier (0 for a nil span, the root's parent).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cellRecord is one simulated cell of a traced round: its spec and the
// encoded result the engine returned. The probe replays these.
type cellRecord struct {
	Spec sweep.Spec
	Raw  json.RawMessage
}

// benchRunner is the sweep.Runner installed as Protocol.Runner. Untraced,
// it hands jobs straight to the engine. Traced, it opens a sweep.run span
// under the current study span, wraps each Job.Run in an experiments.cell
// span, and keeps every cell's spec and result for the probe.
type benchRunner struct {
	eng   *sweep.Engine
	tr    *tracer
	study int64 // id of the open experiments.<study> span
	cells []cellRecord
}

func (r *benchRunner) Run(jobs []sweep.Job) ([]json.RawMessage, error) {
	if r.tr == nil {
		return r.eng.Run(jobs)
	}
	run := r.tr.begin("sweep.run", r.study, map[string]string{"jobs": strconv.Itoa(len(jobs))})
	wrapped := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		j := j
		wrapped[i] = sweep.Job{Spec: j.Spec, Run: func() (any, error) {
			cell := r.tr.begin("experiments.cell", run.id(), specAttrs(j.Spec))
			defer cell.end()
			return j.Run()
		}}
	}
	raws, err := r.eng.Run(wrapped)
	run.end()
	if err == nil {
		for i, raw := range raws {
			r.cells = append(r.cells, cellRecord{Spec: jobs[i].Spec, Raw: raw})
		}
	}
	return raws, err
}

// specAttrs labels a cell span with the spec fields that identify it.
func specAttrs(s sweep.Spec) map[string]string {
	a := map[string]string{"experiment": s.Experiment, "kernel": s.Kernel, "variant": s.Variant}
	if s.Processor != "" {
		a["processor"] = s.Processor
	}
	if s.TraceSeed != 0 {
		a["trace_seed"] = strconv.FormatInt(s.TraceSeed, 10)
	}
	return a
}
