package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of the traced pass: a harness call into a layer
// (layer = package name), or a harness phase that groups such calls.
// Count is the work done inside it (edges, ops, calls), recorded at the
// same boundary so rates are measured where the work happens.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
	Count    int64  `json:"count"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// harness goroutine only; a nil tracer records nothing, which is how the
// timed reps run.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Workload: t.workload,
		StartNs: int64(time.Since(t.t0)), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id (which must be the innermost open one) with its
// work count.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.spans[id].Count = count
	t.open = t.open[:len(t.open)-1]
}

// write stores the spans as dir/trace-<workload>.json; dir exists.
func (t *tracer) write(dir string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o666)
}
