package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent names the enclosing span ("" at the top).
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// recorder keeps the run's spans in memory; write dumps them when the
// run ends. A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// span records a call into a layer that started at t0 and ends now.
func (r *recorder) span(name, parent string, op int64, t0 time.Time) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: t0.Sub(r.epoch), Dur: end.Sub(t0)})
	r.mu.Unlock()
}

// durations returns every recorded duration of the named span.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ds []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, s.Dur)
		}
	}
	return ds
}

// spanMS is the q-quantile of the named span's durations in ms.
func (r *recorder) spanMS(name string, q float64) float64 {
	return ms(quantile(r.durations(name), q))
}

// write dumps the spans, in start order, as JSON lines.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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
